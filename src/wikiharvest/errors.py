"""Shared exception base for the package, and the UTF-8 checks of input
files and of lines read with errors="surrogateescape".

Module-specific exceptions subclass :class:`WikiHarvestError` next to the
code that raises them; the CLI maps any of them to exit status 1.
"""

import re
from typing import Optional

# A byte that is not UTF-8, as the "surrogateescape" error handler reads it.
_UNDECODABLE_RE = re.compile("[\udc80-\udcff]")


class WikiHarvestError(Exception):
    """Base class for all errors raised by wikiharvest."""


class InvalidEncoding(WikiHarvestError):
    """Input bytes are not decodable as UTF-8 text."""


def decode_utf8(data: bytes, name: object) -> str:
    """The text of a whole input file; `name` names it in the
    :class:`InvalidEncoding` raised for its first byte that is not UTF-8."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidEncoding(
            f"{name}: not valid UTF-8 (byte 0x{data[exc.start]:02x} "
            f"at offset {exc.start})") from None


def utf8_problem(text: str) -> Optional[str]:
    """Why `text`, decoded with errors="surrogateescape", is not valid
    UTF-8, naming its first undecodable byte; None if it is."""
    if text.isascii() or not (bad := _UNDECODABLE_RE.search(text)):
        return None
    return "not valid UTF-8 (byte 0x%02x)" % (ord(bad.group()) - 0xdc00)
