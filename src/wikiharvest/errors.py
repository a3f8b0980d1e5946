"""Shared exception base for the package, and the UTF-8 check of lines
read with errors="surrogateescape".

Module-specific exceptions subclass :class:`WikiHarvestError` next to the
code that raises them; the CLI maps any of them to exit status 1.
"""

import re
from typing import Optional

# A byte that is not UTF-8, as the "surrogateescape" error handler reads it.
_UNDECODABLE_RE = re.compile("[\udc80-\udcff]")


class WikiHarvestError(Exception):
    """Base class for all errors raised by wikiharvest."""


def utf8_problem(text: str) -> Optional[str]:
    """Why `text`, decoded with errors="surrogateescape", is not valid
    UTF-8, naming its first undecodable byte; None if it is."""
    if text.isascii() or not (bad := _UNDECODABLE_RE.search(text)):
        return None
    return "not valid UTF-8 (byte 0x%02x)" % (ord(bad.group()) - 0xdc00)
