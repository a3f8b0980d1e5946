"""WordNet 3.x flat-file lexicon: lemma membership and base-form search.

Reads the standard database layout (``index.noun``/``verb``/``adj``/``adv``
plus the ``*.exc`` exception lists).  Only lemma presence is kept; synsets,
glosses and pointers are ignored.  The base-form search follows the classic
morphy procedure: exception lists first, then iterated suffix detachment,
accepting the first candidate present in the index.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional

from .errors import WikiHarvestError, utf8_problem
from .preprocess import ADJ, ADV, NOUN, VERB


class MissingFile(WikiHarvestError):
    """A required WordNet database file is absent."""


class MalformedLine(WikiHarvestError):
    """A WordNet database line could not be parsed."""


_POS_FILES = {
    NOUN: ("index.noun", "noun.exc"),
    VERB: ("index.verb", "verb.exc"),
    ADJ: ("index.adj", "adj.exc"),
    ADV: ("index.adv", "adv.exc"),
}

# Standard morphy suffix-detachment rules, per part of speech.
DETACHMENT_RULES: Mapping[str, tuple[tuple[str, str], ...]] = {
    NOUN: (
        ("s", ""), ("ses", "s"), ("ves", "f"), ("xes", "x"), ("zes", "z"),
        ("ches", "ch"), ("shes", "sh"), ("men", "man"), ("ies", "y"),
    ),
    VERB: (
        ("s", ""), ("ies", "y"), ("es", "e"), ("es", ""),
        ("ed", "e"), ("ed", ""), ("ing", "e"), ("ing", ""),
    ),
    ADJ: (("er", ""), ("est", ""), ("er", "e"), ("est", "e")),
    ADV: (),
}


@dataclass(frozen=True)
class WordnetLexicon:
    """Immutable lemma index loaded from one WordNet directory."""

    entries: Mapping[str, frozenset[str]]          # pos -> lemmas
    exceptions: Mapping[str, Mapping[str, tuple[str, ...]]]  # pos -> form -> bases
    source_version: str = ""


def _word(field: str) -> str:
    return field.replace("_", " ").lower()


# Bytes decoded and split at a time.  Splitting a whole index file at
# once holds its text and all its lines together, about three times the
# file's size, and raises the peak memory of a run.
_CHUNK_BYTES = 1 << 16


def _runs(data: bytes) -> Iterator[tuple[int, bytes]]:
    """Runs of whole lines of about `_CHUNK_BYTES` of a database file's
    bytes, each with its offset."""
    start = 0
    while start < len(data):
        end = data.find(b"\n", start + _CHUNK_BYTES) + 1 or len(data)
        yield start, data[start:end]
        start = end


def _entry_lines(path: Path, data: bytes, runs: Iterable[tuple[int, bytes]],
                 expected: str, maxsplit: int = -1) -> Iterator[list[str]]:
    """The fields of each entry line of `runs` of `data`, the last holding
    the rest of the line after `maxsplit` splits, decoded and split into
    lines as text-mode `open` does: at "\n", "\r" and "\r\n" only
    (`str.splitlines` also splits at "\x0c", "\x85", "\u2028" and
    more).  Each run is decoded and split at once."""
    for start, run in runs:
        text = run.decode("utf-8", errors="surrogateescape")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        lines = text.split("\n")
        if not text.isascii():
            _check_lines(path, data, start, lines, expected)
        for line in lines:
            if not line.startswith(" ") and (
                    fields := line.split(None, maxsplit)):
                if len(fields) < 2:
                    _check_lines(path, data, start, lines, expected)
                yield fields


def _check_lines(path: Path, data: bytes, start: int, lines: list[str],
                 expected: str) -> None:
    """Raise `MalformedLine` naming the first of `lines`, the lines of the
    run at offset `start` of `data`, that is not valid UTF-8 or that holds
    a single field; license header lines start with a space and need only
    be UTF-8."""
    for index, line in enumerate(lines):
        problem = utf8_problem(line)
        if not problem and not line.startswith(" ") and len(line.split()) == 1:
            problem = f"expected {expected}"
        if problem:
            head = data[:start]
            lineno = (head.count(b"\n") + head.count(b"\r")
                      - head.count(b"\r\n") + index + 1)
            raise MalformedLine(f"{path}:{lineno}: {problem}")


# Whitespace that `str.split` splits at, other than " " and "\n".
_OTHER_SPACES = b"\t\r\x0b\x0c\x1c\x1d\x1e\x1f"
# At the start of every entry line (a header line starts with a space),
# its first field if it has a second, else "".
_LEMMA_RE = re.compile(r"\n(?=\S)(\S+(?= +\S)|)")


def _index_lemmas(path: Path, data: bytes) -> frozenset[str]:
    """The lemma of every entry line of an index file's bytes.

    A run of ASCII lines split only by " " and "\n" is read with one
    `findall`; any other run, or one with an entry line of a single
    field, goes line by line through `_entry_lines`, which raises at the
    first bad line."""
    lemmas: list[str] = []
    for start, run in _runs(data):
        if run.isascii() and not any(c in run for c in _OTHER_SPACES):
            found = _LEMMA_RE.findall("\n" + run.decode("ascii"))
            if "" not in found:
                if found:
                    lemmas += _word("\n".join(found)).split("\n")
                continue
        lemmas += (_word(fields[0]) for fields in _entry_lines(
            path, data, [(start, run)], "lemma and pos", maxsplit=1))
    return frozenset(lemmas)


def load_wordnet(directory_path: str | Path) -> WordnetLexicon:
    """Load the index and exception files from a WordNet directory.

    `source_version` digests the name and bytes of every file read, the
    exception lists included."""
    root = Path(directory_path)
    entries: dict[str, frozenset[str]] = {}
    exceptions: dict[str, dict[str, tuple[str, ...]]] = {}
    digest = hashlib.sha256()
    for pos, (index_name, exc_name) in _POS_FILES.items():
        index_path = root / index_name
        if not index_path.is_file():
            raise MissingFile(f"missing WordNet index file: {index_path}")
        data = index_path.read_bytes()
        digest.update(index_name.encode())
        digest.update(data)
        entries[pos] = _index_lemmas(index_path, data)
        exceptions[pos] = table = {}
        exc_path = root / exc_name
        if not exc_path.is_file():
            continue
        data = exc_path.read_bytes()
        digest.update(exc_name.encode())
        digest.update(data)
        for form, *bases in _entry_lines(exc_path, data, _runs(data),
                                         "inflected form and base form"):
            known = tuple(b for b in map(_word, bases) if b in entries[pos])
            if known:
                table[_word(form)] = known
    return WordnetLexicon(entries=entries, exceptions=exceptions,
                          source_version=digest.hexdigest()[:12])


def contains_lemma(lexicon: WordnetLexicon, phrase: str) -> bool:
    """True iff the full phrase is a lemma in any part-of-speech index."""
    norm = " ".join(phrase.lower().split())
    return bool(norm) and any(norm in lemmas
                              for lemmas in lexicon.entries.values())


def morphy(lexicon: WordnetLexicon, surface: str, pos: str) -> Optional[str]:
    """Base form of `surface` for the given POS, or None if not found.

    Checks the exception list, then applies detachment rules repeatedly,
    returning the first candidate that exists in the index.
    """
    entries = lexicon.entries.get(pos)
    form = " ".join(surface.lower().split())
    if entries is None or not form:
        return None

    exceptional = lexicon.exceptions.get(pos, {}).get(form)
    if exceptional:
        for candidate in (form,) + exceptional:
            if candidate in entries:
                return candidate
        return None

    forms = [form]
    while forms:
        for candidate in forms:
            if candidate in entries:
                return candidate
        forms = [f[:-len(old)] + new
                 for f in forms for old, new in DETACHMENT_RULES[pos]
                 if f.endswith(old)]
    return None


def make_lemmatizer(lexicon: WordnetLexicon):
    """Adapter giving the preprocess pipeline a (surface, pos) lemmatizer.
    It keeps no cache: a `Pipeline`'s tagging memo keeps its answers."""
    def lemmatizer(surface: str, pos: str) -> Optional[str]:
        return morphy(lexicon, surface, pos)
    return lemmatizer
