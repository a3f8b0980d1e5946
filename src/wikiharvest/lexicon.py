"""WordNet 3.x flat-file lexicon: lemma membership and base-form search.

Reads the standard database layout (``index.noun``/``verb``/``adj``/``adv``
plus the ``*.exc`` exception lists).  Only lemma presence is kept; synsets,
glosses and pointers are ignored.  The base-form search follows the classic
morphy procedure: exception lists first, then iterated suffix detachment,
accepting the first candidate present in the index.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Mapping, Optional

from .errors import WikiHarvestError, utf8_problem
from .preprocess import ADJ, ADV, MEMO_ENTRIES, NOUN, VERB


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


def _entry_lines(path: Path, data: bytes, expected: str, maxsplit: int = -1
                 ) -> Iterator[list[str]]:
    """The fields of each entry line of a database file's bytes, the last
    holding the rest of the line after `maxsplit` splits, decoded and split
    into lines as text-mode `open` does: at "\\n", "\\r" and "\\r\\n"
    only (`str.splitlines` also splits at "\\x0c", "\\x85", "\\u2028" and
    more).  Each run of whole lines of about `_CHUNK_BYTES` is decoded and
    split at once."""
    start, lineno = 0, 1
    while start < len(data):
        end = data.find(b"\n", start + _CHUNK_BYTES) + 1 or len(data)
        text = data[start:end].decode("utf-8", errors="surrogateescape")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        lines = text.split("\n")
        if not text.isascii():
            _check_lines(path, lines, lineno, expected)
        for line in lines:
            if not line.startswith(" ") and (
                    fields := line.split(None, maxsplit)):
                if len(fields) < 2:
                    _check_lines(path, lines, lineno, expected)
                yield fields
        start, lineno = end, lineno + len(lines) - 1


def _check_lines(path: Path, lines: list[str], lineno: int,
                 expected: str) -> None:
    """Raise `MalformedLine` naming the first of `lines`, numbered from
    `lineno`, that is not valid UTF-8 or that holds a single field;
    license header lines start with a space and need only be UTF-8."""
    for lineno, line in enumerate(lines, lineno):
        if problem := utf8_problem(line):
            raise MalformedLine(f"{path}:{lineno}: {problem}")
        if not line.startswith(" ") and len(line.split()) == 1:
            raise MalformedLine(f"{path}:{lineno}: expected {expected}")


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
        entries[pos] = frozenset(
            _word(fields[0])
            for fields in _entry_lines(index_path, data, "lemma and pos",
                                       maxsplit=1))
        exceptions[pos] = table = {}
        exc_path = root / exc_name
        if not exc_path.is_file():
            continue
        data = exc_path.read_bytes()
        digest.update(exc_name.encode())
        digest.update(data)
        for form, *bases in _entry_lines(exc_path, data,
                                         "inflected form and base form"):
            known = tuple(b for b in map(_word, bases) if b in entries[pos])
            if known:
                table[_word(form)] = known
    return WordnetLexicon(entries=entries, exceptions=exceptions,
                          source_version=digest.hexdigest()[:12])


def _normalize_phrase(phrase: str) -> str:
    return " ".join(phrase.lower().split())


def contains_lemma(lexicon: WordnetLexicon, phrase: str) -> bool:
    """True iff the full phrase is a lemma in any part-of-speech index."""
    norm = _normalize_phrase(phrase)
    if not norm:
        return False
    return any(norm in lemmas for lemmas in lexicon.entries.values())


def morphy(lexicon: WordnetLexicon, surface: str, pos: str) -> Optional[str]:
    """Base form of `surface` for the given POS, or None if not found.

    Checks the exception list, then applies detachment rules repeatedly,
    returning the first candidate that exists in the index.
    """
    entries = lexicon.entries.get(pos)
    if entries is None:
        return None
    form = _normalize_phrase(surface)
    if not form:
        return None
    rules = DETACHMENT_RULES[pos]

    exceptional = lexicon.exceptions.get(pos, {}).get(form)
    if exceptional:
        for candidate in (form,) + exceptional:
            if candidate in entries:
                return candidate
        return None

    def apply_rules(forms: list[str]) -> list[str]:
        return [f[: -len(old)] + new
                for f in forms
                for old, new in rules
                if f.endswith(old)]

    forms = apply_rules([form])
    for candidate in [form] + forms:
        if candidate in entries:
            return candidate
    while forms:
        forms = apply_rules(forms)
        for candidate in forms:
            if candidate in entries:
                return candidate
    return None


def make_lemmatizer(lexicon: WordnetLexicon):
    """Adapter giving the preprocess pipeline a (surface, pos) lemmatizer,
    with `morphy`'s answer cached per ``(surface, pos)``, for the
    `MEMO_ENTRIES` most recent pairs."""
    @lru_cache(maxsize=MEMO_ENTRIES)
    def lemmatizer(surface: str, pos: str) -> Optional[str]:
        return morphy(lexicon, surface, pos)
    return lemmatizer
