"""Shallow NLP pipeline over requirements text.

One `findall` turns a text into a stream of ``(gap, surface)`` pairs:
the whitespace before each token, and the token.  Combining marks are
glued onto their words on the stream, and one pass over it finds the
sentence breaks and gives every token its POS tag, lemma and stopword
flag; `Pipeline.tagged_lemmas` stops there.  `Pipeline.preprocess` also
chunks noun phrases from that stream, and builds each `Token` (offsets
are running sums of gap and surface lengths) only when `sentences` is
read, which `mine` and `keywords` never do.  Everything is rule-based
and deterministic: a curated most-frequent-tag lexicon with suffix
fallbacks does the tagging, and noun phrases are maximal matches of the
grammar ``DET? (ADJ|NOUN|PROPN|NUM)* (NOUN|PROPN)``.

The bundled word lists (stopwords, abbreviations, tag lexicon) are the
only configuration; a :class:`Pipeline` adds an optional lemmatizer.
All functions are pure.  A :class:`Pipeline`'s settings are immutable;
its only state is a bounded memo of answers the tagger would give again,
so it stays safe to share between threads.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from importlib import resources
from typing import Callable, Iterator, Mapping, Optional, Sequence

# InvalidEncoding stays importable from here
from .errors import InvalidEncoding, decode_utf8  # noqa: F401

# Coarse part-of-speech tag set.
NOUN = "NOUN"
PROPN = "PROPN"
VERB = "VERB"
ADJ = "ADJ"
ADV = "ADV"
DET = "DET"
ADP = "ADP"
PUNCT = "PUNCT"
NUM = "NUM"
OTHER = "OTHER"

COARSE_TAGS = frozenset(
    {NOUN, PROPN, VERB, ADJ, ADV, DET, ADP, PUNCT, NUM, OTHER}
)


@dataclass(frozen=True)
class Token:
    """One token with its span into the (normalized) source text."""

    surface: str
    start: int
    end: int
    pos: str = ""
    lemma: str = ""
    is_stopword: bool = False


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]
    text: str
    start: int = 0  # offset of `text` within the source document


@dataclass(frozen=True)
class NounPhrase:
    surface: str
    normalized: str


@dataclass(frozen=True)
class PreprocessedDoc:
    """A document's noun phrases, and the NFC text and tagged stream that
    its `sentences` are built from when they are first read."""

    noun_phrases: tuple[NounPhrase, ...]
    text: str = field(repr=False)
    tagged: tuple[tuple[str, str, bool], ...] = field(repr=False)
    opens: tuple[int, ...] = field(repr=False)

    @cached_property
    def sentences(self) -> tuple[Sentence, ...]:
        return tuple(_sentences(self.text, _token_stream(self.text),
                                self.tagged, self.opens))


# ---------------------------------------------------------------------------
# bundled data files


def _read_data_lines(name: str) -> tuple[str, ...]:
    text = resources.files("wikiharvest.data").joinpath(name).read_text("utf-8")
    return tuple(
        line.strip() for line in text.splitlines()
        if line.strip() and not line.startswith("#")
    )


@lru_cache(maxsize=None)
def default_stopwords() -> frozenset[str]:
    """The bundled English stopword list (lowercase)."""
    return frozenset(w.lower() for w in _read_data_lines("stopwords.txt"))


@lru_cache(maxsize=None)
def default_abbreviations() -> frozenset[str]:
    """Abbreviations whose trailing period never ends a sentence."""
    return frozenset(_read_data_lines("abbreviations.txt"))


@lru_cache(maxsize=None)
def default_tag_lexicon() -> Mapping[str, str]:
    """Most-frequent coarse tag per word, from the bundled lexicon file."""
    lex: dict[str, str] = {}
    for line in _read_data_lines("tag_lexicon.tsv"):
        word, _, tag = line.partition("\t")
        tag = tag.strip()
        if word and tag in COARSE_TAGS:
            lex.setdefault(word.lower(), tag)
    return lex


# ---------------------------------------------------------------------------
# token stream

# Words are runs of Unicode letters, i.e. word characters other than
# digits and "_" (UAX #29, https://unicode.org/reports/tr29/); combining
# marks are glued on afterwards by `_glue_marks`.
_WORD_RE = r"[^\W\d_]+(?:['\-][^\W\d_]+)*"
_NUMBER_RE = r"\d+(?:[.,]\d+)*"

# A stream is the ``(gap, surface)`` pair of every token of a text: the
# whitespace before the token, and the token.  A token's offsets are
# running sums of the gap and surface lengths before it.
Stream = list[tuple[str, str]]


@lru_cache(maxsize=None)
def _token_regex() -> re.Pattern[str]:
    """A whitespace gap, then one token: an abbreviation (longest first
    among those of its first letter), a number, a word or any other
    character."""
    by_first: dict[str, list[str]] = {}
    for abbreviation in sorted(default_abbreviations(),
                               key=lambda a: (-len(a), a)):
        by_first.setdefault(abbreviation[0], []).append(
            re.escape(abbreviation[1:]))
    abbreviations = "|".join(
        "%s(?:%s)" % (re.escape(first), "|".join(rests))
        for first, rests in sorted(by_first.items()))
    return re.compile(r"(\s*)(%s|%s|%s|\S)" % (abbreviations, _NUMBER_RE,
                                                _WORD_RE))


def _token_stream(text: str) -> Stream:
    """The ``(gap, surface)`` pairs of `text`, from one `findall`."""
    pairs = _token_regex().findall(text)
    if text.isascii() or not any(map(_is_mark, _SYMBOL_RE.findall(text))):
        return pairs
    return _glue_marks(pairs)


# A combining mark is neither a word character nor ASCII, so the regex
# above leaves it alone as a one-character token (re has no \p{M}).
_SYMBOL_RE = re.compile(r"[^\w\s\x00-\x7f]")


def _is_mark(surface: str) -> bool:
    return len(surface) == 1 and unicodedata.category(surface)[0] == "M"


def _glue_marks(pairs: Stream) -> Stream:
    """Glue each combining mark onto the word it follows with no gap, with
    the word run right after the mark, so "q", U+0307 and "uark" become
    one token."""
    out: Stream = []
    after_mark = False
    for gap, surface in pairs:
        mark = _is_mark(surface)
        if (not gap and out and out[-1][1][0].isalpha()
                and (mark or (after_mark and surface[0].isalpha()))):
            out[-1] = (out[-1][0], out[-1][1] + surface)
            after_mark = mark
        else:
            out.append((gap, surface))
            after_mark = False
    return out


def tokenize(text: str) -> list[Token]:
    """Split text into tokens covering every non-whitespace character.

    Punctuation marks become single-character tokens; listed abbreviations
    (e.g. "e.g.") keep their periods attached.
    """
    pairs = _token_stream(text)
    return [token for sentence in _sentences(text, pairs, [()] * len(pairs))
            for token in sentence.tokens]


# ---------------------------------------------------------------------------
# sentence splitter

_PARAGRAPH_GAP_RE = re.compile(r"\n[ \t\r]*\n")


def _sentence_break(gap: str, prev: str, surface: str) -> bool:
    """Whether `surface` opens a sentence after the token `prev` and the
    whitespace `gap` between them."""
    if "\n" in gap and _PARAGRAPH_GAP_RE.search(gap):
        return True
    return (prev[-1] in ".!?" and prev not in default_abbreviations()
            and gap != "" and (surface[0].isupper() or surface[0].isdigit()))


def _sentences(text: str, pairs: Stream, fields: Sequence[tuple],
               opens: Sequence[int] = ()) -> Iterator[Sentence]:
    """The sentences of `text`, whose stream is `pairs`: each index in
    `opens` opens one after the first, and each `Token` takes the fields
    after its offsets from `fields`.  No tokens make no sentence."""
    end = 0
    for i, j in zip([0, *opens], [*opens, len(pairs)] if pairs else []):
        tokens = []
        for (gap, surface), rest in zip(pairs[i:j], fields[i:j]):
            start = end + len(gap)
            end = start + len(surface)
            tokens.append(Token(surface, start, end, *rest))
        first = tokens[0].start
        yield Sentence(tokens=tuple(tokens), text=text[first:end], start=first)


def split_sentences(text: str) -> list[Sentence]:
    """Group text into sentences.

    A run of ``.!?`` followed by whitespace and an upper-case letter or
    digit ends a sentence, unless the preceding token is a known
    abbreviation; blank lines always end one.
    """
    pairs = _token_stream(text)
    _tagged, opens = _tag_stream(pairs, None, {})  # the pass finds the breaks
    return list(_sentences(text, pairs, [()] * len(pairs), opens))


# ---------------------------------------------------------------------------
# POS tagger

# Closed-class words are fixed here; open-class words come from the
# bundled most-frequent-tag lexicon with suffix rules as fallback.  A word
# listed under two tags takes the first.
_CLOSED_CLASS_WORDS = (
    (DET, "the a an this that these those each every either neither "
          "some any no all both another such many much most least few several "
          "various"),
    (ADP, "in of on at by for with to from into onto upon about above below "
          "under over between among through during before after against "
          "within without across along around behind beyond near toward "
          "towards via per off until since despite throughout"),
    (VERB, "is are was were be been being am has have had having do does did "
           "shall will should would may might must can could need ought"),
    (OTHER, "i you he she it we they me him her us them its his their our "
            "your my mine yours hers ours theirs itself himself herself "
            "themselves ourselves myself yourself who whom whose which what "
            "and or but nor so yet if while although because unless whereas "
            "whether when where as than that once "
            "not n't never also only just"),
)
_CLOSED_CLASS = {word: tag for tag, words in reversed(_CLOSED_CLASS_WORDS)
                 for word in words.split()}

_NOUN_SUFFIXES = ("tion", "sion", "ment", "ness", "ance", "ence", "ity",
                  "ship", "ism", "ure", "age")
_ADJ_SUFFIXES = ("ous", "ful", "ive", "ible", "able", "ical", "less", "ary")
_VERB_SUFFIXES = ("ize", "ise", "ify")

_NUMERIC_RE = re.compile(r"^\d+(?:[.,]\d+)*$")
_NO_ALNUM_RE = re.compile(r"^[^\w]+$", re.UNICODE)


# (suffix, replacement, shortest word it applies to), tried in order.
_STEM_RULES = (("ies", "y", 5), ("es", "", 4), ("s", "", 3))


def _stem_lookup(lower: str) -> Optional[str]:
    """Lexicon tag of a plural/3rd-person form via naive s-stripping."""
    for suffix, replacement, shortest in _STEM_RULES:
        if lower.endswith(suffix) and len(lower) >= shortest:
            tag = default_tag_lexicon().get(lower[:-len(suffix)] + replacement)
            if tag:
                return tag
    return None


def _suffix_tag(lower: str, prev_tag: str) -> str:
    if lower.endswith("ly"):
        return ADV
    if lower.endswith(_NOUN_SUFFIXES):
        return NOUN
    if lower.endswith(_ADJ_SUFFIXES):
        return ADJ
    if lower.endswith(_VERB_SUFFIXES):
        return VERB
    if lower.endswith("ed"):
        if prev_tag in (DET, ADJ, NUM):
            return ADJ
        return VERB
    if lower.endswith("ing"):
        if prev_tag == VERB:
            return VERB
        if prev_tag in (DET, ADJ):
            return ADJ
        return NOUN
    return NOUN


def pos_tag(sentence_tokens: Sequence[Token]) -> list[Token]:
    """Assign one coarse tag to every token; tagging is total."""
    # with no gaps, no break can split the tokens into two sentences
    tagged, _opens = _tag_stream([("", t.surface) for t in sentence_tokens],
                                 None, {})
    return [Token(t.surface, t.start, t.end, pos, t.lemma, t.is_stopword)
            for t, (pos, _lemma, _stop) in zip(sentence_tokens, tagged)]


# The most entries a pipeline's tagging memo holds before it is cleared:
# full of distinct words, it takes about 9 MiB.
MEMO_ENTRIES = 1 << 15

TagMemo = dict[tuple[str, str], tuple[str, str, bool]]


def _tag_stream(pairs: Stream, lemmatizer: Lemmatizer | None, memo: TagMemo
                ) -> tuple[list[tuple[str, str, bool]], list[int]]:
    """``(pos, lemma, is_stopword)`` of every token, and the index of each
    token that opens a sentence after the first.

    A break needs a terminator ending the previous surface or a newline
    in the gap, so only then is the rule checked.  A word's answer
    depends only on its surface and the previous tag, which is "" only
    for the word that opens a sentence, so `memo` keeps it under that
    pair."""
    tagged: list[tuple[str, str, bool]] = []
    opens: list[int] = []
    prev, prev_tag = " ", ""
    for gap, surface in pairs:
        if ((prev[-1] in ".!?" or "\n" in gap) and tagged
                and _sentence_break(gap, prev, surface)):
            opens.append(len(tagged))
            prev_tag = ""
        key = (surface, prev_tag)
        word = memo.get(key)
        if word is None:
            if len(memo) >= MEMO_ENTRIES:
                memo.clear()
            word = memo[key] = _tag_word(surface, prev_tag, lemmatizer)
        tagged.append(word)
        prev, prev_tag = surface, word[0]
    return tagged, opens


def _tag_word(surface: str, prev_tag: str,
              lemmatizer: Lemmatizer | None) -> tuple[str, str, bool]:
    lower = surface.lower()
    if _NUMERIC_RE.match(surface):
        tag = NUM
    elif _NO_ALNUM_RE.match(surface):
        tag = PUNCT
    else:
        tag = (_CLOSED_CLASS.get(lower) or default_tag_lexicon().get(lower)
               or _stem_lookup(lower))
        if tag is None:
            if prev_tag and surface[:1].isupper():
                tag = PROPN
            else:
                tag = _suffix_tag(lower, prev_tag)
    return tag, lemmatize(lower, tag, lemmatizer), lower in default_stopwords()


# ---------------------------------------------------------------------------
# lemmatizer

# A lemmatizer maps (surface, coarse tag) to a base form, or None when it
# has no answer; `lemmatize` then falls back to the lowercased surface.
Lemmatizer = Callable[[str, str], Optional[str]]


def lemmatize(surface: str, pos: str, lemmatizer: Lemmatizer | None = None) -> str:
    """Base form of a word, falling back to the lowercased surface."""
    lower = surface.lower()
    if lemmatizer is not None and pos in (NOUN, VERB, ADJ, ADV):
        base = lemmatizer(lower, pos)
        if base:
            return base
    return lower


# ---------------------------------------------------------------------------
# noun-phrase chunker


def chunk_noun_phrases(tagged_sentence: Sequence[Token],
                       lemmatizer: Lemmatizer | None = None) -> list[NounPhrase]:
    """Maximal noun phrases of a tagged sentence.

    Matches ``DET? (ADJ|NOUN|PROPN|NUM)* (NOUN|PROPN)``, then strips the
    determiner and boundary stopwords and lemmatizes the head noun.  A
    token without a lemma gets one here, and stopword flags are set from
    the bundled list before matching.
    """
    stopwords = default_stopwords()
    return list(_chunk(
        [t.surface for t in tagged_sentence],
        [(t.pos, t.lemma or lemmatize(t.surface, t.pos, lemmatizer),
          t.surface.lower() in stopwords) for t in tagged_sentence]))


# The chunk grammar over one character per tag: Det, Modifier, Noun head.
_NP_CODES = {DET: "D", ADJ: "M", NUM: "M", NOUN: "N", PROPN: "N"}
_NP_RE = re.compile(r"D?[MN]*N")


def _chunk(surfaces: Sequence[str], tagged: Sequence[tuple[str, str, bool]],
           opens: Sequence[int] = ()) -> Iterator[NounPhrase]:
    """Noun phrases of a tagged stream, within the sentences `opens` starts.
    A phrase's normalized words are those after a leading determiner, less
    boundary stopwords: lowercased surfaces, then the last word's lemma."""
    codes = "".join([_NP_CODES.get(pos, " ") for pos, _lemma, _stop in tagged])
    for start, end in zip([0, *opens], [*opens, len(codes)]):
        for match in _NP_RE.finditer(codes, start, end):
            i, stop = match.span()
            first = i + (codes[i] == "D")
            while first < stop and tagged[first][2]:
                first += 1
            while first < stop and tagged[stop - 1][2]:
                stop -= 1
            if first < stop:
                yield NounPhrase(
                    surface=" ".join(surfaces[i:match.end()]),
                    normalized=" ".join([
                        *(s.lower() for s in surfaces[first:stop - 1]),
                        tagged[stop - 1][1]]))


# ---------------------------------------------------------------------------
# pipeline


@dataclass(frozen=True)
class Pipeline:
    """Preprocessor with an optional lemmatizer.

    Tokenizes, then splits sentences and tags in one pass (POS tag,
    lemma, stopword flag), and chunks noun phrases from that stream; a
    document's tokens are built when its `sentences` are first read.
    Without a lemmatizer a lemma is the lowercased surface.

    Each pipeline keeps a memo of tagged words outside its equality and
    hash, and clears it when it holds `MEMO_ENTRIES`.  An entry is what
    tagging the word again would give, so output never depends on what
    the memo holds.  Threads that share a pipeline need no lock: a race
    at worst tags a word twice, or adds one entry per thread past the
    bound before the next clear.
    """

    lemmatizer: Lemmatizer | None = None
    _memo: TagMemo = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def preprocess(self, text: str | bytes, source_id: str = "") -> PreprocessedDoc:
        """Run the full pipeline over one document; `source_id` names it in
        an :class:`InvalidEncoding` error."""
        if isinstance(text, bytes):
            text = decode_utf8(text, source_id or "input")
        text = unicodedata.normalize("NFC", text)
        pairs = _token_stream(text)
        tagged, opens = _tag_stream(pairs, self.lemmatizer, self._memo)
        phrases = _chunk([surface for _gap, surface in pairs], tagged, opens)
        return PreprocessedDoc(tuple(phrases), text, tuple(tagged),
                               tuple(opens))

    def tagged_lemmas(self, text: str) -> list[tuple[str, str, bool]]:
        """``(pos, lemma, is_stopword)`` of every token, in order: what
        `preprocess` puts in its tokens, without building them or chunking."""
        return _tag_stream(_token_stream(unicodedata.normalize("NFC", text)),
                           self.lemmatizer, self._memo)[0]


@lru_cache(maxsize=None)
def default_pipeline() -> Pipeline:
    """The shared pipeline: no lemmatizer."""
    return Pipeline()


def content_tokens(text: str) -> list[str]:
    """Lowercased non-stopword word tokens (no tagging), for embeddings and
    title matching."""
    stopwords = default_stopwords()
    words = (surface.lower() for _gap, surface
             in _token_stream(unicodedata.normalize("NFC", text)))
    return [word for word in words if any(c.isalpha() for c in word)
            and word not in stopwords]
