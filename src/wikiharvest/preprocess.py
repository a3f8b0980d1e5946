"""Shallow NLP pipeline over requirements text.

The pipeline tokenizes, splits sentences, tags each sentence in one pass
that gives every token its POS tag, lemma and stopword flag, and chunks
noun phrases.  `Pipeline.tagged_lemmas` runs the same tagging pass but
builds no `Token` and chunks nothing.  Everything is rule-based and
deterministic: a curated most-frequent-tag lexicon with suffix fallbacks
does the tagging, and noun phrases are maximal matches of the grammar
``DET? (ADJ|NOUN|PROPN|NUM)* (NOUN|PROPN)``.

The bundled word lists (stopwords, abbreviations, tag lexicon) are the
only configuration; a :class:`Pipeline` adds an optional lemmatizer.
All functions are pure.  A :class:`Pipeline`'s settings are immutable;
its only state is a bounded memo of answers the tagger would give again,
so it stays safe to share between threads.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field, replace
from functools import lru_cache
from importlib import resources
from typing import Callable, Iterator, Mapping, Optional, Sequence

from .errors import WikiHarvestError

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

_NP_MODIFIER = frozenset({ADJ, NOUN, PROPN, NUM})
_NP_HEAD = frozenset({NOUN, PROPN})


class InvalidEncoding(WikiHarvestError):
    """Input bytes are not decodable as UTF-8 text."""


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
    sentences: tuple[Sentence, ...]
    noun_phrases: tuple[NounPhrase, ...]


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
# tokenizer

# Words are runs of Unicode letters, i.e. word characters other than
# digits and "_" (UAX #29, https://unicode.org/reports/tr29/); combining
# marks are glued on afterwards by `_glue_marks`.
_WORD_RE = r"[^\W\d_]+(?:['\-][^\W\d_]+)*"
_NUMBER_RE = r"\d+(?:[.,]\d+)*"


@lru_cache(maxsize=None)
def _token_regex() -> re.Pattern[str]:
    """Abbreviations (longest first), numbers, words, any other character."""
    abbreviations = sorted(default_abbreviations(), key=lambda a: (-len(a), a))
    return re.compile("|".join([
        "(?:%s)" % "|".join(map(re.escape, abbreviations)),
        _NUMBER_RE, _WORD_RE, r"\S"]))


def tokenize(text: str) -> list[Token]:
    """Split text into tokens covering every non-whitespace character.

    Punctuation marks become single-character tokens; listed abbreviations
    (e.g. "e.g.") keep their periods attached.
    """
    return [Token(*span) for span in _token_spans(text)]


def _token_spans(text: str) -> list[tuple[str, int, int]]:
    """``(surface, start, end)`` of every token; no `Token` is built."""
    spans = [(m.group(), m.start(), m.end())
             for m in _token_regex().finditer(text)]
    if text.isascii():
        return spans
    marks = {m.start() for m in _SYMBOL_RE.finditer(text)
             if unicodedata.category(m.group()).startswith("M")}
    return _glue_marks(spans, marks) if marks else spans


# A combining mark is neither a word character nor ASCII, so the regex
# above leaves it alone as a one-character token (re has no \p{M}).
_SYMBOL_RE = re.compile(r"[^\w\s\x00-\x7f]")


def _glue_marks(spans: list[tuple[str, int, int]], marks: set[int]
                ) -> list[tuple[str, int, int]]:
    """Glue each combining mark (a start offset in `marks`) onto the word
    that ends where it begins, with the word run right after the mark, so
    "q", U+0307 and "uark" become one token."""
    out: list[tuple[str, int, int]] = []
    mark_end = -1
    for span in spans:
        surface, start, end = span
        glue = start in marks or (start == mark_end and surface[0].isalpha())
        if glue and out and out[-1][2] == start and out[-1][0][0].isalpha():
            prev, prev_start, _ = out[-1]
            out[-1] = (prev + surface, prev_start, end)
            if start in marks:
                mark_end = end
        else:
            out.append(span)
    return out


# ---------------------------------------------------------------------------
# sentence splitter

_TERMINATOR_RE = re.compile(r"[.!?]+$")
_PARAGRAPH_GAP_RE = re.compile(r"\n[ \t\r]*\n")


def _is_sentence_break(text: str, prev: tuple[str, int, int],
                       nxt: tuple[str, int, int]) -> bool:
    prev_surface, _, prev_end = prev
    surface, start, _ = nxt
    gap = text[prev_end:start]
    if _PARAGRAPH_GAP_RE.search(gap):
        return True
    if not _TERMINATOR_RE.search(prev_surface):
        return False
    if prev_surface in default_abbreviations():
        return False
    if not gap or not gap.isspace():
        return False
    first = surface[0]
    return first.isupper() or first.isdigit()


def _sentence_bounds(text: str, spans: Sequence[tuple[str, int, int]]
                     ) -> Iterator[tuple[int, int]]:
    """Index ranges ``[i, j)`` of `spans` that form one sentence each.

    A break needs a terminator ending the previous surface or a newline
    in the gap (a surface holds none), so only then is it checked."""
    first = 0
    for k in range(1, len(spans)):
        prev, nxt = spans[k - 1], spans[k]
        if ((prev[0][-1] in ".!?" or "\n" in text[prev[2]:nxt[1]])
                and _is_sentence_break(text, prev, nxt)):
            yield first, k
            first = k
    if spans:
        yield first, len(spans)


def split_sentences(text: str) -> list[Sentence]:
    """Group text into sentences.

    A run of ``.!?`` followed by whitespace and an upper-case letter or
    digit ends a sentence, unless the preceding token is a known
    abbreviation; blank lines always end one.
    """
    spans = _token_spans(text)
    return [_make_sentence(text, tuple(Token(*span) for span in spans[i:j]))
            for i, j in _sentence_bounds(text, spans)]


def _make_sentence(text: str, toks: tuple[Token, ...]) -> Sentence:
    start, end = toks[0].start, toks[-1].end
    return Sentence(tokens=toks, text=text[start:end], start=start)


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
    tagged = _tag_sentence([t.surface for t in sentence_tokens], None, {})
    return [replace(tok, pos=pos)
            for tok, (pos, _lemma, _stop) in zip(sentence_tokens, tagged)]


# The most entries a pipeline's tagging memo holds before it is cleared,
# and the size of a WordNet lemmatizer's cache: full of distinct words,
# the two take about 15 MiB.
MEMO_ENTRIES = 1 << 15

TagMemo = dict[tuple[str, str], tuple[str, str, bool]]


def _tag_sentence(words: Sequence[str], lemmatizer: Lemmatizer | None,
                  memo: TagMemo) -> list[tuple[str, str, bool]]:
    """``(pos, lemma, is_stopword)`` of every word of one sentence.

    A word's answer depends only on its surface and the previous tag,
    which is "" only for the word that opens the sentence, so `memo`
    keeps it under that pair."""
    tagged: list[tuple[str, str, bool]] = []
    prev_tag = ""
    for surface in words:
        key = (surface, prev_tag)
        word = memo.get(key)
        if word is None:
            if len(memo) >= MEMO_ENTRIES:
                memo.clear()
            word = memo[key] = _tag_word(surface, prev_tag, lemmatizer)
        tagged.append(word)
        prev_tag = word[0]
    return tagged


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


def _strip_boundary_stopwords(tokens: list[Token]) -> list[Token]:
    while tokens and tokens[0].is_stopword:
        tokens = tokens[1:]
    while tokens and tokens[-1].is_stopword:
        tokens = tokens[:-1]
    return tokens


def _normalize_np(tokens: Sequence[Token],
                  lemmatizer: Lemmatizer | None) -> Optional[str]:
    kept = [t for t in tokens if t.pos != DET]
    kept = _strip_boundary_stopwords(list(kept))
    if not kept:
        return None
    words = [t.surface.lower() for t in kept[:-1]]
    head = kept[-1]
    head_lemma = head.lemma or lemmatize(head.surface, head.pos, lemmatizer)
    words.append(head_lemma)
    return " ".join(words)


def chunk_noun_phrases(tagged_sentence: Sequence[Token],
                       lemmatizer: Lemmatizer | None = None) -> list[NounPhrase]:
    """Maximal noun phrases of a tagged sentence.

    Matches ``DET? (ADJ|NOUN|PROPN|NUM)* (NOUN|PROPN)``, then strips the
    determiner and boundary stopwords and lemmatizes the head noun.
    Stopword flags are set from the bundled list before matching.
    """
    stopwords = default_stopwords()
    return _chunk([replace(t, is_stopword=t.surface.lower() in stopwords)
                   for t in tagged_sentence], lemmatizer)


def _chunk(toks: Sequence[Token],
           lemmatizer: Lemmatizer | None) -> list[NounPhrase]:
    """Noun phrases of tagged tokens whose stopword flags are already set."""
    phrases: list[NounPhrase] = []
    n = len(toks)
    i = 0
    while i < n:
        j = i + 1 if toks[i].pos == DET else i
        last_head = -1
        k = j
        while k < n and toks[k].pos in _NP_MODIFIER:
            if toks[k].pos in _NP_HEAD:
                last_head = k
            k += 1
        if last_head < 0:
            i = max(k, i + 1)
            continue
        span = toks[i:last_head + 1]
        normalized = _normalize_np(span, lemmatizer)
        if normalized:
            phrases.append(NounPhrase(
                surface=" ".join(t.surface for t in span),
                normalized=normalized,
            ))
        i = last_head + 1
    return phrases


# ---------------------------------------------------------------------------
# pipeline


@dataclass(frozen=True)
class Pipeline:
    """Preprocessor with an optional lemmatizer.

    Tokenizes, splits sentences, tags each sentence in one pass (POS tag,
    lemma, stopword flag) and chunks noun phrases.  Without a lemmatizer
    a lemma is the lowercased surface.

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

    def _tagged_sentences(self, text: str) -> Iterator[tuple[
            list[tuple[str, int, int]], list[tuple[str, str, bool]]]]:
        """Each sentence's token spans and ``(pos, lemma, is_stopword)``."""
        spans = _token_spans(text)
        for i, j in _sentence_bounds(text, spans):
            sentence = spans[i:j]
            yield sentence, _tag_sentence([s for s, _, _ in sentence],
                                          self.lemmatizer, self._memo)

    def preprocess(self, text: str | bytes, source_id: str = "") -> PreprocessedDoc:
        """Run the full pipeline over one document; `source_id` names it in
        an :class:`InvalidEncoding` error."""
        if isinstance(text, bytes):
            try:
                text = text.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise InvalidEncoding(
                    f"{source_id or 'input'}: not valid UTF-8 ({exc})") from exc
        text = unicodedata.normalize("NFC", text)

        sentences: list[Sentence] = []
        noun_phrases: list[NounPhrase] = []
        for spans, tagged in self._tagged_sentences(text):
            tokens = tuple(
                Token(surface, start, end, pos, lemma, is_stopword)
                for (surface, start, end), (pos, lemma, is_stopword)
                in zip(spans, tagged))
            sentences.append(_make_sentence(text, tokens))
            noun_phrases.extend(_chunk(tokens, self.lemmatizer))
        return PreprocessedDoc(sentences=tuple(sentences),
                               noun_phrases=tuple(noun_phrases))

    def tagged_lemmas(self, text: str) -> Iterator[tuple[str, str, bool]]:
        """``(pos, lemma, is_stopword)`` of every token, in order: what
        `preprocess` puts in its tokens, without building them or chunking."""
        for _spans, tagged in self._tagged_sentences(
                unicodedata.normalize("NFC", text)):
            yield from tagged


@lru_cache(maxsize=None)
def default_pipeline() -> Pipeline:
    """The shared pipeline: no lemmatizer."""
    return Pipeline()


def content_tokens(text: str) -> list[str]:
    """Lowercased non-stopword word tokens (no tagging), for embeddings and
    title matching."""
    stopwords = default_stopwords()
    words = (surface.lower() for surface, _start, _end
             in _token_spans(unicodedata.normalize("NFC", text)))
    return [word for word in words if any(c.isalpha() for c in word)
            and word not in stopwords]
