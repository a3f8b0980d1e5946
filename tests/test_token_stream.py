"""The token stream against a reference built from token spans.

The reference is the span-based tokenizer, sentence splitter and tagging
pass the stream replaced: `finditer` spans with their offsets, marks
glued by offset, and a break rule that slices the gap out of the text.
Tokens, offsets, sentence bounds and tags must come out the same.
"""

import re
import string
import unicodedata
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from test_preprocess import fixture_texts
from wikiharvest import preprocess
from wikiharvest.preprocess import (Pipeline, content_tokens,
                                    default_abbreviations, default_stopwords,
                                    split_sentences, tokenize)

# ---------------------------------------------------------------------------
# reference


@lru_cache(maxsize=None)
def ref_token_regex():
    abbreviations = sorted(default_abbreviations(), key=lambda a: (-len(a), a))
    return re.compile("|".join([
        "(?:%s)" % "|".join(map(re.escape, abbreviations)),
        preprocess._NUMBER_RE, preprocess._WORD_RE, r"\S"]))


REF_SYMBOL_RE = re.compile(r"[^\w\s\x00-\x7f]")


def ref_token_spans(text):
    spans = [(m.group(), m.start(), m.end())
             for m in ref_token_regex().finditer(text)]
    if text.isascii():
        return spans
    marks = {m.start() for m in REF_SYMBOL_RE.finditer(text)
             if unicodedata.category(m.group()).startswith("M")}
    return ref_glue_marks(spans, marks) if marks else spans


def ref_glue_marks(spans, marks):
    out = []
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


REF_TERMINATOR_RE = re.compile(r"[.!?]+$")
REF_PARAGRAPH_GAP_RE = re.compile(r"\n[ \t\r]*\n")


def ref_is_sentence_break(text, prev, nxt):
    prev_surface, _, prev_end = prev
    surface, start, _ = nxt
    gap = text[prev_end:start]
    if REF_PARAGRAPH_GAP_RE.search(gap):
        return True
    if not REF_TERMINATOR_RE.search(prev_surface):
        return False
    if prev_surface in default_abbreviations():
        return False
    if not gap or not gap.isspace():
        return False
    first = surface[0]
    return first.isupper() or first.isdigit()


def ref_sentence_bounds(text, spans):
    first = 0
    for k in range(1, len(spans)):
        if ref_is_sentence_break(text, spans[k - 1], spans[k]):
            yield first, k
            first = k
    if spans:
        yield first, len(spans)


def ref_tag_sentence(words, lemmatizer):
    tagged = []
    prev_tag = ""
    for surface in words:
        word = preprocess._tag_word(surface, prev_tag, lemmatizer)
        tagged.append(word)
        prev_tag = word[0]
    return tagged


def ref_tagged_sentences(text, lemmatizer):
    spans = ref_token_spans(text)
    for i, j in ref_sentence_bounds(text, spans):
        sentence = spans[i:j]
        yield sentence, ref_tag_sentence([s for s, _, _ in sentence],
                                         lemmatizer)


# ---------------------------------------------------------------------------
# generated texts

ABBREVIATIONS = sorted(default_abbreviations())
PIECES = ["The", "rover", "Stops", "is", "A", "I", "x", "3.5", "12,000",
          "1.2.3", "42", "don't", "'tis", "co-op", "-", "'", "--", ",",
          "(", ")", "Z\xfcrich", "\u0141\xf3d\u017a", "S\xe3o",
          "\u041c\u043e\u0441\u043a\u0432\u0430", "l'\xe9cole",
          "Caf\xe9", "cafe\u0301", "q\u0307uark", "\u0301", "\u0307",
          "\u0301x", "1\u0307", ".\u0307", "e\u0301\u0307a",
          "\u0928\u092e\u0938\u094d\u0924\u0947", "_", "x_y", "\xb2",
          "\xbd"]
# Paragraph gaps with "\r" and "\t", and Unicode whitespace: no-break
# space, next line, line separator, file separator.
SEPARATORS = ["", " ", "  ", "\n", "\n\n", "\n \n", "\n\r\n", "\r\n\r\n",
              "\n\t\n", " \n \t\r\n ", "\r", "\t", "\xa0", "\x85", "\u2028",
              "\x1c", "\n\xa0\n", "\n\x85\n", "\n\u2028\n"]
MARKS = "\u0301\u0307"
pieces = st.one_of(
    st.sampled_from(ABBREVIATIONS),
    st.sampled_from(PIECES),
    st.text(alphabet=".!?", min_size=1, max_size=4),
    st.text(alphabet="0123456789'-.,", min_size=1, max_size=5),
    st.text(alphabet="aZ\xe9e.'-" + MARKS, min_size=1, max_size=5),
)
texts = st.lists(st.tuples(pieces, st.sampled_from(SEPARATORS)),
                 max_size=40).map(lambda parts: "".join(map("".join, parts)))


def stream_check(text, pipeline=Pipeline()):
    """Tokens, sentence bounds and tags of `text` against the reference."""
    spans = ref_token_spans(text)
    assert [(t.surface, t.start, t.end) for t in tokenize(text)] == spans
    bounds = list(ref_sentence_bounds(text, spans))
    assert [[(t.surface, t.start, t.end) for t in s.tokens]
            for s in split_sentences(text)] == [spans[i:j] for i, j in bounds]

    nfc = unicodedata.normalize("NFC", text)
    reference = list(ref_tagged_sentences(nfc, pipeline.lemmatizer))
    doc = pipeline.preprocess(text)
    assert [[(t.surface, t.start, t.end, t.pos, t.lemma, t.is_stopword)
             for t in s.tokens] for s in doc.sentences] == \
        [[span + tagged for span, tagged in zip(sentence, tags)]
         for sentence, tags in reference]
    for sentence in doc.sentences:
        for token in sentence.tokens:
            assert nfc[token.start:token.end] == token.surface
    assert pipeline.tagged_lemmas(text) == \
        [tagged for _sentence, tags in reference for tagged in tags]
    stopwords = default_stopwords()
    assert content_tokens(text) == [
        surface.lower() for surface, _, _ in ref_token_spans(nfc)
        if any(c.isalpha() for c in surface)
        and surface.lower() not in stopwords]


class TestTokenStream:
    @given(texts)
    @settings(max_examples=400, deadline=None)
    def test_generated_texts(self, wn_pipeline, text):
        stream_check(text, wn_pipeline)

    @given(st.text(alphabet=string.printable + "\xa0\x85\u2028\x1c\xe9\xc9"
                   + MARKS, max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_any_characters(self, text):
        stream_check(text)

    def test_fixture_texts(self, wn_pipeline):
        for text in fixture_texts():
            stream_check(text, wn_pipeline)

    def test_abbreviation_regex_grouped_by_first_letter(self):
        # one alternative per first letter, longest first inside it
        for abbreviation in ABBREVIATIONS:
            assert [t.surface for t in tokenize(abbreviation + "x")] == \
                [abbreviation, "x"]
        assert [t.surface for t in tokenize("Eqs. Eq. Figs. Fig.")] == \
            ["Eqs.", "Eq.", "Figs.", "Fig."]
