"""Preprocessing pipeline: tokenizer, splitter, tagger, lemmatizer, chunker."""

import json
import string
import sys
import threading
import unicodedata
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikiharvest import preprocess
from wikiharvest.lexicon import make_lemmatizer
from wikiharvest.preprocess import (ADJ, ADV, DET, NOUN, NUM, PROPN, PUNCT,
                                    VERB, COARSE_TAGS, InvalidEncoding,
                                    NounPhrase, Pipeline, Token,
                                    chunk_noun_phrases, content_tokens,
                                    default_abbreviations, default_pipeline,
                                    default_stopwords, lemmatize, pos_tag,
                                    split_sentences, tokenize)


def surfaces(tokens):
    return [t.surface for t in tokens]


FIXTURES = Path(__file__).parent / "fixtures"


def fixture_texts():
    """The railway and transport fixture texts: RS files and articles."""
    texts = [p.read_text("utf-8") for p in sorted(FIXTURES.glob("*_rs.txt"))]
    texts += [p.read_text("utf-8") for p in
              sorted((FIXTURES / "transport_corpus" / "articles").iterdir())]
    graph = json.loads((FIXTURES / "railway_graph.json").read_text("utf-8"))
    texts += [art["text"] for art in graph["articles"].values()]
    return texts


# Words the tagger, lemmatizer and chunker treat differently, plus
# abbreviations, numbers and punctuation the splitter looks at.
PIECES = ["The", "the", "a", "lunar", "rover", "Rovers", "rovers", "stops",
          "communications", "transmitted", "signalling", "is", "applied",
          "other", "trains", "Train", "quickly", "brake", "e.g.", "Mr.",
          "fig.", "3.5", "42", ".", "!", "?", ",", "-", "'", "Zürich",
          "Café", "cafe\u0301", "Łódź", "Москва", "São", "l'école",
          "नमस्ते"]
generated_texts = st.lists(
    st.tuples(st.one_of(st.sampled_from(PIECES),
                        st.text(alphabet="abXY.,!?'-07 é", min_size=1,
                                max_size=6)),
              st.sampled_from([" ", " ", "", "\n", "\n\n", ".  "])),
    max_size=40).map(lambda parts: "".join(p + sep for p, sep in parts))


# Pieces for the chunker property: the words above, every listed
# abbreviation, non-ASCII letters and combining marks NFC cannot compose
# (a lone mark, or one after a word or a digit).
CHUNK_PIECES = PIECES + sorted(default_abbreviations()) + [
    "\u0307", "\u094d", "\u05b8", "\u064e", "q\u0307uark", "שָׁלוֹם"]
chunk_texts = st.lists(
    st.tuples(st.one_of(st.sampled_from(CHUNK_PIECES),
                        st.text(alphabet="aBé\u0301ßЖक\u094d.,?3 ",
                                min_size=1, max_size=5)),
              st.sampled_from([" ", "", "\n\n", " \n\t\n ", ".  ", "\n"])),
    max_size=50).map(lambda parts: "".join(p + sep for p, sep in parts))


def reference_sentences(text, pipeline):
    """Tokens built by the public stage functions, one sentence at a time."""
    text = unicodedata.normalize("NFC", text)
    return [tuple(replace(t, lemma=lemmatize(t.surface, t.pos,
                                             pipeline.lemmatizer),
                          is_stopword=t.surface.lower() in default_stopwords())
                  for t in pos_tag(sent.tokens))
            for sent in split_sentences(text)]


def reference_chunk(tokens):
    """The chunk grammar as a loop over tagged tokens whose lemmas and
    stopword flags are set: at each token, a determiner if there is one,
    then the longest run of modifiers, cut after its last head.  The
    normalized words leave out the determiner and boundary stopwords and
    end in the head's lemma."""
    phrases, i, n = [], 0, len(tokens)
    while i < n:
        j = i + 1 if tokens[i].pos == DET else i
        k, last_head = j, -1
        while k < n and tokens[k].pos in (ADJ, NUM, NOUN, PROPN):
            if tokens[k].pos in (NOUN, PROPN):
                last_head = k
            k += 1
        if last_head < 0:
            i = max(k, i + 1)
            continue
        kept = tokens[j:last_head + 1]
        while kept and kept[0].is_stopword:
            kept = kept[1:]
        while kept and kept[-1].is_stopword:
            kept = kept[:-1]
        if kept:
            phrases.append(NounPhrase(
                " ".join(t.surface for t in tokens[i:last_head + 1]),
                " ".join([*(t.surface.lower() for t in kept[:-1]),
                          kept[-1].lemma])))
        i = last_head + 1
    return phrases


def check_single_pass(text, pipeline):
    doc = pipeline.preprocess(text)
    expected = reference_sentences(text, pipeline)
    assert [s.tokens for s in doc.sentences] == expected
    assert list(doc.noun_phrases) == [
        np for sent in expected
        for np in chunk_noun_phrases(sent, pipeline.lemmatizer)]
    assert list(doc.noun_phrases) == [
        np for sent in expected for np in reference_chunk(sent)]
    assert list(pipeline.tagged_lemmas(text)) == [
        (t.pos, t.lemma, t.is_stopword)
        for s in doc.sentences for t in s.tokens]
    assert content_tokens(text) == [
        t.surface.lower() for s in doc.sentences for t in s.tokens
        if any(c.isalpha() for c in t.surface) and not t.is_stopword]


class TestTokenize:
    def test_whitespace_and_punctuation_split(self):
        assert surfaces(tokenize("The rover stops.")) == \
            ["The", "rover", "stops", "."]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_abbreviation_kept_whole(self):
        got = surfaces(tokenize("trainborne equipment, e.g., brakes"))
        assert got == ["trainborne", "equipment", ",", "e.g.", ",", "brakes"]

    def test_numbers_stay_whole(self):
        assert surfaces(tokenize("within 3.5 seconds")) == \
            ["within", "3.5", "seconds"]

    def test_every_non_space_char_covered_once(self):
        text = "A sentence, with (brackets) and e.g. symbols + 12,000."
        toks = tokenize(text)
        covered = [False] * len(text)
        for t in toks:
            assert t.start < t.end
            assert text[t.start:t.end] == t.surface
            for i in range(t.start, t.end):
                assert not covered[i], "overlapping token spans"
                covered[i] = True
        for i, ch in enumerate(text):
            assert covered[i] == (not ch.isspace())

    @pytest.mark.parametrize("text, words", [
        ("Zürich", ["Zürich"]), ("Łódź", ["Łódź"]), ("Москва", ["Москва"]),
        ("São Paulo", ["São", "Paulo"]), ("l'école", ["l'école"])])
    def test_non_ascii_words_stay_whole(self, text, words):
        assert surfaces(tokenize(text)) == words

    # Combining marks that NFC cannot compose: a virama and a vowel sign,
    # a dot above, Arabic and Hebrew points.
    COMBINING = ["नमस्ते", "q\u0307uark", "كَتَبَ", "שָׁלוֹם"]

    @pytest.mark.parametrize("word", COMBINING)
    def test_combining_marks_stay_inside_words(self, word, wn_pipeline):
        nfc = unicodedata.normalize("NFC", word)
        assert surfaces(tokenize(word)) == [word]
        doc = wn_pipeline.preprocess(word)
        assert [t.surface for s in doc.sentences for t in s.tokens] == [nfc]
        assert content_tokens(word) == [nfc.lower()]

    def test_combining_mark_after_non_word_stays_apart(self):
        assert surfaces(tokenize("1\u0307 .\u0307")) == \
            ["1", "\u0307", ".", "\u0307"]

    def test_content_tokens_keep_non_ascii_words(self):
        assert content_tokens("The Zürich tram of São Paulo") == \
            ["zürich", "tram", "são", "paulo"]

    @given(st.text(alphabet=string.printable, max_size=200))
    @settings(max_examples=200)
    def test_round_trip_property(self, text):
        toks = tokenize(text)
        # spans are monotonically increasing and separated by whitespace
        rebuilt = []
        pos = 0
        for t in toks:
            gap = text[pos:t.start]
            assert gap.strip() == ""
            rebuilt.append(gap)
            rebuilt.append(t.surface)
            pos = t.end
        rebuilt.append(text[pos:])
        assert "".join(rebuilt) == text


class TestSplitSentences:
    def test_two_single_letter_sentences(self):
        assert len(split_sentences("A. B.")) == 2

    def test_abbreviation_does_not_split(self):
        sents = split_sentences("It uses e.g. brakes. It stops.")
        assert len(sents) == 2
        assert sents[0].text == "It uses e.g. brakes."

    def test_no_terminator_single_sentence(self):
        assert len(split_sentences("no terminator here at all")) == 1

    def test_blank_line_splits(self):
        sents = split_sentences("first requirement\n\nsecond requirement")
        assert len(sents) == 2

    def test_lowercase_after_period_does_not_split(self):
        assert len(split_sentences("See fig. 4 vs. the baseline.")) == 1

    def test_sentences_partition_tokens(self):
        text = "One sentence. A second one! And a third? Done."
        sents = split_sentences(text)
        assert len(sents) == 4
        all_tokens = [s for sent in sents for s in surfaces(sent.tokens)]
        assert all_tokens == surfaces(tokenize(text))

    def test_token_concatenation_reproduces_sentence_text(self):
        text = "The unit  shall stop. The door closes."
        for sent in split_sentences(text):
            pos = sent.start
            rebuilt = []
            for t in sent.tokens:
                rebuilt.append(text[pos:t.start])
                rebuilt.append(t.surface)
                pos = t.end
            assert "".join(rebuilt) == sent.text


class TestPosTag:
    def tag_of(self, text, word):
        toks = pos_tag(tokenize(text))
        return next(t.pos for t in toks if t.surface == word)

    def test_transmitted_in_verbal_position(self):
        assert self.tag_of("The data is transmitted to the server.",
                           "transmitted") == VERB

    def test_determiner(self):
        assert self.tag_of("the rover", "the") == DET

    def test_suffix_noun(self):
        assert self.tag_of("The notification arrives.", "notification") == NOUN

    def test_past_participle_as_modifier(self):
        assert self.tag_of("the transmitted message", "transmitted") == ADJ

    def test_imperative_verb(self):
        toks = pos_tag(tokenize("Stop immediately."))
        assert [t.pos for t in toks] == [VERB, ADV, PUNCT]

    def test_tagging_is_total(self):
        text = "Weird zxqv 12 e.g. Überraschung -- ok?"
        for t in pos_tag(tokenize(text)):
            assert t.pos in COARSE_TAGS

    def test_keeps_each_token_lemma_and_stopword_flag(self):
        toks = [Token("The", 0, 3, lemma="le", is_stopword=False),
                Token("rovers", 4, 10, pos=VERB, lemma="rover",
                      is_stopword=True)]
        assert pos_tag(toks) == [
            Token("The", 0, 3, DET, "le", False),
            Token("rovers", 4, 10, NOUN, "rover", True)]

    def test_deterministic(self):
        text = "The braking system shall stop the train within 5 seconds."
        a = [t.pos for t in pos_tag(tokenize(text))]
        b = [t.pos for t in pos_tag(tokenize(text))]
        assert a == b


class TestLemmatize:
    def test_plural_noun(self, mini_wordnet):
        from wikiharvest.lexicon import make_lemmatizer
        lem = make_lemmatizer(mini_wordnet)
        assert lemmatize("communications", NOUN, lem) == "communication"

    def test_past_tense_verb(self, mini_wordnet):
        from wikiharvest.lexicon import make_lemmatizer
        lem = make_lemmatizer(mini_wordnet)
        assert lemmatize("transmitted", VERB, lem) == "transmit"

    def test_base_form_unchanged(self, mini_wordnet):
        from wikiharvest.lexicon import make_lemmatizer
        lem = make_lemmatizer(mini_wordnet)
        assert lemmatize("rover", NOUN, lem) == "rover"

    def test_without_lexicon_lowercases(self):
        assert lemmatize("Rovers", NOUN, None) == "rovers"


class TestChunker:
    def nps(self, text, pipeline):
        return [np.normalized for np in pipeline.preprocess(text).noun_phrases]

    def test_notification_service(self, wn_pipeline):
        assert "notification service" in \
            self.nps("The notification service shall run.", wn_pipeline)

    def test_lunar_rover(self, wn_pipeline):
        assert "lunar rover" in \
            self.nps("The lunar rover stops on command.", wn_pipeline)

    def test_sentence_without_nouns(self, wn_pipeline):
        assert self.nps("Stop immediately.", wn_pipeline) == []

    def test_determiner_stripped(self, wn_pipeline):
        got = self.nps("The rover moves. A rover waits.", wn_pipeline)
        assert got == ["rover", "rover"]

    def test_head_lemmatized_modifiers_verbatim(self, wn_pipeline):
        assert "lunar rovers" not in \
            self.nps("The lunar rovers stop.", wn_pipeline)
        assert "lunar rover" in self.nps("The lunar rovers stop.", wn_pipeline)

    def test_boundary_stopwords_stripped(self):
        assert "other" in default_stopwords()
        toks = [
            Token("other", 0, 5, pos=NOUN),
            Token("trains", 6, 12, pos=NOUN),
        ]
        nps = chunk_noun_phrases(toks, None)
        assert [np.normalized for np in nps] == ["trains"]

    def test_stopwords_stripped_at_both_ends(self):
        # "other" and "further" are stopwords the tagger takes for nouns
        doc = Pipeline().preprocess("The other brake further. Stop.")
        assert [(np.surface, np.normalized) for np in doc.noun_phrases] == \
            [("The other brake further", "brake")]

    def test_given_lemma_is_kept(self):
        toks = [Token("lunar", 0, 5, pos=ADJ),
                Token("Rovers", 6, 12, pos=NOUN, lemma="rover")]
        [np] = chunk_noun_phrases(toks, None)
        assert (np.surface, np.normalized) == ("lunar Rovers", "lunar rover")

    def test_no_boundary_stopwords_invariant(self, wn_pipeline):
        stop = default_stopwords()
        doc = wn_pipeline.preprocess(
            "The very same brake shall be applied by all other units.")
        for np in doc.noun_phrases:
            words = np.normalized.split()
            assert words[0] not in stop and words[-1] not in stop


class TestPipeline:
    def test_empty_string(self, wn_pipeline):
        doc = wn_pipeline.preprocess("", source_id="empty")
        assert doc.sentences == () and doc.noun_phrases == ()

    def test_single_line(self, wn_pipeline):
        doc = wn_pipeline.preprocess(
            "The trainborne equipment shall stop the train.")
        assert len(doc.sentences) == 1
        assert "trainborne equipment" in \
            [np.normalized for np in doc.noun_phrases]

    def test_deterministic(self, wn_pipeline):
        text = "The onboard unit sends a position report. It stops."
        assert wn_pipeline.preprocess(text) == wn_pipeline.preprocess(text)

    def test_invalid_encoding(self, wn_pipeline):
        with pytest.raises(InvalidEncoding):
            wn_pipeline.preprocess(b"\xff\xfe\x00bad")

    def test_bytes_accepted(self, wn_pipeline):
        doc = wn_pipeline.preprocess("The train stops.".encode("utf-8"))
        assert len(doc.sentences) == 1

    def test_stopword_marking(self, wn_pipeline):
        doc = wn_pipeline.preprocess("The brake is applied by the driver.")
        stop = default_stopwords()
        for sent in doc.sentences:
            for tok in sent.tokens:
                assert tok.is_stopword == (tok.surface.lower() in stop)

    def test_normalized_reachable_from_surface(self, wn_pipeline):
        doc = wn_pipeline.preprocess(
            "The main signalling system shall monitor the red signals.")
        for np in doc.noun_phrases:
            surface_words = [w.lower() for w in np.surface.split()]
            for word in np.normalized.split()[:-1]:
                assert word in surface_words
        assert doc.noun_phrases

    def test_sentences_built_when_first_read(self, wn_pipeline, monkeypatch):
        text = "The lunar rover stops. Its brake is applied."
        want = wn_pipeline.preprocess(text)

        def no_sentences(*args):
            raise AssertionError("sentences built")

        monkeypatch.setattr(preprocess, "_sentences", no_sentences)
        doc = wn_pipeline.preprocess(text)
        assert doc.noun_phrases == want.noun_phrases and doc == want
        with pytest.raises(AssertionError, match="sentences built"):
            doc.sentences
        monkeypatch.undo()
        assert doc.sentences == want.sentences
        assert doc.sentences is doc.sentences

    def test_default_pipeline_function(self):
        doc = default_pipeline().preprocess("A train passes.")
        assert len(doc.sentences) == 1


class TestSinglePass:
    """`preprocess` and `tagged_lemmas` against the public stage functions."""

    @given(generated_texts)
    @settings(max_examples=150, deadline=None)
    def test_generated_texts(self, wn_pipeline, text):
        check_single_pass(text, wn_pipeline)

    def test_fixture_texts(self, wn_pipeline):
        texts = fixture_texts()
        assert len(texts) > 800
        for text in texts:
            check_single_pass(text, wn_pipeline)

    def test_without_lemmatizer(self):
        for text in fixture_texts()[:20]:
            check_single_pass(text, Pipeline())

    @given(chunk_texts)
    @settings(max_examples=200, deadline=None)
    def test_stream_chunker_matches_reference_chain(self, wn_pipeline, text):
        """`preprocess` chunks the tagged stream without tokens; its noun
        phrases are `chunk_noun_phrases`' and the loop chunker's over each
        of its sentences, and those are the tokenize, split_sentences,
        pos_tag chain's."""
        lemmatizer = wn_pipeline.lemmatizer
        doc = Pipeline(lemmatizer).preprocess(text)
        nfc = unicodedata.normalize("NFC", text)
        sentences = split_sentences(nfc)
        assert [t for s in sentences for t in s.tokens] == tokenize(nfc)
        chain = [pos_tag(sentence.tokens) for sentence in sentences]
        assert [[t.surface for t in s] for s in chain] == \
            [[t.surface for t in s.tokens] for s in doc.sentences]
        assert [[(t.start, t.end, t.pos) for t in s] for s in chain] == \
            [[(t.start, t.end, t.pos) for t in s.tokens]
             for s in doc.sentences]
        assert [[(t.lemma, t.is_stopword) for t in s.tokens]
                for s in doc.sentences] == \
            [[(lemmatize(t.surface, t.pos, lemmatizer),
               t.surface.lower() in default_stopwords()) for t in s]
             for s in chain]
        phrases = [(np.surface, np.normalized) for np in doc.noun_phrases]
        assert phrases == [
            (np.surface, np.normalized) for sentence in doc.sentences
            for np in chunk_noun_phrases(sentence.tokens, lemmatizer)]
        assert phrases == [
            (np.surface, np.normalized) for sentence in chain
            for np in chunk_noun_phrases(sentence, lemmatizer)]
        assert phrases == [
            (np.surface, np.normalized) for sentence in doc.sentences
            for np in reference_chunk(sentence.tokens)]


class TestTagMemo:
    """A `Pipeline` remembers tagged words; what it gives must not depend
    on what it remembers."""

    @staticmethod
    def tag_of(pipeline, text, word):
        return next(t.pos for s in pipeline.preprocess(text).sentences
                    for t in s.tokens if t.surface == word)

    @pytest.mark.parametrize("word, after_det, after_verb, opening", [
        ("frobbing", ADJ, VERB, NOUN), ("frobbed", ADJ, VERB, VERB)])
    def test_unknown_word_tagged_by_context(self, word, after_det,
                                            after_verb, opening):
        cases = [(f"The {word} stops.", after_det),
                 (f"It is {word}.", after_verb),
                 (f"{word} stops.", opening)]
        warm = Pipeline()
        for text, tag in cases + cases[::-1]:
            assert self.tag_of(warm, text, word) == tag
            assert self.tag_of(Pipeline(), text, word) == tag

    @pytest.mark.parametrize("order", [1, -1])
    def test_capitalised_unknown_word_at_start_and_inside(self, order):
        word = "Zorblaxed"
        cases = [(f"{word} the rover.", VERB), (f"The {word} rover.", PROPN)]
        warm = Pipeline()
        for text, tag in cases[::order]:
            assert self.tag_of(warm, text, word) == tag
            assert warm.preprocess(text) == Pipeline().preprocess(text)

    def test_warm_memo_in_reverse_order(self, mini_wordnet):
        lemmatizer = make_lemmatizer(mini_wordnet)
        texts = fixture_texts()
        fresh = [list(Pipeline(lemmatizer=lemmatizer).tagged_lemmas(text))
                 for text in texts]
        warm = Pipeline(lemmatizer=lemmatizer)
        for text in texts:
            list(warm.tagged_lemmas(text))
        assert [list(warm.tagged_lemmas(text))
                for text in reversed(texts)] == fresh[::-1]
        for text in texts[:40]:
            assert warm.preprocess(text) == \
                Pipeline(lemmatizer=lemmatizer).preprocess(text)

    def test_full_memo_is_cleared(self, wn_pipeline, monkeypatch):
        texts = fixture_texts()[:60]
        expected = [list(wn_pipeline.tagged_lemmas(text)) for text in texts]
        monkeypatch.setattr(preprocess, "MEMO_ENTRIES", 5)
        small = Pipeline(lemmatizer=wn_pipeline.lemmatizer)
        for text, want in zip(texts, expected):
            for sentence in split_sentences(text):
                list(small.tagged_lemmas(sentence.text))
                assert 0 < len(small._memo) <= 5
            assert list(small.tagged_lemmas(text)) == want

    def test_threads_share_one_pipeline(self, mini_wordnet, monkeypatch):
        lemmatizer = make_lemmatizer(mini_wordnet)
        texts = fixture_texts()[:40]
        expected = [list(Pipeline(lemmatizer=lemmatizer).tagged_lemmas(text))
                    for text in texts]
        monkeypatch.setattr(preprocess, "MEMO_ENTRIES", 50)
        shared = Pipeline(lemmatizer=lemmatizer)
        results = {}

        def work(n):
            order = texts[n:] + texts[:n]
            results[n] = [list(shared.tagged_lemmas(text)) for text in order]

        threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for n in range(8):
            assert results[n] == expected[n:] + expected[:n]
        assert len(shared._memo) <= 50 + 8

    def test_equality_and_hash_ignore_the_memo(self, mini_wordnet):
        warm = Pipeline()
        list(warm.tagged_lemmas("The rover stops. It is frobbing."))
        assert warm._memo
        assert warm == Pipeline() and hash(warm) == hash(Pipeline())
        assert hash(warm) == hash((None,))
        assert repr(warm) == "Pipeline(lemmatizer=None)"
        lemmatizer = make_lemmatizer(mini_wordnet)
        assert Pipeline(lemmatizer=lemmatizer) == \
            Pipeline(lemmatizer=lemmatizer)
        assert Pipeline(lemmatizer=lemmatizer) != warm
