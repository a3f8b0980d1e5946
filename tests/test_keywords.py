"""Keyword extraction: counting, WordNet filter, TF-IDF, top-K."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikiharvest.keywords import (Keyword, count_candidates,
                                  extract_keywords, filter_generic,
                                  keywords_to_tsv, score_tfidf, select_top_k)
from wikiharvest.lexicon import contains_lemma


def tfidf_oracle(per_doc_counts, target_index):
    """Direct formula evaluation, phrase by phrase, document by document."""
    n = len(per_doc_counts)
    scores = {}
    for phrase, tf in per_doc_counts[target_index].items():
        df = 0
        for doc in per_doc_counts:
            if doc.get(phrase, 0) > 0:
                df += 1
        idf = math.log((1 + n) / (1 + df)) + 1.0
        scores[phrase] = tf * idf
    return scores


def random_instance(rng):
    n_docs = rng.randint(1, 10)
    vocab = [f"phrase {i}" for i in range(rng.randint(1, 100))]
    docs = []
    for _ in range(n_docs):
        doc = {}
        for phrase in vocab:
            if rng.random() < 0.4:
                doc[phrase] = rng.randint(1, 9)
        docs.append(doc)
    target = rng.randrange(n_docs)
    if not docs[target]:
        docs[target][vocab[0]] = 1
    return docs, target


class TestCountCandidates:
    def test_repeated_phrase(self, wn_pipeline):
        doc = wn_pipeline.preprocess(
            "The lunar rover stops. The lunar rover turns.")
        assert count_candidates(doc) == {"lunar rover": 2}

    def test_empty_doc(self, wn_pipeline):
        assert count_candidates(wn_pipeline.preprocess("")) == {}

    def test_determiners_stripped_before_counting(self, wn_pipeline):
        doc = wn_pipeline.preprocess("The rover waits. A rover moves.")
        assert count_candidates(doc) == {"rover": 2}


class TestFilterGeneric:
    def test_rover_dropped_lunar_rover_kept(self, mini_wordnet):
        got = filter_generic({"rover": 3, "lunar rover": 2}, mini_wordnet)
        assert got == {"lunar rover": 2}

    def test_empty(self, mini_wordnet):
        assert filter_generic({}, mini_wordnet) == {}

    def test_kept_iff_not_an_entry(self, mini_wordnet):
        # the miniature lexicon has no "emergency brake" entry, so it stays
        assert not contains_lemma(mini_wordnet, "emergency brake")
        got = filter_generic({"emergency brake": 1}, mini_wordnet)
        assert got == {"emergency brake": 1}


class TestScoreTfidf:
    def test_single_doc_score_is_tf(self):
        (kw,) = score_tfidf([{"x": 3}], 0)
        assert kw.idf == 1.0 and kw.score == 3.0

    def test_two_docs_phrase_in_target_only(self):
        kws = {k.phrase: k for k in score_tfidf([{"p": 2}, {"q": 1}], 0)}
        expected_idf = math.log(3 / 2) + 1.0
        assert kws["p"].idf == pytest.approx(expected_idf, rel=1e-12)
        assert kws["p"].score == pytest.approx(2 * expected_idf, rel=1e-12)
        assert kws["p"].score == pytest.approx(2.8110, abs=1e-4)

    def test_two_docs_phrase_in_both(self):
        kws = {k.phrase: k for k in score_tfidf([{"p": 2}, {"p": 5}], 0)}
        assert kws["p"].idf == 1.0
        assert kws["p"].score == 2.0

    def test_target_index_out_of_range(self):
        with pytest.raises(IndexError):
            score_tfidf([{"x": 1}], 3)
        with pytest.raises(IndexError):
            score_tfidf([{"x": 1}], -1)

    def test_score_invariant(self):
        for kw in score_tfidf([{"a": 4, "b": 1}, {"b": 2}], 0):
            assert kw.score == kw.tf * kw.idf

    def test_oracle_equivalence_small(self):
        rng = random.Random("tfidf-unit")
        for _ in range(30):
            docs, target = random_instance(rng)
            got = {k.phrase: k.score for k in score_tfidf(docs, target)}
            want = tfidf_oracle(docs, target)
            assert got.keys() == want.keys()
            for phrase, score in want.items():
                assert got[phrase] == pytest.approx(score, rel=1e-9)

    @given(st.dictionaries(st.text(min_size=1, max_size=8),
                           st.integers(min_value=1, max_value=50),
                           max_size=30))
    @settings(max_examples=100)
    def test_single_doc_degenerates_to_tf(self, counts):
        for kw in score_tfidf([counts], 0):
            assert kw.idf == 1.0
            assert kw.score == float(counts[kw.phrase])


class TestSelectTopK:
    def kws(self, pairs):
        return [Keyword(phrase=p, tf=t, idf=1.0, score=float(t))
                for p, t in pairs]

    def test_k_exceeds_supply(self):
        got = select_top_k(self.kws([("a", 1), ("b", 2), ("c", 3)]), 50)
        assert len(got) == 3

    def test_lexicographic_tiebreak(self):
        got = select_top_k(self.kws([("b", 2), ("a", 2)]), 1)
        assert got[0].phrase == "a"

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            select_top_k([], 0)

    def test_order_total_and_deterministic(self):
        kws = self.kws([("c", 2), ("a", 2), ("b", 3), ("d", 1)])
        got = [k.phrase for k in select_top_k(kws, 10)]
        assert got == ["b", "a", "c", "d"]

    @given(st.lists(st.tuples(st.text(min_size=1, max_size=4),
                              st.integers(min_value=1, max_value=9)),
                    max_size=20),
           st.integers(min_value=1, max_value=10),
           st.integers(min_value=1, max_value=10))
    @settings(max_examples=100)
    def test_smaller_k_is_prefix(self, pairs, k1, k2):
        kws = self.kws(pairs)
        lo, hi = sorted((k1, k2))
        assert select_top_k(kws, hi)[:lo] == select_top_k(kws, lo)


class TestExtractAndExport:
    def test_filter_then_rank_preserves_survivors(self, wn_pipeline,
                                                  mini_wordnet):
        doc = wn_pipeline.preprocess(
            "The lunar rover uses the emergency brake. The rover stops. "
            "The lunar rover parks.")
        unfiltered = count_candidates(doc)
        filtered = filter_generic(unfiltered, mini_wordnet)
        via_extract = extract_keywords(doc, mini_wordnet, top_k=100)
        assert {k.phrase for k in via_extract} == set(filtered)

    def test_config_validation(self, wn_pipeline, mini_wordnet):
        doc = wn_pipeline.preprocess("The lunar rover moves.")
        with pytest.raises(ValueError):
            extract_keywords(doc, mini_wordnet, top_k=0)

    def test_config_background_texts_feed_idf(self, wn_pipeline,
                                              mini_wordnet):
        doc = wn_pipeline.preprocess(
            "The lunar rover moves. The lunar rover stops.")
        solo = extract_keywords(doc, mini_wordnet, top_k=5)
        with_bg = extract_keywords(
            doc, mini_wordnet, top_k=5,
            background_docs=[wn_pipeline.preprocess("A lunar rover waits here.")])
        assert solo[0].idf == 1.0
        assert with_bg[0].idf == 1.0  # phrase present in both documents
        assert with_bg[0].phrase == "lunar rover"
        boosted = extract_keywords(
            doc, mini_wordnet, top_k=5,
            background_docs=[wn_pipeline.preprocess("Unrelated text.")])
        assert boosted[0].idf > 1.0

    def test_non_ascii_phrase_kept_whole(self, wn_pipeline, mini_wordnet):
        doc = wn_pipeline.preprocess(
            "The Zürich tram network shall connect every district.\n"
            "The Zürich tram network shall report each fault.\n"
            "The signal box shall protect the tram depot.\n")
        phrases = [kw.phrase for kw in extract_keywords(doc, mini_wordnet)]
        assert phrases[0] == "zürich tram network"

    def test_tsv_format(self):
        kws = [Keyword("lunar rover", 2, 1.0, 2.0)]
        assert keywords_to_tsv(kws) == "lunar rover\t2\t1.0\t2.0\n"

    def test_tsv_deterministic(self):
        kws = score_tfidf([{"a": 2, "b": 1}, {"b": 4}], 0)
        top = select_top_k(kws, 10)
        assert keywords_to_tsv(top) == keywords_to_tsv(top)
