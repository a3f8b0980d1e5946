"""Vector loading, document embedding, cosine, and corpus evaluation."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wikiharvest.corpus import load_corpus, write_corpus
from wikiharvest.relatedness import (DimensionMismatch, EmbeddingTable,
                                     EmptyCorpus, InconsistentDimension,
                                     MalformedVectorLine, cosine,
                                     embed_document,
                                     embed_document_with_stats, evaluate,
                                     load_vectors)

finite_vectors = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False,
              allow_infinity=False),
    min_size=2, max_size=8)


def table_of(mapping):
    dim = len(next(iter(mapping.values())))
    return EmbeddingTable(
        dimension=dim,
        vectors={k: np.array(v, dtype=np.float64) for k, v in mapping.items()})


class TestLoadVectors:
    def test_two_line_file(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("alpha 1.0 2.0 3.0\nbeta 0.5 0.5 0.5\n")
        table = load_vectors(path)
        assert table.dimension == 3
        assert set(table.vectors) == {"alpha", "beta"}

    def test_header_consumed(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 3\nalpha 1 2 3\nbeta 4 5 6\n")
        table = load_vectors(path)
        assert table.dimension == 3
        assert len(table.vectors) == 2

    def test_ragged_line_reports_line_number(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("alpha 1 2 3\nbeta 4 5\n")
        with pytest.raises(InconsistentDimension) as exc:
            load_vectors(path)
        assert ":2" in str(exc.value)

    def test_malformed_component(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("alpha 1 2 3\nbeta 1 two 3\n")
        with pytest.raises(MalformedVectorLine) as exc:
            load_vectors(path)
        assert ":2" in str(exc.value)

    def test_duplicates_keep_first(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("tok 1 0\ntok 9 9\n")
        table = load_vectors(path)
        assert table.vectors["tok"].tolist() == [1.0, 0.0]

    def test_trailing_space_accepted(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("rail 0.1 0.2 \ntrack 0.3 0.4 \n")
        table = load_vectors(path)
        assert table.dimension == 2
        assert table.vectors["rail"].tolist() == [0.1, 0.2]

    def test_short_line_with_trailing_space(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("rail 0.1 0.2 \ntrack 0.3 \n")
        with pytest.raises(InconsistentDimension) as exc:
            load_vectors(path)
        assert ":2" in str(exc.value)

    def test_token_only_line_malformed(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("rail 0.1 0.2\ntrack \n")
        with pytest.raises(MalformedVectorLine) as exc:
            load_vectors(path)
        assert ":2" in str(exc.value)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("rail 0.1 0.2\n\n   \ntrack 0.3 0.4\n\n")
        table = load_vectors(path)
        assert set(table.vectors) == {"rail", "track"}

    def test_toy_table_has_header_and_100_tokens(self, toy_table):
        assert toy_table.dimension == 8
        assert len(toy_table.vectors) == 100


class TestEmbedDocument:
    def test_single_token_is_its_vector(self):
        table = table_of({"rail": [1.0, 2.0, 3.0]})
        got = embed_document("rail", table)
        assert got.tolist() == [1.0, 2.0, 3.0]

    def test_two_tokens_mean(self):
        table = table_of({"u": [2.0, 0.0], "v": [0.0, 4.0]})
        got = embed_document("u v", table)
        assert got.tolist() == [1.0, 2.0]

    def test_all_oov_is_zero_vector(self):
        table = table_of({"rail": [1.0, 0.0]})
        vec, in_vocab, oov = embed_document_with_stats("nothing known here",
                                                       table)
        assert vec.tolist() == [0.0, 0.0]
        assert in_vocab == 0 and oov > 0

    def test_stopwords_excluded(self):
        table = table_of({"the": [9.0, 9.0], "rail": [1.0, 0.0]})
        got = embed_document("the rail", table)
        assert got.tolist() == [1.0, 0.0]

    def test_empty_text_zero_vector(self):
        table = table_of({"rail": [1.0, 0.0]})
        assert embed_document("", table).tolist() == [0.0, 0.0]

    @given(st.permutations(["rail", "track", "bridge", "rail", "unknowntok"]))
    @settings(max_examples=40)
    def test_permutation_invariance(self, words):
        table = table_of({"rail": [1.0, 0.0], "track": [0.0, 1.0],
                          "bridge": [0.5, 0.5]})
        base = embed_document("rail track bridge rail unknowntok", table)
        got = embed_document(" ".join(words), table)
        assert np.allclose(got, base, atol=1e-12)


class TestCosine:
    def test_self_similarity(self):
        x = np.array([1.0, 2.0, -0.5])
        assert cosine(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_forty_five_degrees(self):
        got = cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert got == pytest.approx(1 / math.sqrt(2), abs=1e-4)
        assert got == pytest.approx(0.7071, abs=1e-4)

    def test_zero_vector_convention(self):
        assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0
        assert cosine(np.zeros(3), np.zeros(3)) == 0.0

    def test_tiny_components_do_not_underflow(self):
        got = cosine(np.array([0.0, 1.79e-164]), np.array([1.0, 1.0]))
        assert got == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine(np.zeros(3), np.zeros(4))

    @given(finite_vectors, finite_vectors)
    @settings(max_examples=200)
    def test_symmetry_and_bound(self, u, v):
        n = min(len(u), len(v))
        a, b = np.array(u[:n]), np.array(v[:n])
        assert cosine(a, b) == cosine(b, a)
        assert abs(cosine(a, b)) <= 1 + 1e-9

    @given(finite_vectors,
           st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
    @settings(max_examples=200)
    @example(u=[0.0, 1.79e-164], alpha=88.0)
    def test_scale_invariance(self, u, alpha):
        a = np.array(u)
        # Below the smallest normal float, scaling rounds components (to 0
        # for 0.5 * 5e-324) and so changes the direction being compared.
        tiny = np.finfo(np.float64).tiny
        components = np.concatenate([a, alpha * a])
        assume(np.all((components == 0) | (np.abs(components) >= tiny)))
        b = np.array([x + 1.0 for x in u])
        assert cosine(alpha * a, b) == pytest.approx(cosine(a, b), abs=1e-9)


class TestEvaluate:
    def corpus_of(self, tmp_path, entries):
        out = tmp_path / "corpus"
        write_corpus(entries, out)
        return load_corpus(out)

    def test_identical_text_scores_one(self, tmp_path):
        table = table_of({"rail": [1.0, 0.5], "track": [0.2, 2.0]})
        corp = self.corpus_of(tmp_path, [(1, "A", "rail track rail")])
        rep = evaluate(corp, "rail track rail", table)
        assert rep.min == pytest.approx(1.0, abs=1e-9)
        assert rep.min == rep.avg == rep.max

    def test_empty_corpus(self, tmp_path):
        table = table_of({"rail": [1.0, 0.0]})
        corp = self.corpus_of(tmp_path, [])
        with pytest.raises(EmptyCorpus):
            evaluate(corp, "rail", table)

    def test_aggregates_match_bruteforce(self, tmp_path, toy_table):
        texts = [(i + 1, f"T{i}", t) for i, t in enumerate([
            "rail track railway", "rail history century",
            "traffic road", "rail rail rail history",
            "century company museum"])]
        corp = self.corpus_of(tmp_path, texts)
        rep = evaluate(corp, "rail track train railway", toy_table)
        # brute force: recompute every cosine and aggregate again
        rs_vec = embed_document("rail track train railway", toy_table)
        expected = []
        for pid, _t, text in texts:
            expected.append((pid, cosine(rs_vec,
                                         embed_document(text, toy_table))))
        assert list(rep.per_article) == expected
        scores = [s for _p, s in expected]
        assert rep.min == min(scores)
        assert rep.max == max(scores)
        assert rep.avg == pytest.approx(sum(scores) / len(scores), abs=1e-12)
        assert rep.min <= rep.avg <= rep.max

    def test_per_article_sorted_by_page_id(self, tmp_path, toy_table):
        corp = self.corpus_of(tmp_path, [(5, "B", "rail"), (2, "A", "track")])
        rep = evaluate(corp, "rail", toy_table)
        assert [pid for pid, _s in rep.per_article] == [2, 5]

    def test_oov_rate(self, tmp_path):
        table = table_of({"rail": [1.0, 0.0]})
        corp = self.corpus_of(tmp_path, [(1, "A", "rail")])
        rep = evaluate(corp, "rail gizmo widget", table)
        assert rep.oov_rate == pytest.approx(2 / 3)

    def test_report_json_shape(self, tmp_path, toy_table):
        import json
        corp = self.corpus_of(tmp_path, [(1, "A", "rail")])
        payload = json.loads(evaluate(corp, "rail", toy_table).to_json())
        assert set(payload) == {"per_article", "min", "avg", "max",
                                "oov_rate"}
        assert payload["per_article"] == [{"page_id": 1, "score": 1.0}]
