"""Vector loading, document embedding, cosine, and corpus evaluation."""

import math
import os
import random
import re
import signal
import threading
import warnings
from multiprocessing.connection import Connection

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import assert_reaped, split_into, vector_file_words

from wikiharvest import relatedness
from wikiharvest.corpus import load_corpus, write_corpus
from wikiharvest.errors import WikiHarvestError
from wikiharvest.relatedness import (DimensionMismatch, EmbeddingTable,
                                     EmptyCorpus, InconsistentDimension,
                                     MalformedVectorLine, cosine,
                                     embed_document, eval_texts,
                                     evaluate, load_vectors)

finite_vectors = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False,
              allow_infinity=False),
    min_size=2, max_size=8)


def load_all(path):
    return load_vectors(path, vector_file_words(path))


def table_of(mapping):
    dim = len(next(iter(mapping.values())))
    return EmbeddingTable(
        dimension=dim,
        vectors={k: np.array(v, dtype=np.float64) for k, v in mapping.items()})


class TestLoadVectors:
    def test_two_line_file(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("alpha 1.0 2.0 3.0\nbeta 0.5 0.5 0.5\n")
        table = load_all(path)
        assert table.dimension == 3
        assert set(table.vectors) == {"alpha", "beta"}

    def test_header_consumed(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 3\nalpha 1 2 3\nbeta 4 5 6\n")
        table = load_all(path)
        assert table.dimension == 3
        assert len(table.vectors) == 2

    @pytest.mark.parametrize("text", [
        "3 2\n",                           # a header and nothing else
        "3 2\nalpha 1 2\nbeta 3 4\n",      # a truncated file
        "2 3\nalpha 1 2\nbeta 3 4\n",      # the wrong dimension
    ])
    def test_header_must_match_rows(self, tmp_path, text):
        path = tmp_path / "v.txt"
        path.write_text(text)
        with pytest.raises(MalformedVectorLine, match=r":1: header gives"):
            load_all(path)

    def test_row_error_before_header_mismatch(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("5 2\nalpha 1 2\nbeta 3 x\n")
        with pytest.raises(MalformedVectorLine, match=":3: "):
            load_all(path)

    def test_header_of_no_rows(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("0 300\n")
        assert load_all(path) == EmbeddingTable(dimension=0, vectors={})

    def test_ragged_line_reports_line_number(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("alpha 1 2 3\nbeta 4 5\n")
        with pytest.raises(InconsistentDimension) as exc:
            load_all(path)
        assert ":2" in str(exc.value)

    def test_malformed_component(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("alpha 1 2 3\nbeta 1 two 3\n")
        with pytest.raises(MalformedVectorLine) as exc:
            load_all(path)
        assert ":2" in str(exc.value)

    def test_duplicates_keep_first(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("tok 1 0\ntok 9 9\n")
        table = load_all(path)
        assert table.vectors["tok"].tolist() == [1.0, 0.0]

    def test_trailing_space_accepted(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("rail 0.1 0.2 \ntrack 0.3 0.4 \n")
        table = load_all(path)
        assert table.dimension == 2
        assert table.vectors["rail"].tolist() == [0.1, 0.2]

    def test_short_line_with_trailing_space(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("rail 0.1 0.2 \ntrack 0.3 \n")
        with pytest.raises(InconsistentDimension) as exc:
            load_all(path)
        assert ":2" in str(exc.value)

    def test_token_only_line_malformed(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("rail 0.1 0.2\ntrack \n")
        with pytest.raises(MalformedVectorLine) as exc:
            load_all(path)
        assert ":2" in str(exc.value)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("rail 0.1 0.2\n\n   \ntrack 0.3 0.4\n\n")
        table = load_all(path)
        assert set(table.vectors) == {"rail", "track"}

    def test_toy_table_has_header_and_100_tokens(self, toy_table):
        assert toy_table.dimension == 8
        assert len(toy_table.vectors) == 100

    def test_only_rows_of_words_kept(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("alpha 1 2\nbeta 3 4\ngamma 5 6\n")
        table = load_vectors(path, {"beta", "delta"})
        assert table.dimension == 2
        assert {w: v.tolist() for w, v in table.vectors.items()} == \
            {"beta": [3.0, 4.0]}

    def test_bad_row_of_unused_word_still_rejected(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("used 1 2\nunused 3 x\n")
        with pytest.raises(MalformedVectorLine) as exc:
            load_vectors(path, {"used"})
        assert ":2:" in str(exc.value)

    def test_not_utf8_reports_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_bytes(b"rail 0.1 0.2\ncaf\xe9 0.3 0.4\n")
        with pytest.raises(MalformedVectorLine) as exc:
            load_vectors(path, {"rail"})
        assert ":2: not valid UTF-8" in str(exc.value)

    @pytest.mark.parametrize("kind", ["undecodable", "token_only"])
    @pytest.mark.parametrize("other_row,float_row", [
        (20, 10), (10, 20),      # both in the first chunk
        (400, 10), (10, 400)])   # on both sides of row 256
    def test_first_error_in_file_order_wins(self, tmp_path, kind,
                                            other_row, float_row):
        rows = [f"w{i} {i} 1" for i in range(600)]
        rows[float_row] = f"w{float_row} 1 x"
        rows[other_row], problem = {
            "undecodable": ("caf\udce9 1 2", "not valid UTF-8"),
            "token_only": (f"w{other_row}",
                           "expected token and vector components")}[kind]
        path = tmp_path / "v.txt"
        path.write_bytes("\n".join(rows).encode("utf-8", "surrogateescape"))
        with pytest.raises(MalformedVectorLine) as exc:
            load_vectors(path, {"w1"})
        first = min(other_row, float_row)
        assert f":{first + 1}: " in str(exc.value)
        assert (problem if first == other_row else "could not convert") \
            in str(exc.value)

    @pytest.mark.parametrize("spelling", ["nan", "-Infinity", "1e500"])
    @pytest.mark.parametrize("by_row", [False, True])
    def test_non_finite_component_rejected(self, tmp_path, spelling, by_row):
        # numpy and float() both read these; a NaN row makes cosine NaN
        rows = [f"w{i} {i} 1" for i in range(600)]
        rows[400] = f"w400 2 {spelling}"
        if by_row:
            rows[300] = "w300 1_0 1"  # numpy rejects it: that chunk goes by row
        path = tmp_path / "v.txt"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(MalformedVectorLine,
                           match=":401: non-finite component$"):
            load_vectors(path, {"w1"})

    def test_kept_rows_own_their_memory(self, tmp_path):
        # a view into a chunk's block would keep the whole block alive
        rows = [f"w{i} {i} 1" for i in range(600)]
        rows[300] = "w300 1_0 1"  # numpy rejects it: that chunk goes by row
        path = tmp_path / "v.txt"
        path.write_text("\n".join(rows) + "\n")
        table = load_vectors(path, {"w1", "w300", "w599"})
        assert table.vectors["w300"].tolist() == [10.0, 1.0]
        assert len(table.vectors) == 3
        assert all(v.base is None for v in table.vectors.values())


def reference_load(path):
    """The row-by-row loader: `float()` on every component of every row,
    each of which must be finite, keeping every row, then the header
    against the rows read.  Returns (dimension, vectors)."""
    vectors, dimension, rows, header = {}, 0, 0, None
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip()
            if not line:
                continue
            fields = line.split(" ")
            if lineno == 1 and len(fields) == 2:
                try:
                    header = int(fields[0]), int(fields[1])
                    continue
                except ValueError:
                    pass
            token, values = fields[0], fields[1:]
            if not token or not values:
                raise MalformedVectorLine(f"{path}:{lineno}: token only")
            try:
                vec = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError as exc:
                raise MalformedVectorLine(f"{path}:{lineno}: {exc}") from exc
            if not all(math.isfinite(v) for v in vec):
                raise MalformedVectorLine(f"{path}:{lineno}: not finite")
            if dimension == 0:
                dimension = vec.shape[0]
            elif vec.shape[0] != dimension:
                raise InconsistentDimension(f"{path}:{lineno}: dimension")
            vectors.setdefault(token, vec)
            rows += 1
    if header is not None and header != (rows, dimension if rows else
                                         header[1]):
        raise MalformedVectorLine(f"{path}:1: header")
    return dimension, vectors


def load_outcome(load, path):
    """(dimension, {word: vector bytes}), or (error class, line number)."""
    try:
        dimension, vectors = load()
    except (MalformedVectorLine, InconsistentDimension) as exc:
        lineno = re.match(re.escape(str(path)) + r":(\d+):", str(exc))
        return type(exc), int(lineno.group(1))
    return dimension, {w: v.tobytes() for w, v in vectors.items()}


def assert_loads_like_reference(path, words):
    def chunked():
        table = load_vectors(path, words)
        return table.dimension, table.vectors

    def reference():
        dimension, vectors = reference_load(path)
        return dimension, {w: v for w, v in vectors.items() if w in words}

    assert load_outcome(chunked, path) == load_outcome(reference, path)


TOKENS = [f"w{i}" for i in range(12)] + ["Zürich", "rail"]
# Spellings both parsers read, ones only float() reads ("1_0", non-ASCII
# digits), ones only numpy reads (around "\x1c"), ones neither reads, and
# non-finite ones ("nan", "inf", "1e500") both read but the loader rejects.
ODD_FIELDS = ["1_0", "\uff11", "\u0663.5", "nan", "-nan", "inf", "-Infinity",
              "1e500", "-0.0", "1.", ".5", "+2", "two", "", "0x1p3", "1,5",
              "1.5\x1c", "\x1f2", "\x0c3", "1\u2003", "nan(1)"]
EDITS = ["odd", "short", "long", "token_only", "blank", "trailing", "lead",
         "double", "dup"]
# rows near the chunk boundaries at 256 and 512
NEAR_BOUNDARY = [0, 1, 254, 255, 256, 257, 258, 510, 511, 512, 513]


def apply_edit(rows, i, kind, odd, rng):
    """Change data row `i` (a list of fields, token first) by `kind`."""
    row = rows[i]
    if kind == "odd" and len(row) == 1:
        row.append(odd)
    elif kind == "odd":
        row[rng.randrange(1, len(row))] = odd
    elif kind == "short" and len(row) > 1:
        row.pop()
    elif kind == "long":
        row.append("0.25")
    elif kind == "token_only":
        del row[1:]
    elif kind == "blank":
        rows.insert(i, [rng.choice(["", "   ", "\t"])])
    elif kind == "trailing":
        row[-1] += rng.choice([" ", "  ", " \t"])
    elif kind == "lead":
        row.insert(0, "")
    elif kind == "double":
        row.insert(rng.randrange(1, len(row) + 1), "")
    elif kind == "dup":
        row[0] = rows[max(0, i - rng.randrange(1, 4))][0]


@st.composite
def vector_files(draw):
    """A vector file of up to 530 rows, edited near the chunk boundaries:
    (text, words)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 4))
    n = draw(st.one_of(st.integers(0, 20), st.integers(250, 530)))
    rows = [[rng.choice(TOKENS)]
            + [repr(rng.uniform(-2, 2) * 10.0 ** rng.randint(-5, 5))
               for _ in range(dim)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 4))) if rows else ():
        i = draw(st.one_of(st.sampled_from(NEAR_BOUNDARY),
                           st.integers(0, len(rows) - 1)))
        apply_edit(rows, min(i, len(rows) - 1), draw(st.sampled_from(EDITS)),
                   draw(st.sampled_from(ODD_FIELDS)), rng)
    lines = [" ".join(row) for row in rows]
    header = draw(st.sampled_from([None, f"{n} {dim}", f"{n}  {dim}",
                                   "3 x"]))
    if header is not None:
        lines.insert(0, header)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    words = draw(st.sets(st.sampled_from(TOKENS)))
    return newline.join(lines) + newline, words


class TestLoaderMatchesReference:
    """`load_vectors` keeps the rows `float()` reads, bit for bit, or
    raises the error the row-by-row loader raises, at the same line."""

    @given(vector_files())
    @settings(max_examples=150, deadline=None)
    def test_generated_files(self, tmp_path_factory, case):
        text, words = case
        path = tmp_path_factory.mktemp("vectors") / "v.txt"
        path.write_bytes(text.encode("utf-8"))
        assert_loads_like_reference(path, words)

    @pytest.mark.parametrize("edits", [
        [], [(255, "odd", "two")], [(256, "odd", "two")],
        [(255, "short", None)], [(256, "long", None)],
        [(256, "token_only", None)], [(255, "token_only", None),
                                      (256, "odd", "two")],
        [(300, "odd", "1_0"), (20, "odd", "\uff11")],
        [(257, "odd", "1.5\x1c")], [(0, "odd", "nan"), (511, "odd", "inf")],
        [(255, "blank", None), (256, "trailing", None)],
        [(10, "odd", "two"), (400, "short", None)],
        [(10, "odd", "two"), (20, "token_only", None)],
        [(256, "lead", None)], [(255, "double", None)]])
    def test_chunk_boundaries(self, tmp_path, edits):
        rng = random.Random(len(edits))
        # every token twice, the second time on the far side of row 256
        rows = [[f"w{i % 260}", repr(i / 7), repr(-i / 3), "1e-3"]
                for i in range(600)]
        for i, kind, odd in edits:
            apply_edit(rows, i, kind, odd, rng)
        path = tmp_path / "v.txt"
        path.write_text("600 3\n" + "\n".join(" ".join(r) for r in rows)
                        + "\n")
        words = {f"w{i}" for i in range(0, 260, 3)}
        assert_loads_like_reference(path, words)

    @pytest.mark.parametrize("first", [1, 255, 256, 257])
    def test_wider_rows_from_a_chunk_on(self, tmp_path, first):
        rows = [f"w{i} 1 2" + (" 3" if i >= first else "")
                for i in range(600)]
        path = tmp_path / "v.txt"
        path.write_text("\n".join(rows) + "\n")
        assert_loads_like_reference(path, {"w0", "w300"})


def fixed_width_rows(n=600):
    """Rows of equal length, so same-length edits keep the range cuts."""
    return [f"w{i:03d} {i % 10}.5 1.5" for i in range(n)]


def first_line_of_range(path, k):
    """The line number of the first line of range `k` (from 0)."""
    start = relatedness._ranges(path)[k][0]
    data = path.read_bytes()[:start]
    return data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n") + 1


class TestRangeWorkers:
    """Files split into byte ranges load as the row-by-row loader does,
    and every worker is reaped."""

    @given(vector_files(), st.integers(2, 3))
    @settings(max_examples=60, deadline=None)
    def test_generated_files(self, tmp_path_factory, case, n):
        text, words = case
        path = tmp_path_factory.mktemp("vectors") / "v.txt"
        path.write_bytes(text.encode("utf-8"))
        with split_into(n) as pids:
            assert_loads_like_reference(path, words)
        assert_reaped(pids)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("edits", [
        [], [(256, "odd", "two")], [(300, "odd", "1_0"), (20, "odd", "\uff11")],
        [(255, "blank", None), (256, "trailing", None)],
        [(10, "odd", "two"), (400, "short", None)], [(511, "long", None)]])
    def test_chunk_boundaries(self, tmp_path, edits, n):
        rng = random.Random(len(edits))
        rows = [[f"w{i % 260}", repr(i / 7), repr(-i / 3), "1e-3"]
                for i in range(600)]
        for i, kind, odd in edits:
            apply_edit(rows, i, kind, odd, rng)
        path = tmp_path / "v.txt"
        path.write_text("600 3\n" + "\n".join(" ".join(r) for r in rows)
                        + "\n")
        with split_into(n) as pids:
            assert_loads_like_reference(path, {f"w{i}" for i in range(260)})
        assert len(pids) == n
        assert_reaped(pids)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_error_in_second_range_only(self, tmp_path, newline):
        path = tmp_path / "v.txt"
        rows = fixed_width_rows()
        path.write_text(newline.join(rows) + newline, newline="")
        with split_into(2):
            line = first_line_of_range(path, 1) + 5
            rows[line - 1] = rows[line - 1].replace(".5", ".x")
            path.write_text(newline.join(rows) + newline, newline="")
            with pytest.raises(MalformedVectorLine, match=f":{line}: "):
                load_vectors(path, {"w001"})
            assert_loads_like_reference(path, {"w001"})

    def test_first_range_error_wins(self, tmp_path):
        path = tmp_path / "v.txt"
        rows = fixed_width_rows()
        path.write_text("\n".join(rows) + "\n")
        with split_into(2):
            second = first_line_of_range(path, 1)
            rows[second] = rows[second].replace("1.5", "1.x")
            rows[second - 3] = rows[second - 3] + " 2.5"
            path.write_text("\n".join(rows) + "\n")
            with pytest.raises(InconsistentDimension, match=f":{second - 2}: "):
                load_vectors(path, {"w001"})

    def test_second_range_of_another_width(self, tmp_path):
        path = tmp_path / "v.txt"
        rows = fixed_width_rows()
        path.write_text("\n".join(rows) + "\n")
        with split_into(2):
            second = first_line_of_range(path, 1)
            # "w300 0.5 1.5" -> "w3 0.5 1.5 1": the same length
            rows[second - 1:] = [f"{row[:2]} {row[5:]} 1"
                                 for row in rows[second - 1:]]
            path.write_text("\n".join(rows) + "\n")
            with pytest.raises(InconsistentDimension,
                               match=f":{second}: dimension 3 != 2"):
                load_vectors(path, {"w001"})

    def test_integer_pair_opening_a_range_is_a_row(self, tmp_path):
        # only line 1 of the file can be the header
        path = tmp_path / "v.txt"
        rows = [f"w{i:03d} {i % 10}" for i in range(600)]
        path.write_text("\n".join(rows) + "\n")
        with split_into(2):
            second = first_line_of_range(path, 1)
            rows[second - 1] = "1234 5"
            path.write_text("\n".join(rows) + "\n")
            table = load_vectors(path, {"1234"})
            assert_loads_like_reference(path, {"1234", "w001"})
        assert table.vectors["1234"].tolist() == [5.0]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_duplicate_across_the_cut_keeps_the_first(self, tmp_path,
                                                      newline):
        path = tmp_path / "v.txt"
        rows = fixed_width_rows()
        path.write_text(newline.join(rows) + newline, newline="")
        with split_into(2):
            line = first_line_of_range(path, 1)
            rows[line - 1] = "w001" + rows[line - 1][4:]
            path.write_text(newline.join(rows) + newline, newline="")
            table = load_vectors(path, {"w001"})
            assert_loads_like_reference(path, {"w001"})
        assert table.vectors["w001"].tolist() == [1.5, 1.5]

    def test_header_counts_rows_of_every_range(self, tmp_path):
        path = tmp_path / "v.txt"
        rows = fixed_width_rows()
        path.write_text("599 2\n" + "\n".join(rows) + "\n")
        with split_into(3) as pids:
            with pytest.raises(MalformedVectorLine, match=":1: header gives "
                               "599 rows of dimension 2, the file has 600"):
                load_vectors(path, {"w001"})
        assert len(pids) == 3
        assert_reaped(pids)

    def test_lone_cr_file_is_one_range(self, tmp_path):
        # no "\n" to cut after: the whole file goes to one worker
        path = tmp_path / "v.txt"
        path.write_text("\r".join(fixed_width_rows()) + "\r", newline="")
        with split_into(2) as pids:
            assert_loads_like_reference(path, {"w001", "w599"})
        assert len(pids) == 1

    @pytest.mark.parametrize("rows,parts", [(40, 0), (100, 2), (300, 7),
                                            (1000, 8)])
    def test_ranges_hold_half_the_threshold(self, tmp_path, monkeypatch,
                                            rows, parts):
        # 13-byte rows; no range under 500 bytes, no more than 8 cores
        path = tmp_path / "v.txt"
        path.write_text("\n".join(fixed_width_rows(rows)) + "\n")
        monkeypatch.setattr(relatedness, "_FORK_MIN_BYTES", 1000)
        monkeypatch.setattr(relatedness, "_usable_cores", lambda: 8)
        assert len(relatedness._ranges(path)) == parts

    def test_worker_killed_is_an_error(self, tmp_path, monkeypatch):
        # the second worker waits to be killed, which happens before the
        # first reply is received, so it cannot have replied
        path = tmp_path / "v.txt"
        path.write_text("\n".join(fixed_width_rows()) + "\n")
        scan, recv = relatedness._scan_range, Connection.recv

        def second_range_waits(path, start, *args):
            if start:
                signal.pause()
            return scan(path, start, *args)

        def kill_then_recv(conn):
            os.kill(pids[1], signal.SIGKILL)
            return recv(conn)
        monkeypatch.setattr(relatedness, "_scan_range", second_range_waits)
        monkeypatch.setattr(Connection, "recv", kill_then_recv)
        with split_into(2) as pids:
            with pytest.raises(WikiHarvestError, match="worker stopped.*-9"):
                load_vectors(path, {"w001"})
        assert len(pids) == 2
        assert_reaped(pids)

    def test_fork_warning_about_threads_is_ignored(self, tmp_path):
        # Python 3.12's os.fork warns when other threads run, as numpy's
        # BLAS threads may; the check forks all the same
        path = tmp_path / "v.txt"
        path.write_text("\n".join(fixed_width_rows()) + "\n")
        with split_into(2) as pids, warnings.catch_warnings(), \
                pytest.MonkeyPatch.context() as mp:
            fork = os.fork

            def warning_fork():
                warnings.warn("This process (pid=1) is multi-threaded, use "
                              "of fork() may lead to deadlocks in the child.",
                              DeprecationWarning)
                return fork()
            mp.setattr(os, "fork", warning_fork)
            warnings.simplefilter("error")
            assert_loads_like_reference(path, {"w001", "w599"})
        assert len(pids) == 2
        assert_reaped(pids)

    def test_threaded_caller_loads_in_process(self, tmp_path, monkeypatch):
        path = tmp_path / "v.txt"
        path.write_text("\n".join(fixed_width_rows()) + "\n")
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            with split_into(2):
                def no_fork():
                    raise AssertionError("forked with a thread running")
                monkeypatch.setattr(os, "fork", no_fork)
                table = load_vectors(path, {"w001"})
        finally:
            stop.set()
            thread.join()
        assert table.vectors["w001"].tolist() == [1.5, 1.5]


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
        vec = embed_document("nothing known here", table)
        assert vec.tolist() == [0.0, 0.0]

    def test_stopwords_excluded(self):
        table = table_of({"the": [9.0, 9.0], "rail": [1.0, 0.0]})
        got = embed_document("the rail", table)
        assert got.tolist() == [1.0, 0.0]

    def test_empty_text_zero_vector(self):
        table = table_of({"rail": [1.0, 0.0]})
        assert embed_document("", table).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("dim", [1, 3])
    def test_mean_adds_in_token_order(self, dim):
        # magnitudes 1e-8..1e8, so another order of addition rounds
        # differently; numpy would sum a single column pairwise
        rng = np.random.default_rng(dim)
        words = ["zq" + a + b for a in "abcdefgh" for b in "abcde"]
        table = table_of({w: rng.standard_normal(dim)
                          * 10.0 ** rng.integers(-8, 8, dim) for w in words})
        text = " ".join(rng.choice(words + ["oovword"], size=300))
        total, n = np.zeros(dim), 0
        for word in text.split():
            if word in table.vectors:
                total += table.vectors[word]
                n += 1
        total /= n
        assert embed_document(text, table).tobytes() == total.tobytes()

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
        rep = evaluate(eval_texts(corp, "rail track rail"), table)
        assert rep.min == pytest.approx(1.0, abs=1e-9)
        assert rep.min == rep.avg == rep.max

    def test_empty_corpus(self, tmp_path):
        table = table_of({"rail": [1.0, 0.0]})
        corp = self.corpus_of(tmp_path, [])
        with pytest.raises(EmptyCorpus):
            evaluate(eval_texts(corp, "rail"), table)

    def test_aggregates_match_bruteforce(self, tmp_path, toy_table):
        texts = [(i + 1, f"T{i}", t) for i, t in enumerate([
            "rail track railway", "rail history century",
            "traffic road", "rail rail rail history",
            "century company museum"])]
        corp = self.corpus_of(tmp_path, texts)
        rep = evaluate(eval_texts(corp, "rail track train railway"),
                       toy_table)
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
        rep = evaluate(eval_texts(corp, "rail"), toy_table)
        assert [pid for pid, _s in rep.per_article] == [2, 5]

    def test_oov_rate(self, tmp_path):
        table = table_of({"rail": [1.0, 0.0]})
        corp = self.corpus_of(tmp_path, [(1, "A", "rail")])
        rep = evaluate(eval_texts(corp, "rail gizmo widget"), table)
        assert rep.oov_rate == pytest.approx(2 / 3)

    def test_all_oov_rate_is_one(self, tmp_path):
        table = table_of({"rail": [1.0, 0.0]})
        corp = self.corpus_of(tmp_path, [(1, "A", "rail")])
        rep = evaluate(eval_texts(corp, "nothing known here"), table)
        assert rep.oov_rate == 1.0

    def test_report_json_shape(self, tmp_path, toy_table):
        import json
        corp = self.corpus_of(tmp_path, [(1, "A", "rail")])
        payload = json.loads(
            evaluate(eval_texts(corp, "rail"), toy_table).to_json())
        assert set(payload) == {"per_article", "min", "avg", "max",
                                "oov_rate"}
        assert payload["per_article"] == [{"page_id": 1, "score": 1.0}]
