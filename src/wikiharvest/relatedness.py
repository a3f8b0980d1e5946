"""Document embeddings and cosine-similarity evaluation of a corpus.

A document vector is the unweighted mean of the word vectors of its
in-vocabulary, non-stopword tokens.  Texts with no such tokens embed to
the zero vector, and cosine against a zero vector is defined as 0 so the
evaluation stays total; the out-of-vocabulary rate is reported so vacuous
scores can be spotted.  `eval_texts` tokenizes the texts first, and
`load_vectors(path, texts.words)` then checks the vector file and keeps
only the rows of those words.  numpy is imported by the functions that
compute, so importing this module (and the CLI) does not load it.
"""

from __future__ import annotations

import io
import json
import os
import signal
import threading
import warnings
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Container, Iterable, Iterator,
                    Mapping)

from .corpus import Corpus
from .errors import WikiHarvestError, utf8_problem
from .preprocess import content_tokens

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

    import numpy as np


class MalformedVectorLine(WikiHarvestError):
    """A vector-file line could not be parsed."""


class InconsistentDimension(WikiHarvestError):
    """A vector-file line has a different dimension than the first row."""


class DimensionMismatch(WikiHarvestError):
    """Cosine of two vectors with different lengths."""


class EmptyCorpus(WikiHarvestError):
    """Evaluation over a corpus with no articles."""


@dataclass(frozen=True)
class EmbeddingTable:
    dimension: int
    vectors: Mapping[str, np.ndarray]


@dataclass(frozen=True)
class RelatednessReport:
    per_article: tuple[tuple[int, float], ...]  # (page_id, cosine), by page_id
    min: float
    avg: float
    max: float
    oov_rate: float

    def to_json(self) -> str:
        payload = {
            "per_article": [{"page_id": pid, "score": score}
                            for pid, score in self.per_article],
            "min": self.min,
            "avg": self.avg,
            "max": self.max,
            "oov_rate": self.oov_rate,
        }
        return json.dumps(payload, indent=2) + "\n"


# Rows parsed per call of numpy's parser.
_CHUNK_ROWS = 256
# Vector files at least this large are checked in forked range workers.
_FORK_MIN_BYTES = 16 * 2**20
# ASCII separators that numpy skips around a number and float() rejects.
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


# A vector-file row: (line number, token, " " or "", the components).
_Row = tuple[int, str, str, str]
# A range's reply: its header, row count, dimension and kept rows.
_Reply = tuple[tuple[int, int] | None, int, int, "dict[str, np.ndarray]"]


def _parse_chunk(path: Path, rows: list[_Row], dimension: int) -> np.ndarray:
    """Parse `rows`, ``(lineno, token, space, rest)``, into one block of
    `dimension` columns (of the first row's width when 0).

    numpy's parser reads a chunk whose rows all have a decodable token
    and components, none holding a separator only numpy skips; it rejects
    an undecodable byte among the components.  Any other chunk, and one
    numpy rejects or reads at another width or as non-finite, is parsed
    row by row with `float()`: that raises the first error in file order
    and accepts the spellings numpy rejects ("1_0", non-ASCII digits).
    """
    import numpy as np
    rests = [rest for _, _, _, rest in rows]
    if all(token and space and not utf8_problem(token)
           for _, token, space, _ in rows) and \
            not any(c in rest for rest in rests for c in _NUMPY_ONLY_SPACE):
        try:
            block = np.loadtxt(rests, dtype=np.float64, delimiter=" ",
                               comments=None, quotechar=None, ndmin=2)
        except ValueError:
            block = None
        if block is not None and np.isfinite(block).all() and \
                block.shape == (len(rows), dimension or block.shape[1]):
            return block
    parsed = []
    for lineno, token, space, rest in rows:
        if problem := utf8_problem(token + space + rest):
            raise MalformedVectorLine(f"{path}:{lineno}: {problem}")
        if not token or not space:
            raise MalformedVectorLine(
                f"{path}:{lineno}: expected token and vector components")
        try:
            vec = [float(v) for v in rest.split(" ")]
        except ValueError as exc:
            raise MalformedVectorLine(f"{path}:{lineno}: {exc}") from exc
        if not np.isfinite(vec).all():
            raise MalformedVectorLine(f"{path}:{lineno}: non-finite component")
        dimension = dimension or len(vec)
        if len(vec) != dimension:
            raise InconsistentDimension(
                f"{path}:{lineno}: dimension {len(vec)} != {dimension}")
        parsed.append(vec)
    return np.array(parsed, dtype=np.float64)


def _rows(lines: Iterable[str], lineno: int) -> Iterator[_Row]:
    """``(lineno, token, space, rest)`` of each non-blank line of `lines`,
    the first being line `lineno`, with trailing whitespace dropped."""
    for lineno, line in enumerate(lines, lineno):
        if line := line.rstrip():
            yield (lineno, *line.partition(" "))


def _header(row: _Row) -> tuple[int, int] | None:
    """The vocabulary size and dimension in `row`, if it is line 1 and
    holds just two integers."""
    lineno, token, space, rest = row
    if lineno == 1 and space and " " not in rest:
        try:
            return int(token), int(rest)
        except ValueError:
            pass
    return None


def _check_header(path: Path, header: tuple[int, int] | None, rows: int,
                  dimension: int) -> None:
    """A header must give the number of rows and, if there are any,
    their dimension."""
    if header and (header[0] != rows or rows and header[1] != dimension):
        raise MalformedVectorLine(
            f"{path}:1: header gives {header[0]} rows of dimension "
            f"{header[1]}, the file has {rows} of dimension {dimension}")


class _ByteRange(io.RawIOBase):
    """Bytes [start, stop) of a file."""

    def __init__(self, path: Path, start: int, stop: int):
        self._fh = open(path, "rb", buffering=0)
        self._fh.seek(start)
        self._left = stop - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._fh.readinto(memoryview(buffer)[:self._left])
        self._left -= n
        return n

    def close(self) -> None:
        self._fh.close()
        super().close()


def _scan(path: Path, start: int, stop: int, dimension: int,
          words: Container[str]) -> _Reply:
    """Check every row of bytes [start, stop) of `path`, which start a
    line, `_CHUNK_ROWS` at a time.  Returns the header, the number of
    rows, their dimension (the first row's, when `dimension` is 0) and a
    copy of the first row of each of `words`: a view would keep the whole
    block alive.

    A range after the first is numbered from line 2, the lowest its first
    line can have, so none of its lines is taken for the header; an error
    there names its line within the range, not in the file.
    """
    with io.TextIOWrapper(io.BufferedReader(_ByteRange(path, start, stop)),
                          encoding="utf-8", errors="surrogateescape") as lines:
        rows = _rows(lines, 2 if start else 1)
        first = next(rows, None)
        header = first and _header(first)
        if first and not header:
            rows = chain([first], rows)
        count, kept = 0, {}
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            block = _parse_chunk(path, chunk, dimension)
            dimension = block.shape[1]
            for (_, token, _, _), row in zip(chunk, block):
                if token in words and token not in kept:
                    kept[token] = row.copy()
            count += len(chunk)
    return header, count, dimension, kept


def _check_range(conn: Connection, parent_ends: list[Connection],
                 path: Path, start: int, stop: int, dimension: int,
                 words: Container[str]) -> None:
    """Forked worker: check bytes [start, stop) of `path` and reply with
    the range's `_Reply`, or with its first error (see `_scan`); stops
    when the parent is gone."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # the parent stops it
    for end in parent_ends:     # so a dead parent's pipes read as closed
        end.close()
    try:
        reply = _scan(path, start, stop, dimension, words)
    except (WikiHarvestError, OSError) as exc:
        reply = exc
    with suppress(OSError):
        conn.send(reply)


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ranges(path: Path) -> list[tuple[int, int]]:
    """Byte ranges of `path`, cut at line starts, one per usable core and
    each about half `_FORK_MIN_BYTES` or more; none when the file is
    checked in-process: it is under `_FORK_MIN_BYTES`, one core is
    usable, another thread runs (forking then can deadlock) or there is
    no `fork`."""
    size = path.stat().st_size
    parts = min(_usable_cores(), size // (_FORK_MIN_BYTES // 2))
    if parts < 2 or threading.active_count() > 1 or not hasattr(os, "fork"):
        return []
    cuts = [0]
    with path.open("rb") as fh:
        for k in range(1, parts):
            fh.seek(size * k // parts)
            while (part := fh.readline(1 << 16)) and part[-1:] != b"\n":
                pass
            cuts.append(fh.tell())
    cuts.append(size)
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]


def _first_dimension(path: Path) -> int:
    """The dimension of the first row of `path`; 0 when it has no rows or
    the first row is bad (the first range then reports that row)."""
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for row in _rows(fh, 1):
            if not _header(row):
                try:
                    return _parse_chunk(path, [row], 0).shape[1]
                except WikiHarvestError:
                    return 0
    return 0


def _fork_workers(path: Path, words: Container[str],
                  workers: list[tuple[BaseProcess, Connection]]) -> None:
    """Fork a `_check_range` worker for each of the `_ranges` of `path`,
    adding it and the parent's end of its pipe to `workers`."""
    if not (ranges := _ranges(path)):
        return
    import multiprocessing
    context = multiprocessing.get_context("fork")
    dimension = _first_dimension(path)
    for start, stop in ranges:
        conn, child = context.Pipe()
        process = context.Process(
            target=_check_range, daemon=True,
            args=(child, [c for _, c in workers] + [conn],
                  path, start, stop, dimension, words))
        with warnings.catch_warnings():
            # No Python thread runs (see `_ranges`); numpy's BLAS
            # threads, which Python 3.12 warns about, survive a fork.
            warnings.filterwarnings("ignore", "This process .* is "
                                    "multi-threaded", DeprecationWarning)
            process.start()
        child.close()
        workers.append((process, conn))


def _reply(path: Path, process: BaseProcess, conn: Connection) -> _Reply:
    """A worker's reply; raises its error, or one saying it stopped."""
    try:
        reply = conn.recv()
    except (EOFError, ConnectionError):
        process.join()
        raise WikiHarvestError(
            f"{path}: a vector check worker stopped "
            f"(exit code {process.exitcode})") from None
    if isinstance(reply, BaseException):
        raise reply
    return reply


def _stop(workers: list[tuple[BaseProcess, Connection]]) -> None:
    """Kill and reap every worker, and close its pipe."""
    for process, conn in workers:
        process.kill()
        process.join()
        process.close()
        conn.close()
    workers.clear()


def load_vectors(path: str | Path, words: Container[str]) -> EmbeddingTable:
    """Load the rows of `words` from a word2vec/GloVe text-format file.

    Each line is ``token v1 v2 ... vd``; an optional leading header line
    holds the number of rows and their dimension, and must match them.
    Trailing whitespace and blank lines are ignored; duplicate tokens keep
    their first occurrence.  Every row is parsed and checked, `_CHUNK_ROWS`
    at a time, and the first error in file order is raised; a component
    must be finite.  A file of at least `_FORK_MIN_BYTES` is cut at line
    starts into byte ranges (see `_ranges`), each checked by a forked
    worker; any other file is one range, checked in the caller.  The
    ranges' replies are merged in file order, and only the rows of
    `words` are kept.  A worker's error names a line of its range, so
    then every worker is stopped and the file is checked again as one
    range in the caller, which raises the first error in file order.
    """
    path = Path(path)
    workers: list[tuple[BaseProcess, Connection]] = []
    try:
        try:
            _fork_workers(path, words, workers)
        except OSError:     # the file, or fork, fails: check in-process
            _stop(workers)
        replies = (_reply(path, *worker) for worker in workers) if workers \
            else [_scan(path, 0, path.stat().st_size, 0, words)]
        header, rows, dimension, table = None, 0, 0, {}
        for range_header, range_rows, dimension, kept in replies:
            header = header or range_header     # only line 1 can be one
            rows += range_rows
            for token, row in kept.items():
                table.setdefault(token, row)
    except (MalformedVectorLine, InconsistentDimension):
        if workers:
            _stop(workers)
            _scan(path, 0, path.stat().st_size, 0, ())
        raise
    finally:
        _stop(workers)
    _check_header(path, header, rows, dimension)
    return EmbeddingTable(dimension=dimension, vectors=table)


@dataclass(frozen=True)
class EvalTexts:
    """The content tokens of the test RS and of every article, as word ids.

    `words` maps each distinct token to its id; a document is an int64
    array of ids, so no token string is kept per occurrence.
    """
    words: dict[str, int]
    test_rs: np.ndarray
    articles: tuple[tuple[int, np.ndarray], ...]  # (page_id, word ids)


def _word_ids(text: str, words: dict[str, int]) -> np.ndarray:
    """Ids of the content tokens of `text`; new tokens join `words`."""
    import numpy as np
    tokens = content_tokens(text)
    return np.fromiter((words.setdefault(t, len(words)) for t in tokens),
                       dtype=np.int64, count=len(tokens))


def eval_texts(corpus: Corpus, test_rs_text: str) -> EvalTexts:
    """Tokenize the test RS and every article once."""
    words: dict[str, int] = {}
    test_rs = _word_ids(test_rs_text, words)
    articles = tuple((page_id, _word_ids(text, words))
                     for page_id, _title, text in corpus)
    return EvalTexts(words=words, test_rs=test_rs, articles=articles)


def _embedder(words: Mapping[str, int], table: EmbeddingTable
              ) -> Callable[[np.ndarray], tuple[np.ndarray, int, int]]:
    """Stack the rows of `words` found in `table` into one matrix; return
    the function from word ids to (mean vector, in-vocabulary count,
    out-of-vocabulary count)."""
    import numpy as np
    row_of = np.full(len(words), -1, dtype=np.int64)
    kept = []
    for word, word_id in words.items():
        vec = table.vectors.get(word)
        if vec is not None:
            row_of[word_id] = len(kept)
            kept.append(vec)
    matrix = np.array(kept, dtype=np.float64).reshape(len(kept),
                                                      table.dimension)

    def embed(ids: np.ndarray) -> tuple[np.ndarray, int, int]:
        rows = row_of[ids]
        rows = rows[rows >= 0]
        if not len(rows):
            return np.zeros(table.dimension, dtype=np.float64), 0, len(ids)
        vecs = matrix[rows]
        if table.dimension == 1:
            # numpy sums one column pairwise; a running sum keeps token order
            vecs = np.add.accumulate(vecs)[-1:]
        # 0.0 + row + row ... one row after another, in token order
        total = vecs.sum(axis=0, initial=0.0)
        total /= len(rows)
        return total, len(rows), len(ids) - len(rows)

    return embed


def embed_document(text: str, table: EmbeddingTable) -> np.ndarray:
    """Mean vector of the in-vocabulary content tokens of `text`."""
    words: dict[str, int] = {}
    ids = _word_ids(text, words)
    vec, _, _ = _embedder(words, table)(ids)
    return vec


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity, with 0.0 when either vector has zero norm.

    Each vector is divided by its largest magnitude first, so squared
    norms cannot underflow or overflow (Blue, ACM TOMS 1978).
    """
    import numpy as np
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionMismatch(f"shapes {u.shape} and {v.shape} differ")
    su = np.max(np.abs(u), initial=0.0)
    sv = np.max(np.abs(v), initial=0.0)
    if su == 0.0 or sv == 0.0:
        return 0.0
    u = u / su
    v = v / sv
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def evaluate(texts: EvalTexts, table: EmbeddingTable) -> RelatednessReport:
    """Cosine of every corpus article against the test RS, with aggregates."""
    if not texts.articles:
        raise EmptyCorpus("corpus has no articles")
    embed = _embedder(texts.words, table)
    rs_vec, in_vocab, oov = embed(texts.test_rs)
    considered = in_vocab + oov
    oov_rate = oov / considered if considered else 0.0

    per_article = []
    for page_id, ids in texts.articles:
        art_vec, _, _ = embed(ids)
        per_article.append((page_id, cosine(rs_vec, art_vec)))
    per_article.sort(key=lambda item: item[0])
    scores = [score for _pid, score in per_article]
    return RelatednessReport(
        per_article=tuple(per_article),
        min=min(scores),
        avg=sum(scores) / len(scores),
        max=max(scores),
        oov_rate=oov_rate,
    )
