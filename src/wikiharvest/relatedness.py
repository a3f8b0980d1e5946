"""Document embeddings and cosine-similarity evaluation of a corpus.

A document vector is the unweighted mean of the word vectors of its
in-vocabulary, non-stopword tokens.  Texts with no such tokens embed to
the zero vector, and cosine against a zero vector is defined as 0 so the
evaluation stays total; the out-of-vocabulary rate is reported so vacuous
scores can be spotted.  numpy is imported by the functions that compute,
so importing this module (and the CLI) does not load it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Container, Mapping, NoReturn

from .corpus import Corpus
from .errors import WikiHarvestError
from .preprocess import content_tokens

if TYPE_CHECKING:
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
# A byte that is not UTF-8, as the "surrogateescape" error handler reads it.
_UNDECODABLE_RE = re.compile("[\udc80-\udcff]")
# ASCII separators that numpy skips around a number and float() rejects.
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


class _RowParser:
    """Parses vector rows a chunk at a time, keeping the rows of `words`.

    A chunk goes to numpy's parser.  If that fails, or the chunk's width
    is not the file's dimension, the chunk is parsed again row by row with
    `float()`: that raises the first error in file order and accepts the
    spellings numpy rejects ("1_0", non-ASCII digits).
    """

    def __init__(self, path: Path, words: Container[str]):
        self.path = path
        self.words = words
        self.dimension = 0
        self.vectors: dict[str, np.ndarray] = {}
        self.rows: list[tuple[int, str, str]] = []  # (lineno, token, rest)

    def add(self, lineno: int, token: str, rest: str) -> None:
        self.rows.append((lineno, token, rest))
        if len(self.rows) == _CHUNK_ROWS:
            self.flush()

    def flush(self) -> None:
        rows, self.rows = self.rows, []
        if not rows:
            return
        block = self._parse_chunk([rest for _, _, rest in rows])
        if block is None:
            self._parse_rows(rows)
            return
        self.dimension = block.shape[1]
        for (_, token, _), row in zip(rows, block):
            self._keep(token, row)

    def _parse_chunk(self, rests: list[str]) -> np.ndarray | None:
        import numpy as np
        if any(c in rest for rest in rests for c in _NUMPY_ONLY_SPACE):
            return None
        try:
            block = np.loadtxt(rests, dtype=np.float64, delimiter=" ",
                               comments=None, quotechar=None, ndmin=2)
        except ValueError:
            return None
        if block.shape[0] != len(rests) or \
                block.shape[1] != (self.dimension or block.shape[1]):
            return None
        return block

    def _parse_rows(self, rows: list[tuple[int, str, str]]) -> None:
        import numpy as np
        for lineno, token, rest in rows:
            try:
                vec = np.array([float(v) for v in rest.split(" ")],
                               dtype=np.float64)
            except ValueError as exc:
                raise MalformedVectorLine(
                    f"{self.path}:{lineno}: {exc}") from exc
            if self.dimension == 0:
                self.dimension = vec.shape[0]
            elif vec.shape[0] != self.dimension:
                raise InconsistentDimension(
                    f"{self.path}:{lineno}: dimension {vec.shape[0]} != "
                    f"{self.dimension}")
            self._keep(token, vec)

    def _keep(self, token: str, row: np.ndarray) -> None:
        if token in self.words and token not in self.vectors:
            self.vectors[token] = row.copy()

    def fail(self, lineno: int, problem: str) -> NoReturn:
        """Raise for line `lineno`, after the rows before it are checked."""
        self.flush()
        raise MalformedVectorLine(f"{self.path}:{lineno}: {problem}")


def load_vectors(path: str | Path, words: Container[str]) -> EmbeddingTable:
    """Load the rows of `words` from a word2vec/GloVe text-format file.

    Each line is ``token v1 v2 ... vd``; an optional leading header line
    holds the vocabulary size and dimension.  Trailing whitespace and
    blank lines are ignored; duplicate tokens keep their first occurrence.
    Every row is parsed and checked; only the rows of `words` are kept.
    """
    path = Path(path)
    parser = _RowParser(path, words)
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip()
            if not line:
                continue
            if not line.isascii() and (bad := _UNDECODABLE_RE.search(line)):
                parser.fail(lineno, "not valid UTF-8 (byte 0x%02x)"
                            % (ord(bad.group()) - 0xdc00))
            token, space, rest = line.partition(" ")
            if lineno == 1 and space and " " not in rest:
                try:
                    int(token), int(rest)
                    continue  # header line: count and dimension
                except ValueError:
                    pass
            if not token or not space:
                parser.fail(lineno, "expected token and vector components")
            parser.add(lineno, token, rest)
    parser.flush()
    return EmbeddingTable(dimension=parser.dimension, vectors=parser.vectors)


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
