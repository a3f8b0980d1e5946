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
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Container, Mapping

from .corpus import Corpus
from .errors import WikiHarvestError, utf8_problem
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
# ASCII separators that numpy skips around a number and float() rejects.
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _parse_chunk(path: Path, rows: list[tuple[int, str, str, str]],
                 dimension: int) -> np.ndarray:
    """Parse `rows`, ``(lineno, token, space, rest)``, into one block of
    `dimension` columns (of the first row's width when 0).

    numpy's parser reads a chunk whose rows all have a decodable token
    and components, none holding a separator only numpy skips; it rejects
    an undecodable byte among the components.  Any other chunk, and one
    numpy rejects or reads at another width, is parsed row by row with
    `float()`: that raises the first error in file order and accepts the
    spellings numpy rejects ("1_0", non-ASCII digits).
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
        if block is not None and \
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
        dimension = dimension or len(vec)
        if len(vec) != dimension:
            raise InconsistentDimension(
                f"{path}:{lineno}: dimension {len(vec)} != {dimension}")
        parsed.append(vec)
    return np.array(parsed, dtype=np.float64)


def _keep_rows(path: Path, rows: list[tuple[int, str, str, str]],
               dimension: int, words: Container[str],
               vectors: dict[str, np.ndarray]) -> int:
    """Parse one chunk and copy the rows of `words` not yet in `vectors`
    out of its block; returns the block's width.  A kept row is a copy:
    a view would keep the whole block alive."""
    block = _parse_chunk(path, rows, dimension)
    for (_, token, _, _), row in zip(rows, block):
        if token in words and token not in vectors:
            vectors[token] = row.copy()
    return block.shape[1]


def load_vectors(path: str | Path, words: Container[str]) -> EmbeddingTable:
    """Load the rows of `words` from a word2vec/GloVe text-format file.

    Each line is ``token v1 v2 ... vd``; an optional leading header line
    holds the vocabulary size and dimension.  Trailing whitespace and
    blank lines are ignored; duplicate tokens keep their first occurrence.
    Every row is parsed and checked, `_CHUNK_ROWS` at a time; only the
    rows of `words` are kept.
    """
    path = Path(path)
    vectors: dict[str, np.ndarray] = {}
    dimension = 0
    rows: list[tuple[int, str, str, str]] = []
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip()
            if not line:
                continue
            token, space, rest = line.partition(" ")
            if lineno == 1 and space and " " not in rest:
                try:
                    int(token), int(rest)
                    continue  # header line: count and dimension
                except ValueError:
                    pass
            rows.append((lineno, token, space, rest))
            if len(rows) == _CHUNK_ROWS:
                dimension = _keep_rows(path, rows, dimension, words, vectors)
                rows = []
    if rows:
        dimension = _keep_rows(path, rows, dimension, words, vectors)
    return EmbeddingTable(dimension=dimension, vectors=vectors)


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
