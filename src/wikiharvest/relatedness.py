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
from typing import TYPE_CHECKING, Mapping

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


def load_vectors(path: str | Path) -> EmbeddingTable:
    """Load a word2vec/GloVe text-format vector file.

    Each line is ``token v1 v2 ... vd``; an optional leading header line
    holds the vocabulary size and dimension.  Trailing whitespace and
    blank lines are ignored; duplicate tokens keep their first occurrence.
    """
    import numpy as np
    path = Path(path)
    vectors: dict[str, np.ndarray] = {}
    dimension = 0
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip()
            if not line:
                continue
            fields = line.split(" ")
            if lineno == 1 and len(fields) == 2:
                try:
                    int(fields[0]), int(fields[1])
                    continue  # header line: count and dimension
                except ValueError:
                    pass
            token, values = fields[0], fields[1:]
            if not token or not values:
                raise MalformedVectorLine(
                    f"{path}:{lineno}: expected token and vector components")
            try:
                vec = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError as exc:
                raise MalformedVectorLine(f"{path}:{lineno}: {exc}") from exc
            if dimension == 0:
                dimension = vec.shape[0]
            elif vec.shape[0] != dimension:
                raise InconsistentDimension(
                    f"{path}:{lineno}: dimension {vec.shape[0]} != {dimension}")
            vectors.setdefault(token, vec)
    return EmbeddingTable(dimension=dimension, vectors=vectors)


def embed_document(text: str, table: EmbeddingTable) -> np.ndarray:
    """Mean vector of the in-vocabulary content tokens of `text`."""
    vec, _, _ = embed_document_with_stats(text, table)
    return vec


def embed_document_with_stats(text: str, table: EmbeddingTable
                              ) -> tuple[np.ndarray, int, int]:
    """Embedding plus (in-vocabulary, out-of-vocabulary) token counts."""
    import numpy as np
    total = np.zeros(table.dimension, dtype=np.float64)
    in_vocab = 0
    oov = 0
    for token in content_tokens(text):
        vec = table.vectors.get(token)
        if vec is None:
            oov += 1
        else:
            total += vec
            in_vocab += 1
    if in_vocab:
        total /= in_vocab
    return total, in_vocab, oov


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


def evaluate(corpus: Corpus, test_rs_text: str,
             table: EmbeddingTable) -> RelatednessReport:
    """Cosine of every corpus article against the test RS, with aggregates."""
    if len(corpus) == 0:
        raise EmptyCorpus("corpus has no articles")
    rs_vec, in_vocab, oov = embed_document_with_stats(test_rs_text, table)
    considered = in_vocab + oov
    oov_rate = oov / considered if considered else 0.0

    per_article = []
    for page_id, _title, text in corpus:
        art_vec = embed_document(text, table)
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
