"""Keyword extraction: NP counting, generic-term filtering, TF-IDF, top-K.

Scores use the smoothed inverse document frequency
``idf = ln((1 + N) / (1 + df)) + 1`` so a single-document run degenerates
to raw term frequency (idf is exactly 1 for every phrase).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .lexicon import WordnetLexicon, contains_lemma
from .preprocess import PreprocessedDoc


@dataclass(frozen=True)
class Keyword:
    phrase: str
    tf: int
    idf: float
    score: float


def count_candidates(doc: PreprocessedDoc) -> dict[str, int]:
    """Occurrence count of each normalized noun phrase in the document."""
    return dict(Counter(np.normalized for np in doc.noun_phrases))


def filter_generic(candidates: Mapping[str, int],
                   lexicon: WordnetLexicon) -> dict[str, int]:
    """Drop every phrase that exists, as a whole, in the WordNet index."""
    return {phrase: tf for phrase, tf in candidates.items()
            if not contains_lemma(lexicon, phrase)}


def score_tfidf(per_doc_counts: Sequence[Mapping[str, int]],
                target_index: int = 0) -> list[Keyword]:
    """TF-IDF scores for every phrase of the target document.

    ``per_doc_counts[target_index]`` is the document being mined; the other
    entries are background documents that only contribute to document
    frequency.  With a single document all idf values are 1 and scores
    equal raw counts.
    """
    if not 0 <= target_index < len(per_doc_counts):
        raise IndexError(
            f"target_index {target_index} out of range for "
            f"{len(per_doc_counts)} documents")
    n_docs = len(per_doc_counts)
    target = per_doc_counts[target_index]
    keywords = []
    for phrase, tf in target.items():
        df = sum(1 for counts in per_doc_counts if counts.get(phrase, 0) > 0)
        idf = math.log((1 + n_docs) / (1 + df)) + 1.0
        keywords.append(Keyword(phrase=phrase, tf=tf, idf=idf, score=tf * idf))
    return keywords


def select_top_k(keywords: Iterable[Keyword], k: int) -> list[Keyword]:
    """The k best keywords by (score desc, tf desc, phrase asc)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ordered = sorted(keywords, key=lambda kw: (-kw.score, -kw.tf, kw.phrase))
    return ordered[:k]


def extract_keywords(doc: PreprocessedDoc,
                     lexicon: WordnetLexicon | None = None,
                     background_docs: Sequence[PreprocessedDoc] = (),
                     *, top_k: int = 50) -> list[Keyword]:
    """Full chain: count NPs, filter generic terms, score, take top-K.

    Generic terms are filtered only when a `lexicon` is given.  The
    preprocessed `background_docs` feed document frequency only.
    """
    counts = count_candidates(doc)
    if lexicon is not None:
        counts = filter_generic(counts, lexicon)
    per_doc = [counts] + [count_candidates(bg) for bg in background_docs]
    return select_top_k(score_tfidf(per_doc, 0), top_k)


def keywords_to_tsv(keywords: Sequence[Keyword]) -> str:
    """TSV export: ``phrase<TAB>tf<TAB>idf<TAB>score``, one row per keyword."""
    lines = [f"{kw.phrase}\t{kw.tf}\t{kw.idf!r}\t{kw.score!r}"
             for kw in keywords]
    return "".join(line + "\n" for line in lines)
