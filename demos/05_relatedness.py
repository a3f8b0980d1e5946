#!/usr/bin/env python3
# How domain-representative is a corpus?  Embed each article and a
# held-out requirements specification as mean word vectors, then report
# the min/avg/max cosine similarity.

from pathlib import Path

from wikiharvest.corpus import load_corpus
from wikiharvest.relatedness import (cosine, embed_document, eval_texts,
                                     evaluate, load_vectors)

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

# Tokenize the corpus and the held-out RS once; the vector file is then
# read in full and checked, but only the rows of their words are kept.  A
# large file is checked by forked workers after the texts are tokenized;
# this toy one is checked in-process.
corpus = load_corpus(FIXTURES / "transport_corpus")
test_rs = (FIXTURES / "transport_test_rs.txt").read_text("utf-8")
texts = eval_texts(corpus, test_rs)
table = load_vectors(FIXTURES / "vectors_toy.txt", texts.words)
print(f"embedding table: {len(table.vectors)} of {len(texts.words)} "
      f"distinct words kept, dimension {table.dimension}")

# document vectors are plain means of in-vocabulary token vectors
vec = embed_document("traffic flows along the road", table)
same = cosine(vec, embed_document("road traffic", table))
print(f"cosine against a related snippet: {same:.4f}\n")

report = evaluate(texts, table)

print(f"per-article cosine scores against the held-out RS "
      f"({len(report.per_article)} articles):")
for page_id, score in report.per_article:
    print(f"  {page_id}: {score:.4f}")
print(f"\nmin={report.min:.4f} avg={report.avg:.4f} max={report.max:.4f} "
      f"oov_rate={report.oov_rate:.4f}")
