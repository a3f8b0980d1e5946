#!/usr/bin/env python3
# Extract the top-K domain keywords from a requirements specification:
# count noun phrases, drop phrases that exist in WordNet (too generic),
# score with TF-IDF, keep the K best.

from pathlib import Path

from wikiharvest.keywords import (count_candidates, extract_keywords,
                                  filter_generic, keywords_to_tsv)
from wikiharvest.lexicon import load_wordnet, make_lemmatizer
from wikiharvest.preprocess import Pipeline

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

lexicon = load_wordnet(FIXTURES / "wordnet_mini")
pipeline = Pipeline(lemmatizer=make_lemmatizer(lexicon))

rs_text = (FIXTURES / "railway_rs.txt").read_text("utf-8")
doc = pipeline.preprocess(rs_text, source_id="railway_rs.txt")

candidates = count_candidates(doc)
survivors = filter_generic(candidates, lexicon)
print(f"{len(candidates)} distinct noun phrases, "
      f"{len(survivors)} survive the WordNet filter")

# "rover" alone is a WordNet entry and would be dropped; "lunar rover"
# is not an entry, so the multi-word phrase survives:
example = filter_generic({"rover": 3, "lunar rover": 2}, lexicon)
print(f"filter example: {{'rover': 3, 'lunar rover': 2}} -> {example}\n")

# single-document runs have idf = 1, so scores equal raw counts
keywords = extract_keywords(doc, lexicon, top_k=15)
print("top 15 keywords (phrase, tf, idf, score):")
print(keywords_to_tsv(keywords))
