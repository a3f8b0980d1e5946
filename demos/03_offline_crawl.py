#!/usr/bin/env python3
# Crawl the category graph around keyword-matched articles.  This demo
# replays the recorded railway graph through the fake API server so it
# runs without network access; against live Wikipedia you would build
# the transport without a fetcher override:
#
#   transport = CachedTransport(cache_dir="cache")  # real HTTPS
#
import tempfile
from pathlib import Path

from wikiharvest.crawler import (CachedTransport, WikiClient, dedupe_seeds,
                                 expand, search_keywords)
from wikiharvest.lexicon import load_wordnet, make_lemmatizer
from wikiharvest.preprocess import Pipeline
from wikiharvest.testing import FakeWiki

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

wiki = FakeWiki.from_path(FIXTURES / "railway_graph.json")
lexicon = load_wordnet(FIXTURES / "wordnet_mini")
pipeline = Pipeline(lemmatizer=make_lemmatizer(lexicon))
client = WikiClient(wiki, pipeline)

# partial title matching: the keyword only needs one shared content token
for keyword in ("rail transport system", "driver machine interface",
                "no such railway phrase"):
    ref = client.search_article(keyword)
    print(f"search {keyword!r:<28} -> "
          f"{ref.title if ref else '(no match)'}")

matches = search_keywords(client, [
    "rail transport system", "emergency brake", "level crossing protection",
    "movement authority", "balise telegram",
])
seeds = dedupe_seeds(matches)
print(f"\n{len(seeds)} distinct seed articles")

for depth in (0, 1, 2):
    result = expand(client, seeds, depth=depth)
    print(f"depth {depth}: {len(result.articles)} articles"
          f"{' (frontier truncated)' if result.frontier_truncated else ''}")

# the category structure behind the growth at depth 1
seed = seeds[0]
cats = client.list_categories(seed)
print(f"\ncategories of {seed.title!r}: {[c.title for c in cats]}")
pages, subcats = client.list_category_members(cats[0])
print(f"{cats[0].title}: {len(pages)} pages, {len(subcats)} subcategories")

# demonstrate offline replay through the on-disk cache
with tempfile.TemporaryDirectory() as tmp:
    cache_dir = Path(tmp) / "cache"
    warm = CachedTransport(cache_dir=cache_dir, fetcher=wiki.fetcher(),
                           request_delay_ms=0)
    expand(WikiClient(warm, pipeline), seeds, depth=1)
    replay = CachedTransport(cache_dir=cache_dir, offline=True)
    result = expand(WikiClient(replay), seeds, depth=1)
print(f"\noffline replay from cache: {len(result.articles)} articles, "
      f"{replay.network_requests} network requests")
