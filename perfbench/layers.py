"""Per-layer values from the spans of one traced operation.

Each function appends one value per metric to `out` (metric -> samples);
the benchmark reports the median.  A value the program no longer exposes
in the shape read here raises, and the traced run fails.
"""

from __future__ import annotations

from pathlib import Path


def dir_size(root: Path) -> tuple[int, int]:
    """Number of files under `root` and their total size in bytes."""
    files = [p for p in root.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def _children(spans, name):
    return [s for s in spans if s.name == name and s.parent is not None
            and s.parent.parent is None]


def _one(spans, name):
    return _children(spans, name)[0]


def _add(out, key, value) -> None:
    out[key].append(float(value))


def frontier_sizes(spans) -> list[int]:
    """Categories expanded at each hop, rebuilt from the listings seen."""
    level: set[int] = set()
    members: dict[int, list[int]] = {}
    for s in spans:
        if s.result is None:
            continue
        if s.name == "crawler.list_categories":
            level.update(c.page_id for c in s.result)
        elif s.name == "crawler.list_category_members":
            members[s.args[1].page_id] = [c.page_id for c in s.result[1]]
    sizes, seen = [], set(level)
    while level and level <= members.keys():
        sizes.append(len(level))
        level = {c for cid in level for c in members[cid]} - seen
        seen |= level
    return sizes


def mine_cold(out, spans, corpus_dir: Path, cache_dir: Path) -> None:
    lexicon = _one(spans, "lexicon.load_wordnet")
    _add(out, "lexicon.load_s", lexicon.seconds)
    _add(out, "lexicon.lemmas_loaded",
         sum(len(v) for v in lexicon.result.entries.values()))

    pre = _children(spans, "preprocess.preprocess")
    pre_s = sum(s.seconds for s in pre)
    pre_bytes = sum(len(s.args[1]) for s in pre)
    _add(out, "preprocess.rs_s", pre_s)
    _add(out, "preprocess.rs_kb_per_s", pre_bytes / 1024 / pre_s)
    _add(out, "preprocess.tokens", sum(
        len(sent.tokens) for s in pre for sent in s.result.sentences))

    kw = _one(spans, "keywords.extract_keywords")
    _add(out, "keywords.extract_s", kw.seconds)
    _add(out, "keywords.candidates",
         len({np.normalized for np in kw.args[0].noun_phrases}))

    search = _one(spans, "crawler.search_keywords")
    _add(out, "crawler.search_s", search.seconds)
    _add(out, "crawler.search_requests", search.counts.get("requests", 0))
    _add(out, "crawler.search_hits",
         sum(ref is not None for _kw, ref in search.result))
    _add(out, "crawler.search_misses",
         sum(ref is None for _kw, ref in search.result))

    expand = _one(spans, "crawler.expand")
    _add(out, "crawler.expand_s", expand.seconds)
    _add(out, "crawler.expand_requests", expand.counts.get("requests", 0))
    _add(out, "crawler.categories_listed", len(
        [s for s in spans if s.name == "crawler.list_category_members"]))
    _add(out, "crawler.frontier_max", max(frontier_sizes(spans)))

    fetch = _one(spans, "crawler.fetch_all_texts")
    _add(out, "crawler.fetch_s", fetch.seconds)
    _add(out, "crawler.fetch_requests", fetch.counts.get("requests", 0))
    _add(out, "crawler.cache_bytes_written", dir_size(cache_dir)[1])
    requests = sum(s.counts.get("requests", 0) for s in spans)
    _add(out, "crawler.articles_per_request", len(fetch.result) / requests)

    write = _one(spans, "corpus.write_corpus")
    files, size = dir_size(corpus_dir)
    _add(out, "corpus.write_s", write.seconds)
    _add(out, "corpus.files_written", files)
    _add(out, "corpus.bytes_written", size)


def mine_warm(out, spans) -> None:
    gets = [s for s in spans if s.name == "crawler.transport_get"
            and s.result is not None]
    _add(out, "crawler.cache_hits", len(gets))
    _add(out, "crawler.cache_hit_s", sum(s.seconds for s in gets))


def report(out, spans, corpus_bytes: int) -> None:
    for s in spans:
        if s.name == "corpus.load_corpus":
            _add(out, "corpus.load_s", s.seconds)
    freq = [s for s in spans if s.name == "corpus.frequency_report"]
    _add(out, "corpus.report_s", freq[0].seconds)
    _add(out, "corpus.report_kb_per_s",
         corpus_bytes / 1024 / freq[0].seconds)


def evaluation(out, spans, vectors: Path, rows_used: int) -> None:
    for s in spans:
        if s.name == "corpus.load_corpus":
            _add(out, "corpus.load_s", s.seconds)
    load = [s for s in spans if s.name == "relatedness.load_vectors"]
    _add(out, "relatedness.load_vectors_s", load[0].seconds)
    _add(out, "relatedness.load_vectors_mb_per_s",
         vectors.stat().st_size / 2**20 / load[0].seconds)
    _add(out, "relatedness.rows_loaded", len(load[0].result.vectors))
    _add(out, "relatedness.rows_used", rows_used)
    ev = [s for s in spans if s.name == "relatedness.evaluate"]
    _add(out, "relatedness.evaluate_s", ev[0].seconds)
    _add(out, "relatedness.articles_per_s",
         len(ev[0].result.per_article) / ev[0].seconds)
