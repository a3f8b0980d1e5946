"""Checks of the program's outputs against values computed apart from it.

Expected values come from the benchmark's own graph walk, its own text
resolution and its own numpy arithmetic over the vectors it wrote; none
of them calls into `wikiharvest`.  Every check returns a list of problems,
empty when the output is right.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from workloads import Workload, words_of

TOLERANCE = 1e-9


@dataclass
class Expected:
    articles: set[int]
    texts: dict[int, str]                 # page id -> text after redirects
    report_counts: dict[str, int]         # planted word -> count in corpus
    scores: Optional[dict[int, float]]    # page id -> cosine with the test RS
    aggregates: Optional[dict[str, float]]
    rows_used: int


def reachable(graph: dict, seed_ids, depth: int) -> set[int]:
    """Seeds plus the pages of every category within depth-1 subcategory
    hops of a seed's listed (not hidden) categories."""
    arts, cats = graph["articles"], graph["categories"]
    members = defaultdict(list)
    for pid, art in arts.items():
        for cid in art["categories"]:
            members[cid].append(pid)
    found = set(seed_ids)
    level = {cid for pid in seed_ids for cid in arts[pid]["categories"]
             if cid in cats}
    seen = set(level)
    for _ in range(depth):
        following = set()
        for cid in level:
            found.update(members[cid])
            following.update(s for s in cats[cid]["subcats"] if s in cats)
        level = following - seen
        seen |= level
    return found


def resolved_text(graph: dict, pid: int) -> str:
    arts = graph["articles"]
    art = arts[pid]
    while art["redirect_to"] is not None and art["redirect_to"] in arts:
        art = arts[art["redirect_to"]]
    return art["text"]


def _embed(words: list[str], table: dict) -> np.ndarray:
    rows = [table[w] for w in words if w in table]
    if not rows:
        return np.zeros(len(next(iter(table.values()))))
    return np.sum(rows, axis=0) / len(rows)


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    return 0.0 if nu == 0.0 or nv == 0.0 else float(u @ v / (nu * nv))


def expected_values(wl: Workload) -> Expected:
    articles = reachable(wl.graph, wl.seed_ids, wl.depth)
    texts = {pid: resolved_text(wl.graph, pid) for pid in articles}
    planted = set(wl.report_words)
    counts = Counter(w for text in texts.values() for w in words_of(text)
                     if w in planted)
    test_words = words_of(wl.test_rs.read_text("utf-8"))
    used = set(test_words).union(*(words_of(t) for t in texts.values()))
    scores = aggregates = None
    if wl.vectors_table:
        rs_vec = _embed(test_words, wl.vectors_table)
        scores = {pid: _cosine(rs_vec, _embed(words_of(text), wl.vectors_table))
                  for pid, text in texts.items()}
        values = list(scores.values())
        aggregates = {
            "min": min(values), "max": max(values),
            "avg": sum(values) / len(values),
            "oov_rate": sum(w not in wl.vectors_table for w in test_words)
            / len(test_words)}
    return Expected(articles=articles, texts=texts,
                    report_counts={w: counts[w] for w in wl.report_words},
                    scores=scores, aggregates=aggregates,
                    rows_used=len(used & wl.vector_words))


# ---------------------------------------------------------------------------
# checks


def check_corpus(files: dict[str, bytes], exp: Expected,
                 seed_ids=()) -> list[str]:
    """The mined article set and every article's text.

    `files` is the output tree as read by `tree()`.
    """
    manifest = json.loads(files["manifest.json"])
    entries = {e["page_id"]: e for e in manifest["articles"]}
    problems = []
    if set(entries) != exp.articles:
        missing = sorted(exp.articles - set(entries))[:5]
        extra = sorted(set(entries) - exp.articles)[:5]
        problems.append(f"article set: {len(entries)} mined, "
                        f"{len(exp.articles)} expected; missing {missing}, "
                        f"unexpected {extra}")
    if not set(seed_ids) <= set(entries):
        problems.append("not every key phrase's seed article was mined")
    for pid in sorted(set(entries) & exp.articles):
        text = files.get(entries[pid]["relative_path"])
        if text != exp.texts[pid].encode("utf-8"):
            problems.append(f"article {pid}: text differs from the generator's")
            break
    return problems


def tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def check_replay(cold_tree: dict[str, bytes],
                 warm: dict[str, bytes]) -> list[str]:
    """The offline replay must write the cold mine's tree byte for byte."""
    if warm == cold_tree:
        return []
    differ = sorted(k for k in cold_tree.keys() | warm.keys()
                    if cold_tree.get(k) != warm.get(k))
    return [f"offline replay differs from the cold mine in {len(differ)} "
            f"files, e.g. {differ[:3]}"]


def parse_report(tsv: str) -> dict[str, int]:
    rows = [line.split("\t") for line in tsv.splitlines() if line]
    return {term: int(count) for term, count in rows}


def check_report(tsv: str, exp: Expected,
                 top_terms: Optional[list[str]] = None) -> list[str]:
    """Planted counts, or for the recorded graph its recorded top terms."""
    got = parse_report(tsv)
    problems = [f"report: {w!r} counted {got.get(w)}, planted {n}"
                for w, n in exp.report_counts.items() if got.get(w) != n]
    if top_terms is not None and list(got)[:len(top_terms)] != top_terms:
        problems.append(f"report: top terms {list(got)[:len(top_terms)]}, "
                        f"recorded {top_terms}")
    return problems


def check_eval(report_json: str, scores: dict[int, float],
               aggregates: dict[str, float]) -> list[str]:
    """Per-article cosines and the four aggregates, within 1e-9."""
    got = json.loads(report_json)
    per = {e["page_id"]: e["score"] for e in got["per_article"]}
    problems = []
    if set(per) != set(scores):
        problems.append(f"eval: {len(per)} articles scored, "
                        f"{len(scores)} expected")
    bad = [pid for pid in set(per) & set(scores)
           if abs(per[pid] - scores[pid]) > TOLERANCE]
    if bad:
        pid = bad[0]
        problems.append(f"eval: {len(bad)} scores off, e.g. page {pid}: "
                        f"{per[pid]!r} vs {scores[pid]!r}")
    for key, want in aggregates.items():
        if abs(got[key] - want) > TOLERANCE:
            problems.append(f"eval: {key} {got[key]!r}, expected {want!r}")
    return problems
