"""A fake MediaWiki server for offline tests and recorded fixtures.

:class:`FakeWiki` holds an explicit article/category graph and answers the
same request shapes the crawler issues (search, categories, category
members, extracts), including continuation chunking.  It can serve
requests three ways:

* ``get()`` -- a FakeWiki is itself an in-memory transport, so it can be
  passed straight to :class:`~wikiharvest.crawler.WikiClient`;
* ``fetcher()`` -- an HTTP-shaped callable to plug into
  :class:`~wikiharvest.crawler.CachedTransport`, which is how tests warm a
  real on-disk cache for ``--offline`` CLI runs;
* ``to_json()`` / ``from_json()`` -- the serialized graph format used for
  recorded fixtures.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Mapping, Optional, Sequence
from urllib.parse import parse_qsl, urlsplit

from .crawler import ARTICLE_NAMESPACE, CATEGORY_NAMESPACE

CATEGORY_PREFIX = "Category:"


class FakeWiki:
    """An explicit wiki graph that mimics the MediaWiki Action API."""

    def __init__(self, chunk_size: int = 500):
        self.chunk_size = chunk_size
        self.articles: dict[int, dict] = {}
        self.categories: dict[int, dict] = {}
        self.searches: dict[str, list[int]] = {}

    # -- construction -------------------------------------------------

    def add_article(self, page_id: int, title: str, text: str = "",
                    categories: Sequence[int] = (),
                    hidden_categories: Sequence[int] = (),
                    disambiguation: bool = False,
                    redirect_to: Optional[int] = None) -> int:
        self.articles[page_id] = {
            "title": title,
            "text": text,
            "categories": list(categories),
            "hidden_categories": list(hidden_categories),
            "disambiguation": disambiguation,
            "redirect_to": redirect_to,
        }
        return page_id

    def add_category(self, page_id: int, name: str,
                     subcats: Sequence[int] = ()) -> int:
        title = name if name.startswith(CATEGORY_PREFIX) else CATEGORY_PREFIX + name
        self.categories[page_id] = {"title": title, "subcats": list(subcats)}
        return page_id

    def add_search(self, keyword: str, page_ids: Sequence[int]) -> None:
        self.searches[keyword] = list(page_ids)

    # -- derived from the graph on every call ---------------------------

    def members_of(self, cat_id: int) -> list[int]:
        """Article page ids directly inside a category, ascending."""
        return [pid for pid in sorted(self.articles)
                for cid in self.articles[pid]["categories"] if cid == cat_id]

    # -- request handling ----------------------------------------------

    def get(self, params: Mapping[str, str]) -> dict:
        """Answer one Action API request given its query parameters."""
        if params.get("action") != "query":
            return {"error": {"code": "unknown_action",
                              "info": f"unsupported action {params.get('action')}"}}
        if params.get("generator") == "search":
            return self._handle_search(params)
        if params.get("generator") == "categories":
            return self._handle_categories(params)
        if params.get("list") == "categorymembers":
            return self._handle_members(params)
        if params.get("prop") == "extracts":
            return self._handle_extract(params)
        return {"error": {"code": "badquery", "info": "unsupported query shape"}}

    def _handle_search(self, params: Mapping[str, str]) -> dict:
        keyword = params.get("gsrsearch", "")
        limit = int(params.get("gsrlimit", "10"))
        hits = [pid for pid in self.searches.get(keyword, [])
                if pid in self.articles][:limit]
        pages = []
        for rank, pid in enumerate(hits, start=1):
            art = self.articles[pid]
            page = {"pageid": pid, "ns": ARTICLE_NAMESPACE,
                    "title": art["title"], "index": rank}
            if art["disambiguation"]:
                page["pageprops"] = {"disambiguation": ""}
            pages.append(page)
        resp: dict = {"batchcomplete": True}
        if pages:
            resp["query"] = {"pages": pages}
        return resp

    def _handle_categories(self, params: Mapping[str, str]) -> dict:
        pid = int(params["pageids"])
        art = self.articles.get(pid)
        if art is None:
            return {"batchcomplete": True,
                    "query": {"pages": [{"pageid": pid, "missing": True}]}}
        cat_ids = sorted(cid for cid in art["categories"]
                         if cid in self.categories)
        offset = int(params.get("gclcontinue", "0"))
        chunk = cat_ids[offset:offset + self.chunk_size]
        pages = [{"pageid": cid, "ns": CATEGORY_NAMESPACE,
                  "title": self.categories[cid]["title"]} for cid in chunk]
        resp: dict = {"batchcomplete": True}
        if pages:
            resp["query"] = {"pages": pages}
        if offset + self.chunk_size < len(cat_ids):
            resp["continue"] = {"gclcontinue": str(offset + self.chunk_size),
                                "continue": "gclcontinue||"}
        return resp

    def _handle_members(self, params: Mapping[str, str]) -> dict:
        by_title = {cat["title"]: cid for cid, cat in self.categories.items()}
        cat_id = by_title.get(params.get("cmtitle", ""))
        members: list[dict] = []
        if cat_id is not None:
            for pid in self.members_of(cat_id):
                members.append({"pageid": pid, "ns": ARTICLE_NAMESPACE,
                                "title": self.articles[pid]["title"]})
            for scid in sorted(self.categories[cat_id]["subcats"]):
                if scid in self.categories:
                    members.append({"pageid": scid, "ns": CATEGORY_NAMESPACE,
                                    "title": self.categories[scid]["title"]})
        offset = int(params.get("cmcontinue", "0"))
        chunk = members[offset:offset + self.chunk_size]
        resp: dict = {"batchcomplete": True,
                      "query": {"categorymembers": chunk}}
        if offset + self.chunk_size < len(members):
            resp["continue"] = {"cmcontinue": str(offset + self.chunk_size),
                                "continue": "cmcontinue||"}
        return resp

    def _handle_extract(self, params: Mapping[str, str]) -> dict:
        pid = int(params["pageids"])
        art = self.articles.get(pid)
        if art is None:
            return {"batchcomplete": True,
                    "query": {"pages": [{"pageid": pid, "missing": True}]}}
        resp: dict = {"batchcomplete": True}
        redirects = []
        while art["redirect_to"] is not None:
            target_id = art["redirect_to"]
            target = self.articles.get(target_id)
            if target is None:
                break
            redirects.append({"from": art["title"], "to": target["title"]})
            pid, art = target_id, target
        page = {"pageid": pid, "ns": ARTICLE_NAMESPACE,
                "title": art["title"], "extract": art["text"]}
        query: dict = {"pages": [page]}
        if redirects:
            query["redirects"] = redirects
        resp["query"] = query
        return resp

    # -- adapters -------------------------------------------------------

    def fetcher(self):
        """HTTP-shaped adapter: (url, headers) -> (200, json body)."""
        def fetch(url: str, headers: Mapping[str, str]) -> tuple[int, str]:
            params = dict(parse_qsl(urlsplit(url).query))
            return 200, json.dumps(self.get(params))
        return fetch

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "chunk_size": self.chunk_size,
            "articles": {str(pid): art for pid, art in sorted(self.articles.items())},
            "categories": {str(cid): cat
                           for cid, cat in sorted(self.categories.items())},
            "searches": {kw: ids for kw, ids in sorted(self.searches.items())},
        }
        return json.dumps(payload, ensure_ascii=False, indent=1) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FakeWiki":
        data = json.loads(text)
        wiki = cls(chunk_size=data.get("chunk_size", 500))
        for pid, art in data.get("articles", {}).items():
            wiki.articles[int(pid)] = dict(art)
        for cid, cat in data.get("categories", {}).items():
            wiki.categories[int(cid)] = dict(cat)
        for kw, ids in data.get("searches", {}).items():
            wiki.searches[kw] = list(ids)
        return wiki

    @classmethod
    def from_path(cls, path: str | Path) -> "FakeWiki":
        return cls.from_json(Path(path).read_text("utf-8"))


# ---------------------------------------------------------------------------
# reference traversal and graph fuzzing


def reachable_articles(wiki: FakeWiki, seed_ids: Sequence[int],
                       depth: int) -> set[int]:
    """Reference breadth-first traversal straight over the graph dicts.

    Independent of the crawler: used as the expected-value oracle for
    expansion tests.  Pages of categories within `depth - 1` subcategory
    hops of a seed's categories are included; depth 0 is seeds only.
    """
    ids = set(seed_ids)
    frontier: set[int] = set()
    for pid in seed_ids:
        frontier.update(cid for cid in wiki.articles[pid]["categories"]
                        if cid in wiki.categories)
    visited = set(frontier)
    for _hop in range(depth):
        next_frontier: set[int] = set()
        for cid in frontier:
            ids.update(wiki.members_of(cid))
            for scid in wiki.categories[cid]["subcats"]:
                if scid in wiki.categories and scid not in visited:
                    next_frontier.add(scid)
        visited.update(next_frontier)
        frontier = next_frontier
    return ids


def random_wiki(rng: random.Random,
                max_categories: int = 40,
                max_articles: int = 200) -> tuple[FakeWiki, list[int]]:
    """A random category graph (cycles allowed) plus a seed article set."""
    chunk = rng.choice([3, 11, 500])
    wiki = FakeWiki(chunk_size=chunk)
    n_cats = rng.randint(1, max_categories)
    n_arts = rng.randint(1, max_articles)
    cat_ids = [10_000 + i for i in range(n_cats)]
    for cid in cat_ids:
        wiki.add_category(cid, f"Topic {cid}")
    # subcat edges drawn freely, so cycles (including self-loops) occur
    for cid in cat_ids:
        n_edges = rng.randint(0, min(3, n_cats))
        wiki.categories[cid]["subcats"] = rng.sample(cat_ids, n_edges)
    for i in range(n_arts):
        pid = 1 + i
        n_memberships = rng.randint(0, min(3, n_cats))
        wiki.add_article(pid, f"Article {pid}",
                         text=f"text of article {pid}",
                         categories=rng.sample(cat_ids, n_memberships))
    seed_count = rng.randint(1, min(5, n_arts))
    seeds = sorted(rng.sample(sorted(wiki.articles), seed_count))
    return wiki, seeds
