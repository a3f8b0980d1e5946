"""MediaWiki crawling: keyword search, category traversal, text extracts.

All requests go through a transport with an on-disk response log keyed
by the canonical request URL.  With a warm cache the crawler runs fully
offline; in `offline` mode a cache miss is a hard error, which is what
makes recorded crawls replayable byte-for-byte.

Expansion is breadth-first over the category graph.  Depth 0 keeps only
the directly matched seed articles; depth d additionally includes the
pages of every category within d-1 subcategory hops of a seed's own
categories.  A visited set makes traversal terminate on the cyclic
category graph, and results are merged level by level in category order
so the output is independent of fetch interleaving.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import (Callable, Iterable, Iterator, Mapping, Optional,
                    Sequence, TypeVar)
from urllib.parse import urlencode

from . import __version__
from .errors import WikiHarvestError
from .preprocess import (NOUN, Pipeline, content_tokens, default_pipeline,
                         lemmatize)

log = logging.getLogger(__name__)

DEFAULT_ENDPOINT = "https://en.wikipedia.org/w/api.php"
DEFAULT_USER_AGENT = f"wikiharvest/{__version__}"

ARTICLE_NAMESPACE = 0
CATEGORY_NAMESPACE = 14

SEARCH_LIMIT = 5        # search results considered per keyword
MIN_TITLE_OVERLAP = 1   # content tokens a title must share with its keyword
LOG_NAME = "responses.jsonl"  # the response log under a cache directory
MAX_ATTEMPTS = 3        # network attempts per request
BACKOFF_MS = 500        # wait before the first retry; doubles per retry


class CrawlerError(WikiHarvestError):
    pass


class NetworkError(CrawlerError):
    """Transport-level failure after retries were exhausted."""


class OfflineCacheMiss(NetworkError):
    """Offline mode requested a URL that is not in the cache."""


class ApiError(CrawlerError):
    """The MediaWiki API answered with an error payload or bad status."""


class PageMissing(CrawlerError):
    pass


@dataclass(frozen=True)
class ArticleRef:
    title: str
    page_id: int


@dataclass(frozen=True)
class CategoryRef:
    title: str
    page_id: int


@dataclass(frozen=True)
class CrawlResult:
    articles: tuple[ArticleRef, ...]
    frontier_truncated: bool


Ref = TypeVar("Ref", ArticleRef, CategoryRef)


def _by_page_id(refs: Iterable[Ref]) -> list[Ref]:
    """The first ref of each page id, in page-id order."""
    first: dict[int, Ref] = {}
    for ref in refs:
        first.setdefault(ref.page_id, ref)
    return sorted(first.values(), key=lambda r: r.page_id)


# ---------------------------------------------------------------------------
# transport

# The parameters every request shares; each `WikiClient` method adds its own.
_QUERY = {"action": "query", "format": "json", "formatversion": "2"}


def canonical_url(endpoint: str, params: Mapping[str, str]) -> str:
    """Deterministic URL for a request: sorted, URL-encoded parameters."""
    return endpoint + "?" + urlencode(sorted(params.items()))


# A fetcher performs one HTTP GET: (url, headers) -> (status_code, body).
Fetcher = Callable[[str, Mapping[str, str]], tuple[int, str]]


def _requests_fetcher(url: str, headers: Mapping[str, str]) -> tuple[int, str]:
    import requests

    try:
        resp = requests.get(url, headers=dict(headers), timeout=30)
    except requests.RequestException as exc:
        raise NetworkError(f"{url}: {exc}") from exc
    return resp.status_code, resp.text


class CachedTransport:
    """HTTP layer with disk cache, retries, and a politeness delay.

    Cache layout: one append-only log, ``<cache_dir>/responses.jsonl``,
    with one line per response: canonical URL, tab, JSON body, newline.
    The first `get` indexes the log (URL -> body offset and length, not
    the body); a hit reads its body with `os.pread`.  The log is opened
    per call and closed before it returns: a transport holds no file.

    A miss appends under the transport's lock and an exclusive
    `fcntl.flock`, first indexing what other processes appended and
    cutting off a torn last record (no newline), which is never read as
    a response.  In offline mode the log is only read, and a miss raises
    :class:`OfflineCacheMiss`.  Hits never touch the network or sleep.
    A body that is not a JSON object raises :class:`CrawlerError` naming
    the log and the URL; it is never refetched.  Network requests from
    all threads sharing one transport start `request_delay_ms` apart.
    """

    def __init__(self,
                 endpoint: str = DEFAULT_ENDPOINT,
                 *,
                 cache_dir: str | Path,
                 offline: bool = False,
                 user_agent: str = DEFAULT_USER_AGENT,
                 request_delay_ms: int = 100,
                 fetcher: Fetcher | None = None):
        if "\t" in endpoint or "\n" in endpoint:
            raise ValueError(f"endpoint {endpoint!r} contains a tab or newline")
        self.endpoint = endpoint
        self.cache_dir = Path(cache_dir)
        self.log_path = self.cache_dir / LOG_NAME
        self.offline = offline
        self.user_agent = user_agent
        self.request_delay_ms = request_delay_ms
        self.fetcher = fetcher or _requests_fetcher
        self.network_requests = 0
        self._next_slot = 0.0    # earliest start of the next network request
        self._lock = threading.Lock()
        self._index: Optional[dict[str, tuple[int, int]]] = None
        self._end = 0            # log offset just past the last indexed record

    def get(self, params: Mapping[str, str]) -> dict:
        url = canonical_url(self.endpoint, params)
        if self._index is None:
            with self._lock:
                if self._index is None:
                    self._index = self._read_log()
        found = self._index.get(url)
        if found is not None:
            offset, length = found
            with open(self.log_path, "rb", buffering=0) as fh:
                body = os.pread(fh.fileno(), length, offset)
            try:
                data = json.loads(body.decode("utf-8"))
            except ValueError:
                data = None
            if not isinstance(data, dict):
                raise CrawlerError(f"{self.log_path}: cached response for "
                                   f"{url} is not a JSON object")
            return data
        if self.offline:
            hint = ("" if self.log_path.exists()
                    or not any(self.cache_dir.glob("*.json")) else
                    f"; {self.cache_dir} holds per-response *.json files, "
                    "which this version does not read: re-mine it online")
            raise OfflineCacheMiss(
                f"offline mode: no cached response for {url}{hint}")
        data = self._fetch(url)
        self._append(url, data)
        return data

    def _read_log(self) -> dict[str, tuple[int, int]]:
        """Index the log's complete records under a shared lock."""
        index: dict[str, tuple[int, int]] = {}
        try:
            fh = open(self.log_path, "rb")
        except FileNotFoundError:
            return index
        with fh:
            fcntl.flock(fh, fcntl.LOCK_SH)
            self._scan(fh, index)
        return index

    def _scan(self, fh, index: dict[str, tuple[int, int]]) -> int:
        """Index the complete records from `self._end` on and move
        `self._end` past them.  Returns the log's size, which is larger
        than `self._end` when the last record is torn."""
        fh.seek(self._end)
        pos = self._end
        for line in fh:
            if not line.endswith(b"\n"):
                break                      # torn: never a response
            tab = line.find(b"\t")
            if tab < 0:
                raise CrawlerError(f"{self.log_path}: the record at byte "
                                   f"{pos} is not <url>\\t<json body>")
            url = line[:tab].decode("utf-8", "surrogateescape")
            index[url] = (pos + tab + 1, len(line) - tab - 2)
            pos += len(line)
        self._end = pos
        return fh.seek(0, os.SEEK_END)

    def _append(self, url: str, data: dict) -> None:
        """Append one record, unless another thread or process already
        logged this URL; a torn last record is cut off first."""
        record = f"{url}\t{json.dumps(data)}\n".encode("utf-8")
        with self._lock:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            with open(self.log_path, "a+b") as fh:
                fcntl.flock(fh, fcntl.LOCK_EX)    # released by the close
                size = self._scan(fh, self._index)
                if size < self._end:
                    raise CrawlerError(f"{self.log_path}: shorter than when "
                                       "it was read; another program cut it")
                if size > self._end:
                    fh.truncate(self._end)        # cut a torn last record
                if url in self._index:
                    return
                fh.write(record)
                fh.flush()
                tab = record.index(b"\t")
                self._index[url] = (self._end + tab + 1, len(record) - tab - 2)
                self._end += len(record)

    def _polite_wait(self) -> None:
        """Reserve the next request slot under the lock, then sleep until it."""
        if self.request_delay_ms <= 0:
            return
        with self._lock:
            now = time.monotonic()
            slot = max(now, self._next_slot)
            self._next_slot = slot + self.request_delay_ms / 1000.0
        if slot > now:
            time.sleep(slot - now)

    def _fetch(self, url: str) -> dict:
        last_error: Optional[NetworkError] = None
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                time.sleep(BACKOFF_MS * (2 ** (attempt - 1)) / 1000.0)
            self._polite_wait()
            try:
                status, body = self.fetcher(url, {"User-Agent": self.user_agent})
            except NetworkError as exc:
                last_error = exc
                log.warning("attempt %d failed: %s", attempt + 1, exc)
                continue
            except OSError as exc:
                last_error = NetworkError(f"{url}: {exc}")
                log.warning("attempt %d failed: %s", attempt + 1, exc)
                continue
            with self._lock:
                self.network_requests += 1
            if status == 429 or 500 <= status < 600:
                last_error = NetworkError(f"{url}: HTTP status {status}")
                log.warning("attempt %d got status %d", attempt + 1, status)
                continue
            if status != 200:
                raise ApiError(f"{url}: unexpected HTTP status {status}")
            try:
                data = json.loads(body)
            except json.JSONDecodeError as exc:
                raise ApiError(f"{url}: response is not JSON ({exc})") from exc
            if not isinstance(data, dict):
                raise ApiError(f"{url}: response is not a JSON object")
            if "error" in data:
                raise ApiError(f"{url}: {data['error']}")
            return data
        assert last_error is not None
        raise last_error


# ---------------------------------------------------------------------------
# title matching


def _head_lemmatized(text: str, pipeline: Pipeline) -> set[str]:
    """Content tokens, the last (head) one as the pipeline's noun lemma."""
    words = content_tokens(text)
    if words:
        words[-1] = lemmatize(words[-1], NOUN, pipeline.lemmatizer)
    return set(words)


def title_overlap(title: str, keyword: str,
                  pipeline: Pipeline | None = None) -> bool:
    """True iff title and keyword share at least `MIN_TITLE_OVERLAP` content
    tokens of the given (or default) pipeline."""
    pipeline = pipeline or default_pipeline()
    shared = _head_lemmatized(title, pipeline) & _head_lemmatized(keyword, pipeline)
    return len(shared) >= MIN_TITLE_OVERLAP


# ---------------------------------------------------------------------------
# client


def _well_shaped(item: object) -> bool:
    """Whether a listed page's fields have the types the client reads;
    all but a missing page have a title, a page id and a namespace."""
    return isinstance(item, dict) and (
        bool(item.get("missing")) or {"title", "pageid", "ns"} <= item.keys()
    ) and all(type(item[key]) is kind for key, kind in (
        ("title", str), ("pageid", int), ("ns", int), ("index", int),
        ("pageprops", dict), ("extract", str)) if key in item)


class WikiClient:
    """Typed operations over the MediaWiki Action API."""

    def __init__(self, transport: CachedTransport,
                 pipeline: Pipeline | None = None):
        self.transport = transport
        self.pipeline = pipeline or default_pipeline()

    def _url(self, params: Mapping[str, str]) -> str:
        return canonical_url(getattr(self.transport, "endpoint", ""), params)

    def _reply(self, params: dict[str, str], key: str) -> tuple[list, dict]:
        """What the reply to `params` lists under ``query[key]``, and its
        `continue` object; any other shape raises :class:`ApiError`."""
        resp = self.transport.get(params)
        query, cont = resp.get("query") or {}, resp.get("continue") or {}
        items = (query.get(key) or []) if isinstance(query, dict) else None
        if (isinstance(items, list) and isinstance(cont, dict)
                and all(map(_well_shaped, items))):
            return items, cont
        raise ApiError(f"{self._url(params)}: reply does not list query "
                       f"{key} as expected")

    def _query_all(self, params: dict[str, str], key: str) -> Iterator[dict]:
        """The pages listed under ``query[key]`` that are not missing,
        following `continue` tokens until drained.  A `continue` back to
        a request this listing already sent raises :class:`ApiError`."""
        request, sent = params, []
        while True:
            items, raw = self._reply(request, key)
            yield from (item for item in items if not item.get("missing"))
            if not raw:
                return
            sent.append(request)
            request = {**params, **{str(k): str(v) for k, v in raw.items()}}
            if request in sent:
                raise ApiError(f"{self._url(sent[-1])}: reply continues to "
                               "a request already sent")

    def search_article(self, keyword: str) -> Optional[ArticleRef]:
        """Best full-text match whose title overlaps the keyword.

        Disambiguation pages are skipped; returns None when no acceptable
        result exists.
        """
        if not keyword.strip():
            raise ValueError("keyword must be non-empty")
        pages, _cont = self._reply({
            **_QUERY, "generator": "search", "gsrsearch": keyword,
            "gsrnamespace": "0", "gsrlimit": str(SEARCH_LIMIT),
            "prop": "pageprops", "ppprop": "disambiguation"}, "pages")
        for page in sorted(pages, key=lambda p: p.get("index", 1 << 30)):
            if page.get("missing") or "disambiguation" in page.get(
                    "pageprops", {}):
                continue
            title = page["title"]
            if title_overlap(title, keyword, self.pipeline):
                return ArticleRef(title=title, page_id=page["pageid"])
        return None

    def list_categories(self, article: ArticleRef) -> list[CategoryRef]:
        """The article's non-hidden categories, sorted by page id."""
        return _by_page_id(
            CategoryRef(title=page["title"], page_id=page["pageid"])
            for page in self._query_all({
                **_QUERY, "generator": "categories", "gclshow": "!hidden",
                "gcllimit": "500", "pageids": str(article.page_id)}, "pages")
            if page["ns"] == CATEGORY_NAMESPACE)

    def list_category_members(self, cat: CategoryRef,
                              ) -> tuple[list[ArticleRef], list[CategoryRef]]:
        """Direct members split into (article pages, subcategories), each
        sorted by page id."""
        members = list(self._query_all({
            **_QUERY, "list": "categorymembers", "cmtitle": cat.title,
            "cmtype": "page|subcat", "cmlimit": "500"}, "categorymembers"))
        return (_by_page_id(ArticleRef(title=m["title"], page_id=m["pageid"])
                            for m in members if m["ns"] == ARTICLE_NAMESPACE),
                _by_page_id(CategoryRef(title=m["title"], page_id=m["pageid"])
                            for m in members if m["ns"] == CATEGORY_NAMESPACE))

    def fetch_article_text(self, article: ArticleRef) -> str:
        """Plain-text extract, following redirects; empty string if none."""
        pages, _cont = self._reply({
            **_QUERY, "prop": "extracts", "explaintext": "1",
            "redirects": "1", "pageids": str(article.page_id)}, "pages")
        if not pages or pages[0].get("missing"):
            raise PageMissing(f"page id {article.page_id} does not exist")
        return pages[0].get("extract") or ""


# ---------------------------------------------------------------------------
# expansion


def search_keywords(client: WikiClient, keywords: Sequence[str],
                    ) -> list[tuple[str, Optional[ArticleRef]]]:
    """Search every keyword in order, keeping misses as None."""
    matches = []
    for kw in keywords:
        ref = client.search_article(kw)
        log.info("search %r -> %s", kw, ref.title if ref else "(no match)")
        matches.append((kw, ref))
    return matches


def dedupe_seeds(matches: Sequence[tuple[str, Optional[ArticleRef]]],
                 ) -> list[ArticleRef]:
    return _by_page_id(ref for _kw, ref in matches if ref is not None)


def expand(client: WikiClient, seeds: Sequence[ArticleRef], *,
           depth: int = 1, max_articles: int = 5000,
           workers: int = 1) -> CrawlResult:
    """Breadth-first expansion of seed articles through the category graph."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if max_articles < 1:
        raise ValueError(f"max_articles must be >= 1, got {max_articles}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    articles: dict[int, ArticleRef] = {}
    truncated = False

    def add_pages(refs: Sequence[ArticleRef]) -> bool:
        nonlocal truncated
        for ref in refs:
            if ref.page_id in articles:
                continue
            if len(articles) >= max_articles:
                truncated = True
                return False
            articles[ref.page_id] = ref
        return True

    seeds = _by_page_id(seeds)
    room_left = add_pages(seeds)

    if depth >= 1 and room_left and seeds:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            level = _by_page_id(cat for cats in pool.map(
                client.list_categories, seeds) for cat in cats)
            visited = {cat.page_id for cat in level}

            for hop in range(depth):
                if not level or truncated:
                    break
                log.info("expanding %d categories at hop %d", len(level), hop)
                member_lists = list(pool.map(client.list_category_members, level))
                for pages, _subcats in member_lists:
                    if not add_pages(pages):
                        break
                level = _by_page_id(sc for _pages, subcats in member_lists
                                    for sc in subcats if sc.page_id not in visited)
                visited.update(sc.page_id for sc in level)

    return CrawlResult(articles=tuple(_by_page_id(articles.values())),
                       frontier_truncated=truncated)


def fetch_all_texts(client: WikiClient, articles: Sequence[ArticleRef],
                    workers: int = 1) -> list[tuple[ArticleRef, str]]:
    """Fetch extracts for all articles, returned in page-id order."""
    ordered = sorted(articles, key=lambda r: r.page_id)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        texts = list(pool.map(client.fetch_article_text, ordered))
    return list(zip(ordered, texts))
