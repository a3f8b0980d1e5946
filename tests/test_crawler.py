"""Crawler: transport caching/retries, API client, and category expansion."""

import fcntl
import gc
import hashlib
import json
import multiprocessing
import random
import socket
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer
from types import SimpleNamespace

import pytest

from wikiharvest import crawler
from wikiharvest.crawler import (ApiError, ArticleRef, CachedTransport,
                                 CategoryRef, CrawlerError, NetworkError,
                                 OfflineCacheMiss, PageMissing, WikiClient,
                                 canonical_url, dedupe_seeds, expand,
                                 fetch_all_texts, search_keywords,
                                 title_overlap)
from wikiharvest.testing import FakeWiki, random_wiki, reachable_articles

ENDPOINT = "https://en.wikipedia.org/w/api.php"
EXTRACT_1 = {"action": "query", "format": "json", "formatversion": "2",
             "prop": "extracts", "explaintext": "1", "redirects": "1",
             "pageids": "1"}
LOG_NAME = "responses.jsonl"


def echo_fetcher(url, headers):
    """Answers every request with a JSON object naming its URL."""
    return 200, json.dumps({"url": url})


def log_urls(cache_dir):
    """The URL of every record in a cache directory's log, in file order.
    Every record must be one line: a URL, a tab and a JSON object."""
    urls = []
    for line in (cache_dir / LOG_NAME).read_bytes().split(b"\n")[:-1]:
        url, tab, body = line.partition(b"\t")
        assert tab and isinstance(json.loads(body), dict)
        urls.append(url.decode())
    return urls


def fill_cache(cache_dir, pageids, start):
    """Worker process body: once every worker is at `start`, fetch the
    extract of every page id through a transport on `cache_dir`."""
    transport = CachedTransport(ENDPOINT, cache_dir=cache_dir,
                                fetcher=echo_fetcher, request_delay_ms=0)
    start.wait(timeout=30)
    for pid in pageids:
        transport.get({**EXTRACT_1, "pageids": str(pid)})


def client_for(wiki, pipeline=None):
    return WikiClient(wiki, pipeline)


@pytest.fixture
def sleeps(monkeypatch):
    """Seconds passed to `time.sleep`, which returns at once."""
    calls = []
    monkeypatch.setattr(crawler.time, "sleep", calls.append)
    return calls


def small_wiki():
    wiki = FakeWiki(chunk_size=2)  # tiny chunks exercise continuation
    wiki.add_category(900, "Rail transport", subcats=[901])
    wiki.add_category(901, "Rail infrastructure", subcats=[900])  # cycle
    wiki.add_article(1, "Rail transport", text="All about rail transport.",
                     categories=[900], hidden_categories=[990])
    wiki.add_article(2, "Pocket wagon", text="A wagon type.",
                     categories=[900])
    wiki.add_article(3, "Track bed", text="Below the rails.",
                     categories=[901])
    wiki.add_article(4, "Ghost page", text="", categories=[900])
    wiki.add_article(5, "Hidden only", text="maintenance",
                     hidden_categories=[990])
    wiki.add_article(6, "Rail transport systems",
                     text="Redirects elsewhere.", redirect_to=1)
    wiki.add_search("rail transport", [1])
    wiki.add_search("efficiency of rail transport", [1])
    return wiki


class TestTitleOverlap:
    def test_partial_match(self, wn_pipeline):
        assert title_overlap("Rail transport", "efficiency of rail transport",
                             wn_pipeline)

    def test_exact_match(self):
        assert title_overlap("Rail transport", "rail transport")

    def test_no_shared_content_token(self):
        assert not title_overlap("Pocket wagon", "emergency brake")

    def test_stopwords_do_not_count_as_overlap(self):
        assert not title_overlap("The of and", "of the such")

    def test_head_lemmatization(self, wn_pipeline):
        assert title_overlap("Lunar rovers", "the lunar rover", wn_pipeline)

    def test_non_ascii_word_is_one_token(self):
        assert title_overlap("Zürich", "zürich tram network")
        assert not title_overlap("Zürich", "rich tram")


class TestCanonicalUrl:
    def test_sorted_params(self):
        a = canonical_url(ENDPOINT, {"b": "2", "a": "1"})
        b = canonical_url(ENDPOINT, {"a": "1", "b": "2"})
        assert a == b
        assert a.startswith(ENDPOINT + "?")

    def test_encoding(self):
        url = canonical_url(ENDPOINT, {"q": "rail transport"})
        assert "rail+transport" in url


class TestRequestShapes:
    """Cached responses are keyed by the request URL, so any change to a
    request's parameters orphans every cache built before it."""

    def test_canonical_urls_pinned(self, tmp_path):
        wiki = small_wiki()
        raw = wiki.fetcher()
        urls = []

        def recording(url, headers):
            urls.append(url)
            return raw(url, headers)

        client = WikiClient(CachedTransport(ENDPOINT, cache_dir=tmp_path,
                                            fetcher=recording,
                                            request_delay_ms=0))
        calls = [
            lambda: client.search_article("rail transport"),
            lambda: client.list_categories(ArticleRef("Rail transport", 1)),
            lambda: client.list_category_members(
                CategoryRef("Category:Rail transport", 900)),
            lambda: client.fetch_article_text(ArticleRef("Rail transport", 1)),
        ]
        got = []
        for call in calls:
            urls.clear()
            call()
            got.append([url.removeprefix(ENDPOINT + "?") for url in urls])
        assert got == [
            ["action=query&format=json&formatversion=2&generator=search"
             "&gsrlimit=5&gsrnamespace=0&gsrsearch=rail+transport"
             "&ppprop=disambiguation&prop=pageprops"],
            ["action=query&format=json&formatversion=2&gcllimit=500"
             "&gclshow=%21hidden&generator=categories&pageids=1"],
            ["action=query&cmlimit=500&cmtitle=Category%3ARail+transport"
             "&cmtype=page%7Csubcat&format=json&formatversion=2"
             "&list=categorymembers",
             "action=query&cmcontinue=2&cmlimit=500"
             "&cmtitle=Category%3ARail+transport&cmtype=page%7Csubcat"
             "&continue=cmcontinue%7C%7C&format=json&formatversion=2"
             "&list=categorymembers"],
            ["action=query&explaintext=1&format=json&formatversion=2"
             "&pageids=1&prop=extracts&redirects=1"],
        ]

    def test_railway_cache_file_names_pinned(self, railway_mined):
        # the pin is over the names the URLs had as one file each
        assert [p.name for p in railway_mined.cache.iterdir()] == [LOG_NAME]
        urls = log_urls(railway_mined.cache)
        names = sorted(hashlib.sha256(url.encode()).hexdigest() + ".json"
                       for url in urls)
        assert len(names) == len(set(names)) == 829
        assert hashlib.sha256("\n".join(names).encode()).hexdigest() == \
            "3c96af493b54b95adc0c56a21f4f3c7d4de87e0cd701251a4f4fe8db580de2b9"


class TestTransport:
    def test_cache_hit_skips_network(self, tmp_path):
        wiki = small_wiki()
        calls = {"n": 0}
        raw = wiki.fetcher()

        def counting(url, headers):
            calls["n"] += 1
            return raw(url, headers)

        transport = CachedTransport(ENDPOINT, cache_dir=tmp_path,
                                    fetcher=counting, request_delay_ms=0)
        params = {"action": "query", "format": "json", "formatversion": "2",
                  "prop": "extracts", "explaintext": "1", "redirects": "1",
                  "pageids": "1"}
        first = transport.get(params)
        second = transport.get(params)
        assert first == second
        assert calls["n"] == 1
        assert [p.name for p in tmp_path.iterdir()] == [LOG_NAME]
        assert log_urls(tmp_path) == [canonical_url(ENDPOINT, params)]

    def test_offline_miss_is_error(self, tmp_path):
        transport = CachedTransport(ENDPOINT, cache_dir=tmp_path,
                                    offline=True)
        with pytest.raises(OfflineCacheMiss):
            transport.get({"action": "query", "format": "json"})

    def test_offline_hit_served(self, tmp_path):
        wiki = small_wiki()
        warm = CachedTransport(ENDPOINT, cache_dir=tmp_path,
                               fetcher=wiki.fetcher(), request_delay_ms=0)
        params = {"action": "query", "format": "json", "formatversion": "2",
                  "prop": "extracts", "explaintext": "1", "redirects": "1",
                  "pageids": "1"}
        want = warm.get(params)
        cold = CachedTransport(ENDPOINT, cache_dir=tmp_path, offline=True)
        assert cold.get(params) == want
        assert cold.network_requests == 0

    def test_offline_miss_on_per_response_files_says_why(self, tmp_path):
        # the layout before the response log: one <sha256>.json per response
        (tmp_path / f"{hashlib.sha256(b'x').hexdigest()}.json").write_text(
            '{"batchcomplete": true}')
        transport = CachedTransport(ENDPOINT, cache_dir=tmp_path,
                                    offline=True)
        with pytest.raises(OfflineCacheMiss) as exc:
            transport.get(EXTRACT_1)
        assert str(exc.value) == (
            "offline mode: no cached response for "
            f"{canonical_url(ENDPOINT, EXTRACT_1)}; {tmp_path} holds "
            "per-response *.json files, which this version does not read: "
            "re-mine it online")
        (tmp_path / LOG_NAME).write_bytes(b"")
        with pytest.raises(OfflineCacheMiss) as exc:
            CachedTransport(ENDPOINT, cache_dir=tmp_path,
                            offline=True).get(EXTRACT_1)
        assert "per-response" not in str(exc.value)

    @pytest.mark.parametrize("offline", [False, True])
    @pytest.mark.parametrize("body", [b'{"query": ', b"[1, 2]", b"\xff{}"])
    def test_corrupt_cache_file_is_error(self, tmp_path, offline, body):
        fetched = []
        url = canonical_url(ENDPOINT, EXTRACT_1)
        path = tmp_path / LOG_NAME
        log = url.encode() + b"\t" + body + b"\n"
        path.write_bytes(log)
        transport = CachedTransport(
            ENDPOINT, cache_dir=tmp_path, offline=offline, request_delay_ms=0,
            fetcher=lambda url, headers: fetched.append(url))
        with pytest.raises(CrawlerError) as info:
            transport.get(EXTRACT_1)
        assert str(info.value) == \
            f"{path}: cached response for {url} is not a JSON object"
        assert fetched == []          # never silently refetched
        assert path.read_bytes() == log

    @pytest.mark.parametrize("offline", [False, True])
    def test_record_without_tab_is_error(self, tmp_path, offline):
        fetched = []
        path = tmp_path / LOG_NAME
        good = f"{canonical_url(ENDPOINT, EXTRACT_1)}\t{{}}\n".encode()
        log = good + b'no tab {"query": {}}\n'
        path.write_bytes(log)
        transport = CachedTransport(
            ENDPOINT, cache_dir=tmp_path, offline=offline, request_delay_ms=0,
            fetcher=lambda url, headers: fetched.append(url))
        for _ in range(2):            # the index is not left half-built
            with pytest.raises(CrawlerError) as info:
                transport.get(EXTRACT_1)
            assert str(info.value) == (f"{path}: the record at byte "
                                       f"{len(good)} is not <url>\\t<json body>")
        assert fetched == []
        assert path.read_bytes() == log

    def test_torn_last_record(self, tmp_path):
        """A run killed while appending leaves its last record without a
        newline.  Offline, that record is a miss and the log is left as it
        is; online, it is refetched and cut off before the append."""
        pages = [{**EXTRACT_1, "pageids": str(pid)} for pid in (1, 2, 3, 4)]
        warm = CachedTransport(ENDPOINT, cache_dir=tmp_path / "warm",
                               fetcher=small_wiki().fetcher(),
                               request_delay_ms=0)
        want = [warm.get(params) for params in pages]
        whole = (tmp_path / "warm" / LOG_NAME).read_bytes()
        last = whole.rindex(b"\n", 0, -1) + 1     # start of the 4th record
        for cut in range(last + 1, len(whole)):
            cache = tmp_path / f"cut{cut}"
            cache.mkdir()
            path = cache / LOG_NAME
            path.write_bytes(whole[:cut])

            offline = CachedTransport(ENDPOINT, cache_dir=cache, offline=True)
            assert [offline.get(p) for p in pages[:3]] == want[:3]
            with pytest.raises(OfflineCacheMiss):
                offline.get(pages[3])
            assert path.read_bytes() == whole[:cut]

            fetched = []
            raw = small_wiki().fetcher()

            def counting(url, headers):
                fetched.append(url)
                return raw(url, headers)

            online = CachedTransport(ENDPOINT, cache_dir=cache,
                                     fetcher=counting, request_delay_ms=0)
            assert online.get(pages[3]) == want[3]
            assert fetched == [canonical_url(ENDPOINT, pages[3])]
            extra = {**EXTRACT_1, "pageids": "6"}
            online.get(extra)
            replay = CachedTransport(ENDPOINT, cache_dir=cache, offline=True)
            assert [replay.get(p) for p in pages] == want
            assert replay.get(extra) == online.get(extra)
            assert path.read_bytes().startswith(whole)
            assert len(log_urls(cache)) == 5

    def test_threads_append_every_record(self, tmp_path):
        urls = [{**EXTRACT_1, "pageids": str(pid)} for pid in range(200)]
        transport = CachedTransport(ENDPOINT, cache_dir=tmp_path,
                                    fetcher=echo_fetcher, request_delay_ms=0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                # each URL is asked for twice
                list(pool.map(transport.get, urls + urls[::-1], timeout=30))
        finally:
            sys.setswitchinterval(interval)
        want = sorted(canonical_url(ENDPOINT, p) for p in urls)
        assert sorted(log_urls(tmp_path)) == want
        replay = CachedTransport(ENDPOINT, cache_dir=tmp_path, offline=True)
        assert [replay.get(p)["url"] for p in urls] == \
            [canonical_url(ENDPOINT, p) for p in urls]

    def test_two_processes_share_one_cache(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        shares = [range(0, 120), range(60, 180)]    # 60 pages in common
        start = ctx.Barrier(len(shares))
        procs = [ctx.Process(target=fill_cache, args=(tmp_path, share, start))
                 for share in shares]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
        assert [proc.exitcode for proc in procs] == [0, 0]
        urls = [canonical_url(ENDPOINT, {**EXTRACT_1, "pageids": str(pid)})
                for pid in range(180)]
        assert sorted(log_urls(tmp_path)) == sorted(urls)  # no duplicates
        replay = CachedTransport(ENDPOINT, cache_dir=tmp_path, offline=True)
        assert [replay.get({**EXTRACT_1, "pageids": str(pid)})["url"]
                for pid in range(180)] == urls

    def test_append_waits_for_the_file_lock(self, tmp_path):
        """Another process holding the log's lock holds back an append;
        a record it logged meanwhile for the same URL is not repeated."""
        url = canonical_url(ENDPOINT, EXTRACT_1)
        page_2 = {**EXTRACT_1, "pageids": "2"}
        path = tmp_path / LOG_NAME
        transport = CachedTransport(ENDPOINT, cache_dir=tmp_path,
                                    fetcher=echo_fetcher, request_delay_ms=0)
        transport.get(page_2)         # the log is indexed before the lock
        with ThreadPoolExecutor(max_workers=1) as pool:
            with open(path, "ab") as other:
                fcntl.flock(other, fcntl.LOCK_EX)
                pending = pool.submit(transport.get, EXTRACT_1)
                time.sleep(0.2)
                assert not pending.done()
                other.write(f"{url}\t{{\"other\": 1}}\n".encode())
            assert pending.result(timeout=10) == {"url": url}
        assert transport.network_requests == 2
        assert log_urls(tmp_path) == [canonical_url(ENDPOINT, page_2), url]
        assert transport.get(EXTRACT_1) == {"other": 1}

    def test_first_read_waits_for_the_file_lock(self, tmp_path):
        """The log is indexed under a shared lock, so a record another
        process is still appending is read whole, not as a torn tail."""
        record = f"{canonical_url(ENDPOINT, EXTRACT_1)}\t{{\"n\": 1}}\n"
        path = tmp_path / LOG_NAME
        replay = CachedTransport(ENDPOINT, cache_dir=tmp_path, offline=True)
        with ThreadPoolExecutor(max_workers=1) as pool:
            with open(path, "ab", buffering=0) as other:
                fcntl.flock(other, fcntl.LOCK_EX)
                other.write(record[:20].encode())
                pending = pool.submit(replay.get, EXTRACT_1)
                time.sleep(0.2)
                assert not pending.done()
                other.write(record[20:].encode())
            assert pending.result(timeout=10) == {"n": 1}

    def test_log_cut_by_another_program_is_error(self, tmp_path):
        transport = CachedTransport(ENDPOINT, cache_dir=tmp_path,
                                    fetcher=echo_fetcher, request_delay_ms=0)
        transport.get(EXTRACT_1)
        (tmp_path / LOG_NAME).write_bytes(b"")
        with pytest.raises(CrawlerError, match="another program cut it"):
            transport.get({**EXTRACT_1, "pageids": "2"})
        assert (tmp_path / LOG_NAME).read_bytes() == b""

    @pytest.mark.parametrize("endpoint", [ENDPOINT + "\t", ENDPOINT + "\n"])
    def test_endpoint_cannot_break_a_record(self, tmp_path, endpoint):
        with pytest.raises(ValueError):
            CachedTransport(endpoint, cache_dir=tmp_path)

    def test_no_leaked_file_handles(self, tmp_path):
        """The transport opens the log per call and closes it before
        returning, so it holds no file that garbage collection could
        find still open."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            transport = CachedTransport(ENDPOINT, cache_dir=tmp_path,
                                        fetcher=small_wiki().fetcher(),
                                        request_delay_ms=0)
            for pid in ("1", "2", "1", "2"):      # misses, then hits
                transport.get({**EXTRACT_1, "pageids": pid})
            replay = CachedTransport(ENDPOINT, cache_dir=tmp_path,
                                     offline=True)
            replay.get(EXTRACT_1)
            with pytest.raises(OfflineCacheMiss):
                replay.get({**EXTRACT_1, "pageids": "3"})
            del transport, replay
            gc.collect()
        assert [w for w in caught
                if issubclass(w.category, ResourceWarning)] == []

    def test_retry_then_success(self, sleeps, tmp_path):
        wiki = small_wiki()
        raw = wiki.fetcher()
        state = {"n": 0}

        def flaky(url, headers):
            state["n"] += 1
            if state["n"] < 3:
                raise NetworkError("boom")
            return raw(url, headers)

        transport = CachedTransport(ENDPOINT, cache_dir=tmp_path,
                                    fetcher=flaky, request_delay_ms=0)
        got = transport.get(EXTRACT_1)
        assert state["n"] == 3
        assert "query" in got
        assert sleeps == [0.5, 1.0]

    def test_retries_exhausted(self, sleeps, tmp_path):
        def always_down(url, headers):
            raise NetworkError("down")

        transport = CachedTransport(ENDPOINT, cache_dir=tmp_path,
                                    fetcher=always_down, request_delay_ms=0)
        with pytest.raises(NetworkError):
            transport.get({"action": "query"})
        assert sleeps == [0.5, 1.0]

    def test_server_error_retried(self, sleeps, tmp_path):
        state = {"n": 0}
        wiki = small_wiki()
        raw = wiki.fetcher()

        def flaky(url, headers):
            state["n"] += 1
            if state["n"] == 1:
                return 503, "busy"
            return raw(url, headers)

        transport = CachedTransport(ENDPOINT, cache_dir=tmp_path,
                                    fetcher=flaky, request_delay_ms=0)
        transport.get(EXTRACT_1)
        assert state["n"] == 2
        assert sleeps == [0.5]

    def test_rate_limit_retried(self, sleeps, tmp_path):
        state = {"n": 0}
        raw = small_wiki().fetcher()

        def limited_once(url, headers):
            state["n"] += 1
            if state["n"] == 1:
                return 429, "too many requests"
            return raw(url, headers)

        transport = CachedTransport(ENDPOINT, cache_dir=tmp_path,
                                    fetcher=limited_once, request_delay_ms=0)
        assert "query" in transport.get(EXTRACT_1)
        assert state["n"] == 2
        assert sleeps == [0.5]

    def test_client_error_not_retried(self, sleeps, tmp_path):
        state = {"n": 0}

        def gone(url, headers):
            state["n"] += 1
            return 404, "not here"

        transport = CachedTransport(ENDPOINT, cache_dir=tmp_path,
                                    fetcher=gone, request_delay_ms=0)
        with pytest.raises(ApiError):
            transport.get({"action": "query"})
        assert state["n"] == 1
        assert sleeps == []

    def test_api_error_payload(self, tmp_path):
        def err(url, headers):
            return 200, json.dumps({"error": {"code": "x", "info": "bad"}})

        transport = CachedTransport(ENDPOINT, cache_dir=tmp_path,
                                    fetcher=err, request_delay_ms=0)
        with pytest.raises(ApiError):
            transport.get({"action": "query"})

    def test_error_responses_not_cached(self, tmp_path):
        def err(url, headers):
            return 200, json.dumps({"error": {"code": "x", "info": "bad"}})

        transport = CachedTransport(ENDPOINT, cache_dir=tmp_path,
                                    fetcher=err, request_delay_ms=0)
        with pytest.raises(ApiError):
            transport.get({"action": "query"})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("body", ["[1, 2]", "5", '"no errors"'])
    def test_non_object_response_not_cached(self, tmp_path, body):
        transport = CachedTransport(ENDPOINT, cache_dir=tmp_path,
                                    fetcher=small_wiki().fetcher(),
                                    request_delay_ms=0)
        transport.get(EXTRACT_1)
        log = (tmp_path / LOG_NAME).read_bytes()
        transport.fetcher = lambda url, headers: (200, body)
        with pytest.raises(ApiError) as info:
            transport.get({"action": "query"})
        assert str(info.value).endswith(": response is not a JSON object")
        assert (tmp_path / LOG_NAME).read_bytes() == log

    def test_politeness_delay_between_network_calls(self, tmp_path):
        wiki = small_wiki()
        transport = CachedTransport(ENDPOINT, cache_dir=tmp_path,
                                    fetcher=wiki.fetcher(), request_delay_ms=30)
        params = {"action": "query", "format": "json", "formatversion": "2",
                  "prop": "extracts", "explaintext": "1", "redirects": "1"}
        start = time.monotonic()
        for pid in ("1", "2", "3"):
            transport.get({**params, "pageids": pid})
        elapsed = time.monotonic() - start
        assert elapsed >= 0.055  # two inter-request windows of 30 ms

    def test_politeness_delay_shared_by_workers(self, tmp_path):
        raw = small_wiki().fetcher()
        starts = []
        lock = threading.Lock()

        def timed(url, headers):
            with lock:
                starts.append(time.monotonic())
            return raw(url, headers)

        delay_ms = 100
        transport = CachedTransport(ENDPOINT, cache_dir=tmp_path,
                                    fetcher=timed, request_delay_ms=delay_ms)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(lambda pid: transport.get(
                    {**EXTRACT_1, "pageids": str(pid)}), range(1, 9),
                    timeout=10))
        finally:
            sys.setswitchinterval(interval)
        assert transport.network_requests == 8
        starts.sort()
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        assert min(gaps) >= 0.9 * delay_ms / 1000


@pytest.fixture
def http_server(monkeypatch):
    """An HTTP server on 127.0.0.1 on a thread.  It answers each request
    with the next of its `replies`, (status, body) pairs, and records the
    path and User-Agent of each request in `seen`."""
    replies, seen = [], []

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            seen.append((self.path, self.headers["User-Agent"]))
            status, body = replies.pop(0)
            data = body.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        yield SimpleNamespace(
            endpoint=f"http://127.0.0.1:{server.server_port}/w/api.php",
            replies=replies, seen=seen)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestLiveFetcher:
    """The default fetcher, which sends real HTTP requests."""
    USER_AGENT = "wikiharvest-test/1 (ops@example.org)"

    def transport(self, endpoint, cache_dir):
        return CachedTransport(endpoint, cache_dir=cache_dir,
                               user_agent=self.USER_AGENT, request_delay_ms=0)

    def test_json_object_returned_and_logged(self, http_server, sleeps,
                                             tmp_path):
        http_server.replies.append((200, '{"query": {"pages": []}}'))
        transport = self.transport(http_server.endpoint, tmp_path)
        assert transport.get(EXTRACT_1) == {"query": {"pages": []}}
        url = canonical_url(http_server.endpoint, EXTRACT_1)
        assert http_server.seen == [(url[url.index("/w/"):], self.USER_AGENT)]
        assert log_urls(tmp_path) == [url]
        assert transport.network_requests == 1
        assert sleeps == []

    def test_not_found_is_api_error_and_not_logged(self, http_server,
                                                   sleeps, tmp_path):
        http_server.replies.append((404, "not here"))
        transport = self.transport(http_server.endpoint, tmp_path)
        with pytest.raises(ApiError, match="unexpected HTTP status 404"):
            transport.get(EXTRACT_1)
        assert not (tmp_path / LOG_NAME).exists()
        assert len(http_server.seen) == 1
        assert sleeps == []

    def test_unavailable_then_ok_is_retried_once(self, http_server, sleeps,
                                                 tmp_path):
        http_server.replies.extend([(503, "busy"), (200, '{"ok": 1}')])
        transport = self.transport(http_server.endpoint, tmp_path)
        assert transport.get(EXTRACT_1) == {"ok": 1}
        assert len(http_server.seen) == 2
        assert transport.network_requests == 2
        assert sleeps == [0.5]

    def test_closed_port_is_network_error(self, sleeps, tmp_path):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        endpoint = f"http://127.0.0.1:{port}/w/api.php"
        transport = self.transport(endpoint, tmp_path)
        with pytest.raises(NetworkError) as exc:
            transport.get(EXTRACT_1)
        assert str(exc.value).startswith(canonical_url(endpoint, EXTRACT_1))
        assert sleeps == [0.5, 1.0]     # MAX_ATTEMPTS attempts
        assert transport.network_requests == 0
        assert not (tmp_path / LOG_NAME).exists()


class TestClient:
    def test_search_match(self, wn_pipeline):
        client = client_for(small_wiki(), wn_pipeline)
        ref = client.search_article("rail transport")
        assert ref == ArticleRef(title="Rail transport", page_id=1)

    def test_search_partial_title_match(self, wn_pipeline):
        client = client_for(small_wiki(), wn_pipeline)
        ref = client.search_article("efficiency of rail transport")
        assert ref is not None and ref.title == "Rail transport"

    def test_search_no_results(self):
        client = client_for(small_wiki())
        assert client.search_article("zzqx-nonexistent-phrase") is None

    def test_search_rejects_empty(self):
        client = client_for(small_wiki())
        with pytest.raises(ValueError):
            client.search_article("   ")

    def test_search_skips_disambiguation(self):
        wiki = small_wiki()
        wiki.add_article(7, "Track (disambiguation)", disambiguation=True)
        wiki.add_search("track bed", [7, 3])
        client = client_for(wiki)
        ref = client.search_article("track bed")
        assert ref is not None and ref.page_id == 3

    def test_search_rejects_non_overlapping_title(self):
        wiki = small_wiki()
        wiki.add_search("emergency brake", [2])  # Pocket wagon
        client = client_for(wiki)
        assert client.search_article("emergency brake") is None

    def test_list_categories(self):
        wiki = small_wiki()
        client = client_for(wiki)
        cats = client.list_categories(ArticleRef("Rail transport", 1))
        assert cats == [CategoryRef("Category:Rail transport", 900)]

    def test_hidden_only_categories_empty(self):
        client = client_for(small_wiki())
        assert client.list_categories(ArticleRef("Hidden only", 5)) == []

    def test_list_category_members_continuation_drained(self):
        wiki = small_wiki()  # chunk_size=2 forces several pages
        client = client_for(wiki)
        pages, subcats = client.list_category_members(
            CategoryRef("Category:Rail transport", 900))
        assert [p.page_id for p in pages] == [1, 2, 4]
        assert [c.page_id for c in subcats] == [901]

    def test_empty_category(self):
        wiki = small_wiki()
        wiki.add_category(902, "Empty corner")
        client = client_for(wiki)
        assert client.list_category_members(
            CategoryRef("Category:Empty corner", 902)) == ([], [])

    def test_members_follow_edits_to_the_graph_dicts(self):
        wiki = small_wiki()
        client = client_for(wiki)
        cat = CategoryRef("Category:Rail infrastructure", 901)
        assert [p.page_id for p in client.list_category_members(cat)[0]] \
            == [3]
        wiki.articles[2]["categories"].append(901)
        assert [p.page_id for p in client.list_category_members(cat)[0]] \
            == [2, 3]
        assert wiki.members_of(901) == [2, 3]

    def test_fetch_text(self):
        client = client_for(small_wiki())
        text = client.fetch_article_text(ArticleRef("Rail transport", 1))
        assert "rail" in text.lower()

    def test_fetch_missing_page(self):
        client = client_for(small_wiki())
        with pytest.raises(PageMissing):
            client.fetch_article_text(ArticleRef("Nope", 999))

    def test_fetch_redirect_returns_target_text(self):
        client = client_for(small_wiki())
        text = client.fetch_article_text(ArticleRef("Rail transport systems", 6))
        assert text == "All about rail transport."

    def test_railway_fixture_rail_transport_category(self, railway_wiki):
        client = client_for(railway_wiki)
        seed = ArticleRef("Rail transport", 1001)
        cats = client.list_categories(seed)
        assert "Category:Rail transport" in [c.title for c in cats]
        pages, subcats = client.list_category_members(
            CategoryRef("Category:Rail transport", 20001))
        siblings = [p for p in pages if p.page_id != seed.page_id]
        assert len(siblings) == 22
        titles = {p.title for p in siblings}
        assert {"Bi-directional vehicle", "Pocket wagon"} <= titles
        assert len(subcats) == 31
        subcat_titles = {c.title for c in subcats}
        assert {"Category:Locomotives", "Category:Rail infrastructure"} <= \
            subcat_titles

    def test_railway_fixture_extract_contains_rail(self, railway_wiki):
        client = client_for(railway_wiki)
        text = client.fetch_article_text(ArticleRef("Rail transport", 1001))
        assert "rail" in text.lower().split()


class StubTransport:
    """Gives each of its replies in turn, the last one to every later
    request; fails a test whose listing sends more than 10 requests."""
    endpoint = ENDPOINT

    def __init__(self, *replies):
        self.replies = replies
        self.sent = []

    def get(self, params):
        self.sent.append(params)
        assert len(self.sent) <= 10, "the listing does not end"
        return self.replies[min(len(self.sent), len(self.replies)) - 1]


def page(**fields):
    return {"pageid": 1, "ns": 0, "title": "Rail transport", **fields}


class TestReplyShapes:
    """A reply the client cannot read is an ApiError naming its URL."""

    CALLS = {
        "search": lambda client: client.search_article("rail transport"),
        "categories": lambda client: client.list_categories(
            ArticleRef("Rail transport", 1)),
        "members": lambda client: client.list_category_members(
            CategoryRef("Category:Rail transport", 900)),
        "extract": lambda client: client.fetch_article_text(
            ArticleRef("Rail transport", 1)),
    }

    @pytest.mark.parametrize("call, reply", [
        ("search", {"query": ["pages"]}),
        ("search", {"query": {"pages": {"0": page()}}}),
        ("search", {"query": {"pages": [{"pageid": 1, "ns": 0}]}}),
        ("search", {"query": {"pages": [page(pageid="1")]}}),
        ("search", {"query": {"pages": [page(index="1")]}}),
        ("search", {"query": {"pages": [page(pageprops=["x"])]}}),
        ("categories", {"query": {"pages": [page(ns=14)]},
                        "continue": ["gclcontinue"]}),
        ("categories", {"query": {"pages": [5]}}),
        ("categories", {"query": {"pages": [page(ns="14")]}}),
        ("members", {"query": {"categorymembers": [{"pageid": 1,
                                                    "title": "T"}]}}),
        ("members", {"query": {"categorymembers": [page(pageid=True)]}}),
        ("members", {"query": {"categorymembers": [page(title=None)]}}),
        ("extract", {"query": {"pages": [page(extract=5)]}}),
        ("extract", {"query": "pages"}),
    ])
    def test_wrong_shape_is_api_error(self, call, reply):
        client = WikiClient(StubTransport(reply))
        with pytest.raises(ApiError, match="reply does not list query") as exc:
            self.CALLS[call](client)
        assert str(exc.value).startswith(ENDPOINT + "?action=query&")

    @pytest.mark.parametrize("call, reply, want", [
        ("search", {"batchcomplete": True}, None),
        ("search", {"query": {"pages": [{"pageid": 1, "missing": True}]}},
         None),
        ("categories", {"query": {"pages": [{"title": "X", "missing": True},
                                            page(ns=14)]}},
         [CategoryRef("Rail transport", 1)]),
        ("members", {"query": {"categorymembers": []}}, ([], [])),
        ("extract", {"query": {"pages": [page()]}}, ""),
    ])
    def test_readable_shapes(self, call, reply, want):
        assert self.CALLS[call](WikiClient(StubTransport(reply))) == want

    def test_fake_wiki_as_transport(self):
        wiki = small_wiki()
        wiki.articles[2]["title"] = 7       # a graph file's bad title
        with pytest.raises(ApiError, match=r"^\?action=query&"):
            client_for(wiki).list_category_members(
                CategoryRef("Category:Rail transport", 900))

    @pytest.mark.parametrize("call, key, ns", [
        ("categories", "pages", 14), ("members", "categorymembers", 0),
        ("members", "categorymembers", 14)])
    def test_first_title_of_a_page_id_is_kept(self, call, key, ns):
        # page id 7 is listed on both pages of the listing
        transport = StubTransport(
            {"query": {key: [page(pageid=7, ns=ns, title="First"),
                             page(pageid=9, ns=ns, title="Nine")]},
             "continue": {"continue": "-||"}},
            {"query": {key: [page(pageid=3, ns=ns, title="Three"),
                             page(pageid=7, ns=ns, title="Second")]}})
        got = self.CALLS[call](WikiClient(transport))
        ref = CategoryRef if ns == 14 else ArticleRef
        refs = [ref("Three", 3), ref("First", 7), ref("Nine", 9)]
        assert len(transport.sent) == 2
        if call == "categories":
            assert got == refs
        else:
            assert got == ((refs, []) if ns == 0 else ([], refs))

    @pytest.mark.parametrize("cont", [{"cmcontinue": "a"},
                                      {"cmlimit": "500"}])
    def test_continue_to_a_request_already_sent(self, cont):
        # {"cmlimit": "500"} leads back to the first request itself
        transport = StubTransport({"query": {"categorymembers": []},
                                   "continue": cont})
        with pytest.raises(ApiError) as exc:
            self.CALLS["members"](WikiClient(transport))
        last = transport.sent[-1]
        assert str(exc.value) == (f"{canonical_url(ENDPOINT, last)}: reply "
                                  "continues to a request already sent")
        assert len(transport.sent) == (2 if "cmcontinue" in cont else 1)

    def test_continue_loop_sends_two_network_requests(self, tmp_path):
        def continues_to_a(url, headers):
            return 200, json.dumps({"query": {"categorymembers": []},
                                    "continue": {"cmcontinue": "a"}})

        transport = CachedTransport(ENDPOINT, cache_dir=tmp_path,
                                    fetcher=continues_to_a,
                                    request_delay_ms=0)
        get, gets = transport.get, []

        def at_most_ten_gets(params):   # cache hits send no request
            gets.append(params)
            assert len(gets) <= 10, "the listing does not end"
            return get(params)
        transport.get = at_most_ten_gets
        with pytest.raises(ApiError, match="a request already sent"):
            self.CALLS["members"](WikiClient(transport))
        assert transport.network_requests == 2
        assert len(log_urls(tmp_path)) == 2


class TestExpand:
    def seeds_of(self, wiki, ids):
        return [ArticleRef(wiki.articles[i]["title"], i) for i in ids]

    def test_depth_zero_is_seeds_only(self):
        wiki = small_wiki()
        client = client_for(wiki)
        result = expand(client, self.seeds_of(wiki, [1]), depth=0)
        assert [a.page_id for a in result.articles] == [1]
        assert not result.frontier_truncated

    def test_depth_one_matches_reference_traversal(self):
        wiki = small_wiki()
        client = client_for(wiki)
        result = expand(client, self.seeds_of(wiki, [1]), depth=1)
        assert {a.page_id for a in result.articles} == \
            reachable_articles(wiki, [1], 1) == {1, 2, 4}

    def test_category_cycle_terminates(self):
        wiki = small_wiki()  # 900 <-> 901 subcat cycle
        client = client_for(wiki)
        result = expand(client, self.seeds_of(wiki, [1]), depth=4)
        assert {a.page_id for a in result.articles} == \
            reachable_articles(wiki, [1], 4) == {1, 2, 3, 4}
        ids = [a.page_id for a in result.articles]
        assert len(ids) == len(set(ids))

    def test_max_articles_truncates(self):
        wiki = small_wiki()
        client = client_for(wiki)
        result = expand(client, self.seeds_of(wiki, [1]),
                        depth=1, max_articles=2)
        assert len(result.articles) == 2
        assert result.frontier_truncated

    def test_seed_dedup(self):
        wiki = small_wiki()
        client = client_for(wiki)
        seeds = self.seeds_of(wiki, [1, 1, 2])
        result = expand(client, seeds, depth=0)
        assert [a.page_id for a in result.articles] == [1, 2]

    def test_monotonicity_random_graphs(self):
        rng = random.Random("mono-unit")
        for _ in range(8):
            wiki, seed_ids = random_wiki(rng, max_categories=15,
                                         max_articles=60)
            client = client_for(wiki)
            seeds = self.seeds_of(wiki, seed_ids)
            previous: set[int] = set()
            for depth in range(4):
                result = expand(client, seeds, depth=depth)
                got = {a.page_id for a in result.articles}
                assert got == reachable_articles(wiki, seed_ids, depth)
                assert previous <= got
                previous = got

    def test_cache_transparency(self, tmp_path):
        wiki = small_wiki()
        calls = {"n": 0}
        raw = wiki.fetcher()

        def counting(url, headers):
            calls["n"] += 1
            return raw(url, headers)

        def run():
            transport = CachedTransport(ENDPOINT, cache_dir=tmp_path,
                                        fetcher=counting, request_delay_ms=0)
            client = WikiClient(transport)
            seeds = self.seeds_of(wiki, [1])
            return expand(client, seeds, depth=2), transport

        first, _t1 = run()
        warm_calls = calls["n"]
        assert warm_calls > 0
        second, t2 = run()
        assert calls["n"] == warm_calls  # zero new network requests
        assert t2.network_requests == 0
        assert first == second

    def test_worker_count_does_not_change_result(self, railway_wiki):
        seeds = self.seeds_of(railway_wiki, [1001, 1002, 1003])
        results = []
        for workers in (1, 4):
            client = client_for(railway_wiki)
            results.append(expand(client, seeds, depth=2, workers=workers))
        assert results[0] == results[1]

    def test_articles_sorted_by_page_id(self, railway_wiki):
        client = client_for(railway_wiki)
        seeds = self.seeds_of(railway_wiki, [1003, 1001])
        result = expand(client, seeds, depth=1)
        ids = [a.page_id for a in result.articles]
        assert ids == sorted(ids)

    def test_config_validation(self):
        wiki = small_wiki()
        seeds = self.seeds_of(wiki, [1])
        for settings in ({"depth": -1}, {"max_articles": 0}, {"workers": 0},
                         {"depth": 0, "workers": 0}):  # depth 0 builds no pool
            with pytest.raises(ValueError):
                expand(client_for(wiki), seeds, **settings)


class TestOrchestrationHelpers:
    def test_search_keywords_keeps_misses(self, wn_pipeline):
        client = client_for(small_wiki(), wn_pipeline)
        matches = search_keywords(client, ["rail transport", "zzqx-nothing"])
        assert matches[0][1] is not None
        assert matches[1] == ("zzqx-nothing", None)

    def test_dedupe_seeds(self):
        a = ArticleRef("A", 2)
        b = ArticleRef("B", 1)
        got = dedupe_seeds([("k1", a), ("k2", None), ("k3", a), ("k4", b)])
        assert got == [b, a]

    def test_fetch_all_texts_ordered(self):
        wiki = small_wiki()
        client = client_for(wiki)
        refs = [ArticleRef("Pocket wagon", 2), ArticleRef("Rail transport", 1)]
        got = fetch_all_texts(client, refs, workers=2)
        assert [ref.page_id for ref, _text in got] == [1, 2]
        assert got[1][1] == "A wagon type."
