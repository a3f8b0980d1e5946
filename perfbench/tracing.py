"""Spans around the calls into each layer's public functions.

`Tracer.install()` replaces the names `wikiharvest.cli` looks up (and a
few class attributes) with wrappers that record a span per call; the
program itself is not changed and `uninstall()` puts the originals back.
Spans stay in memory; the benchmark reads them after each traced round.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

# (module attribute in wikiharvest.cli, span name)
CLI_CALLS = (
    ("load_wordnet", "lexicon.load_wordnet"),
    ("extract_keywords", "keywords.extract_keywords"),
    ("search_keywords", "crawler.search_keywords"),
    ("expand", "crawler.expand"),
    ("fetch_all_texts", "crawler.fetch_all_texts"),
    ("write_corpus", "corpus.write_corpus"),
    ("load_corpus", "corpus.load_corpus"),
    ("frequency_report", "corpus.frequency_report"),
    ("load_vectors", "relatedness.load_vectors"),
    ("evaluate", "relatedness.evaluate"),
)


@dataclass
class Span:
    name: str
    parent: Optional["Span"]
    start: float
    end: float = 0.0
    args: tuple = ()
    result: Any = None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; spans opened on worker threads hang off the root."""

    def __init__(self):
        self.spans: list[Span] = []
        self.root: Optional[Span] = None
        self.stage: Optional[Span] = None     # innermost span on the main thread
        self._main = threading.main_thread()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def open(self, name: str, args: tuple = ()) -> Span:
        on_main = threading.current_thread() is self._main
        span = Span(name, self.stage if on_main else self.root,
                    time.perf_counter(), args=args)
        if on_main:
            self.stage = span
        return span

    def close(self, span: Span, result: Any = None) -> None:
        span.end = time.perf_counter()
        span.result = result
        if self.stage is span:
            self.stage = span.parent
        with self._lock:
            self.spans.append(span)

    def start_root(self, name: str) -> Span:
        self.spans = []
        self.root = self.stage = Span(name, None, time.perf_counter())
        return self.root

    def end_root(self) -> list[Span]:
        self.close(self.root)
        spans, self.spans, self.root = self.spans, [], None
        return spans

    def count(self, key: str, n: int = 1) -> None:
        """Add to a counter of the current stage: the root's child that the
        main thread is in."""
        target = self.stage
        if target is None:
            return
        while target.parent is not None and target.parent is not self.root:
            target = target.parent      # count at the stage below the root
        with self._lock:
            target.counts[key] = target.counts.get(key, 0) + n

    # -- wrappers -------------------------------------------------------

    def wrap(self, fn: Callable, name: str) -> Callable:
        def traced(*args, **kwargs):
            span = self.open(name, args)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span)
                raise
            self.close(span, result)
            return result
        return traced

    def _patch(self, owner: object, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name))

    def install(self) -> None:
        import wikiharvest.cli as cli
        from wikiharvest.crawler import CachedTransport, WikiClient
        from wikiharvest.preprocess import Pipeline

        for attr, name in CLI_CALLS:
            self._patch(cli, attr, name)
        self._patch(Pipeline, "preprocess", "preprocess.preprocess")
        self._patch(CachedTransport, "get", "crawler.transport_get")
        self._patch(WikiClient, "list_categories", "crawler.list_categories")
        self._patch(WikiClient, "list_category_members",
                    "crawler.list_category_members")

    def costs(self, calls: int = 20_000, repeats: int = 7) -> tuple[float, float]:
        """Seconds the tracing adds to one wrapped call and to one request
        count: the median over `repeats` of (traced loop - plain loop) / calls."""
        def plain(*_args):
            return None

        traced = self.wrap(plain, "calibrate")
        per_call, per_count = [], []
        self.start_root("calibrate")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                plain(0)
            t1 = time.perf_counter()
            for _ in range(calls):
                traced(0)
            t2 = time.perf_counter()
            for _ in range(calls):
                self.count("requests")
            t3 = time.perf_counter()
            per_call.append(((t2 - t1) - (t1 - t0)) / calls)
            per_count.append(((t3 - t2) - (t1 - t0)) / calls)
            self.spans.clear()
        self.end_root()
        return statistics.median(per_call), statistics.median(per_count)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
