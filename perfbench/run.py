#!/usr/bin/env python3
"""Benchmark of wikiharvest's batch run: mine (cold and warm), report, eval.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's inputs are generated from
the seed; the program is imported from `src/`.  With `--trace 0` the last
line of stdout is a JSON object with the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics instead.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from pathlib import Path

import checks
import layers
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SHARED = WORK / "shared"    # seed-independent inputs, kept between runs
EPOCH = "1700000000"       # pins manifest timestamps so replays compare byte for byte
TOP_K = 50
REPORT_TOP_N = 50
SETUP_FIRST = 2      # set-up samples before the rounds; one more after each
MIN_ROUNDS = 2

# Operations per round.  Fixed per workload, so every run attempts whole
# rounds and the share of failed operations is the same in every run.
ROUNDS = {
    "railway": {"mine_cold": 2, "mine_warm": 4, "report": 1, "eval": 1},
    "long-text": {"mine_cold": 1, "mine_warm": 1, "report": 1, "eval": 2,
                  "keywords_unicode": 1},
}

END_TO_END = {
    "setup_s": "s", "mine_cold_s": "s", "requests_sent": "requests",
    "mine_warm_s": "s", "mine_peak_rss_mib": "MiB", "report_s": "s",
    "eval_s": "s", "eval_peak_rss_mib": "MiB",
}
OP_METRIC = {"mine_cold": "mine_cold_s", "mine_warm": "mine_warm_s",
             "report": "report_s", "eval": "eval_s"}

PER_LAYER = {
    "lexicon.load_s": "s", "lexicon.lemmas_loaded": "count",
    "preprocess.rs_s": "s", "preprocess.rs_kb_per_s": "KB/s",
    "preprocess.tokens": "count",
    "keywords.extract_s": "s", "keywords.candidates": "count",
    "crawler.search_s": "s", "crawler.search_requests": "requests",
    "crawler.search_hits": "count", "crawler.search_misses": "count",
    "crawler.expand_s": "s", "crawler.expand_requests": "requests",
    "crawler.categories_listed": "count", "crawler.frontier_max": "count",
    "crawler.fetch_s": "s", "crawler.fetch_requests": "requests",
    "crawler.cache_bytes_written": "bytes",
    "crawler.cache_hits": "count", "crawler.cache_hit_s": "s",
    "crawler.articles_per_request": "ratio",
    "corpus.write_s": "s", "corpus.files_written": "count",
    "corpus.bytes_written": "bytes", "corpus.load_s": "s",
    "corpus.report_s": "s", "corpus.report_kb_per_s": "KB/s",
    "relatedness.load_vectors_s": "s",
    "relatedness.load_vectors_mb_per_s": "MB/s",
    "relatedness.rows_loaded": "count", "relatedness.rows_used": "count",
    "relatedness.evaluate_s": "s", "relatedness.articles_per_s": "1/s",
    "trace.overhead_s": "s",
}

SETUP_SCRIPT = """\
import sys, time
t0 = time.perf_counter()
import wikiharvest.cli
from wikiharvest.lexicon import load_wordnet, make_lemmatizer
from wikiharvest.preprocess import Pipeline
Pipeline(lemmatizer=make_lemmatizer(load_wordnet(sys.argv[1])))
print(time.perf_counter() - t0)
"""

# Runs one CLI command and writes the process's peak RSS (VmHWM, KiB) to
# argv[1] at exit.  VmHWM belongs to the address space made by exec, so
# unlike the rusage of a child it does not count pages of the parent.
PEAK_RSS_SCRIPT = """\
import atexit, sys
peak_file = sys.argv[1]
sys.argv = ["wikiharvest"] + sys.argv[2:]
def write_peak():
    with open("/proc/self/status") as status:
        line = next(ln for ln in status if ln.startswith("VmHWM:"))
    with open(peak_file, "w") as out:
        out.write(line.split()[1])
atexit.register(write_peak)
from wikiharvest.cli import main
main(prog_name="wikiharvest")
"""


class BenchError(Exception):
    """The benchmark could not run to its end."""


class OpFailed(Exception):
    """One operation of a round raised or exited with an error."""


def _silent(*_args, **_kwargs) -> None:
    pass


def _child_env() -> dict:
    env = dict(os.environ, SOURCE_DATE_EPOCH=EPOCH)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


class FakeServer:
    """Plays the wiki.  The recording pass renders every answer through
    `FakeWiki`; timed mines get the rendered bodies back by URL, so the
    fake's own work stays out of the timings."""

    def __init__(self, wiki):
        self._render = wiki.fetcher()
        self.bodies: dict[str, str] = {}
        self.calls = 0
        self.late_renders = 0
        self.tracer = None
        self._lock = threading.Lock()

    def record(self, url, headers):
        status, body = self._render(url, headers)
        self.bodies[url] = body
        return status, body

    def replay(self, url, headers):
        with self._lock:
            self.calls += 1
        if self.tracer is not None:
            self.tracer.count("requests")
        body = self.bodies.get(url)
        if body is None:      # a request the recording pass did not send
            with self._lock:
                self.late_renders += 1
            return self.record(url, headers)
        return 200, body


class Bench:
    def __init__(self, args, work: Path):
        self.args = args
        self.name = args.workload
        self.work = work
        self.wl = workloads.BUILDERS[self.name](args.seed, work / "inputs",
                                                ROOT, SHARED)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.layer: dict[str, list[float]] = defaultdict(list)
        # per traced round: (wrapped calls, request counts) the tracing made
        self.traced_work: list[tuple[int, int]] = []
        self._dirs = 0

    # -- helpers ----------------------------------------------------------

    def fresh(self, label: str) -> Path:
        self._dirs += 1
        return self.work / f"{label}-{self._dirs}"

    def cli(self, *args) -> str:
        """Run one CLI command in this process; returns its stdout."""
        from wikiharvest.cli import main
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                main.main(args=[str(a) for a in args], prog_name="wikiharvest",
                          standalone_mode=False)
            except SystemExit as exc:
                if exc.code:
                    raise OpFailed(f"{args[0]} exited with {exc.code}") from exc
        return out.getvalue()

    def mine_args(self, out: Path, cache: Path) -> list:
        wl = self.wl
        args = ["mine", "--input", wl.rs, "--out", out, "--wordnet", wl.wordnet,
                "--top-k", TOP_K, "--depth", wl.depth, "--offline",
                "--cache", cache, "--max-articles", wl.max_articles]
        for path in wl.backgrounds:
            args += ["--background", path]
        return args

    def run_mine(self, out: Path, cache: Path, fetcher):
        from wikiharvest.cli import run_mine
        from wikiharvest.crawler import CachedTransport
        wl = self.wl
        transport = CachedTransport(cache_dir=cache, fetcher=fetcher,
                                    request_delay_ms=0)
        with contextlib.redirect_stderr(io.StringIO()):
            run_mine(wl.rs, out, wl.wordnet, top_k=TOP_K, depth=wl.depth,
                     background_paths=wl.backgrounds, cache_dir=cache,
                     max_articles=wl.max_articles, workers=1,
                     transport=transport, echo=_silent)

    def check(self, problems: list[str]) -> None:
        self.problems.extend(problems)

    # -- set-up -----------------------------------------------------------

    def setup_seconds(self) -> float:
        """Start-up time of one fresh interpreter."""
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, str(self.wl.wordnet)],
            capture_output=True, text=True, env=_child_env(), cwd=ROOT,
            timeout=120)
        if proc.returncode:
            raise BenchError(f"set-up child failed:\n{proc.stderr}")
        return float(proc.stdout.strip().splitlines()[-1])

    def prepare(self) -> None:
        from wikiharvest.testing import FakeWiki
        wl = self.wl
        self.exp = checks.expected_values(wl)
        if wl.recorded is not None:
            want = (wl.recorded["seed_count"], wl.recorded["depth1_article_count"])
            got = (len(wl.seed_ids), len(self.exp.articles))
            if got != want:
                raise BenchError(f"recorded graph walk gives {got}, recorded {want}")

        # The first CLI call sets up the CLI's logging; every timed
        # operation then runs with the same handlers.
        keywords = self.keywords_tsv(wl.wordnet)
        if wl.wordnet != ROOT / "tests" / "fixtures" / "wordnet_mini":
            if keywords != self.keywords_tsv(ROOT / "tests" / "fixtures" / "wordnet_mini"):
                self.check(["keywords differ between the full-size and the "
                            "mini WordNet"])

        self.server = FakeServer(FakeWiki.from_json(wl.graph_json))
        self.rec_out, self.rec_cache = self.fresh("rec-out"), self.fresh("rec-cache")
        self.run_mine(self.rec_out, self.rec_cache, self.server.record)
        self.rec_tree = checks.tree(self.rec_out)
        self.check(checks.check_corpus(self.rec_tree, self.exp, wl.seed_ids))
        self.report_bytes = sum(len(t.encode("utf-8")) for t in self.exp.texts.values())

        if self.exp.scores is None:
            # recorded graph: the toy table's scores, which the filler
            # rows of the large vector file must not change
            out = self.fresh("toy-eval")
            self.cli("eval", "--corpus", self.rec_out, "--input", wl.test_rs,
                     "--vectors", wl.toy_vectors, "--out", out)
            got = json.loads(out.read_text("utf-8"))
            self.exp.scores = {e["page_id"]: e["score"] for e in got["per_article"]}
            self.exp.aggregates = {k: wl.recorded["eval"][k]
                                   for k in ("min", "avg", "max", "oov_rate")}

    def keywords_tsv(self, wordnet: Path) -> str:
        args = ["keywords", "--input", self.wl.rs, "--wordnet", wordnet,
                "--top-k", TOP_K]
        for path in self.wl.backgrounds:
            args += ["--background", path]
        return self.cli(*args)

    def peak_rss_mib(self, args: list) -> float:
        """Run one CLI command in a process of its own; its peak RSS in MiB."""
        peak = self.fresh("peak")
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_SCRIPT, str(peak), *map(str, args)],
            capture_output=True, text=True, env=_child_env(), cwd=ROOT,
            timeout=150)
        if proc.returncode:
            raise BenchError(f"{args[0]} child failed:\n{proc.stderr[-2000:]}")
        return int(peak.read_text()) / 1024.0

    def measure_rss(self) -> dict[str, float]:
        wl = self.wl
        out = self.fresh("rss-mine")
        mine = self.peak_rss_mib(self.mine_args(out, self.rec_cache))
        self.check(checks.check_replay(self.rec_tree, checks.tree(out)))
        report = self.fresh("rss-eval")
        evaluation = self.peak_rss_mib(
            ["eval", "--corpus", self.rec_out, "--input", wl.test_rs,
             "--vectors", wl.vectors, "--out", report])
        self.check(checks.check_eval(report.read_text("utf-8"),
                                     self.exp.scores, self.exp.aggregates))
        # Outputs that outlive a few seconds get written back and fill the
        # disk's block group, which slows every later file creation there.
        for path in (out, report, self.rec_out, self.rec_cache):
            shutil.rmtree(path) if path.is_dir() else path.unlink()
        return {"mine_peak_rss_mib": mine, "eval_peak_rss_mib": evaluation}

    # -- rounds -----------------------------------------------------------

    def op(self, kind: str, fn, tracer=None):
        """Attempt one operation; time it, and trace it when asked.

        Returns (ok, result, spans).  An operation that raises is counted
        as failed and the round goes on.
        """
        self.attempted += 1
        if tracer is not None:
            tracer.start_root(kind)
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:
            if tracer is not None:
                tracer.end_root()
            self.failed += 1
            print(f"perfbench: {kind} failed:\n{traceback.format_exc()}",
                  file=sys.stderr)
            return False, None, None
        seconds = time.perf_counter() - start
        spans = tracer.end_root() if tracer is not None else None
        if spans is not None:
            self._calls += len(spans) - 1          # the root is not a call
            self._counts += sum(s.counts.get("requests", 0) for s in spans)
        elif kind in OP_METRIC:
            self.samples[OP_METRIC[kind]].append(seconds)
        return True, result, spans

    def one_round(self, tracer=None) -> None:
        wl = self.wl
        reps = ROUNDS[self.name]
        self._calls = self._counts = 0
        cold_tree = cache = warm = None

        for _ in range(reps["mine_cold"]):
            out, cache = self.fresh("cold"), self.fresh("cache")
            before = self.server.calls
            ok, _, spans = self.op("mine_cold", lambda: self.run_mine(
                out, cache, self.server.replay), tracer)
            if not ok:
                continue
            if tracer is None:
                self.samples["requests_sent"].append(self.server.calls - before)
            cold_tree = checks.tree(out)
            self.check(checks.check_corpus(cold_tree, self.exp, wl.seed_ids))
            if spans is not None:
                layers.mine_cold(self.layer, spans, out, cache)

        for _ in range(reps["mine_warm"]):
            warm = self.fresh("warm")
            ok, _, spans = self.op("mine_warm", lambda: self.cli(
                *self.mine_args(warm, cache)), tracer)
            if ok and cold_tree is not None:
                self.check(checks.check_replay(cold_tree, checks.tree(warm)))
            if spans is not None:
                layers.mine_warm(self.layer, spans)

        corpus = warm
        for _ in range(reps["report"]):
            ok, tsv, spans = self.op("report", lambda: self.cli(
                "report", "--corpus", corpus, "--top-n", REPORT_TOP_N,
                "--wordnet", wl.wordnet), tracer)
            if ok:
                self.check(checks.check_report(
                    tsv, self.exp,
                    wl.recorded["top_terms"] if wl.recorded else None))
            if spans is not None:
                layers.report(self.layer, spans, self.report_bytes)

        for _ in range(reps["eval"]):
            report = self.fresh("eval")
            ok, _, spans = self.op("eval", lambda: self.cli(
                "eval", "--corpus", corpus, "--input", wl.test_rs,
                "--vectors", wl.vectors, "--out", report), tracer)
            if ok:
                self.check(checks.check_eval(report.read_text("utf-8"),
                                             self.exp.scores, self.exp.aggregates))
            if spans is not None:
                layers.evaluation(self.layer, spans, wl.vectors,
                                  self.exp.rows_used)

        for _ in range(reps.get("keywords_unicode", 0)):
            self.keywords_unicode()

    def keywords_unicode(self) -> None:
        """The known-failing operation: a key phrase with a non-ASCII word
        must come out whole.  Counted as failed while it does not."""
        ok, tsv, _ = self.op("keywords_unicode", lambda: self.cli(
            "keywords", "--input", self.wl.unicode_rs,
            "--wordnet", ROOT / "tests" / "fixtures" / "wordnet_mini"))
        if not ok:
            return
        phrases = [line.split("\t")[0] for line in tsv.splitlines()]
        if workloads.UNICODE_PHRASE not in phrases:
            self.failed += 1

    def measure_rounds(self, seconds: float, trace: bool) -> int:
        tracer = tracing.Tracer() if trace else None
        start = time.perf_counter()
        rounds, last = 0, 0.0
        while rounds < MIN_ROUNDS or time.perf_counter() - start + last <= seconds:
            traced = trace and rounds % 2 == 1
            t0 = time.perf_counter()
            if traced:
                tracer.install()
                self.server.tracer = tracer
            try:
                self.one_round(tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
                    self.server.tracer = None
            if traced:
                self.traced_work.append((self._calls, self._counts))
            if not trace:
                # spread over the run, like every other sample
                self.samples["setup_s"].append(self.setup_seconds())
            for path in self.work.glob("*"):
                if path.name != "inputs":
                    shutil.rmtree(path, ignore_errors=True)
            last = time.perf_counter() - t0
            rounds += 1
        return rounds

    # -- the run ----------------------------------------------------------

    def run(self) -> dict:
        print(f"perfbench: {self.name} inputs {json.dumps(self.wl.inputs)}",
              file=sys.stderr)
        self.setup_seconds()                    # warm-up: compiles bytecode
        if not self.args.trace:
            self.samples["setup_s"] += [self.setup_seconds()
                                        for _ in range(SETUP_FIRST)]
        self.prepare()
        rss = self.measure_rss()
        rounds = self.measure_rounds(self.args.seconds, bool(self.args.trace))
        if self.server.late_renders:
            print(f"perfbench: {self.server.late_renders} requests were "
                  "rendered during timed mines", file=sys.stderr)
        if self.args.trace:
            values = {k: statistics.median(v) for k, v in self.layer.items()}
            per_call, per_count = tracing.Tracer().costs()
            values["trace.overhead_s"] = statistics.median(
                calls * per_call + counts * per_count
                for calls, counts in self.traced_work)
            missing = sorted(PER_LAYER.keys() - values.keys())
            if missing:
                raise BenchError(f"per-layer metrics not measured: {missing}")
            metrics = {k: {"value": values[k], "unit": unit}
                       for k, unit in PER_LAYER.items()}
        else:
            values = {k: statistics.median(v) for k, v in self.samples.items()}
            values.update(rss)
            metrics = {k: {"value": values[k], "unit": unit}
                       for k, unit in END_TO_END.items()}
        for problem in self.problems:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)
        print(f"perfbench: {self.name} seed {self.args.seed}: {rounds} rounds, "
              f"{self.attempted} operations, {self.failed} failed",
              file=sys.stderr)
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    needed = [SRC / "wikiharvest" / "cli.py",
              ROOT / "tests" / "fixtures" / "railway_graph.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a checkout of the repository, missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["SOURCE_DATE_EPOCH"] = EPOCH
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        result = Bench(args, work).run()
    except (BenchError, OpFailed) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
