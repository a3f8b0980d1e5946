"""Shared fixtures: mini WordNet, toy vectors, and the recorded wiki graph.

The recorded railway crawl ships as a graph JSON plus a fake API server
(`wikiharvest.testing.FakeWiki`).  The session fixture below warms a real
on-disk cache through the production transport once; offline CLI runs and
corpus-level tests then work entirely from that cache.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import pytest

from wikiharvest import relatedness
from wikiharvest.cli import run_mine
from wikiharvest.crawler import CachedTransport
from wikiharvest.lexicon import load_wordnet, make_lemmatizer
from wikiharvest.preprocess import Pipeline
from wikiharvest.relatedness import load_vectors
from wikiharvest.testing import FakeWiki

FIXTURES = Path(__file__).parent / "fixtures"

# Pinned so manifests (and therefore whole output trees) are byte-stable.
EPOCH = "1700000000"


def _silent(*args, **kwargs):
    pass


def vector_file_words(path: Path) -> set[str]:
    """The first field of every line of a vector file: load them all."""
    return {line.split(" ")[0]
            for line in path.read_text("utf-8").splitlines()}


@contextmanager
def split_into(n):
    """Check vector files of any size in `n` forked range workers; yields
    the list of pids forked."""
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relatedness, "_FORK_MIN_BYTES", 2)   # ranges of 1 byte up
        mp.setattr(relatedness, "_usable_cores", lambda: n)
        mp.setattr(os, "fork", fork)
        yield pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def recorded() -> dict:
    return json.loads((FIXTURES / "recorded.json").read_text("utf-8"))


@pytest.fixture(scope="session")
def mini_wordnet():
    return load_wordnet(FIXTURES / "wordnet_mini")


@pytest.fixture(scope="session")
def wn_pipeline(mini_wordnet) -> Pipeline:
    return Pipeline(lemmatizer=make_lemmatizer(mini_wordnet))


@pytest.fixture(scope="session")
def toy_table():
    path = FIXTURES / "vectors_toy.txt"
    return load_vectors(path, vector_file_words(path))


@pytest.fixture(scope="session")
def railway_wiki() -> FakeWiki:
    return FakeWiki.from_path(FIXTURES / "railway_graph.json")


@pytest.fixture(scope="session")
def railway_mined(railway_wiki, tmp_path_factory) -> SimpleNamespace:
    """One warm mine run: populated HTTP cache plus the mined corpus dir."""
    base = tmp_path_factory.mktemp("railway")
    cache = base / "cache"
    out = base / "corpus"
    transport = CachedTransport(cache_dir=cache,
                                fetcher=railway_wiki.fetcher(),
                                request_delay_ms=0)
    os.environ.setdefault("SOURCE_DATE_EPOCH", EPOCH)
    manifest = run_mine(FIXTURES / "railway_rs.txt", out,
                        FIXTURES / "wordnet_mini",
                        cache_dir=cache, transport=transport, echo=_silent)
    return SimpleNamespace(cache=cache, corpus=out, manifest=manifest)


@pytest.fixture(scope="session")
def cli():
    """Run the installed CLI in a subprocess; returns CompletedProcess."""
    def run(*args: str, env_extra: dict | None = None,
            check: bool = False) -> subprocess.CompletedProcess:
        env = os.environ.copy()
        env["SOURCE_DATE_EPOCH"] = EPOCH
        env.update(env_extra or {})
        proc = subprocess.run(
            [sys.executable, "-m", "wikiharvest.cli", *map(str, args)],
            capture_output=True, env=env)
        if check and proc.returncode != 0:
            raise AssertionError(
                f"cli {args} failed rc={proc.returncode}:\n"
                f"{proc.stderr.decode(errors='replace')}")
        return proc
    return run
