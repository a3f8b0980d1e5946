#!/usr/bin/env python3
"""Shows that the benchmark's checks catch wrong output.

    python3 perfbench/selftest.py [--seed N]

Mines the long-text workload once, runs `report` and `eval` on the corpus,
and confirms that every check passes on these real outputs.  Then it feeds
the checks four altered copies and confirms that each one is caught:

* a corpus with one article dropped;
* a corpus with one article's text altered at the same length;
* a report with one planted count off by one;
* an eval report with one score changed by 1e-6.

Exits with 0 when the real outputs pass and all four alterations fail.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from types import SimpleNamespace

import run


def _drop_article(files: dict[str, bytes]) -> dict[str, bytes]:
    files = dict(files)
    manifest = json.loads(files["manifest.json"])
    gone = manifest["articles"].pop(len(manifest["articles"]) // 2)
    del files[gone["relative_path"]]
    files["manifest.json"] = json.dumps(manifest).encode("utf-8")
    return files


def _alter_text(files: dict[str, bytes]) -> dict[str, bytes]:
    files = dict(files)
    manifest = json.loads(files["manifest.json"])
    path = manifest["articles"][0]["relative_path"]
    text = bytearray(files[path])
    i = text.index(b"shall")
    text[i:i + 5] = b"shalt"
    files[path] = bytes(text)
    return files


def _miscount(tsv: str, word: str) -> str:
    lines = []
    for line in tsv.splitlines():
        term, count = line.split("\t")
        if term == word:
            count = str(int(count) + 1)
        lines.append(f"{term}\t{count}")
    return "\n".join(lines) + "\n"


def _nudge_score(report: str) -> str:
    data = json.loads(report)
    data["per_article"][0]["score"] += 1e-6
    return json.dumps(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    os.environ["SOURCE_DATE_EPOCH"] = run.EPOCH
    import checks

    work = run.WORK / f"selftest-{os.getpid()}"
    try:
        bench = run.Bench(SimpleNamespace(workload="long-text", seed=args.seed,
                                          seconds=0, trace=0), work)
        bench.prepare()
        wl, exp = bench.wl, bench.exp
        files = bench.rec_tree
        tsv = bench.cli("report", "--corpus", bench.rec_out, "--top-n",
                        run.REPORT_TOP_N, "--wordnet", wl.wordnet)
        out = bench.fresh("eval")
        bench.cli("eval", "--corpus", bench.rec_out, "--input", wl.test_rs,
                  "--vectors", wl.vectors, "--out", out)
        report = out.read_text("utf-8")

        def corpus(f):
            return checks.check_corpus(f, exp, wl.seed_ids)

        def freq(t):
            return checks.check_report(t, exp)

        def scores(r):
            return checks.check_eval(r, exp.scores, exp.aggregates)

        cases = [
            ("real corpus", corpus(files), False),
            ("real report", freq(tsv), False),
            ("real eval", scores(report), False),
            ("corpus with one article dropped",
             corpus(_drop_article(files)), True),
            ("corpus with one text altered at the same length",
             corpus(_alter_text(files)), True),
            ("report with one planted count off by one",
             freq(_miscount(tsv, wl.report_words[0])), True),
            ("eval with one score changed by 1e-6",
             scores(_nudge_score(report)), True),
        ]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = True
    for label, problems, should_fail in cases:
        good = bool(problems) == should_fail
        ok &= good
        verdict = "caught" if problems else "passes"
        print(f"{'ok  ' if good else 'FAIL'} {label}: {verdict}"
              + (f" ({problems[0]})" if problems else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
