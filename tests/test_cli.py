"""CLI surface: flags, exit codes, and stdout contracts."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from multiprocessing.connection import Connection

import pytest
from click.testing import CliRunner

from conftest import FIXTURES, assert_reaped, split_into
from wikiharvest import preprocess
from wikiharvest.cli import main, run_mine
from wikiharvest.corpus import write_corpus

WORDNET = FIXTURES / "wordnet_mini"
VECTORS = FIXTURES / "vectors_toy.txt"
RAILWAY_RS = FIXTURES / "railway_rs.txt"


def running(pid: int) -> bool:
    """Whether process `pid` exists and is not a zombie (Linux)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def keyword_rows(stdout: bytes) -> list[list[str]]:
    """Rows of the keyword table (for `mine`, only its first section)."""
    rows = []
    seen_header = False
    for line in stdout.decode().splitlines():
        if line.startswith("#"):
            if seen_header:
                break
            seen_header = True
            continue
        if line:
            rows.append(line.split("\t"))
    return rows


class TestHelp:
    @pytest.mark.parametrize("command,flags,has_defaults", [
        ([], [], False),
        (["mine"], ["--input", "--out", "--top-k", "--depth", "--wordnet",
                    "--background", "--offline", "--cache", "--max-articles",
                    "--endpoint", "--user-agent", "--workers"], True),
        (["keywords"], ["--input", "--top-k", "--wordnet", "--background"],
         True),
        (["eval"], ["--corpus", "--input", "--vectors", "--out"], False),
        (["report"], ["--corpus", "--top-n", "--wordnet"], True),
    ])
    def test_help_lists_flags_with_defaults(self, cli, command, flags,
                                            has_defaults):
        proc = cli(*command, "--help")
        assert proc.returncode == 0
        text = proc.stdout.decode()
        for flag in flags:
            assert flag in text, f"{flag} missing from {command} --help"
        if has_defaults:
            assert "default" in text.lower()

    def test_commands_listed(self, cli):
        text = cli("--help").stdout.decode()
        for cmd in ("mine", "keywords", "eval", "report"):
            assert cmd in text


def test_import_does_not_load_numpy():
    """Only `eval` needs numpy; the other commands start without it."""
    code = ("import sys, wikiharvest.cli as cli; "
            "assert callable(cli.load_vectors) and callable(cli.evaluate); "
            "print('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"


class TestKeywordsCommand:
    def test_empty_rs_empty_table(self, cli, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        proc = cli("keywords", "--input", empty, "--wordnet", WORDNET)
        assert proc.returncode == 0
        assert proc.stdout == b""

    def test_top_k_cardinality(self, cli):
        proc = cli("keywords", "--input", RAILWAY_RS, "--wordnet", WORDNET,
                   "--top-k", "5", check=True)
        assert len(keyword_rows(proc.stdout)) == 5

    def test_rerun_byte_identical(self, cli):
        a = cli("keywords", "--input", RAILWAY_RS, "--wordnet", WORDNET,
                check=True)
        b = cli("keywords", "--input", RAILWAY_RS, "--wordnet", WORDNET,
                check=True)
        assert a.stdout == b.stdout

    def test_missing_wordnet_dir_exit_2(self, cli, tmp_path):
        proc = cli("keywords", "--input", RAILWAY_RS,
                   "--wordnet", tmp_path / "nowhere")
        assert proc.returncode == 2
        assert b"--wordnet" in proc.stderr

    def test_wordnet_dir_without_indexes_exit_2(self, cli, tmp_path):
        empty = tmp_path / "wn"
        empty.mkdir()
        proc = cli("keywords", "--input", RAILWAY_RS, "--wordnet", empty)
        assert proc.returncode == 2
        assert b"--wordnet" in proc.stderr

    @pytest.mark.parametrize("name", ["index.noun", "noun.exc"])
    def test_wordnet_not_utf8_one_line_exit_1(self, cli, tmp_path, name):
        wordnet = tmp_path / "wn"
        shutil.copytree(WORDNET, wordnet)
        path = wordnet / name
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b"caf\xe9 " + lines[1]
        path.write_bytes(b"".join(lines))
        proc = cli("keywords", "--input", RAILWAY_RS, "--wordnet", wordnet)
        assert proc.returncode == 1
        assert proc.stderr.decode().splitlines() == [
            f"error: {path}:2: not valid UTF-8 (byte 0xe9)"]

    def test_background_docs_change_scores(self, cli, tmp_path):
        bg = tmp_path / "bg.txt"
        bg.write_text("The emergency brake shall function.\n")
        plain = cli("keywords", "--input", RAILWAY_RS, "--wordnet", WORDNET,
                    check=True)
        with_bg = cli("keywords", "--input", RAILWAY_RS, "--wordnet", WORDNET,
                      "--background", bg, check=True)
        assert plain.stdout != with_bg.stdout


class TestMineCommand:
    def test_offline_depth1_counts_and_keywords(self, cli, railway_mined,
                                                tmp_path, recorded):
        out = tmp_path / "corpus"
        proc = cli("mine", "--input", RAILWAY_RS, "--out", out,
                   "--wordnet", WORDNET, "--offline",
                   "--cache", railway_mined.cache, check=True)
        stdout = proc.stdout.decode()
        assert f"# articles: {recorded['railway']['depth1_article_count']}" \
            in stdout
        assert "# seed matches: 15" in stdout
        phrases = [row[0] for row in keyword_rows(proc.stdout)]
        assert len(phrases) == 50
        assert sum(1 for p in phrases if " " in p) >= 25  # multi-word NPs
        for required in recorded["railway"]["required_keywords"]:
            assert required in phrases
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["articles"]) == \
            recorded["railway"]["depth1_article_count"]
        assert (out / "keywords.tsv").is_file()

    def test_offline_depth0_seed_matches_only(self, cli, railway_mined,
                                              tmp_path, recorded):
        out = tmp_path / "corpus0"
        proc = cli("mine", "--input", RAILWAY_RS, "--out", out,
                   "--wordnet", WORDNET, "--offline", "--depth", "0",
                   "--cache", railway_mined.cache, check=True)
        assert f"# articles: {recorded['railway']['seed_count']}" \
            in proc.stdout.decode()
        manifest = json.loads((out / "manifest.json").read_text())
        assert [e["page_id"] for e in manifest["articles"]] == \
            recorded["railway"]["seed_page_ids"]

    def test_offline_cold_cache_fails(self, cli, tmp_path):
        proc = cli("mine", "--input", RAILWAY_RS, "--out", tmp_path / "o",
                   "--wordnet", WORDNET, "--offline",
                   "--cache", tmp_path / "empty-cache")
        assert proc.returncode == 1
        assert b"offline" in proc.stderr.lower()

    def test_missing_wordnet_exit_2(self, cli, tmp_path):
        proc = cli("mine", "--input", RAILWAY_RS, "--out", tmp_path / "o",
                   "--wordnet", tmp_path / "missing")
        assert proc.returncode == 2
        assert b"--wordnet" in proc.stderr

    def test_max_articles_truncation(self, cli, railway_mined, tmp_path):
        out = tmp_path / "capped"
        proc = cli("mine", "--input", RAILWAY_RS, "--out", out,
                   "--wordnet", WORDNET, "--offline",
                   "--cache", railway_mined.cache,
                   "--max-articles", "100", check=True)
        stdout = proc.stdout.decode()
        assert "# articles: 100" in stdout
        assert "# frontier truncated" in stdout

    def test_writes_only_under_out_and_cache(self, cli, railway_mined,
                                             tmp_path):
        out = tmp_path / "sandbox" / "corpus"
        before = set(tmp_path.iterdir())
        cli("mine", "--input", RAILWAY_RS, "--out", out,
            "--wordnet", WORDNET, "--offline",
            "--cache", railway_mined.cache, check=True)
        assert set(tmp_path.iterdir()) == before | {tmp_path / "sandbox"}
        assert sorted(p.name for p in out.iterdir()) == \
            ["articles", "keywords.tsv", "manifest.json"]

    @pytest.mark.parametrize("epoch", ["abc", "1.5"])
    def test_bad_source_date_epoch_fails_before_crawl(self, cli,
                                                      railway_mined,
                                                      tmp_path, epoch):
        out = tmp_path / "o"
        proc = cli("mine", "--input", RAILWAY_RS, "--out", out,
                   "--wordnet", WORDNET, "--offline",
                   "--cache", railway_mined.cache,
                   env_extra={"SOURCE_DATE_EPOCH": epoch})
        assert proc.returncode == 1
        [line] = proc.stderr.decode().splitlines()
        assert line.startswith(f"error: SOURCE_DATE_EPOCH={epoch!r}")
        assert not (out / "articles").exists()
        assert not out.exists()

    def test_corrupt_cache_file_one_line_error(self, cli, railway_mined,
                                               tmp_path):
        cache = tmp_path / "cache"
        shutil.copytree(railway_mined.cache, cache)
        damaged = cache / "responses.jsonl"
        first, rest = damaged.read_bytes().split(b"\n", 1)
        url = first.split(b"\t")[0].decode()
        damaged.write_bytes(f'{url}\t{{"query": \n'.encode() + rest)
        proc = cli("mine", "--input", RAILWAY_RS, "--out", tmp_path / "o",
                   "--wordnet", WORDNET, "--offline", "--cache", cache)
        assert proc.returncode == 1
        stderr = proc.stderr.decode()
        assert "Traceback" not in stderr
        [line] = [ln for ln in stderr.splitlines() if ln.startswith("error:")]
        assert line == (f"error: {damaged}: cached response for {url} "
                        "is not a JSON object")
        assert url.startswith("https://en.wikipedia.org/w/api.php?")

    @pytest.mark.parametrize("request_kind, damage", [
        ("list=categorymembers",
         lambda body: body["query"]["categorymembers"][0].pop("ns")),
        ("generator=categories",
         lambda body: body.update({"continue": ["gclcontinue"]})),
        ("prop=extracts",
         lambda body: body["query"]["pages"][0].update(extract=5)),
        ("generator=search", lambda body: body.update(query=["pages"])),
    ])
    def test_cached_reply_of_wrong_shape_one_line_error(
            self, cli, railway_mined, tmp_path, request_kind, damage):
        cache = tmp_path / "cache"
        shutil.copytree(railway_mined.cache, cache)
        log = cache / "responses.jsonl"
        records = log.read_bytes().split(b"\n")
        k = next(i for i, record in enumerate(records)
                 if request_kind.encode() in record.split(b"\t")[0])
        url, body = records[k].decode().split("\t")
        body = json.loads(body)
        damage(body)
        records[k] = f"{url}\t{json.dumps(body)}".encode()
        log.write_bytes(b"\n".join(records))
        proc = cli("mine", "--input", RAILWAY_RS, "--out", tmp_path / "o",
                   "--wordnet", WORDNET, "--offline", "--cache", cache)
        assert proc.returncode == 1
        stderr = proc.stderr.decode()
        assert "Traceback" not in stderr
        [line] = [ln for ln in stderr.splitlines() if ln.startswith("error:")]
        assert line.startswith(f"error: {url}: reply does not list query ")

    def test_mine_builds_no_token(self, railway_mined, tmp_path, monkeypatch):
        """`mine` reads only the noun phrases of the RS and backgrounds:
        it builds no Token or Sentence, and writes the same tree."""
        def mine(out):
            run_mine(RAILWAY_RS, out, WORDNET, offline=True,
                     cache_dir=railway_mined.cache,
                     background_paths=[FIXTURES / "railway_test_rs.txt"],
                     echo=lambda *args, **kwargs: None)
            return {path.relative_to(out): path.read_bytes()
                    for path in out.rglob("*") if path.is_file()}

        def no_tokens(*args, **kwargs):
            raise AssertionError("a Token was built")

        expected = mine(tmp_path / "plain")
        monkeypatch.setattr(preprocess, "_sentences", no_tokens)
        monkeypatch.setattr(preprocess, "Token", no_tokens)
        assert mine(tmp_path / "patched") == expected
        assert len(expected) == 688

    def test_endpoint_changes_cache_identity(self, cli, railway_mined,
                                             tmp_path):
        # cache keys include the endpoint, so another endpoint cannot be
        # served from this cache in offline mode
        proc = cli("mine", "--input", RAILWAY_RS, "--out", tmp_path / "o",
                   "--wordnet", WORDNET, "--offline",
                   "--cache", railway_mined.cache,
                   "--endpoint", "https://example.org/w/api.php")
        assert proc.returncode == 1
        assert b"offline" in proc.stderr.lower()


class TestEvalCommand:
    def test_missing_vectors_exit_2(self, cli, railway_mined, tmp_path):
        proc = cli("eval", "--corpus", railway_mined.corpus,
                   "--input", FIXTURES / "railway_test_rs.txt",
                   "--vectors", tmp_path / "none.txt")
        assert proc.returncode == 2

    def test_vectors_not_utf8_one_line_exit_1(self, cli, tmp_path):
        vectors = tmp_path / "v.txt"
        vectors.write_bytes(b"rail 0.1 0.2\ncaf\xe9 0.3 0.4\n")
        proc = cli("eval", "--corpus", FIXTURES / "transport_corpus",
                   "--input", FIXTURES / "transport_test_rs.txt",
                   "--vectors", vectors)
        assert proc.returncode == 1
        assert proc.stderr.decode().splitlines() == [
            f"error: {vectors}:2: not valid UTF-8 (byte 0xe9)"]

    def test_vectors_not_finite_one_line_exit_1(self, cli, tmp_path):
        # a NaN score would be written as NaN, which is not JSON
        vectors = tmp_path / "v.txt"
        vectors.write_text("road 0.1 0.2\ntraffic nan 0.4\n")
        proc = cli("eval", "--corpus", FIXTURES / "transport_corpus",
                   "--input", FIXTURES / "transport_test_rs.txt",
                   "--vectors", vectors)
        assert proc.returncode == 1
        assert proc.stderr.decode().splitlines() == [
            f"error: {vectors}:2: non-finite component"]

    def test_corpus_without_manifest_exit_1(self, cli, tmp_path):
        (tmp_path / "c").mkdir()
        proc = cli("eval", "--corpus", tmp_path / "c",
                   "--input", FIXTURES / "railway_test_rs.txt",
                   "--vectors", VECTORS)
        assert proc.returncode == 1

    def test_railway_corpus_vs_test_rs(self, cli, railway_mined, recorded):
        proc = cli("eval", "--corpus", railway_mined.corpus,
                   "--input", FIXTURES / "railway_test_rs.txt",
                   "--vectors", VECTORS, check=True)
        payload = json.loads(proc.stdout)
        want = recorded["railway"]["eval"]
        for key in ("min", "avg", "max", "oov_rate"):
            assert payload[key] == pytest.approx(want[key], abs=1e-9)
        assert len(payload["per_article"]) == 686

    def test_corpus_vs_its_own_seed_rs(self, cli, railway_mined, recorded):
        # the seed RS embeds onto the same axis as the corpus domain words,
        # so the aggregate sits near the maximum
        proc = cli("eval", "--corpus", railway_mined.corpus,
                   "--input", RAILWAY_RS, "--vectors", VECTORS, check=True)
        payload = json.loads(proc.stdout)
        assert payload["avg"] == pytest.approx(
            recorded["railway"]["eval"]["avg"], abs=1e-9)
        assert payload["avg"] >= 0.9 * payload["max"]

    def test_out_file(self, cli, railway_mined, tmp_path):
        report = tmp_path / "report.json"
        proc = cli("eval", "--corpus", railway_mined.corpus,
                   "--input", FIXTURES / "railway_test_rs.txt",
                   "--vectors", VECTORS, "--out", report, check=True)
        payload = json.loads(report.read_text())
        assert "per_article" in payload
        assert b"min=" in proc.stdout  # human summary on stdout

    def test_summary_on_stderr_when_json_on_stdout(self, cli, railway_mined):
        proc = cli("eval", "--corpus", railway_mined.corpus,
                   "--input", FIXTURES / "railway_test_rs.txt",
                   "--vectors", VECTORS, check=True)
        assert b"min=" in proc.stderr
        json.loads(proc.stdout)  # stdout stays pure JSON


class TestDamagedCorpus:
    """A damaged corpus is a one-line error with exit 1, in both readers."""

    ARGS = {"report": (),
            "eval": ("--input", FIXTURES / "transport_test_rs.txt",
                     "--vectors", VECTORS)}

    @pytest.fixture
    def corpus(self, tmp_path):
        out = tmp_path / "c"
        write_corpus([(1, "A", "caf\u00e9 road"), (2, "B", "traffic")], out)
        return out

    @pytest.mark.parametrize("command", ["report", "eval"])
    def test_article_not_utf8(self, cli, corpus, command):
        article = corpus / "articles" / "1.txt"
        article.write_bytes(b"caf\xe9! road")
        proc = cli(command, "--corpus", corpus, *self.ARGS[command])
        assert proc.returncode == 1
        assert proc.stderr.decode().splitlines() == [
            f"error: {article}: not valid UTF-8 (byte 0xe9 at offset 3)"]

    @pytest.mark.parametrize("command", ["report", "eval"])
    def test_manifest_not_json(self, cli, corpus, command):
        manifest = corpus / "manifest.json"
        manifest.write_text("{")
        proc = cli(command, "--corpus", corpus, *self.ARGS[command])
        assert proc.returncode == 1
        [line] = proc.stderr.decode().splitlines()
        assert line.startswith(f"error: {manifest}: not a valid manifest")

    @pytest.mark.parametrize("command", ["report", "eval"])
    def test_manifest_not_utf8(self, cli, corpus, command):
        manifest = corpus / "manifest.json"
        data = manifest.read_bytes().replace(b'"title": "A"',
                                             b'"title": "\xe9"')
        manifest.write_bytes(data)
        proc = cli(command, "--corpus", corpus, *self.ARGS[command])
        assert proc.returncode == 1
        assert proc.stderr.decode().splitlines() == [
            f"error: {manifest}: not valid UTF-8 (byte 0xe9 at offset "
            f"{data.index(0xe9)})"]
        assert proc.stdout == b""


class TestInputNotUtf8:
    """A requirements text or background document that is not UTF-8 is
    one `error:` line naming the file, its first bad byte and that byte's
    offset, with exit 1; `mine` then writes nothing under --out."""

    @pytest.mark.parametrize("command, flag", [
        ("mine", "--input"), ("mine", "--background"),
        ("keywords", "--input"), ("keywords", "--background"),
        ("eval", "--input")])
    def test_one_error_line_exit_1(self, cli, tmp_path, command, flag):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"The caf\xe9 stops.\n")
        out = tmp_path / "out"
        inputs = (["--input", bad] if flag == "--input"
                  else ["--input", RAILWAY_RS, "--background", bad])
        args = {"mine": ("--wordnet", WORDNET, "--out", out, "--offline"),
                "keywords": ("--wordnet", WORDNET),
                "eval": ("--corpus", FIXTURES / "transport_corpus",
                         "--vectors", VECTORS)}[command]
        proc = cli(command, *args, *inputs)
        assert proc.returncode == 1
        assert proc.stderr.decode().splitlines() == [
            f"error: {bad}: not valid UTF-8 (byte 0xe9 at offset 7)"]
        assert proc.stdout == b""
        assert not out.exists()


class TestEvalWorkers:
    """`eval` with its vector file checked in forked range workers: the
    same report, one error line, and no worker left behind."""

    TRANSPORT = ("--corpus", FIXTURES / "transport_corpus",
                 "--input", FIXTURES / "transport_test_rs.txt")

    @staticmethod
    def eval(*args):
        return CliRunner().invoke(main, ["eval", *map(str, args)])

    def test_same_report_as_in_process(self):
        alone = self.eval(*self.TRANSPORT, "--vectors", VECTORS)
        with split_into(2) as pids:
            split = self.eval(*self.TRANSPORT, "--vectors", VECTORS)
        assert len(pids) == 2
        assert_reaped(pids)
        assert (split.exit_code, split.stdout) == (0, alone.stdout)

    def test_vector_error(self, tmp_path):
        vectors = tmp_path / "v.txt"
        lines = VECTORS.read_text("utf-8").splitlines()
        lines[90] += " 0.5"
        vectors.write_text("\n".join(lines) + "\n")
        with split_into(2) as pids:
            result = self.eval(*self.TRANSPORT, "--vectors", vectors)
        assert_reaped(pids)
        assert result.exit_code == 1
        assert result.stderr.splitlines() == [
            f"error: {vectors}:91: dimension 9 != 8"]

    def test_corpus_error_forks_no_worker(self, tmp_path):
        corpus = tmp_path / "c"
        write_corpus([(1, "A", "caf\u00e9 road"), (2, "B", "traffic")], corpus)
        (corpus / "articles" / "1.txt").write_bytes(b"caf\xe9! road")
        with split_into(2) as pids:
            result = self.eval("--corpus", corpus,
                               *self.TRANSPORT[2:], "--vectors", VECTORS)
        assert pids == []
        assert result.exit_code == 1
        assert "not valid UTF-8" in result.stderr

    def test_interrupt_while_workers_run(self, monkeypatch):
        def interrupted(*_args):
            raise KeyboardInterrupt
        monkeypatch.setattr(Connection, "recv", interrupted)
        with split_into(2) as pids:
            result = self.eval(*self.TRANSPORT, "--vectors", VECTORS)
        assert len(pids) == 2
        assert_reaped(pids)
        assert result.exit_code == 1    # click's "Aborted!"

    def test_workers_stop_when_eval_is_killed(self, tmp_path):
        # eval is SIGKILLed while it waits for the replies: nothing reaps
        # its workers, so they must see the closed pipe and exit by
        # themselves, also when blocked sending a reply larger than the
        # pipe buffer (rows of 2,000 components, over 100 KB per range)
        lines = VECTORS.read_text("utf-8").splitlines()
        vectors = tmp_path / "wide.txt"
        vectors.write_text("100 2000\n" + "".join(
            line + " 0" * 1992 + "\n" for line in lines[1:]))
        pids = tmp_path / "pids"
        code = """if True:
            import os, signal
            from multiprocessing.connection import Connection
            import wikiharvest.cli as cli, wikiharvest.relatedness as r
            r._FORK_MIN_BYTES = 2
            r._usable_cores = lambda: 2
            fork, pids = os.fork, []
            def spy():
                pid = fork()
                pids.append(pid)
                return pid
            os.fork = spy
            def killed(conn):
                with open(os.environ["PIDS_FILE"], "w") as fh:
                    fh.write(" ".join(map(str, pids)))
                os.kill(os.getpid(), signal.SIGKILL)
            Connection.recv = killed
            cli.main()
        """
        proc = subprocess.run(
            [sys.executable, "-c", code, "eval", *map(str, self.TRANSPORT),
             "--vectors", vectors], stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=60,
            env={**os.environ, "PIDS_FILE": str(pids)})
        assert proc.returncode == -signal.SIGKILL
        workers = [int(pid) for pid in pids.read_text().split()]
        assert len(workers) == 2
        try:
            deadline = time.monotonic() + 30
            while any(map(running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(running, workers))
        finally:
            for pid in filter(running, workers):
                os.kill(pid, signal.SIGKILL)

    def test_killed_worker_is_one_error_line(self):
        # the second worker waits to be killed, which happens before the
        # first reply is received, so it cannot have replied
        code = """if True:
            import os, signal
            from multiprocessing.connection import Connection
            import wikiharvest.cli as cli, wikiharvest.relatedness as r
            r._FORK_MIN_BYTES = 2
            r._usable_cores = lambda: 2
            fork, pids = os.fork, []
            def spy():
                pid = fork()
                pids.append(pid)
                return pid
            os.fork = spy
            scan, recv = r._scan_range, Connection.recv
            def second_range_waits(path, start, *args):
                if start:
                    signal.pause()
                return scan(path, start, *args)
            def kill_then_recv(conn):
                os.kill(pids[1], signal.SIGKILL)
                return recv(conn)
            r._scan_range = second_range_waits
            Connection.recv = kill_then_recv
            cli.main()
        """
        proc = subprocess.run(
            [sys.executable, "-c", code, "eval", *map(str, self.TRANSPORT),
             "--vectors", VECTORS], capture_output=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.decode().splitlines() == [
            f"error: {VECTORS}: a vector check worker stopped (exit code -9)"]


class TestReportCommand:
    def test_rail_in_top_five(self, cli, railway_mined):
        proc = cli("report", "--corpus", railway_mined.corpus,
                   "--top-n", "5", "--wordnet", WORDNET, check=True)
        terms = [line.split("\t")[0]
                 for line in proc.stdout.decode().splitlines()]
        assert "rail" in terms
        assert len(terms) == 5

    def test_top_terms_match_recorded(self, cli, railway_mined, recorded):
        proc = cli("report", "--corpus", railway_mined.corpus,
                   "--top-n", "5", "--wordnet", WORDNET, check=True)
        terms = [line.split("\t")[0]
                 for line in proc.stdout.decode().splitlines()]
        assert terms == recorded["railway"]["top_terms"]

    def test_top_n_zero_exit_2(self, cli, railway_mined):
        proc = cli("report", "--corpus", railway_mined.corpus, "--top-n", "0")
        assert proc.returncode == 2

    def test_rerun_identical(self, cli, railway_mined):
        a = cli("report", "--corpus", railway_mined.corpus, check=True)
        b = cli("report", "--corpus", railway_mined.corpus, check=True)
        assert a.stdout == b.stdout

    def test_transport_fixture(self, cli, fixtures_dir, recorded):
        proc = cli("report", "--corpus", fixtures_dir / "transport_corpus",
                   "--top-n", "4", "--wordnet", WORDNET, check=True)
        terms = [line.split("\t")[0]
                 for line in proc.stdout.decode().splitlines()]
        assert terms == recorded["transportation"]["top_terms"]
