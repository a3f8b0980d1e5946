"""Corpus persistence, integrity checking, and frequency reports."""

import json
import os
import stat
from collections import Counter

import pytest

from wikiharvest.corpus import (CorpusError, DuplicatePageId, IntegrityError,
                                ManifestMissing, created_at_now,
                                frequency_report, load_corpus, write_corpus,
                                write_text_atomic)
from wikiharvest.crawler import CachedTransport
from wikiharvest.keywords import Keyword
from wikiharvest.preprocess import NUM, PUNCT
from wikiharvest.testing import FakeWiki


SAMPLE = [
    (101, "Rail transport", "Rail transport moves goods by rail."),
    (57, "Track", "A track guides the train."),
    (203, "Slash/Title: weird?", "Title characters never touch the path."),
]


class TestWriteCorpus:
    def test_files_and_manifest(self, tmp_path):
        manifest = write_corpus(SAMPLE, tmp_path / "c")
        assert len(manifest.articles) == 3
        assert (tmp_path / "c" / "manifest.json").is_file()
        for entry in manifest.articles:
            assert (tmp_path / "c" / entry["relative_path"]).is_file()

    def test_articles_sorted_by_page_id(self, tmp_path):
        manifest = write_corpus(SAMPLE, tmp_path / "c")
        ids = [e["page_id"] for e in manifest.articles]
        assert ids == sorted(ids) == [57, 101, 203]

    def test_pathological_title_named_by_page_id(self, tmp_path):
        manifest = write_corpus(SAMPLE, tmp_path / "c")
        entry = next(e for e in manifest.articles if e["page_id"] == 203)
        assert entry["relative_path"] == "articles/203.txt"
        assert entry["title"] == "Slash/Title: weird?"

    def test_duplicate_page_id(self, tmp_path):
        with pytest.raises(DuplicatePageId):
            write_corpus([(1, "A", "x"), (1, "B", "y")], tmp_path / "c")

    def test_rerun_replaces_manifest_idempotently(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1767225600")
        out = tmp_path / "c"
        write_corpus(SAMPLE, out)
        first = (out / "manifest.json").read_bytes()
        write_corpus(SAMPLE, out)
        assert (out / "manifest.json").read_bytes() == first

    @pytest.mark.parametrize("epoch, created_at", [
        ("1700000000", "2023-11-14T22:13:20Z"),
        ("0", "1970-01-01T00:00:00Z"),
        ("-86400", "1969-12-31T00:00:00Z"),
    ])
    def test_source_date_epoch_pins_created_at(self, monkeypatch, epoch,
                                               created_at):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        assert created_at_now() == created_at

    @pytest.mark.parametrize("epoch", [
        "abc", "1.5", " 17", "1_700", "+17",
        "\u0661\u0667",             # Arabic-Indic digits: int() takes them
        "99999999999999999999",     # past datetime's year 9999
    ])
    def test_bad_source_date_epoch(self, monkeypatch, epoch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        with pytest.raises(CorpusError) as info:
            created_at_now()
        assert str(info.value).startswith(f"SOURCE_DATE_EPOCH={epoch!r}: ")

    def test_rerun_removes_unlisted_articles(self, tmp_path):
        out = tmp_path / "c"
        write_corpus([(1, "A", "one"), (2, "B", "two")], out)
        manifest = write_corpus([(1, "A", "one")], out)
        assert sorted(p.name for p in (out / "articles").iterdir()) == \
            ["1.txt"]
        assert [e["page_id"] for e in manifest.articles] == [1]
        assert [text for _pid, _t, text in load_corpus(out)] == ["one"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_manifest_and_cache_files_honour_umask(self, tmp_path, umask,
                                                   mode):
        wiki = FakeWiki()
        wiki.add_article(1, "Rail transport", text="Rail.")
        transport = CachedTransport(cache_dir=tmp_path / "cache",
                                    fetcher=wiki.fetcher(), request_delay_ms=0)
        old = os.umask(umask)
        try:
            write_corpus(SAMPLE, tmp_path / "c")
            transport.get({"action": "query", "format": "json",
                           "formatversion": "2", "prop": "extracts",
                           "explaintext": "1", "redirects": "1",
                           "pageids": "1"})
        finally:
            os.umask(old)
        files = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert len(files) == 1 + len(SAMPLE) + 1
        assert tmp_path / "cache" / "responses.jsonl" in files
        assert not [p for p in files if p.name.endswith(".tmp")]
        assert {stat.S_IMODE(p.stat().st_mode) for p in files} == {mode}

    def test_failed_atomic_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "manifest.json"
        target.mkdir()   # the rename onto a directory fails
        with pytest.raises(OSError):
            write_text_atomic(target, "{}")
        assert list(tmp_path.iterdir()) == [target]

    def test_source_date_epoch_pins_timestamp(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        manifest = write_corpus(SAMPLE, tmp_path / "c")
        assert manifest.created_at == "2023-11-14T22:13:20Z"

    def test_keywords_embedded(self, tmp_path):
        kws = [Keyword("lunar rover", 2, 1.0, 2.0)]
        write_corpus(SAMPLE, tmp_path / "c", keywords=kws, depth=1,
                     rs_source_hash="abc", wordnet_version="v1")
        data = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert data["keywords"] == [
            {"phrase": "lunar rover", "tf": 2, "idf": 1.0, "score": 2.0}]
        assert data["depth"] == 1
        assert data["rs_source_hash"] == "abc"
        assert data["wordnet_version"] == "v1"


class TestLoadCorpus:
    def test_round_trip_byte_exact(self, tmp_path):
        out = tmp_path / "c"
        write_corpus(SAMPLE, out)
        corp = load_corpus(out)
        assert len(corp) == 3
        texts = {pid: text for pid, _t, text in corp}
        for pid, _title, text in SAMPLE:
            assert texts[pid] == text

    def test_round_trip_keeps_carriage_returns(self, tmp_path, wn_pipeline):
        # "\r\r" holds no newline, so it is no paragraph break: "Geese"
        # stays inside its sentence, a proper noun, and is not lemmatized
        texts = [(1, "A", "Rail track.\r\rSignal box\r\nline"),
                 (2, "B", "Rail track\r\rGeese box\r"),
                 (3, "C", "\r\n\r\nrail\rtrack\r\n\r")]
        out = tmp_path / "c"
        write_corpus(texts, out)
        assert list(load_corpus(out)) == texts
        assert frequency_report(load_corpus(out), pipeline=wn_pipeline) == \
            frequency_report(texts, pipeline=wn_pipeline)

    def test_manifest_missing(self, tmp_path):
        (tmp_path / "c").mkdir()
        with pytest.raises(ManifestMissing):
            load_corpus(tmp_path / "c")

    def test_deleted_article_file(self, tmp_path):
        out = tmp_path / "c"
        write_corpus(SAMPLE, out)
        victim = out / "articles" / "57.txt"
        victim.unlink()
        with pytest.raises(IntegrityError) as exc:
            load_corpus(out)
        assert "57.txt" in str(exc.value)

    def test_tampered_byte_length(self, tmp_path):
        out = tmp_path / "c"
        write_corpus(SAMPLE, out)
        data = json.loads((out / "manifest.json").read_text())
        data["articles"][0]["byte_length"] += 7
        (out / "manifest.json").write_text(json.dumps(data))
        with pytest.raises(IntegrityError):
            load_corpus(out)

    @pytest.mark.parametrize("field, value", [
        ("relative_path", "../secret.txt"),
        ("relative_path", "articles/101.txt"),
        ("page_id", "57"),
        ("page_id", True),
    ])
    def test_entry_path_must_be_its_article(self, tmp_path, field, value):
        out = tmp_path / "c"
        write_corpus(SAMPLE, out)
        data = json.loads((out / "manifest.json").read_text())
        # same length as the listed article, so only the path check fails
        (tmp_path / "secret.txt").write_text(
            "s" * data["articles"][0]["byte_length"])
        data["articles"][0][field] = value
        (out / "manifest.json").write_text(json.dumps(data))
        with pytest.raises(IntegrityError, match="relative_path articles/"):
            load_corpus(out)

    @pytest.mark.parametrize("corrupt", [
        lambda text: text[:-10],
        lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                 if k != "depth"}),
        lambda text: text.replace('"title"', '"name"', 1),
    ], ids=["invalid-json", "missing-depth", "missing-title"])
    def test_malformed_manifest(self, tmp_path, corrupt):
        out = tmp_path / "c"
        write_corpus(SAMPLE, out)
        manifest = out / "manifest.json"
        manifest.write_text(corrupt(manifest.read_text()))
        with pytest.raises(IntegrityError, match="not a valid manifest"):
            load_corpus(out)

    def test_unknown_manifest_keys_ignored(self, tmp_path):
        out = tmp_path / "c"
        written = write_corpus(SAMPLE, out)
        data = json.loads((out / "manifest.json").read_text())
        data["future_field"] = 1
        (out / "manifest.json").write_text(json.dumps(data))
        assert load_corpus(out).manifest == written

    def test_shipped_transport_fixture_loads(self, fixtures_dir):
        corp = load_corpus(fixtures_dir / "transport_corpus")
        assert len(corp) == 10


class TestFrequencyReport:
    def test_counts_and_order(self, tmp_path, wn_pipeline):
        out = tmp_path / "c"
        write_corpus([(1, "A", "Rail rail track. The track near the rail.")],
                     out)
        rep = frequency_report(load_corpus(out), pipeline=wn_pipeline)
        assert rep.entries[0] == ("rail", 3)
        assert ("track", 2) in rep.entries
        terms = [t for t, _c in rep.entries]
        assert "the" not in terms and "." not in terms

    def test_conservation(self, tmp_path, wn_pipeline):
        out = tmp_path / "c"
        write_corpus([(1, "A", "rail track rail bridge"),
                      (2, "B", "track track signal")], out)
        rep = frequency_report(load_corpus(out), pipeline=wn_pipeline)
        assert sum(c for _t, c in rep.entries) == 7

    def test_drops_digits_and_single_chars(self, tmp_path, wn_pipeline):
        out = tmp_path / "c"
        write_corpus([(1, "A", "rail 123 x rail 7")], out)
        rep = frequency_report(load_corpus(out), pipeline=wn_pipeline)
        assert rep.entries == (("rail", 2),)

    def test_lemma_counting(self, tmp_path, wn_pipeline):
        out = tmp_path / "c"
        write_corpus([(1, "A", "The tracks cross other tracks at a track.")],
                     out)
        rep = frequency_report(load_corpus(out), pipeline=wn_pipeline)
        assert ("track", 3) in rep.entries

    def test_empty_corpus(self, tmp_path, wn_pipeline):
        out = tmp_path / "c"
        write_corpus([], out)
        rep = frequency_report(load_corpus(out), pipeline=wn_pipeline)
        assert rep.entries == ()

    def test_top_n_cut(self, tmp_path, wn_pipeline):
        out = tmp_path / "c"
        write_corpus([(1, "A", "rail rail track bridge signal")], out)
        rep = frequency_report(load_corpus(out), top_n=2,
                               pipeline=wn_pipeline)
        assert len(rep.entries) == 2
        assert rep.entries[0] == ("rail", 2)

    def test_transport_fixture_top_terms(self, fixtures_dir, wn_pipeline,
                                         recorded):
        corp = load_corpus(fixtures_dir / "transport_corpus")
        rep = frequency_report(corp, top_n=8, pipeline=wn_pipeline)
        top = [t for t, _c in rep.entries]
        for term in recorded["transportation"]["top_terms"]:
            assert term in top
        assert top[:4] == ["traffic", "road", "street", "lane"]

    def test_tsv_export(self, tmp_path, wn_pipeline):
        out = tmp_path / "c"
        write_corpus([(1, "A", "rail rail track")], out)
        rep = frequency_report(load_corpus(out), pipeline=wn_pipeline)
        assert rep.to_tsv() == "rail\t2\ntrack\t1\n"

    def test_stable_across_runs(self, fixtures_dir, wn_pipeline):
        corp = load_corpus(fixtures_dir / "transport_corpus")
        a = frequency_report(corp, top_n=20, pipeline=wn_pipeline)
        b = frequency_report(corp, top_n=20, pipeline=wn_pipeline)
        assert a == b

    @staticmethod
    def per_token_report(texts, pipeline, top_n):
        """Each token's lemma counted on its own, as the report used to."""
        counts = Counter()
        for text in texts:
            counts.update(
                lemma for pos, lemma, is_stopword in pipeline.tagged_lemmas(text)
                if not is_stopword and pos not in (PUNCT, NUM)
                and len(lemma) > 1 and not lemma.isdigit())
        ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        return tuple(ordered if top_n is None else ordered[:top_n])

    def test_distinct_triples_match_per_token_count(self, fixtures_dir,
                                                    wn_pipeline):
        # "brake" is a noun and a verb, and "rails"/"rail" share a lemma;
        # the first text has five terms of count 2 that tie at every cut
        texts = ["rail rails track track brake brake signal signal bridge "
                 "bridge. Trains brake. The 42 x 3.5 of it",
                 "Brake the train. A brake stops it. " * 3]
        texts += [text for _pid, _title, text
                  in load_corpus(fixtures_dir / "transport_corpus")]
        corpus = [(n, str(n), text) for n, text in enumerate(texts)]
        full = self.per_token_report(texts, wn_pipeline, None)
        for top_n in [None, *range(len(full) + 2)]:
            assert frequency_report(corpus, top_n=top_n,
                                    pipeline=wn_pipeline).entries == \
                self.per_token_report(texts, wn_pipeline, top_n)
        two = [term for term, count in full if count == 2]
        assert len(two) > 3

    def test_output_independent_of_hash_seed(self, cli, fixtures_dir):
        # the report counts tuples; no order may come from hashing
        def run(seed, *args):
            return cli(*args, env_extra={"PYTHONHASHSEED": seed}, check=True)
        wordnet = fixtures_dir / "wordnet_mini"
        for args in [("report", "--corpus", fixtures_dir / "transport_corpus",
                      "--top-n", "500", "--wordnet", wordnet),
                     ("report", "--corpus", fixtures_dir / "transport_corpus",
                      "--top-n", "500"),
                     ("keywords", "--input", fixtures_dir / "railway_rs.txt",
                      "--wordnet", wordnet)]:
            first = run("1", *args).stdout
            assert first and first == run("2", *args).stdout
