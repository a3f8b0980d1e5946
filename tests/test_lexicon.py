"""WordNet flat-file loading, membership queries, and morphy."""

import shutil
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikiharvest import lexicon, preprocess
from wikiharvest.errors import utf8_problem
from wikiharvest.lexicon import (MalformedLine, MissingFile, contains_lemma,
                                 load_wordnet, make_lemmatizer, morphy)
from wikiharvest.preprocess import ADJ, ADV, NOUN, VERB, Pipeline


class TestLoad:
    def test_contains_rover(self, mini_wordnet):
        assert "rover" in mini_wordnet.entries[NOUN]

    def test_multiword_phrase_absent(self, mini_wordnet):
        assert not contains_lemma(mini_wordnet, "lunar rover")

    def test_empty_directory_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_wordnet(tmp_path)

    def test_partial_directory_missing_file(self, tmp_path, fixtures_dir):
        src = fixtures_dir / "wordnet_mini"
        (tmp_path / "index.noun").write_text(
            (src / "index.noun").read_text("utf-8"))
        with pytest.raises(MissingFile) as exc:
            load_wordnet(tmp_path)
        assert "index" in str(exc.value)

    def test_malformed_exception_line(self, tmp_path, fixtures_dir):
        src = fixtures_dir / "wordnet_mini"
        for name in ("index.noun", "index.verb", "index.adj", "index.adv"):
            (tmp_path / name).write_text((src / name).read_text("utf-8"))
        (tmp_path / "noun.exc").write_text("geese goose\nonlyoneword\n")
        with pytest.raises(MalformedLine) as exc:
            load_wordnet(tmp_path)
        assert "noun.exc" in str(exc.value) and ":2" in str(exc.value)

    def test_license_header_skipped(self, mini_wordnet):
        # header lines start with spaces and must not become lemmas
        for lemmas in mini_wordnet.entries.values():
            assert not any(lemma.startswith(" ") or lemma[0].isdigit()
                           for lemma in lemmas)

    def test_load_twice_identical(self, fixtures_dir):
        a = load_wordnet(fixtures_dir / "wordnet_mini")
        b = load_wordnet(fixtures_dir / "wordnet_mini")
        assert a.entries == b.entries
        assert a.exceptions == b.exceptions
        assert a.source_version == b.source_version

    def test_source_version_pinned(self, mini_wordnet):
        # a digest of the index and exception files; it goes into every
        # manifest
        assert mini_wordnet.source_version == "07bdc77a9c01"

    def test_exception_lists_change_source_version(self, tmp_path,
                                                   fixtures_dir,
                                                   mini_wordnet):
        shutil.copytree(fixtures_dir / "wordnet_mini", tmp_path / "wn")
        (tmp_path / "wn" / "noun.exc").write_bytes(b"")
        lex = load_wordnet(tmp_path / "wn")
        assert lex.entries == mini_wordnet.entries
        assert lex.exceptions[NOUN] == {}
        assert lex.source_version != mini_wordnet.source_version

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_index_line_endings(self, tmp_path, fixtures_dir, mini_wordnet,
                                newline):
        # lines split as text-mode open() splits them
        src = fixtures_dir / "wordnet_mini"
        for name in ("index.noun", "index.verb", "index.adj", "index.adv"):
            text = (src / name).read_text("utf-8")
            (tmp_path / name).write_bytes(
                text.replace("\n", newline).encode("utf-8"))
        lex = load_wordnet(tmp_path)
        assert lex.entries == mini_wordnet.entries
        assert lex.source_version != mini_wordnet.source_version

    @staticmethod
    def with_noun_index(tmp_path, fixtures_dir, data: bytes):
        src = fixtures_dir / "wordnet_mini"
        for name in ("index.verb", "index.adj", "index.adv"):
            (tmp_path / name).write_bytes((src / name).read_bytes())
        (tmp_path / "index.noun").write_bytes(data)
        return tmp_path / "index.noun"

    @pytest.mark.parametrize("separator", ["\x0c", "\x85", "\u2028"])
    def test_only_newlines_split_lines(self, tmp_path, fixtures_dir,
                                       separator):
        # str.splitlines would make "beta n 1 0" a line of its own
        line = f"alpha n 1 0{separator}beta n 1 0\n"
        self.with_noun_index(tmp_path, fixtures_dir, line.encode("utf-8"))
        assert load_wordnet(tmp_path).entries[NOUN] == {"alpha"}
        path = self.with_noun_index(tmp_path, fixtures_dir,
                                    (line + "lonely\n").encode("utf-8"))
        with pytest.raises(MalformedLine) as exc:
            load_wordnet(tmp_path)
        assert str(exc.value) == f"{path}:2: expected lemma and pos"

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    @pytest.mark.parametrize("bad_line, message", [
        (b"lonely", "expected lemma and pos"),
        (b"caf\xe9 n 1 0", "not valid UTF-8 (byte 0xe9)")])
    def test_crlf_errors_keep_line_numbers(self, tmp_path, fixtures_dir,
                                           monkeypatch, chunk, bad_line,
                                           message):
        monkeypatch.setattr(lexicon, "_CHUNK_BYTES", chunk)
        lines = [b"  header line", b"alpha n 1 0", b"", b"beta n 1 0",
                 bad_line, b"gamma n 1 0", b"delta"]
        path = self.with_noun_index(tmp_path, fixtures_dir,
                                    b"\r\n".join(lines) + b"\r\n")
        with pytest.raises(MalformedLine) as exc:
            load_wordnet(tmp_path)
        assert str(exc.value) == f"{path}:5: {message}"

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r", "\r\r\n"])
    def test_chunked_parse_matches_whole(self, tmp_path, fixtures_dir,
                                         mini_wordnet, monkeypatch, chunk,
                                         newline):
        src = fixtures_dir / "wordnet_mini"
        for path in src.iterdir():
            text = path.read_text("utf-8").replace("\n", newline)
            (tmp_path / path.name).write_bytes(text.encode("utf-8"))
        whole = load_wordnet(tmp_path)
        monkeypatch.setattr(lexicon, "_CHUNK_BYTES", chunk)
        lex = load_wordnet(tmp_path)
        assert lex == whole
        assert lex.entries == mini_wordnet.entries
        assert lex.exceptions == mini_wordnet.exceptions

    def test_underscores_decoded(self, tmp_path, fixtures_dir):
        src = fixtures_dir / "wordnet_mini"
        for name in ("index.verb", "index.adj", "index.adv"):
            (tmp_path / name).write_text((src / name).read_text("utf-8"))
        (tmp_path / "index.noun").write_text("lunar_module n 1 0 1 0 00000001\n")
        lex = load_wordnet(tmp_path)
        assert contains_lemma(lex, "lunar module")


def per_line_index(path, data):
    """The lemmas of an index file read one line at a time, or the
    `MalformedLine` message of its first bad line."""
    text = data.decode("utf-8", errors="surrogateescape")
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    lemmas = set()
    for lineno, line in enumerate(text.split("\n"), 1):
        if problem := utf8_problem(line):
            return f"{path}:{lineno}: {problem}"
        if not line.startswith(" ") and (fields := line.split(None, 1)):
            if len(fields) < 2:
                return f"{path}:{lineno}: expected lemma and pos"
            lemmas.add(fields[0].replace("_", " ").lower())
    return frozenset(lemmas)


# Pieces of index lines: lemmas (with "_", upper case, non-ASCII, an
# undecodable byte), separators `str.split` splits at, and line endings.
INDEX_FIELDS = [b"alpha", b"Beta_Gamma", b"caf\xc3\xa9", b"caf\xe9", b"n",
                b"1", b"x\x00y", b"\xe2\x80\xa8"]
INDEX_SPACES = [b" ", b"  ", b"\t", b"\x0c", b"\x0b", b"\x1c", b" \t "]
INDEX_ENDINGS = [b"\n", b"\n", b"\r\n", b"\r"]
index_lines = st.one_of(
    # an entry: lemma, separator, second field, maybe trailing spaces
    st.tuples(st.sampled_from(INDEX_FIELDS), st.sampled_from(INDEX_SPACES),
              st.sampled_from(INDEX_FIELDS),
              st.sampled_from([b"", b" ", b"  0 1"])).map(b"".join),
    st.sampled_from([b"  license header", b" x", b"", b"lonely",
                     b"lonely  ", b"lonely\t", b"\x0c"]))
index_files = st.lists(
    st.tuples(index_lines, st.sampled_from(INDEX_ENDINGS)).map(b"".join),
    max_size=30).map(b"".join)


class TestIndexRuns:
    """`_index_lemmas` reads ASCII runs split by " " and "\n" with one
    `findall`; it must agree with a reader that goes line by line."""

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    @given(data=index_files)
    @settings(max_examples=150, deadline=None)
    def test_matches_per_line_reader(self, chunk, data):
        path = lexicon.Path("index.noun")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lexicon, "_CHUNK_BYTES", chunk)
            try:
                got = lexicon._index_lemmas(path, data)
            except MalformedLine as exc:
                got = str(exc)
        assert got == per_line_index(path, data)

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    def test_full_size_shape(self, chunk, monkeypatch):
        # header, then many well-formed lines with a trailing space, the
        # shape the fast path is for
        monkeypatch.setattr(lexicon, "_CHUNK_BYTES", chunk)
        data = b"  1 header\n  2 header\n" + b"".join(
            b"word_%d n 1 1 @ 1 0 %08d  \n" % (n, n) for n in range(3000))
        path = lexicon.Path("index.noun")
        assert lexicon._index_lemmas(path, data) == per_line_index(path, data)
        bad = data + b"lonely  \n" + data
        with pytest.raises(MalformedLine) as exc:
            lexicon._index_lemmas(path, bad)
        assert str(exc.value) == per_line_index(path, bad)
        assert str(exc.value).endswith(":3003: expected lemma and pos")


class TestContainsLemma:
    def test_single_word_present(self, mini_wordnet):
        assert contains_lemma(mini_wordnet, "rover")

    def test_multiword_absent(self, mini_wordnet):
        assert not contains_lemma(mini_wordnet, "lunar rover")

    def test_empty_phrase(self, mini_wordnet):
        assert not contains_lemma(mini_wordnet, "")
        assert not contains_lemma(mini_wordnet, "   ")

    @given(st.sampled_from(["rover", "track", "communication", "goose",
                            "emergency", "brake", "lunar rover", "xyzzy"]),
           st.sampled_from(["", " ", "  "]),
           st.booleans())
    @settings(max_examples=60)
    def test_case_and_whitespace_normalized(self, mini_wordnet, phrase,
                                            pad, upper):
        variant = (pad + (phrase.upper() if upper else phrase) + pad)
        assert contains_lemma(mini_wordnet, variant) == \
            contains_lemma(mini_wordnet, phrase)


class TestMorphy:
    def test_regular_plural(self, mini_wordnet):
        assert morphy(mini_wordnet, "communications", NOUN) == "communication"

    def test_exception_list(self, mini_wordnet):
        assert morphy(mini_wordnet, "geese", NOUN) == "goose"

    def test_unknown_word_absent(self, mini_wordnet):
        assert morphy(mini_wordnet, "xyzzy", NOUN) is None

    def test_verb_exception(self, mini_wordnet):
        assert morphy(mini_wordnet, "transmitted", VERB) == "transmit"

    def test_identity_when_in_index(self, mini_wordnet):
        assert morphy(mini_wordnet, "rover", NOUN) == "rover"

    def test_adjective_comparative(self, mini_wordnet):
        assert morphy(mini_wordnet, "bigger", ADJ) == "big"

    def test_adverb_no_rules(self, mini_wordnet):
        assert morphy(mini_wordnet, "immediately", ADV) == "immediately"
        assert morphy(mini_wordnet, "faster", ADV) is None

    def test_result_always_in_lexicon(self, mini_wordnet):
        suffixes = ["", "s", "es", "ies", "ed", "ing", "er", "est", "men"]
        for pos in (NOUN, VERB, ADJ, ADV):
            for lemma in sorted(mini_wordnet.entries[pos])[:30]:
                for suffix in suffixes:
                    base = morphy(mini_wordnet, lemma + suffix, pos)
                    if base is not None:
                        assert contains_lemma(mini_wordnet, base)


class TestMakeLemmatizer:
    def test_morphy_runs_once_per_memo_key(self, mini_wordnet, monkeypatch):
        """The pipeline's tagging memo is the only cache of lemmas: one
        pass asks `morphy` at most once per memo key (surface, previous
        tag), and a second pass over the same text asks it nothing."""
        calls = []
        keys = Counter()
        real_morphy, real_tag_word = lexicon.morphy, preprocess._tag_word

        def counting_morphy(lex, surface, pos):
            calls.append((surface, pos))
            return real_morphy(lex, surface, pos)

        def counting_tag_word(surface, prev_tag, lemmatizer):
            before = len(calls)
            word = real_tag_word(surface, prev_tag, lemmatizer)
            assert len(calls) - before <= 1
            keys[surface, prev_tag] += 1
            return word

        monkeypatch.setattr(lexicon, "morphy", counting_morphy)
        monkeypatch.setattr(preprocess, "_tag_word", counting_tag_word)
        pipeline = Pipeline(lemmatizer=make_lemmatizer(mini_wordnet))
        text = "The rovers stop. The rovers stop. Rovers transmitted data."
        first = pipeline.preprocess(text)
        assert set(keys.values()) == {1}
        assert 0 < len(calls) <= len(keys)
        # ("rovers", NOUN) is asked once after "The" and once opening a
        # sentence: two memo keys
        assert calls.count(("rovers", NOUN)) == 2
        calls.clear()
        assert pipeline.preprocess(text) == first
        assert calls == []

    def test_cached_answers_match_morphy(self, mini_wordnet):
        lemmatizer = make_lemmatizer(mini_wordnet)
        for form, pos in [("rovers", NOUN), ("transmitted", VERB),
                          ("unknownish", NOUN), ("rovers", NOUN)]:
            assert lemmatizer(form, pos) == morphy(mini_wordnet, form, pos)
