"""Seeded inputs for the benchmark's workloads.

Each builder writes the texts the program reads (requirements text,
background documents, held-out text) into a work directory and returns a
`Workload`.  The wiki graph stays in memory for the in-process fake
server.  The full-size WordNet and the vector files do not depend on the
seed; they are made once per checkout under the shared directory (see
`_shared`).  The `Workload` also carries what the checks need: the graph
as plain dicts, the page ids the key phrases must match, the planted
report words and the vector table as numbers.  Nothing here imports
`wikiharvest`.

Word classes are kept apart by spelling, so that no expected value depends
on the program's tokenizer, tagger or lemmatizer:

* vocabulary words (filler, key-phrase and report words) start with a
  consonant pair that no English word starts with and end in a, o or u,
  so no suffix rule of the tagger or of morphy applies to them;
* generated WordNet lemmas are spelt with c h j q w x y and vowels only,
  so they never occur in a document;
* non-ASCII words are real names and terms whose ASCII fragments never
  start with a vocabulary prefix.

The shape of each workload (category tree, member counts, sentence
counts) is fixed; the seed picks words, page ids, titles, redirect
targets and sentence contents.  Request counts are therefore the same for
every seed and timings move only with the program.
"""
from __future__ import annotations

import json
import os
import random
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

POOL_SIZE = 6000
CLUSTERS = ("zv", "kv", "vz", "zb", "zd", "zg", "vd", "bz", "gz", "dz",
            "kz", "tv", "pz", "zp")
MID_CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"
END_CONSONANTS = "bdgkmnprt"
END_VOWELS = "aou"

VERBS = ("accept", "activate", "adjust", "apply", "check", "confirm",
         "connect", "detect", "enable", "ensure", "execute", "exchange")

NON_ASCII = ("Zürich", "café", "Göteborg", "Málaga", "São", "Kraków",
             "Øresund", "Straße", "Ångström", "Genève", "Besançon",
             "Düsseldorf", "Malmö", "Bogotá", "Reykjavík", "Škoda", "Łódź",
             "Córdoba", "façade", "über", "crème", "señal", "Αθήνα",
             "Москва")

# The one operation expected to fail until the tokenizer handles
# non-ASCII letters: `keywords` must return this phrase whole.  The text
# does not depend on the seed, so the failure repeats on every run.
UNICODE_PHRASE = "zürich tram network"
UNICODE_RS = (
    "The Zürich tram network shall connect every district.\n"
    "The Zürich tram network shall report each fault.\n"
    "Each depot shall supervise the Zürich tram network at night.\n"
    "The operator shall extend the Zürich tram network.\n"
    "The signal box shall protect the tram depot.\n"
)

# Lemma and exception counts of WordNet 3.0's index and exception files.
WORDNET_LEMMAS = {"noun": 117798, "verb": 11529, "adj": 21479, "adv": 4481}
WORDNET_EXCEPTIONS = {"noun": 2054, "verb": 2401, "adj": 1490, "adv": 7}
WORDNET_POS = {"noun": "n", "verb": "v", "adj": "a", "adv": "r"}

WORD_RE = re.compile(r"[^\W\d_]+")


def words_of(text: str) -> list[str]:
    """Lower-cased letter runs of a text, the benchmark's own tokenizer."""
    return WORD_RE.findall(text.lower())


@dataclass
class Workload:
    name: str
    rs: Path
    test_rs: Path
    wordnet: Path
    vectors: Path
    graph_json: str                   # what the fake server serves
    graph: dict                       # the same, parsed with int ids
    seed_ids: list[int]               # pages the key phrases must match
    depth: int
    max_articles: int = 50_000
    backgrounds: tuple[Path, ...] = ()
    report_words: tuple[str, ...] = ()
    # word -> vector, as the benchmark wrote it (synthetic workloads)
    vectors_table: dict = field(default_factory=dict)
    vector_words: frozenset = frozenset()
    recorded: Optional[dict] = None   # railway: recorded.json
    toy_vectors: Optional[Path] = None
    unicode_rs: Optional[Path] = None  # long-text: the known-failing input
    inputs: dict = field(default_factory=dict)  # sizes, for the README


# ---------------------------------------------------------------------------
# words


def _vocab_word(rng: random.Random) -> str:
    middle = "".join(rng.choice(MID_CONSONANTS) + rng.choice(VOWELS)
                     for _ in range(rng.randint(0, 1)))
    return (rng.choice(CLUSTERS) + rng.choice(VOWELS) + middle
            + rng.choice(END_CONSONANTS) + rng.choice(END_VOWELS))


def vocab_words(rng: random.Random, n: int) -> list[str]:
    seen: dict[str, None] = {}
    while len(seen) < n:
        seen.setdefault(_vocab_word(rng), None)
    return list(seen)


def _lemma(rng: random.Random) -> str:
    word = "".join(rng.choice("chjqwxy") + rng.choice(VOWELS)
                   for _ in range(rng.randint(3, 4)))
    if rng.random() < 0.2:
        word += "_" + "".join(rng.choice("chjqwxy") + rng.choice(VOWELS)
                              for _ in range(2))
    return word


# ---------------------------------------------------------------------------
# shared file writers


def write_wordnet(rng: random.Random, mini: Path, out: Path) -> None:
    """The mini lexicon's entries plus generated lemmas up to WordNet 3.0's
    index sizes, with exception lists of WordNet's lengths."""
    out.mkdir(parents=True)
    lemmas: set[str] = set()
    for pos, count in WORDNET_LEMMAS.items():
        mini_lines = (mini / f"index.{pos}").read_text("utf-8").splitlines()
        entries = [ln for ln in mini_lines if ln.strip() and not ln.startswith(" ")]
        header = [ln for ln in mini_lines if ln.startswith(" ")]
        generated = []
        while len(generated) + len(entries) < count:
            lemma = _lemma(rng)
            if lemma not in lemmas:
                lemmas.add(lemma)
                generated.append(lemma)
        tag = WORDNET_POS[pos]
        lines = entries + [
            f"{lemma} {tag} {1 + i % 4} 2 @ ~ {1 + i % 4} 0 "
            f"{8_000_000 + 7 * i:08d} {9_000_000 + 11 * i:08d}"
            for i, lemma in enumerate(generated)]
        lines.sort()
        (out / f"index.{pos}").write_text(
            "\n".join(header + lines) + "\n", encoding="utf-8")
        exc_lines = (mini / f"{pos}.exc").read_text("utf-8").splitlines()
        exc_lines += [f"{base}{'x' * (1 + i % 2)}e {base}"
                      for i, base in enumerate(generated[:WORDNET_EXCEPTIONS[pos]
                                                          - len(exc_lines)])]
        (out / f"{pos}.exc").write_text("\n".join(sorted(exc_lines)) + "\n",
                                        encoding="utf-8")


def _component_table(nrng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """4096 distinct vector components as text and as the floats they parse to."""
    raw = nrng.permutation(np.unique(np.round(nrng.normal(0.0, 0.4, 6000), 5)))[:4096]
    text = np.array([f"{v:.5f}" for v in raw], dtype=object)
    return text, np.array([float(s) for s in text])


def vector_rows(nrng: np.random.Generator, words: list[str], dim: int,
                fixed_rows: dict[str, str] | None = None,
                ) -> tuple[list[str], dict[str, np.ndarray]]:
    """Lines of a GloVe text file, without trailing spaces, and the rows of
    `words` as arrays.  `fixed_rows` are lines kept verbatim, scattered
    among the others."""
    text, values = _component_table(nrng)
    idx = nrng.integers(0, len(text), size=(len(words), dim))
    lines = [w + " " + " ".join(row) for w, row in zip(words, text[idx])]
    fixed = list((fixed_rows or {}).values())
    slots = sorted(nrng.choice(len(lines) + len(fixed), size=len(fixed),
                               replace=False).tolist())
    for slot, line in zip(slots, fixed):
        lines.insert(slot, line)
    return lines, {w: values[row] for w, row in zip(words, idx)}


def write_vector_file(path: Path, lines: list[str], dim: int) -> None:
    """The lines under a `count dim` header line."""
    path.write_text(f"{len(lines)} {dim}\n" + "\n".join(lines) + "\n",
                    encoding="utf-8")


def graph_json(graph: dict) -> str:
    """The graph in the format `FakeWiki.from_json` reads."""
    return json.dumps({
        "chunk_size": 500,
        "articles": {str(k): v for k, v in sorted(graph["articles"].items())},
        "categories": {str(k): v for k, v in sorted(graph["categories"].items())},
        "searches": dict(sorted(graph["searches"].items())),
    }, ensure_ascii=False)


def load_graph(text: str) -> dict:
    """A graph with integer page ids, read without the program."""
    data = json.loads(text)
    return {
        "articles": {int(k): v for k, v in data["articles"].items()},
        "categories": {int(k): v for k, v in data["categories"].items()},
        "searches": data.get("searches", {}),
    }


def _article(title: str, text: str, categories=(), hidden=(),
             disambiguation=False, redirect_to=None) -> dict:
    return {"title": title, "text": text, "categories": list(categories),
            "hidden_categories": list(hidden),
            "disambiguation": disambiguation, "redirect_to": redirect_to}


# ---------------------------------------------------------------------------
# synthetic text


class TextMaker:
    """Sentences over a seeded vocabulary.

    Every sentence keeps its noun phrases apart with determiners and a
    verb, so the key phrases planted in a requirements text come out as
    noun phrases of their own.
    """

    def __init__(self, rng: random.Random, filler: list[str]):
        self.rng = rng
        self.filler = filler

    def _f(self) -> str:
        return self.rng.choice(self.filler)

    def _verb(self) -> str:
        return self.rng.choice(VERBS)

    def key_sentence(self, phrase: str) -> str:
        a, b = phrase.split()
        return (f"The {a} {b} shall {self._verb()} the {self._f()} "
                f"of the {self._f()}.")

    def filler_sentence(self, subject: Optional[str] = None,
                        foreign: Optional[str] = None) -> str:
        subject = subject or self._f()
        tail = f" near {foreign}" if foreign else ""
        return (f"Each {subject} {self._f()} shall {self._verb()} "
                f"the {self._f()}{tail}.")

    def paragraph(self, n: int, report_words: list[str] = (),
                  foreign_share: float = 0.0) -> str:
        """`n` sentences; the i-th uses report_words[i] as its subject."""
        out = []
        for i in range(n):
            subject = report_words[i] if i < len(report_words) else None
            foreign = (self.rng.choice(NON_ASCII)
                       if self.rng.random() < foreign_share else None)
            out.append(self.filler_sentence(subject, foreign))
        return " ".join(out)


def _requirements(maker: TextMaker, phrases: list[str], tfs: list[int],
                  n_filler: int, foreign_share: float) -> str:
    sentences = [maker.key_sentence(p) for p, tf in zip(phrases, tfs)
                 for _ in range(tf)]
    sentences += [maker.filler_sentence(
        foreign=(maker.rng.choice(NON_ASCII)
                 if maker.rng.random() < foreign_share else None))
                  for _ in range(n_filler)]
    maker.rng.shuffle(sentences)
    return "\n".join(sentences) + "\n"


def _test_rs(rng: random.Random, words: list[str], n: int) -> str:
    picked = [rng.choice(words) for _ in range(n)]
    lines = [" ".join(picked[i:i + 8]).capitalize() + "."
             for i in range(0, n, 8)]
    return "\n".join(lines) + "\n"


class _Ids:
    def __init__(self, rng: random.Random, n: int):
        self._ids = iter(rng.sample(range(100_000, 9_999_999), n))

    def __call__(self) -> int:
        return next(self._ids)


def _searches(graph: dict, ids: _Ids, phrases: list[str],
              seeds: list[int]) -> None:
    """Each key phrase finds a disambiguation page or a decoy whose title
    shares no word with it, then its seed article."""
    for i, (phrase, seed) in enumerate(zip(phrases, seeds)):
        first = ids()
        if i % 2:
            graph["articles"][first] = _article(
                phrase.capitalize() + " (disambiguation)",
                "It may refer to several topics.", disambiguation=True)
        else:
            graph["articles"][first] = _article(
                "Decoy " + str(first), "An unrelated page.")
        graph["searches"][phrase] = [first, seed]


# ---------------------------------------------------------------------------
# workloads


def _shared(path: Path, build) -> Path:
    """`path`, made once per checkout by `build(tmp)` and reused after.

    Inputs that do not depend on the seed are kept between runs:
    deleting tens of megabytes after every run made file creation on the
    disk of the machine the figures come from several times slower for
    minutes afterwards, which showed up in every mine timing.
    """
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        build(tmp)
        try:
            os.replace(tmp, path)
        except OSError:          # another run made it first
            shutil.rmtree(tmp, ignore_errors=True)
    return path


def full_wordnet(shared: Path, root: Path) -> Path:
    """The mini lexicon grown to WordNet 3.0's sizes, shared by all seeds
    as a real install would be."""
    mini = root / "tests" / "fixtures" / "wordnet_mini"
    return _shared(shared / "wordnet-full", lambda tmp: write_wordnet(
        random.Random("wordnet-3.0"), mini, tmp))


def word_pool() -> list[str]:
    """The vocabulary every synthetic workload draws its words from.  It
    is fixed, so one vector file per dimension serves every seed."""
    return vocab_words(random.Random("vocabulary"), POOL_SIZE)


def pool_vectors(shared: Path, dim: int) -> tuple[Path, dict]:
    """Vectors for 80 % of the pool (the rest is out of vocabulary) plus
    1500 words that no document uses."""
    rng = random.Random(f"vectors-{dim}")
    pool = word_pool()
    taken = set(pool)
    in_file = [w for w in pool if rng.random() >= 0.2]
    unused = [w for w in vocab_words(random.Random(f"unused-{dim}"),
                                     POOL_SIZE + 3000) if w not in taken]
    lines, table = vector_rows(np.random.default_rng(dim),
                               in_file + unused[:1500], dim)
    path = _shared(shared / f"vectors-{dim}.txt",
                   lambda tmp: write_vector_file(tmp, lines, dim))
    return path, table


def _railway_vectors(tmp: Path, used: set[str], toy: Path) -> None:
    rng = random.Random("railway-vectors")
    filler: dict[str, None] = {}
    while len(filler) < 20_000:
        w = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                    for _ in range(rng.randint(6, 11)))
        if w not in used:
            filler.setdefault(w, None)
    toy_lines = [ln for ln in toy.read_text("utf-8").splitlines()[1:] if ln]
    pad = " 0.00000" * (300 - (len(toy_lines[0].split()) - 1))
    fixed = {ln.split()[0]: ln.rstrip() + pad for ln in toy_lines}
    lines, _ = vector_rows(np.random.default_rng(1), list(filler), 300,
                           fixed_rows=fixed)
    write_vector_file(tmp, lines, 300)


def build_railway(seed: int, work: Path, root: Path, shared: Path) -> Workload:
    """The recorded railway crawl, with the toy vectors hidden in a
    GloVe-scale file of filler words that no document uses.

    Every input here is recorded or fixed, so the seed changes nothing.
    """
    fixtures = root / "tests" / "fixtures"
    graph_text = (fixtures / "railway_graph.json").read_text("utf-8")
    graph = load_graph(graph_text)
    recorded = json.loads((fixtures / "recorded.json").read_text("utf-8"))
    rs, test_rs = fixtures / "railway_rs.txt", fixtures / "railway_test_rs.txt"
    toy = fixtures / "vectors_toy.txt"
    used = set(words_of(rs.read_text("utf-8") + test_rs.read_text("utf-8")))
    for art in graph["articles"].values():
        used.update(words_of(art["title"] + " " + art["text"]))
    vectors = _shared(shared / "railway-vectors.txt",
                      lambda tmp: _railway_vectors(tmp, used, toy))
    toy_words = frozenset(ln.split()[0] for ln in
                          toy.read_text("utf-8").splitlines()[1:] if ln)
    work.mkdir(parents=True, exist_ok=True)
    return Workload(
        name="railway", rs=rs, test_rs=test_rs,
        wordnet=fixtures / "wordnet_mini", vectors=vectors,
        graph_json=graph_text, graph=graph,
        seed_ids=recorded["railway"]["seed_page_ids"], depth=1,
        # the filler rows are words no document uses
        vector_words=toy_words,
        recorded=recorded["railway"], toy_vectors=toy,
        inputs={"vector_rows": 20_000 + len(toy_words), "vector_dim": 300,
                "toy_rows": len(toy_words),
                "vector_mib": round(vectors.stat().st_size / 2**20, 1),
                "articles_in_graph": len(graph["articles"])})


def build_long_text(seed: int, work: Path, root: Path, shared: Path) -> Workload:
    """An 85 KB requirements text and a depth-1 crawl of 130 long articles,
    with non-ASCII words mixed into every text."""
    rng = random.Random(f"long-text:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    words = rng.sample(word_pool(), 3000 + 20 + 8 + 400)
    phrase_words, report_words = words[:20], words[20:28]
    filler, title_words = words[28:3028], words[3028:]
    phrases = [f"{phrase_words[2 * i]} {phrase_words[2 * i + 1]}"
               for i in range(10)]
    maker = TextMaker(rng, filler)
    ids = _Ids(rng, 1_000)
    graph: dict = {"articles": {}, "categories": {}, "searches": {}}
    level0 = [ids() for _ in range(12)]
    level1 = [ids() for _ in range(12)]
    for j, c in enumerate(level0):
        graph["categories"][c] = {"title": f"Category:Topic {c}",
                                  "subcats": [level1[j]]}
    for c in level1:
        graph["categories"][c] = {"title": f"Category:Field {c}", "subcats": []}

    def title() -> str:
        return f"{rng.choice(title_words).capitalize()} {rng.choice(title_words)}"

    seeds, members, unreachable = [], [], []
    for i in range(10):
        pid = ids()
        in_cats = [level0[i]] + ([level0[10 + i]] if i < 2 else [])
        graph["articles"][pid] = _article(phrases[i].capitalize(), "", in_cats)
        seeds.append(pid)
    for k in range(120):
        pid = ids()
        graph["articles"][pid] = _article(title(), "", [level0[k % 12]])
        members.append(pid)
    for c in level1:
        for _ in range(4):
            pid = ids()
            graph["articles"][pid] = _article(title(), "", [c])
            unreachable.append(pid)

    # sentence counts follow a fixed pattern: 25 to 185 sentences, 6 KB mean
    texts = seeds + members + unreachable
    report_counts = [80 + 12 * j for j in range(len(report_words))]
    per_text = [[] for _ in texts]
    for word, count in zip(report_words, report_counts):
        for slot in rng.sample(range(len(texts)), count):
            per_text[slot].append(word)
    for k, pid in enumerate(texts):
        n = 25 + (k * 37) % 161
        graph["articles"][pid]["text"] = maker.paragraph(
            n, rng.sample(per_text[k], len(per_text[k])), 0.12)
    redirects = set(members[17::40])
    targets = [pid for pid in seeds + members if pid not in redirects]
    for pid in sorted(redirects):
        graph["articles"][pid].update(redirect_to=rng.choice(targets), text="")
    _searches(graph, ids, phrases, seeds)

    rs = work / "rs.txt"
    rs.write_text(_requirements(maker, phrases, [20 + 3 * i for i in range(10)],
                                1450, 0.03), encoding="utf-8")
    backgrounds = []
    for b in range(3):
        path = work / f"background{b}.txt"
        path.write_text(maker.paragraph(250, (), 0.03) + "\n", encoding="utf-8")
        backgrounds.append(path)
    test_rs = work / "test_rs.txt"
    test_rs.write_text(_test_rs(rng, phrase_words + filler[:300], 96),
                       encoding="utf-8")
    unicode_rs = work / "unicode_rs.txt"
    unicode_rs.write_text(UNICODE_RS, encoding="utf-8")
    vectors, table = pool_vectors(shared, 100)
    corpus_words = [w for pid in texts for w in
                    words_of(graph["articles"][pid]["text"])]
    foreign = {w.lower() for w in NON_ASCII}
    text = graph_json(graph)
    return Workload(
        name="long-text", rs=rs, test_rs=test_rs,
        wordnet=full_wordnet(shared, root), vectors=vectors,
        graph_json=text, graph=load_graph(text), seed_ids=seeds, depth=1,
        backgrounds=tuple(backgrounds), report_words=tuple(report_words),
        vectors_table=table, vector_words=frozenset(table),
        inputs={"articles_in_graph": len(graph["articles"]),
                "rs_bytes": rs.stat().st_size,
                "text_bytes": sum(len(graph["articles"][p]["text"].encode())
                                  for p in texts),
                "non_ascii_word_share": round(
                    sum(w in foreign for w in corpus_words) / len(corpus_words), 4),
                "vector_rows": len(table), "vector_dim": 100},
        unicode_rs=unicode_rs)


BUILDERS = {
    "railway": build_railway,
    "long-text": build_long_text,
}
