"""Corpus persistence and term-frequency reporting.

A corpus directory holds one UTF-8 text file per article under
``articles/<page_id>.txt`` plus a ``manifest.json`` recording how the
corpus was produced.  Articles are keyed by page id, never by title, so
filesystem-hostile titles stay out of paths.
"""

from __future__ import annotations

import json
import os
import re
import time
import uuid
from collections import Counter
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import __version__
from .errors import InvalidEncoding, WikiHarvestError, decode_utf8
from .keywords import Keyword
from .preprocess import NUM, PUNCT, Pipeline, default_pipeline


class CorpusError(WikiHarvestError):
    pass


class DuplicatePageId(CorpusError):
    pass


class ManifestMissing(CorpusError):
    pass


class IntegrityError(CorpusError):
    """Manifest and directory contents disagree."""


MANIFEST_NAME = "manifest.json"
ARTICLES_DIR = "articles"


@dataclass(frozen=True)
class CorpusManifest:
    rs_source_hash: str
    keywords: tuple[Keyword, ...]
    depth: int
    created_at: str
    articles: tuple[dict, ...]  # page_id, title, byte_length, relative_path
    tool_version: str
    wordnet_version: str

    def to_json(self) -> str:
        """`asdict` would deep-copy every article entry; only the
        keywords need converting."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["keywords"] = [asdict(kw) for kw in self.keywords]
        return json.dumps(data, ensure_ascii=False, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CorpusManifest":
        """Read the dataclass's fields; keys it does not know are ignored."""
        data = json.loads(text)
        values = {f.name: data[f.name] for f in fields(cls)}
        values["keywords"] = tuple(Keyword(**kw) for kw in values["keywords"])
        values["articles"] = tuple(values["articles"])
        return cls(**values)


def created_at_now() -> str:
    """UTC RFC 3339 timestamp; SOURCE_DATE_EPOCH pins it for reproducibility.
    A value that is not an ASCII integer, or that `datetime` cannot
    represent, raises CorpusError."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH") or str(int(time.time()))
    try:
        if not re.fullmatch(r"-?[0-9]+", epoch):
            raise ValueError("not an ASCII integer")
        return datetime.fromtimestamp(int(epoch), tz=timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ")
    except (ValueError, OverflowError, OSError) as exc:
        raise CorpusError(f"SOURCE_DATE_EPOCH={epoch!r}: not a Unix time "
                          f"in seconds ({exc})") from None


def article_path(page_id: int) -> str:
    """Where an article lives, relative to the corpus root."""
    return f"{ARTICLES_DIR}/{page_id}.txt"


def write_text_atomic(path: Path, text: str) -> None:
    """Write `text` to `path` through a uniquely named temp file and a
    rename, so readers never see a half-written file.  The temp file gets
    mode 0o666 less the umask, like any new file, and is removed if the
    write or the rename fails."""
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_corpus(articles_with_text: Iterable[tuple[int, str, str]],
                 out_dir: str | Path,
                 *,
                 rs_source_hash: str = "",
                 keywords: Sequence[Keyword] = (),
                 depth: int = 0,
                 wordnet_version: str = "") -> CorpusManifest:
    """Write article texts and a manifest under `out_dir`.

    `articles_with_text` yields (page_id, title, text) triples.  The
    manifest is written atomically (temp file, then rename), so a
    half-written directory never carries a valid manifest; article files
    it does not list, left by an earlier run, are then removed.
    """
    out = Path(out_dir)
    articles_dir = out / ARTICLES_DIR
    articles_dir.mkdir(parents=True, exist_ok=True)

    entries: list[dict] = []
    seen: set[int] = set()
    for page_id, title, text in articles_with_text:
        if page_id in seen:
            raise DuplicatePageId(f"page id {page_id} appears twice")
        seen.add(page_id)
        rel = article_path(page_id)
        data = text.encode("utf-8")
        (out / rel).write_bytes(data)
        entries.append({
            "page_id": page_id,
            "title": title,
            "byte_length": len(data),
            "relative_path": rel,
        })
    entries.sort(key=lambda e: e["page_id"])

    manifest = CorpusManifest(
        rs_source_hash=rs_source_hash,
        keywords=tuple(keywords),
        depth=depth,
        created_at=created_at_now(),
        articles=tuple(entries),
        tool_version=__version__,
        wordnet_version=wordnet_version,
    )
    write_text_atomic(out / MANIFEST_NAME, manifest.to_json())
    listed = {Path(entry["relative_path"]).name for entry in entries}
    for path in articles_dir.iterdir():
        if path.name not in listed and path.is_file():
            path.unlink()
    return manifest


class Corpus:
    """Read-only handle over a corpus directory, validated against its manifest."""

    def __init__(self, root: Path, manifest: CorpusManifest):
        self.root = root
        self.manifest = manifest

    def __len__(self) -> int:
        return len(self.manifest.articles)

    def __iter__(self) -> Iterator[tuple[int, str, str]]:
        for entry in self.manifest.articles:
            path = self.root / article_path(entry["page_id"])
            try:
                text = decode_utf8(path.read_bytes(), path)
            except InvalidEncoding as exc:
                raise IntegrityError(str(exc)) from None
            yield entry["page_id"], entry["title"], text


def load_corpus(directory: str | Path) -> Corpus:
    """Open a corpus directory, checking manifest integrity."""
    root = Path(directory)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ManifestMissing(f"no {MANIFEST_NAME} in {root}")
    text = decode_utf8(manifest_path.read_bytes(), manifest_path)
    try:
        manifest = CorpusManifest.from_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        raise IntegrityError(f"{manifest_path}: not a valid manifest "
                             f"({type(exc).__name__}: {exc})") from None

    seen: set[int] = set()
    for entry in manifest.articles:
        pid = entry.get("page_id") if isinstance(entry, dict) else None
        if (type(pid) is not int or not isinstance(entry.get("title"), str)
                or entry.get("relative_path") != article_path(pid)):
            raise IntegrityError(
                f"{manifest_path}: not a valid manifest entry {entry!r}: it "
                f"needs an int page_id, a str title and relative_path "
                f"{article_path('<page_id>')}")
        if pid in seen:
            raise IntegrityError(f"duplicate page id {pid} in manifest")
        seen.add(pid)
        path = root / article_path(pid)
        if not path.is_file():
            raise IntegrityError(f"missing article file: {path}")
        actual, listed = path.stat().st_size, entry.get("byte_length")
        if actual != listed:
            raise IntegrityError(
                f"{path}: byte_length {listed} in manifest, {actual} on disk")
    return Corpus(root=root, manifest=manifest)


@dataclass(frozen=True)
class FrequencyReport:
    entries: tuple[tuple[str, int], ...]  # (term, count), count desc then term

    def to_tsv(self) -> str:
        return "".join(f"{term}\t{count}\n" for term, count in self.entries)


def frequency_report(corpus: Corpus, top_n: int | None = None,
                     pipeline: Pipeline | None = None) -> FrequencyReport:
    """Lemma frequencies over all article text.

    Stopwords, punctuation, numbers and single-character terms are
    dropped; the rest are counted by lemma.  Tokens are counted by their
    ``(pos, lemma, is_stopword)``, so each distinct one is filtered once.
    """
    pipeline = pipeline or default_pipeline()
    tagged: Counter[tuple[str, str, bool]] = Counter()
    for _pid, _title, text in corpus:
        tagged.update(pipeline.tagged_lemmas(text))
    counts: Counter[str] = Counter()
    for (pos, lemma, is_stopword), n in tagged.items():
        if (not is_stopword and pos not in (PUNCT, NUM)
                and len(lemma) > 1 and not lemma.isdigit()):
            counts[lemma] += n
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    if top_n is not None:
        ordered = ordered[:top_n]
    return FrequencyReport(entries=tuple(ordered))
