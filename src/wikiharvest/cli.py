"""Command-line front end: ``mine``, ``keywords``, ``eval``, ``report``.

Data goes to stdout (or files under the output directory); logs go to
stderr.  Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
"""

from __future__ import annotations

import hashlib
import logging
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, NoReturn, Optional, Sequence

import click

from . import __version__
from .corpus import (CorpusManifest, created_at_now, frequency_report,
                     load_corpus, write_corpus)
from .crawler import (DEFAULT_ENDPOINT, DEFAULT_USER_AGENT, CachedTransport,
                      WikiClient, dedupe_seeds, expand, fetch_all_texts,
                      search_keywords)
from .errors import WikiHarvestError, decode_utf8
from .keywords import extract_keywords, keywords_to_tsv
from .lexicon import MissingFile, load_wordnet, make_lemmatizer
from .preprocess import Pipeline
from .relatedness import eval_texts, evaluate, load_vectors

log = logging.getLogger("wikiharvest")


class _StderrHandler(logging.StreamHandler):
    """Stream handler that re-resolves sys.stderr on every emit."""

    def emit(self, record):
        self.stream = sys.stderr
        super().emit(record)


def _setup_logging() -> None:
    root = logging.getLogger()
    if not any(isinstance(h, _StderrHandler) for h in root.handlers):
        handler = _StderrHandler()
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        root.addHandler(handler)
        root.setLevel(logging.INFO)


@click.group()
@click.version_option(__version__)
def main():
    """Generate and evaluate domain-specific corpora mined from Wikipedia."""
    _setup_logging()


def _fail(message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


@contextmanager
def _exit_codes() -> Iterator[None]:
    """A missing WordNet file is a usage error (exit 2); any other
    wikiharvest or OS error is a runtime failure (exit 1)."""
    try:
        yield
    except MissingFile as exc:
        raise click.UsageError(f"--wordnet: {exc}")
    except (WikiHarvestError, OSError) as exc:
        _fail(str(exc))


def _keywords(rs_bytes: bytes, rs_name: str, wordnet_dir: Path,
              background_paths: Sequence[Path], top_k: int):
    """Load WordNet, preprocess the RS and the backgrounds, extract the
    top-K keywords.  Returns the lexicon, the pipeline and the keywords."""
    lexicon = load_wordnet(wordnet_dir)
    pipeline = Pipeline(lemmatizer=make_lemmatizer(lexicon))
    doc = pipeline.preprocess(rs_bytes, source_id=rs_name)
    backgrounds = [pipeline.preprocess(p.read_bytes(), source_id=str(p))
                   for p in background_paths]
    return lexicon, pipeline, extract_keywords(doc, lexicon, backgrounds,
                                               top_k=top_k)


# ---------------------------------------------------------------------------
# mine


def run_mine(input_rs: Path,
             out_dir: Path,
             wordnet_dir: Path,
             *,
             top_k: int = 50,
             depth: int = 1,
             background_paths: Sequence[Path] = (),
             offline: bool = False,
             cache_dir: Optional[Path] = None,
             max_articles: int = 5000,
             endpoint: str = DEFAULT_ENDPOINT,
             user_agent: str = DEFAULT_USER_AGENT,
             workers: int = 1,
             transport: Optional[CachedTransport] = None,
             echo=click.echo) -> CorpusManifest:
    """Full pipeline: preprocess, keywords, crawl, persist.

    Importable so tests and scripts can inject a transport; the CLI
    command is a thin wrapper over this function.
    """
    created_at_now()    # a bad SOURCE_DATE_EPOCH fails before the crawl
    rs_bytes = input_rs.read_bytes()
    lexicon, pipeline, kws = _keywords(rs_bytes, str(input_rs), wordnet_dir,
                                       background_paths, top_k)
    echo(f"# keywords: {len(kws)}")
    echo(keywords_to_tsv(kws), nl=False)

    transport = transport or CachedTransport(
        endpoint=endpoint, cache_dir=cache_dir or out_dir / "cache",
        offline=offline, user_agent=user_agent)
    client = WikiClient(transport, pipeline)

    matches = search_keywords(client, [kw.phrase for kw in kws])
    seeds = dedupe_seeds(matches)
    echo(f"# seed matches: {len(seeds)}")
    for phrase, ref in matches:
        if ref is None:
            echo(f"{phrase}\t-\t-")
        else:
            echo(f"{phrase}\t{ref.title}\t{ref.page_id}")

    result = expand(client, seeds, depth=depth, max_articles=max_articles,
                    workers=workers)
    echo(f"# articles: {len(result.articles)}")
    if result.frontier_truncated:
        echo("# frontier truncated: reached --max-articles")

    texts = fetch_all_texts(client, result.articles, workers=workers)
    manifest = write_corpus(
        ((ref.page_id, ref.title, text) for ref, text in texts),
        out_dir,
        rs_source_hash=hashlib.sha256(rs_bytes).hexdigest(),
        keywords=kws,
        depth=depth,
        wordnet_version=lexicon.source_version,
    )
    (out_dir / "keywords.tsv").write_text(keywords_to_tsv(kws),
                                          encoding="utf-8")
    echo(f"# corpus: {out_dir}")
    return manifest


@main.command()
@click.option("--input", "input_rs", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="Requirements specification (UTF-8 plain text).")
@click.option("--out", "out_dir", required=True,
              type=click.Path(file_okay=False, path_type=Path),
              help="Corpus output directory.")
@click.option("--top-k", default=50, show_default=True,
              type=click.IntRange(min=1), help="Number of keywords to query.")
@click.option("--depth", default=1, show_default=True,
              type=click.IntRange(min=0),
              help="Category expansion depth (0 = matched articles only).")
@click.option("--wordnet", "wordnet_dir", required=True,
              type=click.Path(exists=True, file_okay=False, path_type=Path),
              help="Directory holding WordNet index.* and *.exc files.")
@click.option("--background", "background_paths", multiple=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="Background document for IDF (repeatable).")
@click.option("--offline", is_flag=True, show_default=True,
              help="Answer everything from the cache; a miss is an error.")
@click.option("--cache", "cache_dir", default=None,
              type=click.Path(file_okay=False, path_type=Path),
              help="HTTP cache directory.  [default: <out>/cache]")
@click.option("--max-articles", default=5000, show_default=True,
              type=click.IntRange(min=1), help="Hard cap on collected articles.")
@click.option("--endpoint", default=DEFAULT_ENDPOINT, show_default=True,
              help="MediaWiki Action API endpoint.")
@click.option("--user-agent", default=DEFAULT_USER_AGENT, show_default=True,
              help="HTTP User-Agent header.")
@click.option("--workers", default=1, show_default=True,
              type=click.IntRange(min=1), help="Parallel fetch workers.")
def mine(**options):
    """Mine a domain-specific corpus from one requirements specification."""
    with _exit_codes():
        run_mine(**options)


# ---------------------------------------------------------------------------
# keywords


@main.command("keywords")
@click.option("--input", "input_rs", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="Requirements specification (UTF-8 plain text).")
@click.option("--top-k", default=50, show_default=True,
              type=click.IntRange(min=1), help="Number of keywords to emit.")
@click.option("--wordnet", "wordnet_dir", required=True,
              type=click.Path(exists=True, file_okay=False, path_type=Path),
              help="Directory holding WordNet index.* and *.exc files.")
@click.option("--background", "background_paths", multiple=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="Background document for IDF (repeatable).")
def keywords_cmd(input_rs, top_k, wordnet_dir, background_paths):
    """Print the top-K keyword table (TSV: phrase, tf, idf, score)."""
    with _exit_codes():
        _, _, kws = _keywords(input_rs.read_bytes(), str(input_rs),
                              wordnet_dir, background_paths, top_k)
        click.echo(keywords_to_tsv(kws), nl=False)


# ---------------------------------------------------------------------------
# eval


@main.command("eval")
@click.option("--corpus", "corpus_dir", required=True,
              type=click.Path(exists=True, file_okay=False, path_type=Path),
              help="Corpus directory produced by `mine`.")
@click.option("--input", "test_rs", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="Held-out requirements specification.")
@click.option("--vectors", "vectors_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="Word vectors in word2vec/GloVe text format.")
@click.option("--out", "out_path", default=None,
              type=click.Path(dir_okay=False, path_type=Path),
              help="Write the JSON report here instead of stdout.")
def eval_cmd(corpus_dir, test_rs, vectors_path, out_path):
    """Score each corpus article against a held-out RS (cosine similarity)."""
    with _exit_codes():
        texts = eval_texts(load_corpus(corpus_dir),
                           decode_utf8(test_rs.read_bytes(), test_rs))
        report = evaluate(texts, load_vectors(vectors_path, texts.words))
        summary = (f"articles: {len(report.per_article)}  "
                   f"min={report.min:.4f} avg={report.avg:.4f} "
                   f"max={report.max:.4f} oov_rate={report.oov_rate:.4f}")
        if out_path is not None:
            Path(out_path).write_text(report.to_json(), encoding="utf-8")
            click.echo(summary)
        else:
            click.echo(report.to_json(), nl=False)
            click.echo(summary, err=True)


# ---------------------------------------------------------------------------
# report


@main.command("report")
@click.option("--corpus", "corpus_dir", required=True,
              type=click.Path(exists=True, file_okay=False, path_type=Path),
              help="Corpus directory produced by `mine`.")
@click.option("--top-n", default=50, show_default=True,
              type=click.IntRange(min=1), help="Number of terms to report.")
@click.option("--wordnet", "wordnet_dir", default=None,
              type=click.Path(exists=True, file_okay=False, path_type=Path),
              help="Optional WordNet directory for lemma-level counting.")
def report_cmd(corpus_dir, top_n, wordnet_dir):
    """Print the corpus term-frequency table (TSV: term, count)."""
    with _exit_codes():
        pipeline = None
        if wordnet_dir is not None:
            pipeline = Pipeline(lemmatizer=make_lemmatizer(
                load_wordnet(wordnet_dir)))
        corp = load_corpus(corpus_dir)
        rep = frequency_report(corp, top_n, pipeline)
        click.echo(rep.to_tsv(), nl=False)


if __name__ == "__main__":
    main()
