"""Command-line front door composing the pipeline for batch use.

Subcommands: `patterns expand`, `preannotate`, `validate`, `stats`,
`agreement`, `convert`.  Human-readable output goes to stdout,
diagnostics to stderr; exit code 2 signals usage or input problems.
`_load` reads every file or directory a subcommand names, and `_documents`
each corpus file one document at a time; both exit 2 with
`cannot read <what> '<path>': <error>` on any of `_INPUT_ERRORS`, which
`preannotate` applies to each of its input files too; `main` exits 2 with
the message of a failure that already says what failed, or naming the
encoding of a stdout that cannot encode the output.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from bisect import bisect
from collections import Counter, deque
from importlib import resources
from itertools import accumulate
from pathlib import Path
from typing import Callable, Iterator, Sequence, TypeVar

from . import analytics, corpus_io, validator
from .ingest import IngestError, OrgGazetteer, document_from_text, export_column, read_list, read_tagged, read_text
from .model import Corpus, Document, ModelError, RelationMention
from .patterns import PatternConfigError, SurfacePattern, expand, parse_config
from .pipeline import preannotate_document


def default_config_path() -> Path:
    return Path(str(resources.files("promex").joinpath("data/patterns/default.pat")))


def default_gazetteer_path() -> Path:
    return Path(str(resources.files("promex").joinpath("data/gazetteers/companies.txt")))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promex", description="Rule-based pre-annotation and corpus tooling for company/product relations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_patterns = sub.add_parser("patterns", help="pattern inventory operations")
    patterns_sub = p_patterns.add_subparsers(dest="patterns_command", required=True)
    p_expand = patterns_sub.add_parser("expand", help="expand a pattern config into surface patterns")
    p_expand.add_argument("--config", default=None, help="pattern config file (default: shipped config)")
    p_expand.add_argument("--count-only", action="store_true", help="print only the surface pattern count")

    p_pre = sub.add_parser("preannotate", help="run the pre-annotation pipeline over a directory")
    p_pre.add_argument("--config", default=None, help="pattern config file (default: shipped config)")
    p_pre.add_argument("--gazetteer", default=None, help="company gazetteer file (default: shipped list)")
    p_pre.add_argument("--in", dest="input_dir", required=True, help="directory of input documents")
    p_pre.add_argument("--out", dest="output", required=True, help="corpus file to write")
    p_pre.add_argument("--tagged", action="store_true", help="inputs are TOKEN/POS[/BIO] column files")
    p_pre.add_argument("--jobs", type=int, default=1, help="processes, this one included (never changes the output)")

    p_val = sub.add_parser("validate", help="check a corpus against the annotation guidelines")
    p_val.add_argument("--in", dest="input", required=True, help="corpus file")
    p_val.add_argument("--stoplist", default=None, help="extra stoplist adjectives, one per line")
    p_val.add_argument("--format", dest="fmt", choices=("text", "tsv"), default="text")

    p_stats = sub.add_parser("stats", help="corpus statistics")
    p_stats.add_argument("--in", dest="input", required=True, help="corpus file")
    p_stats.add_argument("--kv", action="store_true", help="machine-readable key-value lines")

    p_agree = sub.add_parser("agreement", help="inter-annotator agreement between two corpora")
    p_agree.add_argument("--a", dest="layer_a", required=True, help="first annotation layer")
    p_agree.add_argument("--b", dest="layer_b", required=True, help="second annotation layer")

    p_conv = sub.add_parser("convert", help="convert between corpus and column formats")
    p_conv.add_argument("--in", dest="input", required=True, help="input file")
    p_conv.add_argument("--to", dest="target", choices=("column", "corpus"), required=True)

    return parser


# what reading an unreadable, undecodable or malformed input raises
_INPUT_ERRORS = (IngestError, ModelError, corpus_io.CorpusIOError, PatternConfigError, UnicodeDecodeError, OSError)
# failures whose message already says what failed
_STATED_FAILURES = (analytics.EmptyCorpus, analytics.TokenizationMismatch, IngestError, corpus_io.SinkFailure)
_T = TypeVar("_T")


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def _unreadable(what: str, path: str | Path, exc: Exception, first: Iterator) -> SystemExit:
    """Exit 2 naming `what` and `path`, once `first`, a corpus read before, is read: its failure comes first."""
    deque(first, maxlen=0)
    return SystemExit(_fail(f"cannot read {what} {str(path)!r}: {exc}"))


def _load(what: str, path: str | Path, read: Callable[[str | Path], _T], first: Iterator = iter(())) -> _T:
    """`read(path)`, or `_unreadable` if the input cannot be read."""
    try:
        return read(path)
    except _INPUT_ERRORS as exc:
        raise _unreadable(what, path, exc, first)


def _documents(path: str, first: Iterator[Document] = iter(())) -> Iterator[Document]:
    """The documents of the corpus file at `path`, read one at a time, or `_unreadable`."""
    try:
        with open(path, encoding="utf-8") as fh:
            documents = corpus_io.iter_documents(fh)
            next(documents)  # the schema version
            yield from documents
    except _INPUT_ERRORS as exc:
        raise _unreadable("corpus", path, exc, first)


def _load_surfaces(config: str | None) -> list[SurfacePattern]:
    return _load("pattern config", config or default_config_path(), lambda p: expand(parse_config(read_text(p))))


def _cmd_patterns_expand(args: argparse.Namespace) -> int:
    surfaces = _load_surfaces(args.config)
    if args.count_only:
        print(len(surfaces))
    else:  # in one write, so that a stdout that cannot encode it gets none of it
        sys.stdout.write("".join(f"{surface.surface_id}\t{surface.render()}\n" for surface in surfaces))
    return 0


def _process(path: Path, job: tuple, failures: list[str], raw: list[tuple[str, RelationMention]]) -> str:
    """The corpus line of `path`, its raw relations added to `raw`; or "", with why not added to `failures`."""
    gazetteer, surfaces, tagged = job
    try:
        text = read_text(path)
        doc = read_tagged(text, doc_id=path.stem) if tagged else document_from_text(text, doc_id=path.stem)
        result = preannotate_document(doc, gazetteer, surfaces)
    except _INPUT_ERRORS as exc:
        failures.append(f"{path}: {exc}")
        return ""
    raw.extend((path.stem, rel) for rel in result.raw_relations)
    return corpus_io.document_line(result.document)


def _process_run(paths: list[Path], job: tuple, run_file: str, conn) -> None:
    """A worker: writes the corpus lines of its run to `run_file`, then sends its failures and raw relations."""
    failures, raw = [], []
    try:
        with open(run_file, "w", encoding="utf-8") as fh:
            fh.writelines(_process(path, job, failures, raw) for path in paths)
        conn.send((failures, raw))
    except Exception:  # no traceback: the parent names this run and the exit code, 1
        sys.exit(1)


def _runs(paths: list[Path], sizes: list[int], workers: int) -> list[list[Path]]:
    """`paths` cut, in order, into `workers` contiguous runs, none empty, of about
    equal total size: each cut falls at the file boundary nearest its share."""
    ends = list(accumulate(sizes, initial=0))  # ends[i]: the size of paths[:i]
    cuts = [0]
    for k in range(1, workers):
        share = ends[-1] * k / workers
        i = bisect(ends, share)
        if i == len(ends) or share - ends[i - 1] <= ends[i] - share:
            i -= 1
        cuts.append(max(cuts[-1] + 1, min(i, len(paths) - (workers - k))))
    cuts.append(len(paths))
    return [paths[a:b] for a, b in zip(cuts, cuts[1:])]


def _lines(paths: list[Path], workers: int, job: tuple, output: str, failures: list, raw: list) -> Iterator[str]:
    """`_process` of each path in input order, then IngestError if there are `failures`.  With several workers it
    starts `workers - 1` processes, each writing one of the `_runs` after the first to a run file beside `output`,
    yields the first run's lines as made, then each run file's; however it ends, all are joined and removed."""
    first, *rest = _runs(paths, [p.stat().st_size for p in paths], workers) if workers > 1 else [paths]
    started = []
    try:
        for k, run in enumerate(rest):
            import multiprocessing  # here, so that `--jobs 1` does not load it
            receiver, sender = multiprocessing.Pipe(duplex=False)
            run_file = f"{output}.{os.getpid()}.{k}.tmp"
            process = multiprocessing.Process(target=_process_run, args=(run, job, run_file, sender))
            process.start()
            sender.close()  # so that `recv` sees the end of a worker that dies
            started.append((process, receiver, run_file, run[0]))
        yield from (_process(path, job, failures, raw) for path in first)
        for process, receiver, run_file, head in started:
            try:
                failed, relations = receiver.recv()
            except EOFError:
                process.join()
                raise IngestError(f"{head}: the worker for its run exited with code {process.exitcode}") from None
            failures += failed
            raw += relations
            with open(run_file, encoding="utf-8") as fh:
                yield from fh
    finally:
        for process, _, run_file, _ in started:
            process.terminate()  # a no-op on one that has ended
            process.join()
            Path(run_file).unlink(missing_ok=True)
    if failures:  # raised while the corpus is still a temporary file, which is then removed
        raise IngestError("\n".join(failures))


def _cmd_preannotate(args: argparse.Namespace) -> int:
    surfaces = _load_surfaces(args.config)
    gazetteer = _load("gazetteer", args.gazetteer or default_gazetteer_path(), OrgGazetteer.from_file)
    paths = _load("input directory", args.input_dir,
                  lambda d: sorted(p for p in Path(d).iterdir() if p.is_file() and not p.name.startswith(".")))
    # a file's stem is its document's doc_id, which a corpus holds only once
    stems = Counter(p.stem for p in paths)
    failures = [f"{p}: duplicate doc_id {p.stem!r}" for p in paths if stems[p.stem] > 1]
    raw: list[tuple[str, RelationMention]] = []
    workers, job = min(args.jobs, len(paths), os.cpu_count() or 1), (gazetteer, surfaces, args.tagged)
    corpus_io.save_document_lines(_lines(paths, workers, job, args.output, failures, raw), args.output,
                                  corpus_io.SCHEMA_VERSION)
    print(analytics.pattern_yield(relations=raw).render())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    documents = _documents(args.input)
    stoplist = set(validator.DEFAULT_STOPLIST)
    if args.stoplist:
        stoplist.update(map(str.lower, _load("stoplist", args.stoplist, read_list, documents)))
    violations = validator.validate_corpus(documents, stoplist)
    rendered = validator.report(violations, args.fmt)
    if rendered:
        print(rendered)
    return 1 if any(v.severity is validator.Severity.ERROR for v in violations) else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    result = analytics.stats(_documents(args.input))
    print(result.render_kv() if args.kv else result.render_table())
    return 0


def _cmd_agreement(args: argparse.Namespace) -> int:
    layer_a = _documents(args.layer_a)
    print(analytics.agreement(layer_a, _documents(args.layer_b, layer_a)).render())
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    if args.target == "column":
        documents = _documents(args.input)
        try:  # every document is rendered before any is written
            columns = [export_column(doc) for doc in documents]
        except IngestError as exc:  # UnrepresentableDocument, whose message names no file
            deque(documents, maxlen=0)  # a record that cannot be read, later in the file, is reported instead
            return _fail(f"cannot convert {args.input!r}: {exc}")
        sys.stdout.write("".join(columns))
    else:
        doc = _load("column file", args.input, lambda p: read_tagged(read_text(p), doc_id=Path(p).stem))
        text = io.StringIO()
        corpus_io.write_corpus(Corpus(schema_version=corpus_io.SCHEMA_VERSION, documents=(doc,)), text)
        sys.stdout.write(text.getvalue())
    return 0


_COMMANDS = {
    "patterns": _cmd_patterns_expand, "preannotate": _cmd_preannotate, "validate": _cmd_validate,
    "stats": _cmd_stats, "agreement": _cmd_agreement, "convert": _cmd_convert,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _STATED_FAILURES as exc:
        return _fail(str(exc))
    except UnicodeEncodeError as exc:  # each command writes its stdout in one write, so none of it got out
        return _fail(f"cannot write output in stdout's encoding {sys.stdout.encoding!r}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
