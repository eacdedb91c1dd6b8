"""Command-line interface.

    oncospan annotate --input <dir|file> --out <dir> [--lexicon <file>]
                      [--annotators <list>] [--sql <file>] [--jobs N]
    oncospan query    --store <dir> --filter <expr>
    oncospan check    --input <dir|file>

Each command imports only the modules it runs; at start-up this module
loads only ``errors`` and ``_typesystem``.  ``annotate`` and ``check`` load
the pipeline, ``check`` none of ``standoff``, ``query`` and ``sqlexport``,
and ``annotate`` no ``query`` (and ``sqlexport`` only with ``--sql``).
``query`` loads ``query`` and ``standoff`` and no other module: no
annotator, ``pipeline``, ``document``, ``_textops`` or ``sqlexport``.

``--jobs`` takes any N >= 1 and annotates serially whatever its value.
Each input and ``.ann`` file is read with ``os.read``, those of a directory
opened relative to one descriptor of it.  ``annotate`` rewrites an existing
output in place, then cuts it to length; a crash mid-write leaves the new
bytes so far and then the old file's rest, which the strict ``.ann`` decoder
rejects unless the mix is itself a valid file.  ``query`` accepts only
the files ``annotate`` names, ``<#doc id>.ann``, so each id prints once.

Exit codes: 0 success, 1 input error (missing files, malformed lexicon or
standoff data, bad flag values), 2 internal error.
"""

import argparse
import os
import stat
import sys
from collections import Counter
from pathlib import Path
from typing import Sequence

from ._typesystem import AnnotatorKind
from .errors import OncospanError

_ANNOTATOR_BY_NAME = {kind.value.lower(): kind for kind in AnnotatorKind}


class _InputError(Exception):
    """User-side problem; message goes to stderr, exit code 1."""


def _report(message: str) -> None:
    """Write *message* to stderr, escaping what its encoding cannot hold.

    A file name that is not UTF-8 puts a lone surrogate in the message, and
    a stderr with strict error handling would raise on it.
    """
    encoding = sys.stderr.encoding or "utf-8"
    print(message.encode(encoding, "backslashreplace").decode(encoding), file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oncospan",
        description="Annotate Spanish clinical notes with lung-cancer concepts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    annotate = sub.add_parser("annotate", help="annotate documents to standoff files")
    annotate.add_argument("--input", required=True, help="input .txt file or directory")
    annotate.add_argument("--out", required=True, help="output directory for .ann files")
    annotate.add_argument("--lexicon", help="extra polarity cues (POS/NEG<TAB>phrase)")
    annotate.add_argument(
        "--annotators",
        help="comma-separated subset of: "
        + ", ".join(kind.value for kind in AnnotatorKind),
    )
    annotate.add_argument("--sql", help="also write a SQL export to this file")
    annotate.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted for compatibility and ignored: any N >= 1 annotates serially",
    )

    query = sub.add_parser("query", help="query a directory of standoff files")
    query.add_argument("--store", required=True, help="directory of .ann files")
    query.add_argument(
        "--filter",
        required=True,
        help="e.g. 'gene=EGFR,polarity=POS' or 'stage=IV' or 'ecog=0..2'",
    )

    check = sub.add_parser("check", help="report TNM/stage consistency")
    check.add_argument("--input", required=True, help="input .txt file or directory")
    return parser


def _load_documents(path_str: str) -> list:
    from .document import Document

    def read(name: str, document_id: str, dir_fd=None, directory="") -> Document:
        """The document in the file *name*, in *directory* open as *dir_fd* if
        one is given; an error names the file's path."""
        try:
            # Bytes, not text: newline translation would turn "\r\n" and a
            # lone "\r" into "\n" and shift every offset after them.
            return Document(document_id, _read_bytes(name, dir_fd).decode("utf-8"))
        except (ValueError, OSError) as exc:
            why = f"not valid UTF-8 ({exc})" if isinstance(exc, UnicodeDecodeError) else exc
            raise _InputError(f"{os.path.join(directory, name)}: {why}") from None

    path = Path(path_str)
    if path.is_file():
        return [read(str(path), path.stem)]
    if not path.is_dir():
        raise _InputError(f"input path does not exist: {path}")
    dir_fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        # The entries whose Path suffix is ".txt", without building a Path:
        # not ".txt" itself, nor "x.TXT", but "a.b.txt".  is_file() follows
        # symlinks.  Names sort as the Paths of one directory do.
        with os.scandir(dir_fd) as entries:
            names = sorted(
                e.name for e in entries
                if e.name.endswith(".txt") and len(e.name) > 4 and e.is_file()
            )
        return [read(name, name[:-4], dir_fd, path) for name in names]
    finally:
        os.close(dir_fd)


def _parse_annotators(raw: str | None) -> frozenset[AnnotatorKind]:
    if raw is None:
        return frozenset(AnnotatorKind)
    kinds = set()
    for name in raw.split(","):
        name = name.strip()
        if not name:
            continue
        kind = _ANNOTATOR_BY_NAME.get(name.lower())
        if kind is None:
            raise _InputError(
                f"unknown annotator {name!r}; expected one of "
                + ", ".join(k.value for k in AnnotatorKind)
            )
        kinds.add(kind)
    return frozenset(kinds)


def _cmd_annotate(args: argparse.Namespace) -> int:
    from .pipeline import PipelineConfig, build_pipeline, process_corpus
    from .standoff import ANNOTATION_TYPES, serialize_result

    if args.jobs < 1:
        raise _InputError("--jobs must be at least 1")
    documents = _load_documents(args.input)
    if args.lexicon is not None and not Path(args.lexicon).is_file():
        raise _InputError(f"lexicon file does not exist: {args.lexicon}")
    config = PipelineConfig(
        enabled_annotators=_parse_annotators(args.annotators),
        lexicon_path=args.lexicon,
    )
    pipeline = build_pipeline(config)
    results = process_corpus(pipeline, documents)
    os.makedirs(args.out, exist_ok=True)
    for result in results:
        _write_bytes(os.path.join(args.out, f"{result.document_id}.ann"), serialize_result(result))
    counts = Counter(a.annotator for r in results for a in r.annotations)
    if args.sql is not None:
        from .sqlexport import emit_sql

        _write_bytes(args.sql, emit_sql(results).encode("utf-8"))
    print(f"documents processed: {len(results)}")
    for name in ANNOTATION_TYPES:
        print(f"{name} annotations: {counts[name]}")
    if args.sql is not None:
        print(f"sql export: {args.sql}")
    return 0


def _read_bytes(path: str, dir_fd: int | None = None) -> bytes:
    """The whole file at *path*, relative to the directory open as *dir_fd*
    if one is given, read without a buffered file object."""
    fd = os.open(path, os.O_RDONLY, dir_fd=dir_fd)
    try:
        chunks = []
        # 64 KiB: more than a note's file holds, under malloc's mmap threshold.
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


def _write_bytes(path: str, data: bytes) -> None:
    """Write *data* to *path*, rewriting an existing file in place.

    Not opened with O_TRUNC: freeing a file's blocks and allocating them
    again costs more than writing them, so the file is overwritten and then
    cut to the new length.  Only a regular file is cut; a pipe or terminal
    cannot be.  A file that is standard output, such as ``/dev/stdout``, is
    written through descriptor 1 at its current offset and not cut, so that
    what is printed before and after it keeps its place.  A new file's mode
    follows the umask.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        info = os.fstat(fd)
        out = fd
        # sys.stdout is None when descriptor 1 was closed at start-up.
        if sys.stdout is not None and os.path.samestat(info, os.fstat(1)):
            sys.stdout.flush()
            out = 1
        written = 0
        with memoryview(data) as view:  # slices of it copy nothing
            while written < len(data):
                written += os.write(out, view[written:])
        if out == fd and stat.S_ISREG(info.st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _cmd_query(args: argparse.Namespace) -> int:
    from .query import parse_filter, query_results
    from .standoff import deserialize_result

    store = Path(args.store)
    if not store.is_dir():
        raise _InputError(f"store directory does not exist: {store}")
    predicate = parse_filter(args.filter)
    dir_fd = os.open(store, os.O_RDONLY | os.O_DIRECTORY)
    try:
        # Names sort as the Paths of one directory do, at a fraction of the
        # cost.  Entries that are not regular files are skipped, as annotate
        # skips them among its .txt inputs.
        with os.scandir(dir_fd) as entries:
            names = sorted(e.name for e in entries if e.name.endswith(".ann") and e.is_file())
        results = []
        for name in names:
            try:
                result = deserialize_result(_read_bytes(name, dir_fd))
            except (OncospanError, OSError) as exc:
                raise _InputError(f"{os.path.join(store, name)}: {exc}") from None
            # Named as annotate names it, so that each id prints once, in order.
            if name != result.document_id + ".ann":
                where = os.path.join(store, name)
                raise _InputError(f"{where}: not named after its #doc id {result.document_id!r}")
            results.append(result)
    finally:
        os.close(dir_fd)
    for document_id in query_results(results, predicate):
        print(document_id)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .pipeline import PipelineConfig, build_pipeline, process_corpus

    documents = _load_documents(args.input)
    config = PipelineConfig(
        enabled_annotators=frozenset({AnnotatorKind.TNM, AnnotatorKind.STAGE})
    )
    pipeline = build_pipeline(config)
    results = process_corpus(pipeline, documents)
    total = 0
    for result in results:
        for report in result.consistency:
            total += 1
            tnm = report.tnm
            stage = report.stage
            where = (
                f"{tnm.raw!r} [{tnm.span.begin},{tnm.span.end}) vs "
                f"{stage.raw!r} [{stage.span.begin},{stage.span.end})"
            )
            if report.expected is not None and report.expected is not stage.stage:
                verdict = f"{report.verdict.value} (expected {report.expected.value})"
            else:
                verdict = report.verdict.value
            print(f"{result.document_id}: {where}: {verdict}")
    print(f"consistency reports: {total}")
    return 0


def cli_main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; that is an input error here.
        return 0 if exc.code == 0 else 1
    handlers = {
        "annotate": _cmd_annotate,
        "query": _cmd_query,
        "check": _cmd_check,
    }
    try:
        return handlers[args.command](args)
    except (_InputError, OncospanError, OSError) as exc:
        _report(f"error: {exc}")
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        _report(f"internal error: {type(exc).__name__}: {exc}")
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
