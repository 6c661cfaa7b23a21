"""Command-line front end: parse, infer, query, validate, compliance, ingest.

Reports go to stdout, diagnostics to stderr (dropped if stderr is
closed), and exit codes are CI-friendly:

    0  success / conforms / no gaps
    1  usage, I/O or parse error
    2  shape violations present
    3  compliance gaps present

Unless --no-inference is given, query and validate answer on the RDFS
closure, built only where they read a predicate the closure adds (the
reasoner's module docstring states the rule): query reads the asserted
graph through reasoner.EntailmentView, and validate materializes for a
shape whose path is one of reasoner.INFERRED_PREDICATES.  compliance runs
on the asserted graph.

Each command handler imports the layers it runs, so a command pays the
start-up cost of those layers only.  It reads each file through
`_from_file`, which names the file in any error, and writes its report
through `_report`.  `main` runs a command with the cyclic garbage collector
off, as a one-shot command makes no reference cycles that grow with its
input, and restores the collector's earlier state however the command ends.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path
from typing import Callable, TypeVar

from . import __version__
from .rdf import Iri, UnknownPrefixError
from .turtle import Document, ParseError, parse_turtle, serialize_turtle

T = TypeVar("T")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATIONS = 2
EXIT_GAPS = 3


class _CliError(Exception):
    """A failure `main` reports on stderr, exiting EXIT_ERROR."""


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 means violations here
    def error(self, message):
        _diagnose(f"{self.format_usage()}{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_ERROR)

    # --help and --version text goes to stdout, where a write can fail as a report's can
    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            _write_output(message, None)
        else:
            super()._print_message(message, file)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc


def _from_file(path: str, read: Callable[[str], T]) -> T:
    """`read` of the text of the file at `path`, with a `ParseError` told as
    `path:line:col: detail` and any other `ValueError` (a shape, JSON or
    record error) as `path: message`."""
    text = _read_text(path)
    try:
        return read(text)
    except ParseError as exc:
        raise _CliError(f"{path}:{exc.line}:{exc.column}: {exc.detail}") from exc
    except ValueError as exc:
        raise _CliError(f"{path}: {exc}") from exc


def _diagnose(text: str):
    """Write `text` to stderr, or drop it if stderr is closed: a diagnostic
    that cannot be written changes no exit code."""
    if sys.stderr is not None:  # None: fd 2 was closed at start-up
        try:
            sys.stderr.write(text)
        except OSError:  # e.g. fd 2 is not open for writing, or its pipe's reader has gone
            pass


def _write_output(text: str, out_path: str | None):
    if out_path is None:
        if sys.stdout is None:  # fd 1 was closed at start-up
            raise _CliError("cannot write to stdout: it is closed")
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:  # e.g. the reader of a pipe has gone
            # point stdout at devnull, so that exit does not flush the rest again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise _CliError(f"cannot write to stdout: {exc.strerror or exc}") from exc
        except UnicodeEncodeError as exc:  # stdout's encoding cannot hold the text; none was written
            raise _CliError(f"cannot write to stdout: {exc}") from exc
        return
    try:
        Path(out_path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot write {out_path}: {exc.strerror or exc}") from exc


def _report(args, payload: Callable[[], dict], text: Callable[[], str]):
    """Write a command's report as --format asks: `payload()` as JSON, or
    `text()` and a newline."""
    if args.format == "json":
        import json

        _write_output(json.dumps(payload(), indent=2) + "\n", args.output)
    else:
        _write_output(text() + "\n", args.output)


def _resolve_iri(text: str, doc: Document) -> Iri:
    try:
        if text.startswith("<") and text.endswith(">"):
            return Iri(text[1:-1])
        if "://" in text or text.startswith("urn:"):
            return Iri(text)
        if ":" in text:
            return doc.prefixes.expand(text)
    except UnknownPrefixError as exc:
        raise _CliError(str(exc)) from exc
    except ValueError as exc:
        raise _CliError(f"{text!r}: {exc}") from exc
    raise _CliError(f"not an IRI or prefixed name: {text!r}")


def _cmd_parse(args) -> int:
    doc = _from_file(args.file, parse_turtle)
    _report(
        args,
        lambda: {"file": args.file, "triples": len(doc.graph), "prefixes": len(doc.prefixes)},
        lambda: f"{args.file}: {len(doc.graph)} triples, {len(doc.prefixes)} prefixes",
    )
    return EXIT_OK


def _cmd_infer(args) -> int:
    from .reasoner import _closure  # the writer makes no lookup, so no indexes

    doc = _from_file(args.file, parse_turtle)
    closure = _closure(doc.graph)
    try:
        text = serialize_turtle(Document(closure.graph, doc.prefixes))
    except ValueError as exc:
        raise _CliError(f"cannot write the inferred graph of {args.file}: {exc}") from exc
    _diagnose(f"{closure.inferred_count} inferred triple(s) in {closure.iterations} iteration(s)\n")
    _write_output(text, args.output)
    return EXIT_OK


def _cmd_query(args) -> int:
    from .reasoner import EntailmentView
    from .sparql import evaluate, parse_query

    doc = _from_file(args.file, parse_turtle)
    query = _from_file(args.query, parse_query)
    table = evaluate(query, doc.graph if args.no_inference else EntailmentView(doc.graph))
    _report(args, table.to_json_dict, lambda: table.to_text(doc.prefixes))
    return EXIT_OK


def _cmd_validate(args) -> int:
    from .reasoner import INFERRED_PREDICATES, _closure, subclasses_of
    from .shacl import parse_shapes, validate

    doc = _from_file(args.file, parse_turtle)
    shapes = _from_file(args.shapes, lambda text: parse_shapes(parse_turtle(text)))
    reads_closure = any(c.path in INFERRED_PREDICATES for s in shapes for c in s.constraints)
    graph = _closure(doc.graph).graph if reads_closure and not args.no_inference else doc.graph
    report = validate(graph, shapes, subclasses_of)
    _report(args, report.to_json_dict, report.to_text)
    return EXIT_OK if report.conforms else EXIT_VIOLATIONS


def _cmd_compliance(args) -> int:
    from .compliance import NoPolicyError, coverage, remediation_hints

    doc = _from_file(args.file, parse_turtle)
    engine = _resolve_iri(args.engine, doc)
    try:
        report = coverage(doc.graph, engine)
    except NoPolicyError as exc:
        raise _CliError(str(exc)) from exc
    for warning in report.warnings:
        _diagnose(f"warning: {warning}\n")
    hints = remediation_hints(report, doc.graph, doc.prefixes)

    def text() -> str:
        body = report.to_text(doc.prefixes)
        if hints:
            body += "\n\nhints:\n" + "\n".join(f"  - {h}" for h in hints)
        return body

    _report(args, lambda: {**report.to_json_dict(), "hints": hints}, text)
    return EXIT_GAPS if report.gap_count else EXIT_OK


def _parse_policy_file_args(pairs: list[str]) -> dict[str, str]:
    out = {}
    for pair in pairs:
        service, sep, path = pair.partition("=")
        if not sep or not service or not path:
            raise _CliError(f"--policy-file expects SERVICE=PATH, got {pair!r}")
        out[service] = path
    return out


def _cmd_ingest(args) -> int:
    from .openstack import IngestConfig, IngestError, ingest, load_json, parse_cli_json

    def read_versions(text: str) -> dict[str, str]:
        versions = load_json(text)
        if not isinstance(versions, dict):
            raise ValueError("expected an object of service -> version")
        for service, version in versions.items():
            if not isinstance(version, str):
                raise ValueError(f"service {service!r}: expected a version string, "
                                 f"got {type(version).__name__}")
        return versions

    records = {}
    for kind in ("endpoints", "projects", "users", "assignments"):
        path = getattr(args, kind)
        records[kind] = [] if path is None else _from_file(path, lambda text: parse_cli_json(text, kind))
    versions = _from_file(args.versions, read_versions) if args.versions else {}

    config = IngestConfig(
        instance_namespace=args.namespace,
        version_metadata=versions,
        policy_files=_parse_policy_file_args(args.policy_file),
    )
    try:
        doc = ingest(**records, config=config)
    except IngestError as exc:
        raise _CliError(str(exc)) from exc
    counts = ", ".join(f"{len(found)} {kind[:-1]}(s)" for kind, found in records.items())
    _diagnose(f"ingested {counts}: {len(doc.graph)} triples\n")
    _write_output(serialize_turtle(doc), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="cloudaudit",
        description="Semantic compliance toolchain for cloud engine models",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, inference=True):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("-o", "--output", default=None, help="write the report here instead of stdout")
        if inference:
            p.add_argument(
                "--no-inference",
                action="store_true",
                help="run against asserted triples only (skip RDFS materialization)",
            )

    p = sub.add_parser("parse", help="syntax-check a Turtle file and print counts")
    p.add_argument("file")
    common(p, inference=False)
    p.set_defaults(handler=_cmd_parse)

    p = sub.add_parser("infer", help="write the RDFS-materialized graph as Turtle")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(handler=_cmd_infer)

    p = sub.add_parser("query", help="run a SELECT query against a model")
    p.add_argument("file")
    p.add_argument("query", help="query file (.rq)")
    common(p)
    p.set_defaults(handler=_cmd_query)

    p = sub.add_parser("validate", help="validate a model against node shapes")
    p.add_argument("file")
    p.add_argument("shapes", help="shapes file (.ttl)")
    common(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("compliance", help="standards coverage report for one engine")
    p.add_argument("file")
    p.add_argument("--engine", required=True, help="engine IRI or prefixed name")
    common(p, inference=False)
    p.set_defaults(handler=_cmd_compliance)

    p = sub.add_parser("ingest", help="convert inventory exports to instance Turtle")
    p.add_argument("source", choices=("openstack",))
    p.add_argument("--endpoints", help="endpoint list JSON")
    p.add_argument("--projects", help="project list JSON")
    p.add_argument("--users", help="user list JSON")
    p.add_argument("--assignments", help="role assignment list JSON")
    p.add_argument("--versions", help="JSON object mapping service name to version")
    p.add_argument(
        "--policy-file",
        action="append",
        default=[],
        metavar="SERVICE=PATH",
        help="hash this policy file onto the service node (repeatable)",
    )
    p.add_argument(
        "--namespace",
        default="urn:cloudeng:inst:",
        help="instance namespace for minted IRIs",
    )
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(handler=_cmd_ingest)

    return parser


def main(argv: list[str] | None = None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except _CliError as exc:
        _diagnose(f"error: {exc}\n")
        return EXIT_ERROR
    except MemoryError:  # e.g. a query whose answer does not fit in memory
        _diagnose("error: out of memory\n")
        return EXIT_ERROR
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
