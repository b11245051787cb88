"""Command-line front end.

Subcommands:
    infer                 materialise the closure of a data document
    query                 run an AnQL query over (the closure of) a document
    check-domain          run the axiom suites for a domain
    normalize-annotation  print the canonical form of an annotation literal
    convert               reformat a document canonically

Exit codes: 0 success, 1 failed checks, 2 parse or type errors,
3 resource cap exceeded (closure rule firings or compound saturation
steps), 4 compound domain with a non-lattice first component.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .anql.rewrite import MODES as REWRITE_MODES, rewrite_defaults
from .anql.engine import evaluate_query
from .domains import axiom_suite, get_domain, quasihomomorphism_suite
from .domains.compound import CompoundDomain
from .errors import (
    AnrdfError,
    ClosureIterationError,
    NotALatticeError,
    SaturationBoundError,
)
from .reasoner import DEFAULT_MAX_FIRINGS, apply_defaults, closure
from .syntax import (
    Document,
    parse_graph,
    parse_query,
    serialize_answers_json,
    serialize_answers_tsv,
    serialize_graph,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3
EXIT_NOT_LATTICE = 4


def _add_io(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-i", "--input", required=True, help="input .anrdf document")
    parser.add_argument("-o", "--output", help="output path (default: stdout)")


def _add_graph_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--domain", help="annotation domain id (overrides @domix)")
    parser.add_argument(
        "--default-annotation",
        choices=("top", "segregate"),
        default="top",
        help="treatment of non-annotated data triples",
    )
    parser.add_argument(
        "--max-iterations",
        type=_at_least(0),
        default=DEFAULT_MAX_FIRINGS,
        help="closure rule-firing cap, at least 0",
    )


def _at_least(minimum: int):
    """An argparse type for an integer of at least `minimum`: a law checked
    on no sample passes vacuously, and a negative firing cap is no cap."""

    def check(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return check


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="anrdf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_infer = sub.add_parser("infer", help="materialise the closure")
    _add_io(p_infer)
    _add_graph_options(p_infer)

    p_query = sub.add_parser("query", help="evaluate an AnQL query")
    _add_io(p_query)
    _add_graph_options(p_query)
    p_query.add_argument("query", help="path to the .anql query")
    p_query.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p_query.add_argument(
        "--rewrite-defaults",
        choices=REWRITE_MODES,
        default="top",
        help="annotation labels for non-annotated query patterns",
    )

    p_check = sub.add_parser("check-domain", help="run the axiom suites")
    p_check.add_argument("--domain", required=True)
    p_check.add_argument("--samples", type=_at_least(1), default=1000)
    p_check.add_argument("--seed", type=int, default=0)

    p_norm = sub.add_parser(
        "normalize-annotation", help="canonical form of an annotation literal"
    )
    p_norm.add_argument("--domain", required=True)
    p_norm.add_argument("literal")

    p_conv = sub.add_parser("convert", help="reformat a document canonically")
    _add_io(p_conv)
    p_conv.add_argument("--domain", help="annotation domain id (overrides @domix)")
    p_conv.add_argument(
        "--default-annotation",
        choices=("keep", "top"),
        default="keep",
        help="keep plain triples or fold them in with the top annotation",
    )
    return parser


# `parse_args` returns a fresh namespace on each call, so one parser
# serves every call of `main`.
_PARSER = build_parser()


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _load(args) -> Document:
    return parse_graph(Path(args.input).read_text(), domain=args.domain)


def _cmd_infer(args) -> int:
    doc = _load(args)
    graph, side = apply_defaults(doc.graph, doc.plain, args.default_annotation)
    closed = closure(graph, max_firings=args.max_iterations)
    plain = None
    if side is not None:
        side_closed = closure(side, max_firings=args.max_iterations)
        plain = [t for t, _ in side_closed.items()]
    _emit(serialize_graph(closed, plain), args.output)
    return EXIT_OK


def _cmd_query(args) -> int:
    doc = _load(args)
    query = parse_query(Path(args.query).read_text(), domain=doc.domain)
    query = rewrite_defaults(query, args.rewrite_defaults, doc.domain)
    graph, side = apply_defaults(doc.graph, doc.plain, args.default_annotation)
    if side is not None and len(side):
        print(
            f"warning: {len(side)} plain triple(s) segregated; the query does not see them",
            file=sys.stderr,
        )
    closed = closure(graph, max_firings=args.max_iterations)
    diagnostics: list[str] = []
    rows = evaluate_query(closed, query, diagnostics)
    for message in diagnostics:
        print(f"warning: {message}", file=sys.stderr)
    if args.format == "json":
        _emit(serialize_answers_json(query.select, rows), args.output)
    else:
        _emit(serialize_answers_tsv(query.select, rows), args.output)
    return EXIT_OK


def _cmd_check_domain(args) -> int:
    domain = get_domain(args.domain)
    report = axiom_suite(domain, samples=args.samples, seed=args.seed)
    print(report.format())
    ok = report.all_passed
    if isinstance(domain, CompoundDomain):
        extra = quasihomomorphism_suite(
            domain, trials=max(1, args.samples // 10), seed=args.seed
        )
        print(extra.format())
        ok = ok and extra.all_passed
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_normalize(args) -> int:
    domain = get_domain(args.domain)
    value = domain.parse(args.literal)
    print(value.serialize())
    return EXIT_OK


def _cmd_convert(args) -> int:
    doc = _load(args)
    if args.default_annotation == "top":
        graph, _ = apply_defaults(doc.graph, doc.plain, "top")
        _emit(serialize_graph(graph), args.output)
    else:
        _emit(serialize_graph(doc.graph, doc.plain), args.output)
    return EXIT_OK


_COMMANDS = {
    "infer": _cmd_infer,
    "query": _cmd_query,
    "check-domain": _cmd_check_domain,
    "normalize-annotation": _cmd_normalize,
    "convert": _cmd_convert,
}


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NotALatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_LATTICE
    except (ClosureIterationError, SaturationBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (AnrdfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
