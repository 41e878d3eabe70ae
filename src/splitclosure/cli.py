"""Command-line driver: check, expand, verify, closure, census.

Exit codes: 0 success / property holds; 1 usage, I/O, or parse error;
2 property fails or a precondition is violated (details on stderr);
3 an internal invariant was breached (a bug, not bad input).
Machine-consumable content goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from typing import Optional, Sequence

from .census import (
    canonical_masks,
    minimal_obstructions,
    validate_theorems,
)
from .compression import parse_map_file, verify_compression
from .digraph import DiGraph, emit_digraph, parse_digraph
from .errors import (
    BoundExceeded,
    DomainMismatch,
    GraphError,
    InternalInvariantBreached,
    LockedClasp,
    NotReflexive,
    NotStable,
    ParseError,
)
from .expansion import expand_to_preorder
from .predicates import property_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROPERTY = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_graph(path: str) -> DiGraph:
    with open(path, encoding="utf-8") as handle:
        return parse_digraph(handle.read())


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".splitclosure-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


_encode_str = json.encoder.encode_basestring_ascii


def _dumps(payload) -> str:
    """``json.dumps(payload, indent=2)``, byte for byte, with every string
    encoded in C: the standard encoder is pure Python when it indents.  A
    payload holding anything but str-keyed dicts, lists, tuples, strings,
    ints, bools and None goes to ``json.dumps`` whole."""
    try:
        return _indented(payload, "\n")
    except TypeError:
        return json.dumps(payload, indent=2)


def _indented(node, newline: str) -> str:
    if isinstance(node, str):
        return _encode_str(node)
    inner = newline + "  "
    if isinstance(node, (list, tuple)):
        if not node:
            return "[]"
        try:  # a list of strings only
            items = ("," + inner).join(map(_encode_str, node))
        except TypeError:
            items = ("," + inner).join([_indented(v, inner) for v in node])
        return "[" + inner + items + newline + "]"
    if isinstance(node, dict):
        if not node:
            return "{}"
        # a key that is not a string raises TypeError in the C encoder
        items = ("," + inner).join(
            [_encode_str(k) + ": " + _indented(v, inner) for k, v in node.items()]
        )
        return "{" + inner + items + newline + "}"
    if node is None:
        return "null"
    if isinstance(node, bool):
        return "true" if node else "false"
    if isinstance(node, int):
        return int.__repr__(node)
    raise TypeError(f"{type(node).__name__} is left to json.dumps")


def _render_report(graph: DiGraph, report) -> str:
    lines = []
    label = graph.name or "(unnamed)"
    lines.append(
        f"digraph: {label} ({len(graph.vertices)} vertices, {graph.arrow_count()} arrows)"
    )

    def yesno(flag):
        return "yes" if flag else "no"

    if report.reflexive:
        lines.append("reflexive: yes")
    else:
        lines.append(f"reflexive: no (no loop at {report.missing_loop})")
    if report.transitive:
        lines.append("transitive: yes")
    else:
        x, y, z = report.transitive_witness
        lines.append(f"transitive: no (witness {x}, {y}, {z})")
    lines.append(f"preordered: {yesno(report.preordered)}")
    if not report.reflexive:
        lines.append("balanced: n/a (not reflexive)")
        lines.append("stable: n/a (not reflexive)")
        lines.append("clasps: n/a (not reflexive)")
        lines.append("soloists: n/a (not reflexive)")
    else:
        if report.balanced:
            lines.append("balanced: yes")
        else:
            lines.append(
                "balanced: no (witness " + ", ".join(report.balanced_witness) + ")"
            )
        if report.stable:
            lines.append("stable: yes")
        else:
            w = report.stable_witness
            lines.append(
                f"stable: no ({w.kind} witness " + ", ".join(w.quad) + ")"
            )
        if report.clasps:
            lines.append(
                "clasps: "
                + ", ".join(f"{r.vertex} ({r.status})" for r in report.clasps)
            )
        else:
            lines.append("clasps: none")
        if report.soloists:
            lines.append("soloists: " + " ".join(report.soloists))
        else:
            lines.append("soloists: none")
    return "\n".join(lines) + "\n"


def _cmd_check(args) -> int:
    graph = _read_graph(args.file)
    report = property_report(graph)
    if args.json:
        payload = {"name": graph.name, **report.to_json()}
        sys.stdout.write(_dumps(payload) + "\n")
    else:
        sys.stdout.write(_render_report(graph, report))
    return EXIT_OK


def _cmd_expand(args) -> int:
    graph = _read_graph(args.file)
    outcome = expand_to_preorder(graph)
    trace = outcome.to_json() if args.trace else None
    result_text = trace["result"] if trace else emit_digraph(outcome.result, "dg")
    if args.output:
        _write_atomic(args.output, result_text)
    else:
        sys.stdout.write(result_text)
    if trace:
        _write_atomic(args.trace, _dumps(trace) + "\n")
    if args.dot:
        _write_atomic(args.dot, emit_digraph(outcome.result, "dot"))
    return EXIT_OK


def _cmd_verify(args) -> int:
    source = _read_graph(args.source)
    target = _read_graph(args.target)
    with open(args.map, encoding="utf-8") as handle:
        cmap = parse_map_file(handle.read(), source, target)
    verdict = verify_compression(cmap)
    sys.stdout.write(verdict.describe() + "\n")
    return EXIT_OK if verdict.valid else EXIT_PROPERTY


def _cmd_closure(args) -> int:
    graph = _read_graph(args.file)
    closure = graph.transitive_closure()
    added_arrows = closure.arrow_count() - graph.arrow_count()
    sys.stdout.write(f"closure:   +{added_arrows} arrows, +0 vertices\n")
    try:
        outcome = expand_to_preorder(graph)
    except NotReflexive:
        sys.stdout.write("expansion unavailable: not reflexive\n")
    except NotStable:
        sys.stdout.write("expansion unavailable: not stable\n")
    except LockedClasp as exc:
        sys.stdout.write(f"expansion unavailable: locked clasp {exc.vertex}\n")
    else:
        added_vertices = len(outcome.result.vertices) - len(graph.vertices)
        sys.stdout.write(f"expansion: +0 arrows, +{added_vertices} vertices\n")
    return EXIT_OK


def _cmd_census(args) -> int:
    n = args.max_vertices
    # every census subcommand consumes whole class streams, which is only
    # practical up to five vertices
    if not 1 <= n <= 5:
        raise BoundExceeded(f"census commands support 1..5 vertices, got {n}")
    if args.count:
        counts = [len(canonical_masks(k)) for k in range(1, n + 1)]
        sys.stdout.write("iso classes: " + ", ".join(str(c) for c in counts) + "\n")
        return EXIT_OK
    if args.obstructions:
        obstruction_set = minimal_obstructions(args.obstructions, n)
        sys.stdout.write(_dumps(obstruction_set.to_json()) + "\n")
        return EXIT_OK
    report = validate_theorems(n)
    sys.stdout.write(report.render_text())
    return EXIT_OK if report.passed else EXIT_PROPERTY


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="splitclosure",
        description=(
            "Make a directed graph transitive by splitting vertices "
            "instead of adding arrows."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="report structural properties of a graph")
    p_check.add_argument("file", help="dg file to inspect")
    p_check.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p_expand = sub.add_parser("expand", help="expand a graph to a preordered one")
    p_expand.add_argument("file", help="dg file to expand")
    p_expand.add_argument("-o", "--output", help="write the result here (default stdout)")
    p_expand.add_argument("--trace", help="write the JSON trace here")
    p_expand.add_argument("--dot", help="write the result as DOT here")

    p_verify = sub.add_parser("verify", help="verify a compression map")
    p_verify.add_argument("source", help="dg file of the expansion")
    p_verify.add_argument("target", help="dg file of the compression")
    p_verify.add_argument("map", help="file of '<source> <target>' vertex pairs")

    p_closure = sub.add_parser(
        "closure", help="compare transitive closure against vertex expansion"
    )
    p_closure.add_argument("file", help="dg file to compare")

    p_census = sub.add_parser("census", help="enumerate small graphs and validate")
    p_census.add_argument("--max-vertices", type=int, required=True, metavar="N")
    group = p_census.add_mutually_exclusive_group(required=True)
    group.add_argument("--count", action="store_true", help="print iso class counts")
    group.add_argument(
        "--obstructions",
        choices=("balanced", "stable-given-balanced", "unlocked-given-stable"),
        help="print minimal forbidden induced subgraphs for a predicate",
    )
    group.add_argument(
        "--validate", action="store_true", help="run the theorem validation sweep"
    )
    return parser


_HANDLERS = {
    "check": _cmd_check,
    "expand": _cmd_expand,
    "verify": _cmd_verify,
    "closure": _cmd_closure,
    "census": _cmd_census,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing keeps no state in the parser, so one per process is enough
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except InternalInvariantBreached as exc:
        print(f"internal invariant breached: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except NotStable:
        print("not stable", file=sys.stderr)
        return EXIT_PROPERTY
    except LockedClasp as exc:
        print(f"locked clasp {exc.vertex}", file=sys.stderr)
        return EXIT_PROPERTY
    except NotReflexive as exc:
        print(f"not reflexive: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except BoundExceeded as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, DomainMismatch, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
