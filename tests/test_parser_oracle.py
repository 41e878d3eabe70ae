"""Differential test of ``parse_digraph`` against a pair-based reference.

``reference_parse`` is the parser as it was before arrows went straight
into bit rows: it collects label pairs, checks repeats with a set, and
hands them to ``DiGraph(vertices, arrows)``.  The package parser must
produce the same vertices, rows, columns and name, or raise the same
exception with the same message.  The one allowed difference: when
several arrow endpoints are unlisted, the reference reports whichever
its set yields first, while the package reports the first in file order.
"""

from __future__ import annotations

from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitclosure import (
    DiGraph,
    DuplicateArrow,
    DuplicateVertex,
    ParseError,
    UnknownVertex,
    parse_digraph,
)


def reference_parse(text: str) -> DiGraph:
    name: Optional[str] = None
    vertices: Optional[list[str]] = None
    loops_mode: Optional[str] = None
    in_arrows = False
    pairs: list[tuple[str, str]] = []
    seen_pairs: set[tuple[str, str]] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if in_arrows:
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected '<tail> <head>', got {line!r}")
            pair = (parts[0], parts[1])
            if pair in seen_pairs:
                raise DuplicateArrow(f"line {lineno}: arrow {parts[0]} {parts[1]} repeated")
            seen_pairs.add(pair)
            pairs.append(pair)
        elif line.startswith("digraph:"):
            if name is not None or vertices is not None:
                raise ParseError(f"line {lineno}: misplaced 'digraph:'")
            name = line[len("digraph:"):].strip()
            if not name:
                raise ParseError(f"line {lineno}: empty graph name")
        elif line.startswith("vertices:"):
            if vertices is not None:
                raise ParseError(f"line {lineno}: repeated 'vertices:'")
            vertices = line[len("vertices:"):].split()
            if any(v[0] == "#" for v in vertices):
                raise ParseError(f"line {lineno}: vertex labels may not start with '#'")
        elif line.startswith("loops:"):
            if vertices is None or loops_mode is not None:
                raise ParseError(f"line {lineno}: misplaced 'loops:'")
            loops_mode = line[len("loops:"):].strip()
            if loops_mode not in ("auto", "explicit"):
                raise ParseError(f"line {lineno}: loops must be auto or explicit")
        elif line == "arrows:":
            if vertices is None:
                raise ParseError(f"line {lineno}: 'arrows:' before 'vertices:'")
            in_arrows = True
        else:
            raise ParseError(f"line {lineno}: unrecognized line {line!r}")

    if not in_arrows:
        raise ParseError("missing 'arrows:' section")
    assert vertices is not None
    if loops_mode is None:
        loops_mode = "auto"
    arrow_set: set[tuple[str, str]] = set(pairs)
    if loops_mode == "auto":
        arrow_set.update((v, v) for v in vertices)
    return DiGraph(vertices, arrow_set, name=name)


def unlisted_endpoints(text: str) -> list[str]:
    """Arrow endpoints missing from the vertex list, in file order, for a
    document whose lines are otherwise well formed."""
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    start = lines.index("arrows:")
    listed = set(next(line for line in lines[:start] if line.startswith("vertices:")).split()[1:])
    out = []
    for line in lines[start + 1:]:
        out.extend(v for v in line.split() if v not in listed and v not in out)
    return out


def outcome(parse, text: str):
    try:
        g = parse(text)
    except Exception as exc:  # compared by type and message below
        return type(exc), str(exc)
    return g.vertices, g._rows, g._cols, g.name


def assert_same_as_reference(text: str) -> None:
    got, want = outcome(parse_digraph, text), outcome(reference_parse, text)
    if want[0] is UnknownVertex:
        unlisted = unlisted_endpoints(text)
        assert got == (UnknownVertex, unlisted[0])
        if len(unlisted) > 1:
            return  # the reference picks one by set order
    assert got == want


LISTED = ("a", "b", "c", "d", "e", "f")
UNLISTED = ("x", "q")
# weighted so that most arrow lines are arrows between listed vertices
ARROW_LINES = (
    ["pair"] * 40
    + ["unlisted"] * 3
    + ["blank", "comment", "indented-comment", "one-token", "three-tokens"]
    + ["loops: auto", "vertices: a", "arrows:", "digraph: g"]
)


@st.composite
def dg_documents(draw) -> str:
    def rarely() -> bool:
        return draw(st.integers(0, 24)) == 0

    header = []
    if draw(st.booleans()):
        header.append(f"digraph: {draw(st.sampled_from(['g', 'my graph']))}")
    elif rarely():
        header.append("digraph:")
    vertices = draw(st.lists(st.sampled_from(LISTED), max_size=6, unique=True))
    if vertices and rarely():
        vertices.append(draw(st.sampled_from(vertices)))
    if rarely():
        vertices.insert(draw(st.integers(0, len(vertices))), "#h")
    header.append(("vertices: " + " ".join(vertices)).rstrip())
    loops = draw(st.sampled_from([None, "auto", "explicit"]))
    if rarely():
        loops = "sometimes"
    if loops is not None:
        header.append(f"loops: {loops}")
    if not rarely():
        header.append("arrows:")
    if rarely():
        header = draw(st.permutations(header))
    if rarely():
        header.insert(0, draw(st.sampled_from(header)))
    body = []
    for kind in draw(st.lists(st.sampled_from(ARROW_LINES), max_size=12)):
        if kind == "pair":
            ends = vertices or LISTED
            body.append(f"{draw(st.sampled_from(ends))} {draw(st.sampled_from(ends))}")
        elif kind == "unlisted":
            ends = [draw(st.sampled_from(LISTED + UNLISTED)), draw(st.sampled_from(UNLISTED))]
            body.append(" ".join(draw(st.permutations(ends))))
        elif kind == "blank":
            body.append(draw(st.sampled_from(["", "   ", "\t"])))
        elif kind == "comment":
            body.append("# a b")
        elif kind == "indented-comment":
            body.append("  #note")
        elif kind == "one-token":
            body.append("a")
        elif kind == "three-tokens":
            body.append("a b c")
        else:
            body.append(kind)
    lines = []
    for line in header + body:
        if rarely():
            lines.append(draw(st.sampled_from(["", "# comment", "  "])))
        lines.append(line)
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@given(dg_documents())
@settings(max_examples=400, deadline=None)
def test_parser_matches_reference(text):
    assert_same_as_reference(text)


# Documents with one fault or several; the expected exception pins which
# fault wins: line errors first, then labels, then unlisted endpoints.
CASES = [
    ("vertices: a b\narrows:\na b\nb a\n", None),
    ("vertices: a b\narrows:\na a\nb b\n", None),  # explicit loops under auto
    ("vertices: a b\nloops: explicit\narrows:\na a\n", None),
    ("vertices: a b\narrows:\na b\n# a b\n\n   # b a\nb a\n", None),
    ("vertices: a b\narrows:\na a\na a\n", DuplicateArrow),
    ("vertices: a b\narrows:\na x\na x\n", DuplicateArrow),
    ("vertices: a a\narrows:\na x\n", DuplicateVertex),
    ("vertices: a a\narrows:\na b c\n", ParseError),
    ("vertices: a a\narrows:\na a\na a\n", DuplicateArrow),
    ("vertices: a b\narrows:\na x\nb a\nb a\n", DuplicateArrow),
    ("vertices: a b\narrows:\na x\nloops: auto\n", UnknownVertex),
    ("vertices: a b\narrows:\na b\narrows:\n", ParseError),
    ("vertices: a b\narrows:\nx y\n", UnknownVertex),
    ("vertices: a #b\narrows:\na b c\n", ParseError),
    ("arrows:\nvertices: a\n", ParseError),
    ("vertices: a\nvertices: b\narrows:\n", ParseError),
    ("vertices: a\nloops: auto\nloops: auto\narrows:\n", ParseError),
    ("vertices: a\n", ParseError),
    ("digraph:   \nvertices: a\narrows:\n", ParseError),
]


@pytest.mark.parametrize("text,error", CASES)
def test_fault_order_matches_reference(text, error):
    assert_same_as_reference(text)
    if error is None:
        parse_digraph(text)
    else:
        with pytest.raises(error):
            parse_digraph(text)


def test_several_unlisted_endpoints_report_the_first_in_file_order():
    text = "vertices: a b\narrows:\na x\ny b\nz q\n"
    with pytest.raises(UnknownVertex, match="^x$"):
        parse_digraph(text)
    with pytest.raises(UnknownVertex, match="^y$"):
        parse_digraph("vertices: a b\narrows:\ny x\na x\n")
