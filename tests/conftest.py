from __future__ import annotations

import pytest
from hypothesis import strategies as st

from splitclosure import CompressionMap, DiGraph


def reflexive(vertices, arrows, name=None) -> DiGraph:
    """Build a graph with all loops plus the given non-loop arrows."""
    vertices = tuple(vertices)
    full = {(v, v) for v in vertices} | set(arrows)
    return DiGraph(vertices, full, name=name)


# Three-vertex path x -> y -> z; not transitive (xz missing).
@pytest.fixture
def path3() -> DiGraph:
    return reflexive("xyz", [("x", "y"), ("y", "z")], name="path3")


# The four-vertex transitive graph the path expands into: x -> y, t -> z.
@pytest.fixture
def split4() -> DiGraph:
    return reflexive(("x", "y", "z", "t"), [("x", "y"), ("t", "z")], name="split4")


# Six-vertex stable graph with two unlocked clasps (2 and 4); the running
# example for the expansion algorithm.
@pytest.fixture
def two_clasps() -> DiGraph:
    return reflexive(
        ("1", "2", "3", "4", "6", "7"),
        [("1", "2"), ("2", "4"), ("2", "6"), ("3", "4"), ("3", "7"),
         ("4", "6"), ("4", "7")],
        name="twoclasps",
    )


# Diamond w -> x -> y -> z, w -> z with exactly one chord: unbalanced.
@pytest.fixture
def unbalanced4() -> DiGraph:
    return reflexive(
        "wxyz",
        [("w", "x"), ("x", "y"), ("y", "z"), ("w", "z"), ("w", "y")],
        name="unbalanced4",
    )


# Balanced but not stable: ab, ac, bc, bd, cd present, ad missing.
@pytest.fixture
def unstable4() -> DiGraph:
    return reflexive(
        "abcd",
        [("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("c", "d")],
        name="unstable4",
    )


# Two mutually connected vertices.
@pytest.fixture
def pair2() -> DiGraph:
    return reflexive("rs", [("r", "s"), ("s", "r")], name="pair2")


# A pair plus one outgoing arrow; unbalanced only through a repeated
# quadruple, so it distinguishes the quantifier readings.
@pytest.fixture
def pair_plus_tail() -> DiGraph:
    return reflexive("rse", [("r", "s"), ("s", "r"), ("r", "e")], name="pairtail")


# Stable five-vertex graph whose clasp x is locked: the triples (u,x,y),
# (u,x,v), (w,x,v) all exist while w -> y is missing.
@pytest.fixture
def locked5() -> DiGraph:
    return reflexive(
        "uvwxy",
        [("u", "x"), ("x", "y"), ("u", "y"), ("x", "v"), ("u", "v"),
         ("w", "x"), ("w", "v")],
        name="locked5",
    )


def step_map(record, graph: DiGraph) -> CompressionMap:
    """The map of one traced split: from ``record.apply(graph)`` back onto
    ``graph``, the new vertex onto the clasp and every other vertex fixed."""
    assignment = {v: v for v in graph.vertices}
    assignment[record.new_vertex] = record.clasp
    return CompressionMap(record.apply(graph), graph, assignment)


@st.composite
def digraphs(draw, max_n: int = 4, force_reflexive: bool = False):
    n = draw(st.integers(min_value=1, max_value=max_n))
    verts = tuple(f"v{i}" for i in range(n))
    pairs = [(a, b) for a in verts for b in verts]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    arrows = set(chosen)
    if force_reflexive:
        arrows.update((v, v) for v in verts)
    return DiGraph(verts, arrows)


def assert_valid_trace_json(payload: dict) -> None:
    """Check a serialized expansion trace against the documented shape, and
    replay its records from the input: each one moves arrows of the graph
    so far from the clasp to the new vertex, and the last graph is the
    result."""
    from splitclosure import parse_digraph

    assert set(payload) == {"input", "iterations", "result", "map"}
    source = parse_digraph(payload["input"])
    result = parse_digraph(payload["result"])
    assert isinstance(payload["map"], dict)
    assert set(payload["map"]) == set(result.vertices)
    assert set(payload["map"].values()) <= set(source.vertices)
    current = source
    for k, record in enumerate(payload["iterations"], start=1):
        assert record["index"] == k
        assert isinstance(record["clasp"], str)
        assert record["construction"] in ("A", "B")
        assert isinstance(record["Y"], list) and record["Y"]
        assert isinstance(record["A"], list)
        if record["construction"] == "A":
            assert "B" in record and "T" not in record
            assert isinstance(record["B"], list)
        else:
            assert "T" in record and "B" not in record
            assert record["T"], "rule B never detours nothing"
            assert all(len(pair) == 2 for pair in record["T"])
        for key in ("removed", "added"):
            assert all(len(pair) == 2 for pair in record[key])
        clasp, new = record["clasp"], record["new_vertex"]
        assert new not in current
        removed = {tuple(pair) for pair in record["removed"]}
        assert removed <= current.arrows
        assert record["added"] == [
            [new if v == clasp else v for v in pair] for pair in record["removed"]
        ]
        current = DiGraph(
            current.vertices + (new,),
            current.arrows - removed | {tuple(p) for p in record["added"]} | {(new, new)},
        )
    assert current.vertices == result.vertices
    assert current.arrows == result.arrows
