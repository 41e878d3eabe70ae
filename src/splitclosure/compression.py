"""Compression maps: verification, composition, and vertex splitting.

A compression map sends the vertices of a source graph onto the vertices
of a target graph so that (1) arrows are preserved, (2) every transitive
triple of the target lifts to one in the source, and (3) the induced map
on non-loop arrows is a bijection.  The target is then a *compression* of
the source, and the source an *expansion* of the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .digraph import DiGraph, _label_mask, _low, bits
from .errors import (
    ChainMismatch,
    DomainMismatch,
    DuplicateVertex,
    InternalInvariantBreached,
    InvalidSplit,
    NotReflexive,
    ParseError,
    PreconditionViolated,
)


@dataclass(frozen=True)
class CompressionMap:
    """A vertex assignment from ``source`` onto ``target``.

    Validity against the three compression conditions is checked by
    :func:`verify_compression`, not at construction.
    """

    source: DiGraph
    target: DiGraph
    assignment: Mapping[str, str]

    def apply(self, v: str) -> str:
        return self.assignment[v]

    def as_pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple((v, self.assignment[v]) for v in self.source.vertices)

    def to_json(self) -> dict:
        return {v: self.assignment[v] for v in self.source.vertices}


def identity_map(graph: DiGraph) -> CompressionMap:
    return CompressionMap(graph, graph, {v: v for v in graph.vertices})


# Per condition: the message of a violation, formatted from its witness.
_MESSAGES = {
    "not-surjective": "violation not-surjective: target vertex {0} has no preimage",
    "cond1": "violation cond1: image of arrow {0} {1} is not a target arrow",
    "cond2": "violation cond2: transitive triple ({0}, {1}, {2}) has no lift",
    "cond3-not-well-defined": "violation cond3: non-loop arrow {0} {1} collapses to a loop",
    "cond3-not-injective": "violation cond3: arrows {0[0]} {0[1]} and {1[0]} {1[1]} share an image",
}


@dataclass(frozen=True)
class CompressionVerdict:
    """Valid, or the first violated condition with a replayable witness."""

    valid: bool
    condition: Optional[str] = None
    witness: Optional[tuple] = None

    def describe(self) -> str:
        if self.valid:
            return "Valid"
        if self.condition not in _MESSAGES:
            return f"violation {self.condition}: {self.witness}"
        return _MESSAGES[self.condition].format(*self.witness)


VALID = CompressionVerdict(True)


def verify_compression(cmap: CompressionMap) -> CompressionVerdict:
    """Check the three compression conditions plus surjectivity.

    Conditions are tested in a fixed order (surjectivity, arrow
    preservation, triple lifting, arrow-map well-definedness, arrow-map
    injectivity) and the first failure wins, so verdicts are
    deterministic.  Within a condition, arrows and triples are scanned in
    vertex order.
    """
    src, tgt = cmap.source, cmap.target
    assignment = cmap.assignment
    tgt_index = tgt._index
    f = []  # f[i]: target index of the image of source vertex i
    for v in src.vertices:
        if v not in assignment:
            raise DomainMismatch(f"no image for source vertex {v}")
        t = tgt_index.get(assignment[v])
        if t is None:
            raise DomainMismatch(f"image {assignment[v]} of {v} is not a target vertex")
        f.append(t)
    for g, side in ((src, "source"), (tgt, "target")):
        if g._missing_loop is not None:
            raise NotReflexive(f"{side} vertex {g._missing_loop} has no loop")

    s_rows, s_labels = src._rows, src.vertices
    t_rows, t_labels = tgt._rows, tgt.vertices
    fibers = [0] * len(t_labels)  # fibers[t]: source vertices mapped onto t
    for i, t in enumerate(f):
        fibers[t] |= 1 << i
    for t, fiber in enumerate(fibers):
        if not fiber:
            return CompressionVerdict(False, "not-surjective", (t_labels[t],))

    # cond1: every head of u's arrows lies in the preimage of f(u)'s row
    preimage = []
    for row in t_rows:
        mask = 0
        for t in bits(row):
            mask |= fibers[t]
        preimage.append(mask)
    for u, row in enumerate(s_rows):
        bad = row & ~preimage[f[u]]
        if bad:
            return CompressionVerdict(False, "cond1", (s_labels[u], s_labels[_low(bad)]))

    # cond2: for each target arrow a1 -> a2, collect every x3 closing a
    # source triple x1 -> x2 -> x3 (with x1 -> x3) over the two fibers; a
    # target triple (a1, a2, a3) lifts iff that set meets a3's fiber
    for a1, r1 in enumerate(t_rows):
        f1 = fibers[a1]
        for a2 in bits(r1):
            f2 = fibers[a2]
            closing = 0
            for x1 in bits(f1):
                s1 = s_rows[x1]
                for x2 in bits(s1 & f2):
                    closing |= s1 & s_rows[x2]
            for a3 in bits(t_rows[a2] & r1):
                if not closing & fibers[a3]:
                    triple = (t_labels[a1], t_labels[a2], t_labels[a3])
                    return CompressionVerdict(False, "cond2", triple)

    # cond3: non-loop arrows map one-to-one onto non-loop target arrows
    m = len(t_labels)
    seen: dict[int, tuple[int, int]] = {}
    for u, row in enumerate(s_rows):
        fu = f[u]
        for v in bits(row & ~(1 << u)):
            fv = f[v]
            if fu == fv:
                return CompressionVerdict(
                    False, "cond3-not-well-defined", (s_labels[u], s_labels[v])
                )
            key = fu * m + fv
            first = seen.get(key)
            if first is not None:
                u1, v1 = first
                return CompressionVerdict(
                    False,
                    "cond3-not-injective",
                    ((s_labels[u1], s_labels[v1]), (s_labels[u], s_labels[v])),
                )
            seen[key] = (u, v)

    # Surjectivity of the induced arrow map is forced by condition 2 on
    # triples (a, b, b); a failure here would be an implementation bug.
    if len(seen) != sum(row.bit_count() for row in t_rows) - m:
        raise InternalInvariantBreached("arrow map not surjective after cond2 passed")
    return VALID


def compose(outer: CompressionMap, inner: CompressionMap) -> CompressionMap:
    """The map sending v to outer(inner(v)); inner's target must equal
    outer's source.  Validity is preserved under composition."""
    if inner.target != outer.source:
        raise ChainMismatch("inner target does not match outer source")
    assignment = {
        v: outer.assignment[inner.assignment[v]] for v in inner.source.vertices
    }
    return CompressionMap(inner.source, outer.target, assignment)


def _split_rows(rows: list[int], cols: list[int], x: int, tails: int, heads: int) -> int:
    """Split vertex ``x`` on bit rows ``rows`` and their transpose ``cols``,
    in place: append a vertex t with a loop, move a -> x over to a -> t for
    a in the mask ``tails`` and x -> b over to t -> b for b in ``heads``,
    and return t.  Rows and cols stay transposed when the masks avoid x
    and t."""
    t = len(rows)
    xbit, tbit = 1 << x, 1 << t
    rows.append(tbit | heads)
    cols.append(tbit | tails)
    rows[x] &= ~heads
    cols[x] &= ~tails
    for a in bits(tails):
        rows[a] = rows[a] & ~xbit | tbit
    for b in bits(heads):
        cols[b] = cols[b] & ~xbit | tbit
    return t


def split_vertex(
    graph: DiGraph,
    vertex: str,
    in_moved: Iterable[str],
    out_moved: Iterable[str],
    new_label: str,
) -> tuple[DiGraph, CompressionMap]:
    """Split ``vertex``: reroute the chosen in/out arrows to a fresh vertex.

    Arrows a -> vertex with a in ``in_moved`` become a -> new, and
    vertex -> b with b in ``out_moved`` become new -> b; the new vertex
    gets a loop and maps back onto ``vertex``.  The split is refused
    (InvalidSplit) unless the resulting map verifies as a compression.
    """
    i = graph.index(vertex)
    if new_label in graph:
        raise DuplicateVertex(new_label)
    ins = set(in_moved)
    outs = set(out_moved)
    in_nbrs = {graph.vertices[j] for j in bits(graph._cols[i])} - {vertex}
    out_nbrs = {graph.vertices[j] for j in bits(graph._rows[i])} - {vertex}
    if not ins <= in_nbrs:
        raise PreconditionViolated(
            f"in_moved contains non-predecessors of {vertex}: {sorted(ins - in_nbrs)}"
        )
    if not outs <= out_nbrs:
        raise PreconditionViolated(
            f"out_moved contains non-successors of {vertex}: {sorted(outs - out_nbrs)}"
        )
    rows, cols = list(graph._rows), list(graph._cols)
    _split_rows(rows, cols, i, _label_mask(graph, ins), _label_mask(graph, outs))
    vertices = graph.vertices + (new_label,)
    split = DiGraph._from_rows(vertices, tuple(rows), graph.name, tuple(cols))
    assignment = {v: v for v in graph.vertices}
    assignment[new_label] = vertex
    cmap = CompressionMap(split, graph, assignment)
    verdict = verify_compression(cmap)
    if not verdict.valid:
        raise InvalidSplit(verdict)
    return split, cmap


def parse_map_file(text: str, source: DiGraph, target: DiGraph) -> CompressionMap:
    """Read ``<source-vertex> <target-vertex>`` lines into a map.

    Source vertices omitted from the file default to the identically
    labeled target vertex when one exists; otherwise the file is rejected
    as non-total.
    """
    assignment: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected '<source> <target>', got {line!r}")
        s, t = parts
        if s not in source:
            raise ParseError(f"line {lineno}: unknown source vertex {s}")
        if t not in target:
            raise ParseError(f"line {lineno}: unknown target vertex {t}")
        if s in assignment:
            raise ParseError(f"line {lineno}: repeated mapping for {s}")
        assignment[s] = t
    for v in source.vertices:
        if v not in assignment:
            if v in target:
                assignment[v] = v
            else:
                raise DomainMismatch(
                    f"map file is not total: no image for source vertex {v}"
                )
    return CompressionMap(source, target, assignment)
