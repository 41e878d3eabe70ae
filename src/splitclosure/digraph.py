"""Directed-graph value type, derived graphs, isomorphism, and text I/O.

A ``DiGraph`` is immutable after construction.  Loops are stored explicitly:
nothing is ever implied by reflexivity, so non-reflexive inputs stay visible
and can be reported instead of silently repaired.  The listing order of the
vertices defines the total order used for every deterministic tie-break in
the rest of the package.

Adjacency is kept as per-vertex bit rows (successor and predecessor masks)
because every algorithm here tests arrow membership in tight loops.
"""

from __future__ import annotations

import functools
import itertools
import re
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import (
    BoundExceeded,
    DuplicateArrow,
    DuplicateVertex,
    ParseError,
    UnknownVertex,
)


class Arrow(NamedTuple):
    tail: str
    head: str


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@functools.cache
def _byte_bits() -> tuple[tuple[int, ...], ...]:
    """The set bit positions of every mask below 256, built on first use."""
    return tuple(tuple(bits(mask)) for mask in range(256))


def _bit_list(mask: int) -> list[int]:
    """The set bit positions of ``mask`` in increasing order, as a list:
    about as cheap as ``bits`` to walk once, and cheaper for a mask that
    is walked more than once."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# Per vertex, its non-loop heads in increasing order; read-only
_Heads = tuple[Sequence[int], ...]


def _heads_of(rows: tuple[int, ...]) -> _Heads:
    """The heads of bit rows.  A whole-graph scan walks each vertex's heads
    several times, and that is several times cheaper than ``bits``."""
    if len(rows) <= 8:
        # every row is below 256, and a table lookup costs less than the
        # generator: the census builds heads for thousands of tiny graphs
        table = _byte_bits()
        return tuple([table[row & ~(1 << i)] for i, row in enumerate(rows)])
    # lists: CPython 3.11 keeps up to 2,000 freed tuples per length below
    # 20, so tuples held 0.8 MB more resident memory on inspect-large
    return tuple([_bit_list(row & ~(1 << i)) for i, row in enumerate(rows)])


def _low(mask: int) -> int:
    """The lowest set bit position of a nonzero ``mask``."""
    return (mask & -mask).bit_length() - 1


def _label_mask(graph: DiGraph, labels: Iterable[str]) -> int:
    """The bitmask of ``labels`` in ``graph``'s vertex order."""
    mask = 0
    for v in labels:
        mask |= 1 << graph.index(v)
    return mask


def _label_index(vertices: tuple[str, ...]) -> dict[str, int]:
    """Position of each label; raises at the first invalid or repeated one.

    A label is invalid when it is empty, holds whitespace or starts with
    ``#``.
    """
    index: dict[str, int] = {}
    for i, v in enumerate(vertices):
        # split() gives back [v] exactly when v is a non-empty, whitespace-free word
        if v.split() != [v] or v[0] == "#":
            raise ValueError(f"invalid vertex label {v!r}")
        if v in index:
            raise DuplicateVertex(v)
        index[v] = i
    return index


def _transpose(rows: tuple[int, ...]) -> tuple[int, ...]:
    cols = [0] * len(rows)
    for i, row in enumerate(rows):
        bit = 1 << i
        for j in bits(row):
            cols[j] |= bit
    return tuple(cols)


class DiGraph:
    """A finite directed graph: ordered vertex labels plus a set of arrows.

    Vertex labels are non-empty, whitespace-free strings that do not start
    with ``#`` (the dg comment marker) and must be distinct.  Arrows are
    ordered pairs of listed labels; loops ``(v, v)`` are ordinary arrows.
    The arrows are stored only as bit rows: ``_rows[i]`` has bit j set
    for the arrow from vertex i to vertex j, and ``_cols`` is its
    transpose.  ``arrows``, the set of label pairs, is derived from the
    rows on first use.  Equality and hashing are structural (vertex
    sequence and bit rows, which is the same as vertex sequence and arrow
    set); the optional ``name`` is carried along but ignored by
    comparisons.
    """

    def __init__(
        self,
        vertices: Iterable[str],
        arrows: Iterable[tuple[str, str]] = (),
        name: Optional[str] = None,
    ):
        vertices = tuple(vertices)
        index = _label_index(vertices)
        rows = [0] * len(vertices)
        for u, w in arrows:
            iu = index.get(u)
            if iu is None:
                raise UnknownVertex(u)
            iw = index.get(w)
            if iw is None:
                raise UnknownVertex(w)
            rows[iu] |= 1 << iw
        self._set(vertices, index, tuple(rows), None, name)

    @classmethod
    def _from_rows(
        cls,
        vertices: tuple[str, ...],
        rows: tuple[int, ...],
        name: Optional[str] = None,
        cols: Optional[tuple[int, ...]] = None,
        index: Optional[dict[str, int]] = None,
    ) -> DiGraph:
        """The graph with these labels and bit rows; ``cols``, when given,
        must be the transpose of ``rows``, and ``index`` the position of
        each label, all valid and distinct.  Does not call ``__init__``."""
        graph = cls.__new__(cls)
        index = _label_index(vertices) if index is None else index
        graph._set(vertices, index, rows, cols, name)
        return graph

    def _set(self, vertices, index, rows, cols, name) -> None:
        self.name = name
        self.vertices = vertices
        self._index = index
        self._rows = rows
        self._cols = _transpose(rows) if cols is None else cols

    @functools.cached_property
    def arrows(self) -> frozenset[tuple[str, str]]:
        """Every arrow as a (tail, head) label pair, derived once."""
        labels = self.vertices
        return frozenset(
            (u, labels[j]) for u, row in zip(labels, self._rows) for j in bits(row)
        )

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return self.vertices == other.vertices and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.vertices, self._rows))

    def __contains__(self, v: str) -> bool:
        return v in self._index

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<DiGraph{label} |V|={len(self.vertices)} |A|={self.arrow_count()}>"

    # -- adjacency --------------------------------------------------------

    def index(self, v: str) -> int:
        """Position of ``v`` in the vertex order; raises UnknownVertex."""
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertex(v) from None

    def has_arrow(self, u: str, v: str) -> bool:
        return (self._rows[self.index(u)] >> self.index(v)) & 1 == 1

    def out_neighbors(self, v: str) -> tuple[str, ...]:
        return tuple(self.vertices[j] for j in bits(self._rows[self.index(v)]))

    def in_neighbors(self, v: str) -> tuple[str, ...]:
        return tuple(self.vertices[j] for j in bits(self._cols[self.index(v)]))

    def sorted_arrows(self, include_loops: bool = True) -> list[Arrow]:
        """Arrows ordered by (tail position, head position)."""
        out = []
        for i, u in enumerate(self.vertices):
            row = self._rows[i]
            for j in bits(row if include_loops else row & ~(1 << i)):
                out.append(Arrow(u, self.vertices[j]))
        return out

    def arrow_count(self, include_loops: bool = True) -> int:
        total = sum(row.bit_count() for row in self._rows)
        if include_loops:
            return total
        return total - sum((row >> i) & 1 for i, row in enumerate(self._rows))

    @functools.cached_property
    def _missing_loop(self) -> Optional[str]:
        """First vertex (in order) without a loop, or None; the one
        reflexivity scan, run at most once per graph."""
        for i, row in enumerate(self._rows):
            if not (row >> i) & 1:
                return self.vertices[i]
        return None

    @functools.cached_property
    def _heads(self) -> _Heads:
        """``_heads_of`` the bit rows, built at most once per graph."""
        return _heads_of(self._rows)

    def is_reflexive(self) -> bool:
        return self._missing_loop is None

    # -- derived graphs ----------------------------------------------------

    def star(self) -> DiGraph:
        """Same vertices, loops dropped."""
        rows = tuple(row & ~(1 << i) for i, row in enumerate(self._rows))
        return DiGraph._from_rows(self.vertices, rows, self.name)

    def induced(self, subset: Iterable[str]) -> DiGraph:
        """Induced subgraph on ``subset``, in this graph's vertex order."""
        order = sorted({self.index(v) for v in subset})
        rows = tuple(
            sum(1 << k for k, j in enumerate(order) if (self._rows[i] >> j) & 1)
            for i in order
        )
        return DiGraph._from_rows(tuple(self.vertices[i] for i in order), rows, self.name)

    def transitive_closure(self) -> DiGraph:
        """Smallest transitive supergraph on the same vertices (Warshall)."""
        n = len(self.vertices)
        rows = list(self._rows)
        for k in range(n):
            bit = 1 << k
            rk = rows[k]
            for i in range(n):
                if rows[i] & bit:
                    rows[i] |= rk
        return DiGraph._from_rows(self.vertices, tuple(rows), self.name)


# -- isomorphism -----------------------------------------------------------


def _packed_matrix(rows: tuple[int, ...], order: Iterable[int]) -> int:
    """Adjacency matrix of the vertices at ``order`` (a sequence of indices
    into the bit rows), row-major, first cell most significant."""
    packed = 0
    for i in order:
        row = rows[i]
        for j in order:
            packed = (packed << 1) | ((row >> j) & 1)
    return packed


@functools.lru_cache(maxsize=4096)
def _canonical_packed(n: int, packed: int) -> tuple[int, tuple[int, ...]]:
    """Lexicographically minimal packed matrix over all vertex relabelings,
    and the first ordering that reaches it: canonical position i holds
    vertex ``order[i]``.  Raises BoundExceeded above 8 vertices."""
    if n > 8:
        raise BoundExceeded(f"isomorphism search on {n} vertices exceeds the bound 8")
    cells = [(packed >> (n * n - 1 - (i * n + j))) & 1 for i in range(n) for j in range(n)]
    best = order = None
    for perm in itertools.permutations(range(n)):
        cand = 0
        for i in range(n):
            pi = perm[i]
            for j in range(n):
                cand = (cand << 1) | cells[pi * n + perm[j]]
            if best is not None and cand > (best >> (n * (n - 1 - i))):
                break
        else:
            if best is None or cand < best:
                best, order = cand, perm
    assert best is not None and order is not None
    return best, order


def canonical_form(graph: DiGraph) -> tuple[int, int]:
    """A label-independent key: two graphs are isomorphic iff keys match.
    Brute force over all orderings, so bounded at 8 vertices."""
    n = len(graph.vertices)
    return n, _canonical_packed(n, _packed_matrix(graph._rows, range(n)))[0]


def is_isomorphic(first: DiGraph, second: DiGraph) -> Optional[dict[str, str]]:
    """A bijection carrying the arrows of ``first`` exactly onto those of
    ``second``, or None when the graphs are not isomorphic.  Compare the
    result with ``is not None``: two empty graphs give ``{}``, which is
    falsy.

    Both graphs are canonically ordered; when the canonical matrices match,
    the vertices at equal canonical positions correspond.  Bounded like
    :func:`canonical_form`.
    """
    n = len(first.vertices)
    if n != len(second.vertices):
        return None
    best1, order1 = _canonical_packed(n, _packed_matrix(first._rows, range(n)))
    best2, order2 = _canonical_packed(n, _packed_matrix(second._rows, range(n)))
    if best1 != best2:
        return None
    return {first.vertices[i]: second.vertices[j] for i, j in zip(order1, order2)}


def is_star_acyclic(graph: DiGraph) -> bool:
    """True iff the graph with loops removed has no directed cycle."""
    # Kahn's peeling: a vertex is ready once all its tails are peeled, and
    # the loop below visits the vertices it appends as it goes
    indegree = [(col & ~(1 << i)).bit_count() for i, col in enumerate(graph._cols)]
    ready = [i for i, d in enumerate(indegree) if not d]
    for i in ready:
        for j in bits(graph._rows[i] & ~(1 << i)):
            indegree[j] -= 1
            if not indegree[j]:
                ready.append(j)
    return len(ready) == len(indegree)


# -- dg / DOT text formats --------------------------------------------------


def parse_digraph(text: str) -> DiGraph:
    """Parse the line-oriented dg format.

    Layout, in order: optional ``digraph: <name>``, required
    ``vertices: <lbl> ...``, optional ``loops: auto|explicit`` (default
    auto), required ``arrows:`` followed by ``<tail> <head>`` lines.
    Comment lines starting with ``#`` and blank lines may appear anywhere.
    Under ``loops: auto`` every loop is added; ``explicit`` takes the arrow
    list verbatim.

    Errors come in a fixed order: a faulty line first (the earliest one),
    then an invalid or repeated vertex label, then the first arrow
    endpoint, in file order, that is not a listed vertex.
    """
    name: Optional[str] = None
    vertices: Optional[list[str]] = None
    loops_mode: Optional[str] = None
    lines = enumerate(text.splitlines(), start=1)

    for lineno, raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("digraph:"):
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
            break
        else:
            raise ParseError(f"line {lineno}: unrecognized line {line!r}")
    else:
        raise ParseError("missing 'arrows:' section")

    # every remaining line is an arrow line; a repeated label is reported
    # only after them, so each label keeps one (its last) position here
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    rows = [0] * n
    cols = [0] * n
    unknown: Optional[str] = None  # first endpoint that is not listed
    unlisted: set[tuple[str, str]] = set()  # arrows with such an endpoint
    for lineno, raw in lines:
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected '<tail> <head>', got {raw.strip()!r}")
        tail, head = parts
        i = index.get(tail)
        j = index.get(head)
        if i is None or j is None:
            repeated = (tail, head) in unlisted
            unlisted.add((tail, head))
            if unknown is None:
                unknown = tail if i is None else head
        else:
            bit = 1 << j
            repeated = rows[i] & bit
            rows[i] |= bit
            cols[j] |= 1 << i
        if repeated:
            raise DuplicateArrow(f"line {lineno}: arrow {tail} {head} repeated")
    if loops_mode != "explicit":
        for i in range(n):
            rows[i] |= 1 << i
            cols[i] |= 1 << i
    # split() and the '#' check above leave only a repeated label invalid;
    # then _from_rows rebuilds the index, which raises DuplicateVertex
    valid = index if len(index) == n else None
    graph = DiGraph._from_rows(tuple(vertices), tuple(rows), name, tuple(cols), valid)
    if unknown is not None:
        raise UnknownVertex(unknown)
    return graph


# DOT identifiers that need no quotes: a word of letters, digits and
# underscores that does not start with a digit (every non-ASCII character
# counts as a letter) or a numeral, but no keyword.  Matched through re's
# pattern cache, so importing the module compiles nothing.
_DOT_ID = r"(?![0-9])(?:[A-Za-z_0-9]|[^\x00-\x7f])+|-?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)"
_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})


def emit_digraph(graph: DiGraph, fmt: str = "dg") -> str:
    """Render the graph as dg or DOT text, deterministically.

    dg output round-trips through :func:`parse_digraph` to an equal graph.
    DOT output lists non-loop arrows only.
    """
    if fmt == "dg":
        lines = []
        if graph.name:
            lines.append(f"digraph: {graph.name}")
        lines.append(("vertices: " + " ".join(graph.vertices)).rstrip())
        reflexive = graph.is_reflexive()
        lines.append("loops: auto" if reflexive else "loops: explicit")
        lines.append("arrows:")
        labels = graph.vertices
        heads = graph._heads if reflexive else [list(bits(row)) for row in graph._rows]
        lines += [f"{labels[i]} {labels[j]}" for i, hs in enumerate(heads) for j in hs]
        return "\n".join(lines) + "\n"
    if fmt == "dot":

        def quoted(label: str) -> str:
            return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'

        name = graph.name or "G"
        if not re.fullmatch(_DOT_ID, name) or name.lower() in _DOT_KEYWORDS:
            name = quoted(name)
        lines = [f"digraph {name} {{"]
        for u, v in graph.sorted_arrows(include_loops=False):
            lines.append(f"  {quoted(u)} -> {quoted(v)};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
