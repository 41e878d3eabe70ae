"""Iterated clasp splitting: expand a stable graph until it is preordered.

Each iteration fixes the least clasp x (in vertex order), computes its
context sets, splits x by one of two rewiring rules into x and a fresh
vertex t, and records what moved.  No non-loop arrow is ever added: the
rewiring moves arrows onto t, so the non-loop arrow count is invariant and
only vertices accumulate.  The run stops at the first preordered graph and
returns the composite map, which witnesses the input as a compression of
the result.

Both rewiring rules presuppose a stable graph whose clasps are all
unlocked; a locked clasp is a hard obstruction, reported as an error
before anything is touched.  The theorems that keep the graph stable and
free of locked clasps are also asserted at run time.  The loop splits in
place on mutable bit rows and, after each split, re-checks only what the
split can change:

- the step map (t to x, every other vertex fixed): arrows at x or t must
  map onto the old arrows at x one-to-one, with no loop lost, and every
  transitive triple of the old graph through x must lift;
- stability: every balance and stability quadruple with x or t in some
  slot;
- clasps and locks: the clasp and lock status of x, t and their
  neighbours, which also keeps the set of clasps up to date.

These local checks are exact, not sampled.  A split moves only arrows at
x and t, so any triple, quadruple or lock pattern that avoids both is the
same as in the previous graph, and that graph was stable and free of
locked clasps: the full precondition check establishes this on entry, and
the local checks carry it from split to split.  Any failure raises
InternalInvariantBreached.  The result graph and the composite map are
built once, at the end, and checked in full once per run: the result must
be preordered, the composite map must verify as a compression, and the
non-loop arrow count must equal the input's.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Optional

from .compression import CompressionMap, _split_rows, verify_compression
from .digraph import DiGraph, _label_mask, _low, bits, emit_digraph
from .errors import InternalInvariantBreached, LockedClasp, NotStable, PreconditionViolated
from .predicates import (
    _clasp_witness,
    _lock_witness,
    _stable_witness_at,
    clasps,
    is_preordered,
    is_stable,
)


@dataclass(frozen=True)
class ClaspContext:
    """The two vertex sets steering one iteration around clasp ``clasp``.

    ``witness_heads`` are the successors y of the clasp such that some
    predecessor w of the clasp misses the chord w -> y; nonempty exactly
    when the vertex is a clasp.  ``triple_tails`` are the predecessors a
    forming a transitive triple (a, clasp, y) onto some witness head y.
    """

    clasp: str
    witness_heads: tuple[str, ...]
    triple_tails: tuple[str, ...]


@dataclass(frozen=True)
class ConstructionChoice:
    """Which rewiring rule applies, with the selection witnesses for B.

    Rule B is chosen when some triple tail (``kept_tail``) rides a
    transitive triple onto ``pivot_head`` while another (``detour_tail``)
    misses its chord to that head; otherwise rule A.
    """

    kind: str  # "A" or "B"
    detour_tail: Optional[str] = None
    kept_tail: Optional[str] = None
    pivot_head: Optional[str] = None


@dataclass(frozen=True)
class IterationRecord:
    """Ledger of one split: the arrows into the clasp from ``tails`` and out
    of it to ``heads`` (labels in vertex order) move to the new vertex."""

    index: int
    clasp: str
    context: ClaspContext
    choice: ConstructionChoice
    moved_pairs: Optional[tuple[tuple[str, str], ...]]  # rule B: (c, z) pairs
    tails: tuple[str, ...]
    heads: tuple[str, ...]
    new_vertex: str

    def _arrows_at(self, v: str) -> tuple[tuple[str, str], ...]:
        """The arrows a -> v and v -> b for the tails a and the heads b."""
        return tuple((a, v) for a in self.tails) + tuple((v, b) for b in self.heads)

    removed = property(lambda self: self._arrows_at(self.clasp))
    added = property(lambda self: self._arrows_at(self.new_vertex))

    def apply(self, graph: DiGraph) -> DiGraph:
        """The graph this split turns ``graph`` into: the new vertex comes
        last, with a loop, and takes over the moved arrows."""
        rows, cols = list(graph._rows), list(graph._cols)
        tails, heads = _label_mask(graph, self.tails), _label_mask(graph, self.heads)
        _split_rows(rows, cols, graph.index(self.clasp), tails, heads)
        vertices = graph.vertices + (self.new_vertex,)
        return DiGraph._from_rows(vertices, tuple(rows), graph.name, tuple(cols))

    def to_json(self) -> dict:
        record: dict = {
            "index": self.index,
            "clasp": self.clasp,
            "construction": self.choice.kind,
            "Y": list(self.context.witness_heads),
            "A": list(self.context.triple_tails),
        }
        if self.choice.kind == "A":
            record["B"] = list(self.heads)
        else:
            record["T"] = [list(p) for p in (self.moved_pairs or ())]
            record["witness"] = {
                "a": self.choice.detour_tail,
                "b": self.choice.kept_tail,
                "y": self.choice.pivot_head,
            }
        record["removed"] = [list(p) for p in self.removed]
        record["added"] = [list(p) for p in self.added]
        record["new_vertex"] = self.new_vertex
        return record


@dataclass(frozen=True)
class ExpansionOutcome:
    """A preordered expansion with its composite map and full trace."""

    result: DiGraph
    mapping: CompressionMap
    trace: tuple[IterationRecord, ...]

    @property
    def iterations(self) -> int:
        return len(self.trace)

    def to_json(self) -> dict:
        return {
            "input": emit_digraph(self.mapping.target, "dg"),
            "iterations": [r.to_json() for r in self.trace],
            "result": emit_digraph(self.result, "dg"),
            "map": self.mapping.to_json(),
        }


_ITEM = "\n        "  # the indent of a list item inside a trace record


def _json_list(codes: list[str]) -> str:
    """JSON texts as a list inside a trace record, laid out as
    ``json.dumps(..., indent=2)`` lays it out."""
    return "[" + _ITEM + ("," + _ITEM).join(codes) + "\n      ]" if codes else "[]"


def _json_pairs(pairs) -> str:
    return _json_list([f"[{_ITEM}  {a},{_ITEM}  {b}{_ITEM}]" for a, b in pairs])


def _trace_text(outcome: ExpansionOutcome, result_text: str) -> str:
    """``json.dumps(outcome.to_json(), indent=2) + "\\n"``, byte for byte,
    written straight from the records; ``result_text`` is the result's dg
    text.  Strings are encoded in C, as ``json`` encodes them."""
    enc = encode_basestring_ascii
    records = []
    for r in outcome.trace:
        choice = r.choice
        clasp, new_vertex = enc(r.clasp), enc(r.new_vertex)
        tails, heads = list(map(enc, r.tails)), list(map(enc, r.heads))
        fields = [
            f'"index": {r.index:d}',
            '"clasp": ' + clasp,
            '"construction": ' + enc(choice.kind),
            '"Y": ' + _json_list(list(map(enc, r.context.witness_heads))),
            '"A": ' + _json_list(list(map(enc, r.context.triple_tails))),
        ]
        if choice.kind == "A":
            fields.append('"B": ' + _json_list(heads))
        else:
            fields.append('"T": ' + _json_pairs([(enc(c), enc(z)) for c, z in r.moved_pairs or ()]))
            witness = (choice.detour_tail, choice.kept_tail, choice.pivot_head)
            entries = ("," + _ITEM).join(f'"{k}": {enc(v)}' for k, v in zip("aby", witness))
            fields.append('"witness": {' + _ITEM + entries + "\n      }")
        for key, v in (("removed", clasp), ("added", new_vertex)):
            arrows = [(a, v) for a in tails] + [(v, b) for b in heads]
            fields.append(f'"{key}": ' + _json_pairs(arrows))
        fields.append('"new_vertex": ' + new_vertex)
        records.append("{\n      " + ",\n      ".join(fields) + "\n    }")
    iterations = "[\n    " + ",\n    ".join(records) + "\n  ]" if records else "[]"
    assignment = outcome.mapping.assignment
    pairs = [enc(v) + ": " + enc(assignment[v]) for v in outcome.mapping.source.vertices]
    mapping = "{\n    " + ",\n    ".join(pairs) + "\n  }" if pairs else "{}"
    return (
        '{\n  "input": ' + enc(emit_digraph(outcome.mapping.target, "dg"))
        + ',\n  "iterations": ' + iterations
        + ',\n  "result": ' + enc(result_text)
        + ',\n  "map": ' + mapping + "\n}\n"
    )


def _clasp_context(graph: DiGraph, vertex: str) -> ClaspContext:
    """The witness heads and triple tails of a clasp.  The loop passes only
    vertices of its clasp mask, so a non-clasp here is a bug.  No
    reflexivity scan: it costs O(n) per split, and the split loop checks
    the loops at x and t itself."""
    i = graph.index(vertex)
    rows = graph._rows
    cols = graph._cols
    labels = graph.vertices
    ibit = 1 << i
    ins_any = cols[i]
    # each mask is walked once, inline, and the labels listed on the way
    heads, head_mask = [], 0
    outs = rows[i] & ~ibit
    while outs:
        y = (outs & -outs).bit_length() - 1
        if ins_any & ~cols[y]:
            head_mask |= 1 << y
            heads.append(labels[y])
        outs &= outs - 1
    if not head_mask:
        raise InternalInvariantBreached(f"{vertex} is not a clasp")
    tails = []
    ins = ins_any & ~ibit
    while ins:
        a = (ins & -ins).bit_length() - 1
        if rows[a] & head_mask:
            tails.append(labels[a])
        ins &= ins - 1
    return ClaspContext(vertex, tuple(heads), tuple(tails))


_RULE_A = ConstructionChoice("A")


def select_construction(graph: DiGraph, vertex: str, ctx: ClaspContext) -> ConstructionChoice:
    """Pick rule B when its witnesses exist, else rule A.

    Witnesses are chosen deterministically: least pivot head in vertex
    order, then least kept tail, then least detour tail.
    """
    if not ctx.triple_tails:
        # rule B needs a kept tail and a detour tail
        return _RULE_A
    cols = graph._cols
    tail_mask = _label_mask(graph, ctx.triple_tails)
    labels = graph.vertices
    for y_label in ctx.witness_heads:
        y = graph.index(y_label)
        kept = tail_mask & cols[y]
        detour = tail_mask & ~cols[y]
        if kept and detour:
            return ConstructionChoice(
                "B",
                detour_tail=labels[_low(detour)],
                kept_tail=labels[_low(kept)],
                pivot_head=y_label,
            )
    return _RULE_A


def construction_a(
    graph: DiGraph,
    vertex: str,
    ctx: ClaspContext,
    choice: ConstructionChoice,
    new_vertex: str,
    index: int = 1,
) -> IterationRecord:
    """Rule A: move every triple tail's arrow into the clasp, and the
    clasp's arrows onto every successor reachable through a witness head,
    over to the fresh vertex.

    ``ctx`` and ``choice`` are the clasp's context and the rule selected
    for it; apply the returned record to get the split graph.
    """
    if choice.kind != "A":
        raise PreconditionViolated("rule B witnesses exist; rule A does not apply")
    i = graph.index(vertex)
    rows = graph._rows
    cols = graph._cols
    labels = graph.vertices
    head_mask = _label_mask(graph, ctx.witness_heads)
    moved, heads = 0, []
    outs = rows[i] & ~(1 << i)
    while outs:
        b = (outs & -outs).bit_length() - 1
        # (vertex, b, y): b -> y for a witness head, or (vertex, y, b): y -> b.
        if rows[b] & head_mask or cols[b] & head_mask:
            moved |= 1 << b
            heads.append(labels[b])
        outs &= outs - 1
    if head_mask & ~moved:
        raise InternalInvariantBreached("witness heads escaped the moved set")
    return IterationRecord(
        index, vertex, ctx, choice, None, ctx.triple_tails, tuple(heads), new_vertex
    )


def construction_b(
    graph: DiGraph,
    vertex: str,
    ctx: ClaspContext,
    choice: ConstructionChoice,
    new_vertex: str,
    index: int = 1,
) -> IterationRecord:
    """Rule B: detour every transitive triple (c, vertex, z) whose tail c
    misses the chord to the pivot head through the fresh vertex.

    ``ctx`` is the clasp's context and ``choice`` a rule B choice whose
    pivot head is one of its witness heads (not necessarily the one
    ``select_construction`` picks); apply the returned record to get the
    split graph.
    """
    pivot_head = choice.pivot_head
    if not (
        choice.kind == "B"
        and pivot_head in ctx.witness_heads
        and choice.kept_tail in ctx.triple_tails
        and choice.detour_tail in ctx.triple_tails
        and graph.has_arrow(choice.kept_tail, pivot_head)
        and not graph.has_arrow(choice.detour_tail, pivot_head)
    ):
        raise PreconditionViolated(
            f"rule B does not apply at {vertex} with pivot head {pivot_head}"
        )
    i = graph.index(vertex)
    rows = graph._rows
    cols = graph._cols
    labels = graph.vertices
    ibit = 1 << i
    pairs = []
    tail_mask = head_mask = 0
    for c in bits(cols[i] & ~cols[graph.index(pivot_head)] & ~ibit):
        zs = rows[i] & rows[c] & ~ibit
        if zs:
            tail_mask |= 1 << c
            head_mask |= zs
            pairs.extend((labels[c], labels[z]) for z in bits(zs))
    if not pairs:
        raise InternalInvariantBreached("rule B selected but no arrows to detour")
    tails = tuple(labels[c] for c in bits(tail_mask))
    heads = tuple(labels[z] for z in bits(head_mask))
    return IterationRecord(index, vertex, ctx, choice, tuple(pairs), tails, heads, new_vertex)


def _fresh_vertex(graph: DiGraph, start: int) -> tuple[str, int]:
    """Smallest unused t<k> label at or after ``start``."""
    k = start
    while f"t{k}" in graph:
        k += 1
    return f"t{k}", k + 1


def _check_preconditions(graph: DiGraph) -> int:
    """Raise unless ``graph`` is stable with every clasp unlocked; return
    the bitmask of the clasps."""
    stable, witness = is_stable(graph)
    if not stable:
        raise NotStable(witness)
    records = clasps(graph)
    for record in records:
        if record.locked:
            raise LockedClasp(record.vertex, record.lock_witness)
    return _label_mask(graph, (record.vertex for record in records))


def _check_step_map(state: _SplitState, x: int, t: int, old_row: int, old_col: int) -> None:
    """Verify the step map t -> x, every other vertex fixed, where the split
    of ``x`` into ``t`` can break it; ``old_row`` and ``old_col`` are x's
    rows before the split.

    Arrows that avoid x and t map to themselves, and a transitive triple
    of the old graph that avoids x lifts to itself, so only arrows at x or
    t and triples through x need a look.
    """
    rows, cols = state._rows, state._cols
    rx, rt, cx, ct = rows[x], rows[t], cols[x], cols[t]
    xbit, tbit = 1 << x, 1 << t
    xt = xbit | tbit
    label = state.vertices[x]
    if rx & tbit or rt & xbit:
        raise InternalInvariantBreached(f"step map at {label}: an arrow collapses to a loop")
    if (rx & rt | cx & ct) & ~xt:
        raise InternalInvariantBreached(f"step map at {label}: two arrows share an image")
    if not (rx & xbit and rt & tbit):
        raise InternalInvariantBreached(f"step map at {label}: a loop is missing")
    # conditions 1 and 3 at x: the arrows at x and t map exactly onto the
    # old arrows at x; both masks hold both loops, so the image drops t
    if (rx | rt) & ~tbit != old_row or (cx | ct) & ~tbit != old_col:
        raise InternalInvariantBreached(f"step map at {label}: arrows at the clasp not preserved")
    # each innermost slot is one mask of the old vertices that fail to lift,
    # in the order (x, b, c), then per a: (a, x, c) and (a, b, x).  By the
    # checks above, every old neighbour of x other than x is a neighbour of
    # exactly one of x and t, so one row or column closes its triples, and
    # a mask holding t maps onto x.  b = x is skipped: (x, x, c) lifts to
    # itself, since rows[x] | rows[t] maps onto old_row.
    for b in bits(old_row & ~xbit):
        row_b = rows[b]
        closing = (rt if rt >> b & 1 else rx) & row_b
        if closing & tbit:
            closing = closing & ~tbit | xbit
        out_b = row_b & ~xt | (old_col >> b & 1) << x
        if bad := old_row & out_b & ~closing:
            raise _no_lift(state, label, x, b, _low(bad))
    for a in bits(old_col):
        if a == x:
            row_a, middles = old_row, rx & cx | rt & ct
        else:
            row_p = rows[a]
            if row_p & xbit:
                closing, middles = row_p & rx, row_p & cx
            else:
                closing, middles = row_p & rt, row_p & ct
            if closing & tbit:
                closing = closing & ~tbit | xbit
            row_a = row_p & ~xt | xbit
            if bad := old_row & row_a & ~closing:
                raise _no_lift(state, label, a, x, _low(bad))
        if middles & tbit:
            middles = middles & ~tbit | xbit
        if bad := row_a & old_col & ~middles:
            raise _no_lift(state, label, a, _low(bad), x)


def _no_lift(state: _SplitState, label: str, a: int, b: int, c: int) -> InternalInvariantBreached:
    names = ", ".join(state.vertices[v] for v in (a, b, c))
    return InternalInvariantBreached(f"step map at {label}: triple ({names}) has no lift")


class _SplitState:
    """The graph under expansion as mutable bit rows, split in place.

    Offers the read interface of ``DiGraph`` that the rule functions and
    ``_fresh_vertex`` use (``vertices``, ``_rows``, ``_cols``, ``index``,
    ``has_arrow``, ``in``), so they run on it unchanged.  ``parent[i]`` is
    the vertex that vertex i was split from (i itself for an input
    vertex); ``clasp_mask`` has a bit per clasp.
    """

    def __init__(self, graph: DiGraph, clasp_mask: int):
        self.source = graph
        self.vertices = list(graph.vertices)
        self._index = dict(graph._index)
        self._rows = list(graph._rows)
        self._cols = list(graph._cols)
        self.parent = list(range(len(self.vertices)))
        self.clasp_mask = clasp_mask
        self._next_name = 1

    index = DiGraph.index
    has_arrow = DiGraph.has_arrow
    __contains__ = DiGraph.__contains__

    def split(self, x: int, index: int) -> IterationRecord:
        """Split clasp ``x`` into a fresh vertex, then re-check locally."""
        vertex = self.vertices[x]
        new_vertex, self._next_name = _fresh_vertex(self, self._next_name)
        ctx = _clasp_context(self, vertex)
        choice = select_construction(self, vertex, ctx)
        rule = construction_a if choice.kind == "A" else construction_b
        record = rule(self, vertex, ctx, choice, new_vertex, index)
        rows, cols = self._rows, self._cols
        old_row, old_col = rows[x], cols[x]
        tails, heads = _label_mask(self, record.tails), _label_mask(self, record.heads)
        t = _split_rows(rows, cols, x, tails, heads)
        self.vertices.append(new_vertex)
        self._index[new_vertex] = t
        self.parent.append(x)
        _check_step_map(self, x, t, old_row, old_col)
        for p in (x, t):
            witness = _stable_witness_at(self, p)
            if witness is not None:
                raise InternalInvariantBreached(f"split produced an unstable graph: {witness}")
        # a vertex's clasp and lock status reads only arrows at it and its
        # neighbours, so only x, t and their old or new neighbours can change
        for v in bits(old_row | old_col | rows[x] | cols[x] | rows[t] | cols[t]):
            if _clasp_witness(self, v) is None:
                self.clasp_mask &= ~(1 << v)
            elif _lock_witness(self, v) is not None:
                raise InternalInvariantBreached(
                    f"split produced a locked clasp at {self.vertices[v]}"
                )
            else:
                self.clasp_mask |= 1 << v
        return record

    def graph(self) -> DiGraph:
        """The current graph; the input graph itself when nothing was split.
        The graph shares the label index, so no split may follow."""
        if len(self.vertices) == len(self.source.vertices):
            return self.source
        vertices, rows, cols = tuple(self.vertices), tuple(self._rows), tuple(self._cols)
        return DiGraph._from_rows(vertices, rows, self.source.name, cols, self._index)

    def mapping(self, result: DiGraph) -> CompressionMap:
        """The composite map from ``result`` onto the input graph."""
        root = []
        for i, p in enumerate(self.parent):
            root.append(i if p == i else root[p])
        labels = self.vertices
        assignment = {v: labels[r] for v, r in zip(labels, root)}
        return CompressionMap(result, self.source, assignment)


def expand_to_preorder(graph: DiGraph) -> ExpansionOutcome:
    """Split the least clasp repeatedly until the graph is preordered.

    Termination is capped at |V| + 2|A*| iterations of the input; the
    counting argument behind the algorithm keeps every vertex incident to
    a non-loop arrow while the non-loop arrow count stays fixed, so the
    vertex count cannot grow past that bound.  Exceeding the cap, or any
    failed re-check along the way, raises InternalInvariantBreached.
    """
    state = _SplitState(graph, _check_preconditions(graph))
    arrows = graph.arrow_count(include_loops=False)
    cap = len(graph.vertices) + 2 * arrows
    trace: list[IterationRecord] = []
    while state.clasp_mask:
        if len(trace) >= cap:
            raise InternalInvariantBreached(
                f"expansion did not stop within {cap} iterations"
            )
        least = state.clasp_mask & -state.clasp_mask
        trace.append(state.split(least.bit_length() - 1, len(trace) + 1))
    result = state.graph()
    if not is_preordered(result):
        raise InternalInvariantBreached("graph is not preordered yet has no clasp")
    composite = state.mapping(result)
    verdict = verify_compression(composite)
    if not verdict.valid:
        raise InternalInvariantBreached(f"composite map invalid: {verdict.describe()}")
    if result.arrow_count(include_loops=False) != arrows:
        raise InternalInvariantBreached("non-loop arrow count changed")
    return ExpansionOutcome(result, composite, tuple(trace))
