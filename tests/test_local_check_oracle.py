"""Differential oracles for the expansion loop's two mask-level local checks.

``_check_step_map`` tests each triple slot through the split vertex as
one mask, and ``_stable_witness_at`` tests the innermost slot of each
balance and stability pattern as one mask.  The references here are the
same checks written one triple, and one innermost vertex, at a time: the
verdict, the first witness and the error message must agree with them.
"""

from __future__ import annotations

import random
from types import SimpleNamespace
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from splitclosure import DiGraph, InternalInvariantBreached
from splitclosure.compression import _split_rows
from splitclosure.digraph import bits
from splitclosure.expansion import _check_step_map
from splitclosure.predicates import StableWitness, _stable_witness_at

# -- references ----------------------------------------------------------------


def reference_check_step_map(state, x: int, t: int, old_row: int, old_col: int) -> None:
    """The step map t -> x checked triple by triple."""
    rows, cols = state._rows, state._cols
    xbit, tbit = 1 << x, 1 << t

    def image(mask: int) -> int:
        return (mask | xbit) & ~tbit if mask & tbit else mask

    label = state.vertices[x]
    if rows[x] & tbit or rows[t] & xbit:
        raise InternalInvariantBreached(f"step map at {label}: an arrow collapses to a loop")
    if (rows[x] & rows[t] | cols[x] & cols[t]) & ~(xbit | tbit):
        raise InternalInvariantBreached(f"step map at {label}: two arrows share an image")
    if not (rows[x] & xbit and rows[t] & tbit):
        raise InternalInvariantBreached(f"step map at {label}: a loop is missing")
    if image(rows[x] | rows[t]) != old_row or image(cols[x] | cols[t]) != old_col:
        raise InternalInvariantBreached(f"step map at {label}: arrows at the clasp not preserved")

    def old_out(u: int) -> int:
        if u == x:
            return old_row
        row = rows[u] & ~xbit & ~tbit
        return row | xbit if (old_col >> u) & 1 else row

    def lifts(a: int, b: int, c: int) -> bool:
        for p in (x, t) if a == x else (a,):
            for q in (x, t) if b == x else (b,):
                if not (rows[p] >> q) & 1:
                    continue
                for r in (x, t) if c == x else (c,):
                    if (rows[q] >> r) & 1 and (rows[p] >> r) & 1:
                        return True
        return False

    triples = []
    for b in bits(old_row):  # (x, b, c)
        triples.extend((x, b, c) for c in bits(old_row & old_out(b)))
    for a in bits(old_col):
        row_a = old_out(a)
        triples.extend((a, x, c) for c in bits(old_row & row_a))  # (a, x, c)
        triples.extend((a, b, x) for b in bits(row_a & old_col))  # (a, b, x)
    for a, b, c in triples:
        if not lifts(a, b, c):
            names = ", ".join(state.vertices[v] for v in (a, b, c))
            raise InternalInvariantBreached(f"step map at {label}: triple ({names}) has no lift")


def reference_stable_witness_at(graph: DiGraph, p: int) -> Optional[StableWitness]:
    """A balance or stability witness through ``p``, one innermost vertex
    at a time."""
    rows = graph._rows
    cols = graph._cols
    rp, cp = rows[p], cols[p]

    def found(kind, *quad):
        return StableWitness(kind, tuple(graph.vertices[q] for q in quad))

    for x in bits(rp):  # w = p
        for y in bits(rows[x]):
            for z in bits(rows[y] & rp):
                if (rows[x] >> z) & 1 != (rp >> y) & 1:
                    return found("balance", p, x, y, z)
    for w in bits(cp):  # x = p
        for y in bits(rp):
            for z in bits(rows[y] & rows[w]):
                if (rp >> z) & 1 != (rows[w] >> y) & 1:
                    return found("balance", w, p, y, z)
    for x in bits(cp):  # y = p
        for z in bits(rp):
            for w in bits(cols[x] & cols[z]):
                if (rows[x] >> z) & 1 != (rows[w] >> p) & 1:
                    return found("balance", w, x, p, z)
    for y in bits(cp):  # z = p
        for x in bits(cols[y]):
            for w in bits(cols[x] & cp):
                if (rows[x] >> p) & 1 != (rows[w] >> y) & 1:
                    return found("balance", w, x, y, p)

    pbit = 1 << p
    for b in bits(rp & ~pbit):  # a = p
        for c in bits(rp & rows[b] & ~pbit & ~(1 << b)):
            for d in bits(rows[b] & rows[c] & ~rp):
                return found("stability", p, b, c, d)
    for a in bits(cp & ~pbit):  # b = p
        for c in bits(rows[a] & rp & ~(1 << a) & ~pbit):
            for d in bits(rp & rows[c] & ~rows[a]):
                return found("stability", a, p, c, d)
    for a in bits(cp & ~pbit):  # c = p
        for b in bits(rows[a] & cp & ~(1 << a) & ~pbit):
            for d in bits(rows[b] & rp & ~rows[a]):
                return found("stability", a, b, p, d)
    for b in bits(cp & ~pbit):  # d = p
        for c in bits(cp & rows[b] & ~(1 << b) & ~pbit):
            for a in bits(cols[b] & cols[c] & ~cp):
                return found("stability", a, b, c, p)
    return None


# -- cases ---------------------------------------------------------------------


def reflexive_graph(rows: list[int]) -> DiGraph:
    rows = tuple(row | (1 << i) for i, row in enumerate(rows))
    return DiGraph._from_rows(tuple(f"v{i}" for i in range(len(rows))), rows)


def step_map_verdict(check, graph: DiGraph, x: int, tails: int, heads: int) -> Optional[str]:
    """Split ``x`` of ``graph`` by the masks, then run ``check`` on the
    result: None when it passes, else its message."""
    rows, cols = list(graph._rows), list(graph._cols)
    old_row, old_col = rows[x], cols[x]
    t = _split_rows(rows, cols, x, tails, heads)
    state = SimpleNamespace(_rows=rows, _cols=cols, vertices=graph.vertices + ("t",))
    try:
        check(state, x, t, old_row, old_col)
    except InternalInvariantBreached as exc:
        return str(exc)
    return None


def random_split(rng: random.Random):
    """A reflexive graph with at most 9 vertices, a vertex x, and tail and
    head masks: subsets of x's neighbours, or arbitrary masks avoiding x."""
    n = rng.randint(1, 9)
    full = (1 << n) - 1
    # an AND of k random rows has arrow density 2**-k
    density = rng.randint(1, 3)
    rows = [full for _ in range(n)]
    for _ in range(density):
        rows = [row & rng.getrandbits(n) for row in rows]
    graph = reflexive_graph(rows)
    x = rng.randrange(n)
    tails, heads = rng.getrandbits(n), rng.getrandbits(n)
    if rng.random() < 0.5:
        tails &= graph._cols[x]
        heads &= graph._rows[x]
    return graph, x, tails & ~(1 << x), heads & ~(1 << x)


def random_graph(rng: random.Random) -> DiGraph:
    return random_split(rng)[0]


def layered_graph(rng: random.Random) -> DiGraph:
    """A reflexive 3-layer graph on 60 to 200 vertices, so that its masks
    span several machine words.  Most arrows run from one layer to the
    next; a few skip a layer, and a few run within or against the layers,
    which is what makes witnesses.  The outer layers hold many vertices
    with no non-loop tail or no non-loop head."""
    n = rng.randint(60, 200)
    layer = [3 * i // n for i in range(n)]
    rows = []
    for u in range(n):
        row = 0
        for v in range(n):
            step = layer[v] - layer[u]
            if u != v and rng.random() < (0.1 if step == 1 else 0.02 if step == 2 else 0.002):
                row |= 1 << v
        rows.append(row)
    return reflexive_graph(rows)


# -- tests ---------------------------------------------------------------------


class TestStepMap:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=400, deadline=None)
    def test_same_verdict_and_message_as_the_per_triple_check(self, rng):
        graph, x, tails, heads = random_split(rng)
        assert step_map_verdict(_check_step_map, graph, x, tails, heads) == step_map_verdict(
            reference_check_step_map, graph, x, tails, heads
        )

    def test_the_cases_reach_both_a_pass_and_a_missing_lift(self):
        rng = random.Random(13)
        verdicts = []
        for _ in range(1500):
            graph, x, tails, heads = random_split(rng)
            verdict = step_map_verdict(_check_step_map, graph, x, tails, heads)
            assert verdict == step_map_verdict(reference_check_step_map, graph, x, tails, heads)
            verdicts.append(verdict)
        assert None in verdicts
        assert any(v is not None and v.endswith("has no lift") for v in verdicts)


class TestStableWitnessAt:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_same_witness_at_every_vertex(self, rng):
        graph = random_graph(rng)
        for p in range(len(graph.vertices)):
            assert _stable_witness_at(graph, p) == reference_stable_witness_at(graph, p)

    def test_the_cases_reach_every_outcome(self):
        rng = random.Random(13)
        kinds = set()
        repeats = set()  # the repeated slots of balance witnesses found
        for _ in range(1500):
            graph = random_graph(rng)
            for p in range(len(graph.vertices)):
                witness = _stable_witness_at(graph, p)
                assert witness == reference_stable_witness_at(graph, p)
                kinds.add(witness and witness.kind)
                if witness and witness.kind == "balance":
                    w, x, y, z = witness.quad
                    pairs = (("w = y", w == y), ("w = z", w == z), ("x = z", x == z))
                    repeats.update(name for name, same in pairs if same)
        assert kinds == {None, "balance", "stability"}
        # only w = x, x = y and y = z are skipped; these repeats can fail
        assert repeats == {"w = y", "w = z", "x = z"}

    def test_same_witness_on_layered_graphs_at_scale(self):
        rng = random.Random(5)
        kinds = set()
        sinks = sources = 0  # vertices with no non-loop head, or tail
        for _ in range(10):
            graph = layered_graph(rng)
            for p in range(len(graph.vertices)):
                witness = _stable_witness_at(graph, p)
                assert witness == reference_stable_witness_at(graph, p)
                kinds.add(witness and witness.kind)
                sinks += graph._rows[p] == 1 << p
                sources += graph._cols[p] == 1 << p
        assert sinks and sources
        assert kinds == {None, "balance", "stability"}
