"""Differential oracle for the census soloist-lemma check.

``_soloist_lemma_instances`` tests two biconditionals on bit rows for each
transitive triple through a soloist.  The reference below is the direct
form: six hand-written loops, one per biconditional of each of the three
positions the soloist can take.  Both must return the same number of
biconditionals checked and the same first violation, on every iso class
up to five vertices and on seeded random reflexive graphs.
"""

from __future__ import annotations

import random
from typing import Optional

from splitclosure import DiGraph, soloists
from splitclosure.census import _soloist_lemma_instances, canonical_masks, graph_from_mask


def reference_soloist_lemma_instances(graph: DiGraph) -> tuple[int, Optional[str]]:
    """Check all six soloist biconditionals; returns (count, violation)."""
    verts = graph.vertices
    solo = set(soloists(graph))
    has = graph.has_arrow
    checked = 0
    for s in verts:
        if s not in solo:
            continue
        others = [v for v in verts if v != s]
        for a in others:
            for b in others:
                if a != b and has(a, b) and has(b, s) and has(a, s):
                    # pattern 1: (a, b, s) transitive
                    for c in verts:
                        if has(s, c):
                            checked += 1
                            if has(a, c) != has(b, c):
                                return checked, f"1(a) at s={s} a={a} b={b} c={c}"
                    for x in verts:
                        if has(x, a):
                            checked += 1
                            if has(x, s) != has(x, b):
                                return checked, f"1(b) at s={s} a={a} b={b} x={x}"
        for a in others:
            if not has(a, s):
                continue
            for c in others:
                if has(s, c) and has(a, c):
                    # pattern 2: (a, s, c) transitive
                    for x in verts:
                        if has(x, a):
                            checked += 1
                            if has(x, c) != has(x, s):
                                return checked, f"2(a) at s={s} a={a} c={c} x={x}"
                    for d in verts:
                        if has(c, d):
                            checked += 1
                            if has(a, d) != has(s, d):
                                return checked, f"2(b) at s={s} a={a} c={c} d={d}"
        for b in others:
            if not has(s, b):
                continue
            for c in others:
                if b != c and has(b, c) and has(s, c):
                    # pattern 3: (s, b, c) transitive
                    for d in verts:
                        if has(c, d):
                            checked += 1
                            if has(b, d) != has(s, d):
                                return checked, f"3(a) at s={s} b={b} c={c} d={d}"
                    for a in verts:
                        if has(a, s):
                            checked += 1
                            if has(a, b) != has(a, c):
                                return checked, f"3(b) at s={s} b={b} c={c} a={a}"
    return checked, None


def _random_reflexive(rng: random.Random) -> DiGraph:
    n = rng.randint(5, 8)
    verts = tuple(f"v{i}" for i in range(n))
    density = rng.choice((0.2, 0.35, 0.5))
    arrows = {(v, v) for v in verts}
    arrows.update((a, b) for a in verts for b in verts if a != b and rng.random() < density)
    return DiGraph(verts, arrows)


def test_agrees_with_six_loops_on_every_class_up_to_five_vertices():
    violations = 0
    for n in range(1, 6):
        for mask in canonical_masks(n):
            graph = graph_from_mask(n, mask)
            expected = reference_soloist_lemma_instances(graph)
            assert _soloist_lemma_instances(graph) == expected, (n, mask)
            violations += expected[1] is not None
    assert violations > 0


def test_agrees_with_six_loops_on_random_graphs():
    rng = random.Random(20110)
    violations = set()
    for _ in range(3000):
        graph = _random_reflexive(rng)
        expected = reference_soloist_lemma_instances(graph)
        assert _soloist_lemma_instances(graph) == expected, graph
        if expected[1] is not None:
            violations.add(expected[1][:4])
    # every pattern and both of its biconditionals are reached
    assert violations == {f"{p}({t})" for p in "123" for t in "ab"}
