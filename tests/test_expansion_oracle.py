"""Differential oracle for the expansion loop's local re-checks.

The loop checks each split only where the split can change the graph,
and tracks the clasps incrementally.  The reference here replays each
trace on immutable graphs with ``IterationRecord.apply`` and runs the
full public checks on every intermediate graph: the step map verifies as
a compression, the graph is stable, every clasp is unlocked, the split
clasp is the least one and the record is what the rule functions give
on the full graph.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import step_map
from splitclosure import (
    DiGraph,
    clasps,
    construction_a,
    construction_b,
    enumerate_reflexive,
    expand_to_preorder,
    is_preordered,
    is_stable,
    locked_status,
    select_construction,
    verify_compression,
)
from splitclosure.expansion import _clasp_context


def stable_and_unlocked(graph: DiGraph) -> bool:
    return is_stable(graph)[0] and not any(r.locked for r in clasps(graph))


def assert_replay_passes_full_checks(graph: DiGraph) -> None:
    outcome = expand_to_preorder(graph)
    current = graph
    for index, record in enumerate(outcome.trace, start=1):
        records = clasps(current)
        assert records and records[0].vertex == record.clasp
        ctx = _clasp_context(current, record.clasp)
        choice = select_construction(current, record.clasp, ctx)
        rule = construction_a if choice.kind == "A" else construction_b
        assert rule(current, record.clasp, ctx, choice, record.new_vertex, index) == record

        cmap = step_map(record, current)
        expanded = cmap.source
        verdict = verify_compression(cmap)
        assert verdict.valid, verdict.describe()
        assert is_stable(expanded) == (True, None)
        for clasp in clasps(expanded):
            assert locked_status(expanded, clasp.vertex).kind == "unlocked"
        current = expanded
    assert clasps(current) == () and is_preordered(current)
    assert current == outcome.result
    assert verify_compression(outcome.mapping).valid


def test_census_classes_up_to_five_vertices():
    runs = 0
    for n in range(1, 6):
        for graph in enumerate_reflexive(n):
            if stable_and_unlocked(graph):
                assert_replay_passes_full_checks(graph)
                runs += 1
    assert runs == 522


@st.composite
def layered_dags(draw):
    """Three layers, 30 to 120 vertices; arrows from each layer to the
    next with probability p and from the first to the last with
    probability q, which brings in transitive triples and rule B."""
    n = draw(st.integers(min_value=30, max_value=120))
    p = draw(st.sampled_from([0.05, 0.1, 0.15]))
    q = draw(st.sampled_from([0.0, 0.02, 0.05]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    layers = [[f"v{k}_{i}" for i in range(k, n, 3)] for k in range(3)]
    arrows = {(v, v) for layer in layers for v in layer}
    for a, b, chance in ((0, 1, p), (1, 2, p), (0, 2, q)):
        arrows.update(
            (u, w) for u in layers[a] for w in layers[b] if rng.random() < chance
        )
    return DiGraph([v for layer in layers for v in layer], arrows)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(layered_dags())
def test_random_layered_dags(graph):
    assume(stable_and_unlocked(graph))
    assert_replay_passes_full_checks(graph)
