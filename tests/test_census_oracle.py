"""Differential oracles for the census's exact and filtered paths.

Check (b) decides "is a compression of a preordered graph" exactly with
``census._closure_expansion``, a union-find over arrow ends; its
reference is the bounded search ``oracle_preorder_expansion``, and every
expansion it builds must verify.  Check (e) tests transitive-inducing on
target bit rows, and check (f) skips the subsets whose arrow count differs
from the pattern's; their references here are the label-triple and
unfiltered forms they replace.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import digraphs, reflexive
from splitclosure import (
    CompressionMap,
    DiGraph,
    NotReflexive,
    clasps,
    contains_induced,
    enumerate_reflexive,
    graph_from_mask,
    is_preordered,
    minimal_obstructions,
    oracle_preorder_expansion,
    trans_triples,
    validate_theorems,
    verify_compression,
)
from splitclosure import census
from splitclosure.census import _classes_by_witness, _closure_expansion
from splitclosure.digraph import _canonical_packed, _packed_matrix, bits


def expands(graph: DiGraph) -> bool:
    """The exact decision, as a verdict; a built expansion must verify."""
    found = _closure_expansion(graph)
    if not isinstance(found, CompressionMap):
        a, b, c = found
        assert graph.has_arrow(a, b) and graph.has_arrow(b, c) and not graph.has_arrow(a, c)
        return False
    assert found.target is graph
    assert is_preordered(found.source)
    assert verify_compression(found).valid
    return True


# -- the exact decision ---------------------------------------------------------


@st.composite
def sparse_graphs(draw) -> DiGraph:
    """Reflexive graphs on 5 to 7 vertices with at most 8 other arrows."""
    labels = [f"v{i}" for i in range(draw(st.integers(5, 7)))]
    vertex = st.sampled_from(labels)
    return reflexive(labels, draw(st.lists(st.tuples(vertex, vertex), max_size=8)))


class TestClosureExpansion:
    def test_path_splits_its_middle(self, path3):
        cmap = _closure_expansion(path3)
        assert cmap.source.vertices == ("x.0", "y.1", "y.2", "z.3")
        assert cmap.source.arrow_count(include_loops=False) == 2
        assert verify_compression(cmap).valid

    def test_locked_graph_breaks_an_inequality(self, locked5):
        assert not expands(locked5)

    def test_preorder_keeps_one_copy_per_vertex(self, split4):
        cmap = _closure_expansion(split4)
        assert cmap.source.vertices == ("x.0", "y.1", "z.2", "t.3")
        assert [cmap.assignment[v] for v in cmap.source.vertices] == list(split4.vertices)
        relabelled = {(cmap.assignment[u], cmap.assignment[v]) for u, v in cmap.source.arrows}
        assert relabelled == split4.arrows and len(cmap.source.arrows) == len(split4.arrows)

    def test_lone_vertex_and_empty_graph(self):
        cmap = _closure_expansion(reflexive("p", []))
        assert cmap.source.vertices == ("p.0",) and dict(cmap.assignment) == {"p.0": "p"}
        assert _closure_expansion(DiGraph([])).source == DiGraph([])

    def test_copy_labels_stay_distinct(self):
        graph = reflexive(("y", "y.1", "x", "z"), [("x", "y"), ("y", "z")])
        cmap = _closure_expansion(graph)
        assert cmap.source.vertices == ("y.0", "y.1", "y.1.2", "x.3", "z.4")
        assert verify_compression(cmap).valid

    def test_rejects_a_graph_without_loops(self):
        with pytest.raises(NotReflexive):
            _closure_expansion(DiGraph(["a"], []))

    def test_exact_counts_up_to_five_vertices(self):
        counts = [sum(expands(g) for g in enumerate_reflexive(n)) for n in range(1, 6)]
        assert counts == [1, 3, 14, 103, 1344]

    def test_main_theorem_on_every_stable_class(self):
        unlocked = locked = 0
        for n in range(1, 6):
            for mask in _classes_by_witness(n)[None]:
                graph = graph_from_mask(n, mask)
                is_locked = any(r.locked for r in clasps(graph))
                assert isinstance(_closure_expansion(graph), CompressionMap) != is_locked
                locked += is_locked
                unlocked += not is_locked
        assert (unlocked, locked) == (522, 2)

    def test_agrees_with_the_oracle_at_its_full_bound_up_to_three_vertices(self):
        for n in (1, 2, 3):
            for graph in enumerate_reflexive(n):
                found = oracle_preorder_expansion(graph, 8 - n) is not None
                assert expands(graph) == found, graph

    def test_finds_every_oracle_expansion_on_four_vertices(self):
        for graph in enumerate_reflexive(4):
            if oracle_preorder_expansion(graph, 2) is not None:
                assert expands(graph), graph

    @given(digraphs(max_n=7, force_reflexive=True))
    @settings(max_examples=100, deadline=None)
    def test_every_built_expansion_verifies(self, graph):
        expands(graph)

    # The oracle at 8 - n searches every expansion with at most 8 vertices,
    # so it finds one exactly when the closure says yes, whenever the
    # closure itself is that small.  Sparse graphs keep the search short.
    @given(sparse_graphs())
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_the_oracle_at_its_full_bound(self, graph):
        found = oracle_preorder_expansion(graph, 8 - len(graph.vertices))
        if found is not None:
            assert expands(graph)
        closure = _closure_expansion(graph)
        if isinstance(closure, CompressionMap) and len(closure.source.vertices) <= 8:
            assert found is not None


# -- transitive-inducing ----------------------------------------------------------


def label_triple_transitive_inducing(cmap: CompressionMap) -> bool:
    """No source path x -> y -> z without x -> z has an image triple among
    the target's transitive triples, looked up as labels."""
    src, tgt = cmap.source, cmap.target
    triples = trans_triples(tgt)
    assignment = cmap.assignment
    labels = src.vertices
    rows = src._rows
    for x in range(len(labels)):
        rx = rows[x]
        for y in bits(rx):
            for z in bits(rows[y] & ~rx):
                if (assignment[labels[x]], assignment[labels[y]], assignment[labels[z]]) in triples:
                    return False
    return True


class TestTransitiveInducing:
    def test_matches_the_label_triples_on_every_map_of_check_e(self, monkeypatch):
        bit_rows = census._transitive_inducing_holds
        seen = []

        def both(cmap):
            seen.append(cmap)
            holds = bit_rows(cmap)
            assert holds == label_triple_transitive_inducing(cmap)
            return holds

        monkeypatch.setattr(census, "_transitive_inducing_holds", both)
        report = validate_theorems(5)
        assert report.checks[4].name == "compression-theorem" and report.passed
        # the step and whole maps of check (a), then every valid split up to n=3
        assert len(seen) == report.checks[4].instances == 1474

    @given(digraphs(max_n=5), digraphs(max_n=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_label_triples_on_any_map(self, source, target, data):
        images = st.sampled_from(target.vertices)
        assignment = {v: data.draw(images) for v in source.vertices}
        cmap = CompressionMap(source, target, assignment)
        holds = census._transitive_inducing_holds(cmap)
        assert holds == label_triple_transitive_inducing(cmap)


# -- induced-subgraph containment -----------------------------------------------


def unfiltered_contains_induced(graph: DiGraph, pattern: DiGraph) -> bool:
    """Compare the canonical matrix of every k-subset with the pattern's."""
    k = len(pattern.vertices)
    if k > len(graph.vertices):
        return False
    key = _canonical_packed(k, _packed_matrix(pattern._rows, range(k)))[0]
    rows = graph._rows
    for subset in itertools.combinations(range(len(graph.vertices)), k):
        if _canonical_packed(k, _packed_matrix(rows, subset))[0] == key:
            return True
    return False


def mined_obstructions() -> list[DiGraph]:
    return [
        member
        for predicate, bound in (
            ("balanced", 4), ("stable-given-balanced", 4), ("unlocked-given-stable", 5)
        )
        for member in minimal_obstructions(predicate, bound).members
    ]


class TestContainsInducedFilter:
    # Every pair on the classes check (f) can read, the stable ones up to
    # n=5, and on every class up to n=4.  All 9,846 classes against all
    # 15 obstructions take about 3 s for the two forms together.
    def test_matches_the_unfiltered_scan_on_every_obstruction(self):
        graphs = [g for n in range(1, 5) for g in enumerate_reflexive(n)]
        graphs += [graph_from_mask(5, mask) for mask in _classes_by_witness(5)[None]]
        patterns = mined_obstructions()
        assert len(graphs) == 238 + 454 and len(patterns) == 15
        hits = 0
        for graph, pattern in itertools.product(graphs, patterns):
            found = contains_induced(graph, pattern)
            assert found == unfiltered_contains_induced(graph, pattern)
            hits += found
        assert 0 < hits < len(graphs) * len(patterns)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_the_unfiltered_scan_on_random_graphs(self, seed):
        rng = random.Random(seed)
        n = 6 + seed % 2
        labels = [f"v{i}" for i in range(n)]
        density = (0.2, 0.4, 0.6)[seed % 3]
        graph = reflexive(
            labels, [(a, b) for a in labels for b in labels if a != b and rng.random() < density]
        )
        for pattern in enumerate_reflexive(4):
            assert contains_induced(graph, pattern) == unfiltered_contains_induced(graph, pattern)
