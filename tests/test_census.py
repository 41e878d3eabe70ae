from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import digraphs
from test_predicates import naive_balanced, naive_stable_extra
from splitclosure import (
    BoundExceeded,
    CompressionMap,
    DiGraph,
    clasps,
    contains_induced,
    enumerate_reflexive,
    expand_to_preorder,
    graph_from_mask,
    is_balanced,
    is_isomorphic,
    is_stable,
    minimal_obstructions,
    oracle_preorder_expansion,
    parse_digraph,
    validate_theorems,
    verify_compression,
)
from splitclosure import census
from splitclosure.census import (
    _classes_by_witness,
    _mask_rows,
    _perm_chunk_tables,
    canonical_masks,
)
from splitclosure.cli import EXIT_PROPERTY
from splitclosure.cli import main as cli_main
from splitclosure.digraph import _heads_of
from splitclosure.predicates import _balance_witness, _stability_witness

# Up-to-isomorphism counts of reflexive digraphs, frozen from direct
# enumeration; they match the classical unlabeled digraph counts.
CLASS_COUNTS = {1: 1, 2: 3, 3: 16, 4: 218}


class TestEnumeration:
    @pytest.mark.parametrize("n,count", sorted(CLASS_COUNTS.items()))
    def test_class_counts(self, n, count):
        assert sum(1 for _ in enumerate_reflexive(n)) == count

    def test_every_emitted_graph_is_reflexive(self):
        assert all(g.is_reflexive() for g in enumerate_reflexive(3))

    def test_stream_is_re_iterable_and_deterministic(self):
        assert list(enumerate_reflexive(3)) == list(enumerate_reflexive(3))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_classes_pairwise_non_isomorphic(self, n):
        graphs = list(enumerate_reflexive(n))
        for g1, g2 in itertools.combinations(graphs, 2):
            assert is_isomorphic(g1, g2) is None

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_orbit_sizes_cover_labeled_universe(self, n):
        # independent orbit counter: relabel each class every possible way
        total = 0
        for g in enumerate_reflexive(n):
            relabelings = set()
            for perm in itertools.permutations(g.vertices):
                to_new = dict(zip(g.vertices, perm))
                relabelings.add(
                    frozenset((to_new[u], to_new[v]) for (u, v) in g.arrows)
                )
            total += len(relabelings)
        assert total == 2 ** (n * (n - 1))

    def test_every_labeled_graph_has_a_class(self):
        classes = list(enumerate_reflexive(2))
        for g in (graph_from_mask(2, m) for m in range(4)):
            assert sum(1 for c in classes if is_isomorphic(g, c) is not None) == 1

    @pytest.mark.parametrize("n", [0, 6])
    def test_bounds(self, n):
        with pytest.raises(BoundExceeded):
            enumerate_reflexive(n)


def _decode_cells(n: int, mask: int) -> tuple[int, ...]:
    """Reflexive bit rows read from a packed mask one cell at a time: the
    off-diagonal cells (i, j) row-major, the first one most significant."""
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    rows = [1 << i for i in range(n)]
    for p, (i, j) in enumerate(reversed(cells)):
        if (mask >> p) & 1:
            rows[i] |= 1 << j
    return tuple(rows)


def _apply_chunks(chunks: tuple, mask: int) -> int:
    """Image of ``mask`` under one permutation's byte tables, chunk by chunk:
    the naive orbit reference for ``canonical_masks``."""
    out = chunks[0][mask & 255]
    shift = 8
    for c in range(1, len(chunks)):
        out |= chunks[c][(mask >> shift) & 255]
        shift += 8
    return out


class TestBitRowFastPaths:
    """The census's bit-row fast paths against the slow routes they replace."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_canonical_masks_are_the_naive_orbit_minima(self, n):
        tables = _perm_chunk_tables(n)
        minima = {min(_apply_chunks(t, m) for t in tables) for m in range(1 << (n * (n - 1)))}
        assert canonical_masks(n) == tuple(sorted(minima))

    @pytest.mark.parametrize("n", [0, 6])
    def test_eager_enumeration_is_bounded(self, n):
        with pytest.raises(BoundExceeded):
            canonical_masks(n)

    def test_five_vertex_masks_are_ascending_orbit_minima(self):
        masks = canonical_masks(5)
        assert len(masks) == 9608
        assert all(a < b for a, b in zip(masks, masks[1:]))
        tables = _perm_chunk_tables(5)
        assert all(min(_apply_chunks(t, m) for t in tables) == m for m in masks)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rows_witnesses_match_the_graph_predicates(self, n):
        groups = _classes_by_witness(n)
        for mask in canonical_masks(n):
            graph = graph_from_mask(n, mask)
            rows = _mask_rows(n, mask)
            assert rows == graph._rows == _decode_cells(n, mask)
            labels = graph.vertices
            quad = _balance_witness(rows, _heads_of(rows))
            balanced = is_balanced(graph)
            assert balanced == (quad is None, quad and tuple(labels[i] for i in quad))
            stable, witness = is_stable(graph)
            if quad is not None:
                kind, found = "balance", quad
            else:
                found = _stability_witness(rows, _heads_of(rows))
                kind = None if found is None else "stability"
            assert mask in groups[kind]
            if found is None:
                assert stable and witness is None
            else:
                assert not stable
                assert witness == (kind, tuple(labels[i] for i in found))
                a, b, c, d = witness.quad
                has = graph.has_arrow
                if kind == "balance":
                    assert has(a, b) and has(b, c) and has(c, d) and has(a, d)
                    assert has(a, c) != has(b, d)
                else:
                    assert len(set(witness.quad)) == 4
                    assert all(has(*p) for p in ((a, b), (a, c), (b, c), (b, d), (c, d)))
                    assert not has(a, d)
            if n <= 4:  # the independent quadruple scans
                assert balanced[0] == naive_balanced(graph)
                assert stable == (naive_balanced(graph) and naive_stable_extra(graph))
        assert sum(len(g) for g in groups.values()) == len(canonical_masks(n))


@st.composite
def locked_plus_one(draw):
    """A stable class with a locked clasp, plus a vertex f joined to it at random."""
    base = graph_from_mask(5, 1500)
    ins = draw(st.sets(st.sampled_from(base.vertices)))
    outs = draw(st.sets(st.sampled_from(base.vertices)))
    arrows = set(base.arrows) | {(v, "f") for v in ins} | {("f", v) for v in outs}
    return DiGraph(base.vertices + ("f",), arrows | {("f", "f")})


def _fails(predicate, g):
    if predicate == "balanced":
        return not naive_balanced(g)
    if predicate == "stable-given-balanced":
        return naive_balanced(g) and not naive_stable_extra(g)
    stable = naive_balanced(g) and naive_stable_extra(g)
    return stable and any(r.locked for r in clasps(g))


class TestObstructions:
    # Counts frozen from the exhaustive search, cross-checked below with
    # the naive predicate scans.  The five 3-vertex members of the
    # balanced set are only reachable through repeated quadruples.
    def test_balanced_count(self):
        assert len(minimal_obstructions("balanced", 4).members) == 9

    def test_stable_count(self):
        assert len(minimal_obstructions("stable-given-balanced", 4).members) == 4

    def test_locked_count(self):
        members = minimal_obstructions("unlocked-given-stable", 5).members
        assert len(members) == 2
        assert all(len(g.vertices) == 5 for g in members)

    def test_no_stable_locked_graph_below_five_vertices(self):
        assert minimal_obstructions("unlocked-given-stable", 4).members == ()

    def test_balanced_below_three_vertices_is_empty(self):
        assert minimal_obstructions("balanced", 2).members == ()

    def test_expected_stability_pattern_is_found(self, unstable4):
        members = minimal_obstructions("stable-given-balanced", 4).members
        assert any(is_isomorphic(g, unstable4) is not None for g in members)

    def test_one_chord_diamond_is_a_balance_obstruction(self, unbalanced4):
        members = minimal_obstructions("balanced", 4).members
        assert any(is_isomorphic(g, unbalanced4) is not None for g in members)

    @pytest.mark.parametrize(
        "predicate,n_max",
        [
            ("balanced", 4),
            ("stable-given-balanced", 4),
            ("unlocked-given-stable", 5),
            ("balanced", 5),
            ("stable-given-balanced", 5),
        ],
    )
    def test_soundness_against_naive_checkers(self, predicate, n_max):
        obstruction_set = minimal_obstructions(predicate, n_max)
        assert obstruction_set.members, "sets under test are nonempty"
        for g in obstruction_set.members:
            assert _fails(predicate, g)
            for size in range(1, len(g.vertices)):
                for subset in itertools.combinations(g.vertices, size):
                    assert not _fails(predicate, g.induced(subset))

    def test_member_counts_at_five_vertices(self):
        counts = [
            len(minimal_obstructions(predicate, 5).members)
            for predicate in ("balanced", "stable-given-balanced", "unlocked-given-stable")
        ]
        assert counts == [9, 4, 2]

    # Minimality is tested on one-vertex deletions only, which is sound
    # because the severity of a graph's kind never drops when a vertex is
    # added: witnesses and locks survive in supergraphs, and balanced and
    # stable are hereditary.
    @given(st.one_of(digraphs(max_n=7, force_reflexive=True), locked_plus_one()))
    @settings(max_examples=200, deadline=None)
    def test_kind_severity_never_drops_when_a_vertex_is_added(self, g):
        severity = {None: 0, "locked": 1, "stability": 2, "balance": 3}
        kind = severity[census._kind(g)]
        for v in g.vertices:
            rest = [u for u in g.vertices if u != v]
            assert kind >= severity[census._kind(g.induced(rest))]

    def test_members_pairwise_non_isomorphic(self):
        members = minimal_obstructions("balanced", 4).members
        for g1, g2 in itertools.combinations(members, 2):
            assert is_isomorphic(g1, g2) is None

    def test_serialization_envelope(self):
        from splitclosure import parse_digraph

        payload = minimal_obstructions("balanced", 3).to_json()
        assert payload["predicate"] == "balanced"
        assert payload["n_max"] == 3
        for block in payload["classes"]:
            assert parse_digraph(block).is_reflexive()

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            minimal_obstructions("balanced", 6)

    def test_unknown_predicate(self):
        with pytest.raises(ValueError):
            minimal_obstructions("transitive", 3)


class TestContainsInduced:
    def test_positive(self, two_clasps, path3):
        assert contains_induced(two_clasps, path3)

    def test_negative(self, split4, pair2):
        assert not contains_induced(split4, pair2)

    def test_pattern_larger_than_graph(self, path3, split4):
        assert not contains_induced(path3, split4)

    @given(digraphs(max_n=5), st.data())
    @settings(max_examples=150)
    def test_matches_isomorphism_search_over_induced_graphs(self, g, data):
        # the pattern is a relabelled induced subgraph half of the time
        if data.draw(st.booleans()):
            pattern = data.draw(digraphs(max_n=len(g.vertices)))
        else:
            k = data.draw(st.integers(1, len(g.vertices)))
            sub = g.induced(data.draw(st.permutations(g.vertices))[:k])
            perm = data.draw(st.permutations(range(k)))
            relabel = {v: f"p{perm[i]}" for i, v in enumerate(sub.vertices)}
            pattern = DiGraph(
                [f"p{i}" for i in range(k)], [(relabel[u], relabel[v]) for u, v in sub.arrows]
            )
        k = len(pattern.vertices)
        expected = any(
            is_isomorphic(g.induced(subset), pattern) is not None
            for subset in itertools.combinations(g.vertices, k)
        )
        assert contains_induced(g, pattern) == expected


class TestOracle:
    def test_path_expansion_found(self, path3, split4):
        found = oracle_preorder_expansion(path3, 1)
        assert found is not None
        graph, cmap = found
        assert is_isomorphic(graph, split4) is not None
        assert verify_compression(cmap).valid
        split_copies = [v for v in graph.vertices if cmap.assignment[v] == "y"]
        assert len(split_copies) == 2

    def test_locked_graph_has_none(self, locked5):
        assert oracle_preorder_expansion(locked5, 2) is None

    def test_preordered_graph_yields_identity(self, split4):
        graph, cmap = oracle_preorder_expansion(split4, 0)
        assert graph == split4
        assert list(cmap.to_json().items()) == [(v, v) for v in split4.vertices]

    def test_empty_graph_yields_itself(self):
        empty = DiGraph([])
        graph, cmap = oracle_preorder_expansion(empty, 0)
        assert graph == empty and cmap.to_json() == {}
        assert verify_compression(cmap).valid
        assert oracle_preorder_expansion(empty, 2)[0] == empty

    def test_zero_budget_on_non_preordered(self, path3):
        assert oracle_preorder_expansion(path3, 0) is None

    def test_bound(self, two_clasps, path3):
        with pytest.raises(BoundExceeded):
            oracle_preorder_expansion(two_clasps, 3)  # 6 + 3 > 8
        with pytest.raises(BoundExceeded):
            oracle_preorder_expansion(path3, -1)

    def test_search_is_deterministic(self, path3):
        first = oracle_preorder_expansion(path3, 2)
        second = oracle_preorder_expansion(path3, 2)
        assert first[0] == second[0]
        assert list(first[1].to_json().items()) == list(second[1].to_json().items())

    def test_agrees_with_algorithm_up_to_three_vertices(self):
        for n in (1, 2, 3):
            for g in enumerate_reflexive(n):
                if not is_stable(g)[0] or any(r.locked for r in clasps(g)):
                    continue
                outcome = expand_to_preorder(g)
                added = len(outcome.result.vertices) - len(g.vertices)
                assert oracle_preorder_expansion(g, added) is not None


def _raise(*args):
    raise RuntimeError("injected")


def _obstruction_free(graph, pattern):
    return False


def _expansion_everywhere(graph):
    return CompressionMap(graph, graph, {v: v for v in graph.vertices})


# Per check: a census dependency broken so that the check must fail, and the
# smallest sweep with an instance to fail on (no stable class has a locked
# clasp below five vertices, and no star-acyclic obstruction is below four).
# Check (f) is broken on both sides: every class contains an obstruction, so
# an unlocked class fails, or none does, so the locked class c5-1500 fails.
BROKEN_DEPENDENCIES = [
    ("main-theorem-positive", "expand_to_preorder", _raise, 3),
    ("main-theorem-negative-consistency", "_closure_expansion", _expansion_everywhere, 5),
    ("clasp-implies-soloist", "soloists", lambda g: (), 3),
    ("soloist-lemma", "_soloist_lemma_instances", lambda g: (1, "injected"), 3),
    ("compression-theorem", "_compression_theorem_holds", lambda cmap, memo: "injected", 3),
    ("corollary-acyclic-star", "contains_induced", lambda g, h: True, 4),
    ("corollary-acyclic-star", "contains_induced", _obstruction_free, 5),
]
BROKEN_IDS = [c + ("-locked" if b is _obstruction_free else "") for c, _, b, _ in BROKEN_DEPENDENCIES]


class TestValidateTheorems:
    def test_small_sweep_passes(self):
        report = validate_theorems(3)
        assert report.passed
        assert report.classes_scanned == (1, 3, 16)
        names = [c.name for c in report.checks]
        assert names == [
            "main-theorem-positive",
            "main-theorem-negative-consistency",
            "clasp-implies-soloist",
            "soloist-lemma",
            "compression-theorem",
            "corollary-acyclic-star",
        ]

    def test_full_four_vertex_sweep_passes(self):
        report = validate_theorems(4)
        assert report.passed
        assert report.classes_scanned == (1, 3, 16, 218)
        positive = report.checks[0]
        assert positive.instances == 70  # stable, all-unlocked classes
        assert all(c.counterexample is None for c in report.checks)

    def test_report_is_deterministic(self):
        assert validate_theorems(3).to_json() == validate_theorems(3).to_json()

    def test_render_mentions_every_check(self):
        text = validate_theorems(3).render_text()
        assert "iso classes scanned: 1, 3, 16" in text
        assert text.strip().endswith("overall: pass")

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            validate_theorems(6)

    def test_failures_would_render_visibly(self):
        from splitclosure import CheckResult, ValidationReport

        report = ValidationReport(
            n_max=2,
            classes_scanned=(1, 3),
            checks=(
                CheckResult("demo", False, 3, "vertices: a\narrows:\n", "boom"),
                CheckResult("empty", True, 0),
                CheckResult("seen", True, 2),
            ),
        )
        assert not report.passed
        text = report.render_text()
        assert "check demo: FAIL (3 instances) -- boom" in text
        assert "check empty: vacuous (0 instances)" in text
        assert "check seen: pass (2 instances)" in text
        assert text.strip().endswith("overall: FAIL")
        checks = report.to_json()["checks"]
        assert checks[0]["counterexample"] is not None
        assert [c["status"] for c in checks] == ["FAIL", "vacuous", "pass"]

    @pytest.mark.parametrize(
        "check,dependency,broken,n", BROKEN_DEPENDENCIES, ids=BROKEN_IDS
    )
    def test_a_broken_dependency_fails_its_check(
        self, check, dependency, broken, n, monkeypatch, capsys
    ):
        monkeypatch.setattr(census, dependency, broken)
        report = validate_theorems(n)
        failed = [c for c in report.checks if c.status == "FAIL"]
        assert [c.name for c in failed] == [check]
        assert failed[0].detail and failed[0].instances > 0
        assert is_stable(parse_digraph(failed[0].counterexample))[0]
        if broken is _obstruction_free:
            assert parse_digraph(failed[0].counterexample).name == "c5-1500"
        assert report.render_text().endswith("overall: FAIL\n")
        assert cli_main(["census", "--max-vertices", str(n), "--validate"]) == EXIT_PROPERTY
        assert f"check {check}: FAIL (" in capsys.readouterr().out
