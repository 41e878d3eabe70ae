from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings

from conftest import digraphs
from splitclosure import (
    NotReflexive,
    UnknownVertex,
    clasps,
    is_balanced,
    is_preordered,
    is_stable,
    is_transitive,
    locked_status,
    missing_loop,
    property_report,
    soloists,
    trans_triples,
    transitive_witness,
)


def naive_balanced(g):
    """The defining quadruple scan, written independently of the library."""
    arrows = g.arrows
    for w, x, y, z in itertools.product(g.vertices, repeat=4):
        if {(w, x), (x, y), (y, z), (w, z)} <= arrows:
            if ((w, y) in arrows) != ((x, z) in arrows):
                return False
    return True


def naive_stable_extra(g):
    arrows = g.arrows
    for a, b, c, d in itertools.permutations(g.vertices, 4):
        if {(a, b), (a, c), (b, c), (b, d), (c, d)} <= arrows:
            if (a, d) not in arrows:
                return False
    return True


class TestReportFlags:
    def test_transitive_graph(self, split4):
        report = property_report(split4)
        assert report.reflexive and report.transitive and report.preordered

    def test_path_is_not_transitive(self, path3):
        report = property_report(path3)
        assert not report.transitive
        assert report.transitive_witness == ("x", "y", "z")
        assert not report.preordered

    def test_running_example(self, two_clasps):
        report = property_report(two_clasps)
        assert report.balanced and report.stable and not report.preordered

    def test_non_reflexive_marks_rest_not_applicable(self):
        from splitclosure import DiGraph

        g = DiGraph("ab", [("a", "a"), ("a", "b")])
        report = property_report(g)
        assert not report.reflexive and report.missing_loop == "b"
        assert report.balanced is None and report.stable is None
        assert report.clasps is None and report.soloists is None

    @given(digraphs())
    def test_preordered_is_the_conjunction(self, g):
        assert is_preordered(g) == (g.is_reflexive() and is_transitive(g))

    def test_report_serializes(self, two_clasps):
        payload = property_report(two_clasps).to_json()
        assert payload["preordered"] is False
        assert [c["vertex"] for c in payload["clasps"]] == ["2", "4"]


class TestTransTriples:
    def test_distinct_triples_of_running_example(self, two_clasps):
        assert {t for t in trans_triples(two_clasps) if len(set(t)) == 3} == {
            ("2", "4", "6"),
            ("3", "4", "7"),
        }

    def test_path_has_no_distinct_triple(self, path3):
        assert all(len(set(t)) < 3 for t in trans_triples(path3))

    @given(digraphs(force_reflexive=True))
    def test_diagonal_triples_always_present(self, g):
        triples = trans_triples(g)
        assert all((v, v, v) in triples for v in g.vertices)

    def test_witness_recheck(self, path3):
        x, y, z = transitive_witness(path3)
        assert path3.has_arrow(x, y) and path3.has_arrow(y, z)
        assert not path3.has_arrow(x, z)


class TestBalanced:
    def test_one_chord_diamond(self, unbalanced4):
        ok, witness = is_balanced(unbalanced4)
        assert not ok and witness == ("w", "x", "y", "z")

    def test_running_example(self, two_clasps):
        assert is_balanced(two_clasps) == (True, None)

    def test_pair(self, pair2):
        assert is_balanced(pair2) == (True, None)

    def test_repeated_quadruples_matter(self, pair_plus_tail):
        ok, witness = is_balanced(pair_plus_tail)
        assert not ok
        assert len(set(witness)) < 4, "only a repeated quadruple violates here"

    def test_requires_reflexive(self):
        from splitclosure import DiGraph

        with pytest.raises(NotReflexive):
            is_balanced(DiGraph("ab", [("a", "a")]))

    def test_witness_rechecks_against_definition(self, unbalanced4):
        _, (w, x, y, z) = is_balanced(unbalanced4)
        g = unbalanced4
        assert g.has_arrow(w, x) and g.has_arrow(x, y)
        assert g.has_arrow(y, z) and g.has_arrow(w, z)
        assert g.has_arrow(w, y) != g.has_arrow(x, z)

    @given(digraphs(force_reflexive=True))
    @settings(max_examples=150)
    def test_matches_naive_scan(self, g):
        assert is_balanced(g)[0] == naive_balanced(g)


class TestStable:
    def test_five_arrow_pattern(self, unstable4):
        ok, witness = is_stable(unstable4)
        assert not ok
        assert witness.kind == "stability"
        assert witness.quad == ("a", "b", "c", "d")

    def test_balance_failures_are_tagged(self, unbalanced4):
        ok, witness = is_stable(unbalanced4)
        assert not ok and witness.kind == "balance"

    def test_running_example(self, two_clasps):
        assert is_stable(two_clasps) == (True, None)

    def test_path(self, path3):
        assert is_stable(path3) == (True, None)

    def test_stability_quantifier_is_distinct_only(self, pair2):
        # the pair satisfies the five-arrow pattern only with repeats
        assert is_stable(pair2) == (True, None)

    def test_witness_rechecks(self, unstable4):
        _, witness = is_stable(unstable4)
        a, b, c, d = witness.quad
        g = unstable4
        assert all(
            g.has_arrow(u, v)
            for u, v in [(a, b), (a, c), (b, c), (b, d), (c, d)]
        )
        assert not g.has_arrow(a, d)

    @given(digraphs(force_reflexive=True))
    @settings(max_examples=150)
    def test_matches_naive_scan(self, g):
        expected = naive_balanced(g) and naive_stable_extra(g)
        assert is_stable(g)[0] == expected

    @given(digraphs(max_n=5, force_reflexive=True))
    @settings(max_examples=150)
    def test_local_witness_matches_naive_scan_through_each_vertex(self, g):
        # the expansion loop's local stability check, vertex by vertex
        from splitclosure.predicates import _stable_witness_at

        arrows = g.arrows
        for p, v in enumerate(g.vertices):
            unbalanced = any(
                {(w, x), (x, y), (y, z), (w, z)} <= arrows
                and ((w, y) in arrows) != ((x, z) in arrows)
                for w, x, y, z in itertools.product(g.vertices, repeat=4)
                if v in (w, x, y, z)
            )
            unstable = any(
                {(a, b), (a, c), (b, c), (b, d), (c, d)} <= arrows
                and (a, d) not in arrows
                for a, b, c, d in itertools.permutations(g.vertices, 4)
                if v in (a, b, c, d)
            )
            witness = _stable_witness_at(g, p)
            assert (witness is not None) == (unbalanced or unstable)
            if witness is not None:
                assert v in witness.quad
                assert witness.kind == ("balance" if unbalanced else "stability")


class TestClasps:
    def test_running_example(self, two_clasps):
        records = clasps(two_clasps)
        assert [r.vertex for r in records] == ["2", "4"]
        assert records[0].witness == ("1", "4")
        assert records[1].witness == ("2", "7")
        assert all(r.status == "unlocked" for r in records)

    def test_transitive_graph_has_none(self, split4):
        assert clasps(split4) == ()

    def test_path_clasp(self, path3):
        assert tuple(r.vertex for r in clasps(path3)) == ("y",)

    def test_witnesses_recheck(self, two_clasps):
        for record in clasps(two_clasps):
            w, y = record.witness
            assert w != record.vertex and y != record.vertex
            assert two_clasps.has_arrow(w, record.vertex)
            assert two_clasps.has_arrow(record.vertex, y)
            assert not two_clasps.has_arrow(w, y)

    @given(digraphs(force_reflexive=True))
    def test_transitive_graphs_never_have_clasps(self, g):
        if is_transitive(g):
            assert clasps(g) == ()

    def test_reflexivity_is_checked_once_per_call(self, two_clasps, monkeypatch):
        import splitclosure.predicates as predicates

        calls = []
        original = predicates.missing_loop

        def counting(graph):
            calls.append(graph)
            return original(graph)

        monkeypatch.setattr(predicates, "missing_loop", counting)
        assert len(clasps(two_clasps)) == 2
        assert len(calls) == 1

    def test_requires_reflexive(self):
        from splitclosure import DiGraph

        with pytest.raises(NotReflexive):
            clasps(DiGraph("ab", [("a", "b"), ("b", "b")]))


class TestLockedStatus:
    def test_locked_fixture(self, locked5):
        status = locked_status(locked5, "x")
        assert status.kind == "locked"
        assert status.witness == ("u", "v", "w", "y")

    def test_lock_witness_rechecks(self, locked5):
        u, v, w, y = locked_status(locked5, "x").witness
        g = locked5
        for tail, head in [
            (u, "x"), ("x", y), (u, y),      # (u, x, y)
            ("x", v), (u, v),                 # (u, x, v)
            (w, "x"), (w, v),                 # (w, x, v)
        ]:
            assert g.has_arrow(tail, head)
        assert not g.has_arrow(w, y)

    def test_unlocked(self, two_clasps):
        assert locked_status(two_clasps, "4").kind == "unlocked"

    def test_not_a_clasp(self, two_clasps):
        assert locked_status(two_clasps, "3").kind == "not-a-clasp"

    def test_unknown_vertex(self, two_clasps):
        with pytest.raises(UnknownVertex):
            locked_status(two_clasps, "9")

    def test_requires_reflexive(self, locked5):
        from splitclosure import DiGraph

        arrows = set(locked5.arrows) - {("u", "u")}
        with pytest.raises(NotReflexive):
            locked_status(DiGraph(locked5.vertices, arrows), "x")

    def test_locked_fixture_is_stable(self, locked5):
        assert is_stable(locked5) == (True, None)


class TestSoloists:
    def test_pair_has_none(self, pair2):
        assert soloists(pair2) == ()

    def test_running_example_all_soloists(self, two_clasps):
        assert soloists(two_clasps) == two_clasps.vertices

    def test_is_paired(self, pair2, path3):
        # r and s are paired (r->s and s->r), so neither is a soloist;
        # x and y are joined one way only, so both are
        assert not {"r", "s"} & set(soloists(pair2))
        assert {"x", "y"} <= set(soloists(path3))

    def test_clasps_are_soloists_here(self, two_clasps):
        assert {r.vertex for r in clasps(two_clasps)} <= set(soloists(two_clasps))

    def test_requires_reflexive(self):
        from splitclosure import DiGraph

        with pytest.raises(NotReflexive):
            soloists(DiGraph("a", []))


def test_missing_loop_picks_first_in_order():
    from splitclosure import DiGraph

    g = DiGraph("abc", [("b", "b")])
    assert missing_loop(g) == "a"
