from __future__ import annotations

import pytest

from conftest import assert_valid_trace_json, reflexive, step_map
from splitclosure import (
    ConstructionChoice,
    InternalInvariantBreached,
    LockedClasp,
    NotReflexive,
    NotStable,
    PreconditionViolated,
    clasps,
    construction_a,
    construction_b,
    expand_to_preorder,
    is_isomorphic,
    is_preordered,
    is_stable,
    select_construction,
    verify_compression,
)
from splitclosure.expansion import _clasp_context


@pytest.fixture
def chain_middle(two_clasps):
    """The graph after splitting clasp 2 of the running example."""
    return expand_to_preorder(two_clasps).trace[0].apply(two_clasps)


class TestClaspContext:
    def test_first_iteration(self, two_clasps):
        ctx = _clasp_context(two_clasps, "2")
        assert ctx.witness_heads == ("4", "6")
        assert ctx.triple_tails == ()

    def test_second_iteration(self, chain_middle):
        ctx = _clasp_context(chain_middle, "4")
        assert ctx.witness_heads == ("6", "7")
        assert ctx.triple_tails == ("3", "t1")

    def test_path(self, path3):
        ctx = _clasp_context(path3, "y")
        assert ctx.witness_heads == ("z",)
        assert ctx.triple_tails == ()

    def test_not_a_clasp(self, two_clasps):
        # the loop passes only clasps, so a non-clasp is a bug
        with pytest.raises(InternalInvariantBreached, match="not a clasp"):
            _clasp_context(two_clasps, "3")


class TestSelect:
    def test_rule_a_when_no_triple_tails(self, two_clasps):
        ctx = _clasp_context(two_clasps, "2")
        assert select_construction(two_clasps, "2", ctx).kind == "A"

    def test_rule_b_witnesses(self, chain_middle):
        ctx = _clasp_context(chain_middle, "4")
        choice = select_construction(chain_middle, "4", ctx)
        assert choice.kind == "B"
        assert choice.detour_tail == "3"
        assert choice.kept_tail == "t1"
        assert choice.pivot_head == "6"

    def test_path_forces_rule_a(self, path3):
        ctx = _clasp_context(path3, "y")
        assert select_construction(path3, "y", ctx).kind == "A"


class TestConstructionA:
    def test_running_example(self, two_clasps):
        ctx = _clasp_context(two_clasps, "2")
        choice = select_construction(two_clasps, "2", ctx)
        record = construction_a(two_clasps, "2", ctx, choice, "t1")
        graph = record.apply(two_clasps)
        assert record.heads == ("4", "6")
        assert set(record.removed) == {("2", "4"), ("2", "6")}
        assert set(record.added) == {("t1", "4"), ("t1", "6")}
        assert graph.has_arrow("1", "2"), "in-arrows outside the tails stay"
        assert graph.has_arrow("t1", "t1")

    def test_path_produces_the_known_split(self, path3, split4):
        ctx = _clasp_context(path3, "y")
        choice = select_construction(path3, "y", ctx)
        record = construction_a(path3, "y", ctx, choice, "t1")
        graph = record.apply(path3)
        assert record.heads == ("z",)
        assert is_isomorphic(graph, split4) is not None

    def test_counts_balance_and_heads_are_covered(self, two_clasps, path3):
        for g, x in [(two_clasps, "2"), (path3, "y")]:
            ctx = _clasp_context(g, x)
            record = construction_a(g, x, ctx, select_construction(g, x, ctx), "t1")
            assert set(record.tails) <= set(g.in_neighbors(x)) - {x}
            assert set(record.heads) <= set(g.out_neighbors(x)) - {x}
            assert set(ctx.witness_heads) <= set(record.heads)

    def test_refused_when_rule_b_applies(self, chain_middle):
        ctx = _clasp_context(chain_middle, "4")
        choice = select_construction(chain_middle, "4", ctx)
        with pytest.raises(PreconditionViolated):
            construction_a(chain_middle, "4", ctx, choice, "t2")


class TestConstructionAWithTails:
    # rule A can fire with triple tails present, when every tail keeps its
    # chord to every witness head; the tails' arrows into the clasp move too
    @pytest.fixture
    def tailed(self):
        return reflexive(
            "abcd",
            [("b", "d"), ("c", "a"), ("c", "d"), ("d", "a")],
        )

    def test_context_and_choice(self, tailed):
        ctx = _clasp_context(tailed, "d")
        assert ctx.witness_heads == ("a",)
        assert ctx.triple_tails == ("c",)
        assert select_construction(tailed, "d", ctx).kind == "A"

    def test_in_arrows_move_with_the_tails(self, tailed):
        ctx = _clasp_context(tailed, "d")
        choice = select_construction(tailed, "d", ctx)
        record = construction_a(tailed, "d", ctx, choice, "t1")
        graph = record.apply(tailed)
        assert set(record.removed) == {("c", "d"), ("d", "a")}
        assert set(record.added) == {("c", "t1"), ("t1", "a")}
        assert graph.has_arrow("b", "d"), "non-tail in-arrows stay put"
        assert is_preordered(graph)

    def test_whole_run(self, tailed):
        outcome = expand_to_preorder(tailed)
        assert outcome.iterations == 1
        assert verify_compression(outcome.mapping).valid


def rule_b(graph, vertex, pivot_head, new_vertex, index=1):
    """construction_b at ``pivot_head``, with the tails that pivot sorts
    into kept (chord present) and detoured (chord missing) as witnesses."""
    ctx = _clasp_context(graph, vertex)
    kept = [a for a in ctx.triple_tails if graph.has_arrow(a, pivot_head)]
    detour = [a for a in ctx.triple_tails if not graph.has_arrow(a, pivot_head)]
    choice = ConstructionChoice(
        "B",
        detour_tail=detour[0] if detour else None,
        kept_tail=kept[0] if kept else None,
        pivot_head=pivot_head,
    )
    return construction_b(graph, vertex, ctx, choice, new_vertex, index)


class TestConstructionB:
    def test_running_example_second_step(self, chain_middle):
        record = rule_b(chain_middle, "4", "6", "t2", index=2)
        graph = record.apply(chain_middle)
        assert record.moved_pairs == (("3", "7"),)
        assert set(record.removed) == {("3", "4"), ("4", "7")}
        assert set(record.added) == {("3", "t2"), ("t2", "7")}
        assert is_preordered(graph)

    def test_alternate_pivot_head(self, chain_middle):
        record = rule_b(chain_middle, "4", "7", "t2", index=2)
        assert record.moved_pairs == (("t1", "6"),)
        assert set(record.removed) == {("t1", "4"), ("4", "6")}
        assert set(record.added) == {("t1", "t2"), ("t2", "6")}

    def test_detoured_chords_already_exist(self, chain_middle):
        record = rule_b(chain_middle, "4", "6", "t2")
        for c, z in record.moved_pairs:
            assert chain_middle.has_arrow(c, z)

    def test_bad_pivot_rejected(self, chain_middle):
        with pytest.raises(PreconditionViolated):
            rule_b(chain_middle, "4", "1", "t2")

    def test_rejected_when_rule_a_applies(self, two_clasps):
        with pytest.raises(PreconditionViolated):
            rule_b(two_clasps, "2", "4", "t1")

    def test_witnesses_must_fit_the_pivot(self, chain_middle):
        ctx = _clasp_context(chain_middle, "4")
        swapped = ConstructionChoice("B", detour_tail="t1", kept_tail="3", pivot_head="6")
        with pytest.raises(PreconditionViolated):
            construction_b(chain_middle, "4", ctx, swapped, "t2")


class TestExpandOnce:
    """Single iterations, replayed from the trace of ``expand_to_preorder``
    with their step maps."""

    def test_first_step_of_running_example(self, two_clasps):
        record = expand_to_preorder(two_clasps).trace[0]
        cmap = step_map(record, two_clasps)
        graph = cmap.source
        assert cmap.assignment["t1"] == "2"
        assert verify_compression(cmap).valid
        assert is_stable(graph)[0]
        assert all(not r.locked for r in clasps(graph))
        assert record.choice.kind == "A"

    def test_second_step_reaches_preorder(self, two_clasps, chain_middle):
        cmap = step_map(expand_to_preorder(two_clasps).trace[1], chain_middle)
        assert is_preordered(cmap.source)
        assert cmap.assignment["t2"] == "4"

    def test_path(self, path3, split4):
        cmap = step_map(expand_to_preorder(path3).trace[0], path3)
        assert is_isomorphic(cmap.source, split4) is not None
        assert cmap.assignment["t1"] == "y"

    def test_locked_clasp_elsewhere_rejected(self, locked5, monkeypatch):
        # the least clasp q is unlocked and x, in the other component, is
        # locked: the entry check refuses before any rule function runs
        import splitclosure.expansion as expansion

        g = reflexive(
            ("p", "q", "r") + locked5.vertices,
            set(locked5.arrows) | {("p", "q"), ("q", "r")},
        )
        records = [(r.vertex, r.locked) for r in clasps(g)]
        assert records[0] == ("q", False) and ("x", True) in records
        calls = []
        for attr in ("construction_a", "construction_b", "select_construction"):
            genuine = getattr(expansion, attr)

            def counted(*args, _attr=attr, _genuine=genuine, **kwargs):
                calls.append(_attr)
                return _genuine(*args, **kwargs)

            monkeypatch.setattr(expansion, attr, counted)
        with pytest.raises(LockedClasp) as info:
            expand_to_preorder(g)
        assert info.value.vertex == "x"
        assert calls == []


class TestExpandToPreorder:
    def test_path(self, path3, split4):
        outcome = expand_to_preorder(path3)
        assert outcome.iterations == 1
        assert is_isomorphic(outcome.result, split4) is not None
        assert outcome.mapping.assignment["t1"] == "y"
        assert verify_compression(outcome.mapping).valid

    def test_running_example_full_trace(self, two_clasps):
        outcome = expand_to_preorder(two_clasps)
        assert outcome.iterations == 2
        first, second = outcome.trace

        assert first.clasp == "2" and first.choice.kind == "A"
        assert first.context.witness_heads == ("4", "6")
        assert first.context.triple_tails == ()
        assert first.heads == ("4", "6")
        assert set(first.removed) == {("2", "4"), ("2", "6")}
        assert set(first.added) == {("t1", "4"), ("t1", "6")}
        assert first.new_vertex == "t1"

        assert second.clasp == "4" and second.choice.kind == "B"
        assert second.context.witness_heads == ("6", "7")
        assert second.context.triple_tails == ("3", "t1")
        assert second.choice.detour_tail == "3"
        assert second.choice.kept_tail == "t1"
        assert second.choice.pivot_head == "6"
        assert second.moved_pairs == (("3", "7"),)
        assert set(second.removed) == {("3", "4"), ("4", "7")}
        assert set(second.added) == {("3", "t2"), ("t2", "7")}

        assert is_preordered(outcome.result)
        assert outcome.mapping.assignment["t1"] == "2"
        assert outcome.mapping.assignment["t2"] == "4"

    def test_already_preordered(self, split4):
        outcome = expand_to_preorder(split4)
        assert outcome.iterations == 0
        assert outcome.result == split4
        assert list(outcome.mapping.to_json().items()) == [(v, v) for v in split4.vertices]

    def test_locked_input_rejected_before_any_work(self, locked5):
        with pytest.raises(LockedClasp) as info:
            expand_to_preorder(locked5)
        assert info.value.vertex == "x"

    def test_unstable_input_rejected(self, unstable4):
        with pytest.raises(NotStable):
            expand_to_preorder(unstable4)

    def test_non_reflexive_input_rejected(self):
        from splitclosure import DiGraph

        with pytest.raises(NotReflexive):
            expand_to_preorder(DiGraph("ab", [("a", "a")]))

    def test_arrow_conservation(self, two_clasps):
        outcome = expand_to_preorder(two_clasps)
        arrows = two_clasps.arrow_count(include_loops=False)
        assert outcome.result.arrow_count(include_loops=False) == arrows
        assert len(outcome.result.vertices) == len(two_clasps.vertices) + 2

    def test_original_vertices_map_to_themselves(self, two_clasps):
        outcome = expand_to_preorder(two_clasps)
        for v in two_clasps.vertices:
            assert outcome.mapping.assignment[v] == v
        assert set(outcome.mapping.assignment.values()) <= set(two_clasps.vertices)

    def test_iteration_cap(self, two_clasps):
        cap = len(two_clasps.vertices) + 2 * two_clasps.arrow_count(include_loops=False)
        assert expand_to_preorder(two_clasps).iterations <= cap

    def test_deterministic_trace(self, two_clasps):
        first = expand_to_preorder(two_clasps).to_json()
        second = expand_to_preorder(two_clasps).to_json()
        assert first == second

    def test_trace_serialization_shape(self, two_clasps):
        assert_valid_trace_json(expand_to_preorder(two_clasps).to_json())

    def test_fresh_names_skip_existing_labels(self):
        g = reflexive(("t1", "a", "b"), [("t1", "a"), ("a", "b")])
        outcome = expand_to_preorder(g)
        assert outcome.iterations == 1
        assert outcome.trace[0].new_vertex == "t2"

    def test_isolated_vertices_survive_untouched(self):
        g = reflexive(("x", "y", "z", "iso"), [("x", "y"), ("y", "z")])
        outcome = expand_to_preorder(g)
        assert "iso" in outcome.result
        assert outcome.result.out_neighbors("iso") == ("iso",)


def test_trace_invariants_across_the_small_census():
    """Every run on a stable all-unlocked class up to 4 vertices keeps the
    per-iteration ledger invariants and a schema-valid serialization."""
    from splitclosure import clasps, enumerate_reflexive

    runs = 0
    for n in range(1, 5):
        for g in enumerate_reflexive(n):
            if not is_stable(g)[0] or any(r.locked for r in clasps(g)):
                continue
            outcome = expand_to_preorder(g)
            runs += 1
            before = g
            for record in outcome.trace:
                x = record.clasp
                assert set(record.tails) <= set(before.in_neighbors(x)) - {x}
                assert set(record.heads) <= set(before.out_neighbors(x)) - {x}
                before = record.apply(before)
                assert record.context.witness_heads
                if record.choice.kind == "A":
                    assert set(record.context.witness_heads) <= set(
                        record.heads
                    )
                else:
                    assert record.moved_pairs
            assert_valid_trace_json(outcome.to_json())
    assert runs == 70


class TestLocalChecksFire:
    """Each local re-check of the loop must catch a split that breaks what
    it guards.  The rule's output is replaced by a faulty record; checks
    that run before the one under test are switched off where the fault
    would trip them first."""

    @staticmethod
    def inject(monkeypatch, tails, heads):
        import dataclasses

        import splitclosure.expansion as expansion

        genuine = expansion.construction_a

        def faulty(*args, **kwargs):
            record = genuine(*args, **kwargs)
            return dataclasses.replace(record, tails=tails, heads=heads)

        monkeypatch.setattr(expansion, "construction_a", faulty)
        return expansion

    def test_step_map(self, path3, monkeypatch):
        # t1 -> x maps to y -> x, which is not an arrow of the path
        self.inject(monkeypatch, (), ("x",))
        with pytest.raises(InternalInvariantBreached, match="step map"):
            expand_to_preorder(path3)

    def test_stability(self, monkeypatch):
        # a 3-cycle a -> c -> b -> a; pairing t1 with b leaves c -> b -> t1
        # -> b with the chord b -> b but not c -> t1: unbalanced
        cycle = reflexive("abc", [("a", "c"), ("b", "a"), ("c", "b")])
        expansion = self.inject(monkeypatch, ("b",), ("b",))
        monkeypatch.setattr(expansion, "_check_step_map", lambda *args: None)
        with pytest.raises(InternalInvariantBreached, match="unstable"):
            expand_to_preorder(cycle)

    def test_lock_freeness(self, monkeypatch):
        # the faulty split leaves a stable graph with a locked clasp next
        # to the split vertex c
        g = reflexive(
            "abcde",
            [("c", "e"), ("d", "a"), ("d", "b"), ("d", "c"), ("e", "a"),
             ("e", "b"), ("e", "d")],
        )
        expansion = self.inject(monkeypatch, (), ("a", "d"))
        monkeypatch.setattr(expansion, "_check_step_map", lambda *args: None)
        with pytest.raises(InternalInvariantBreached, match="locked clasp"):
            expand_to_preorder(g)
