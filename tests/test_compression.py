from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import digraphs, reflexive, step_map
from splitclosure import (
    ChainMismatch,
    CompressionMap,
    CompressionVerdict,
    DiGraph,
    DomainMismatch,
    DuplicateVertex,
    InvalidSplit,
    NotReflexive,
    ParseError,
    PreconditionViolated,
    UnknownVertex,
    compose,
    enumerate_reflexive,
    expand_to_preorder,
    is_isomorphic,
    parse_map_file,
    split_vertex,
    trans_triples,
    verify_compression,
)
from splitclosure.compression import _split_rows


def identity(graph):
    return CompressionMap(graph, graph, {v: v for v in graph.vertices})


@pytest.fixture
def example_map(split4, path3):
    return CompressionMap(
        split4, path3, {"x": "x", "y": "y", "z": "z", "t": "y"}
    )


class TestVerify:
    def test_example_map_is_valid(self, example_map):
        assert verify_compression(example_map).valid

    def test_wrong_image_breaks_arrow_preservation(self, split4, path3):
        cmap = CompressionMap(
            split4, path3, {"x": "x", "y": "y", "z": "z", "t": "x"}
        )
        verdict = verify_compression(cmap)
        assert not verdict.valid
        assert verdict.condition == "cond1"
        assert verdict.witness == ("t", "z")

    def test_identity_is_valid(self, two_clasps):
        assert verify_compression(identity(two_clasps)).valid

    def test_unliftable_triple(self):
        chain = reflexive("xyz", [("x", "y"), ("y", "z"), ("x", "z")])
        source = reflexive(
            ("x", "y", "y2", "z"), [("x", "y"), ("y2", "z"), ("x", "z")]
        )
        cmap = CompressionMap(
            source, chain, {"x": "x", "y": "y", "y2": "y", "z": "z"}
        )
        verdict = verify_compression(cmap)
        assert verdict.condition == "cond2"
        assert verdict.witness == ("x", "y", "z")

    def test_not_surjective(self, path3):
        source = reflexive("ab", [("a", "b")])
        cmap = CompressionMap(source, path3, {"a": "x", "b": "y"})
        verdict = verify_compression(cmap)
        assert verdict.condition == "not-surjective"
        assert verdict.witness == ("z",)

    def test_collapsed_arrow(self, path3):
        target = reflexive("ab", [("a", "b")])
        cmap = CompressionMap(path3, target, {"x": "a", "y": "a", "z": "b"})
        verdict = verify_compression(cmap)
        assert verdict.condition == "cond3-not-well-defined"
        assert verdict.witness == ("x", "y")

    def test_two_arrows_one_image(self):
        source = reflexive(("x", "x2", "y"), [("x", "y"), ("x2", "y")])
        target = reflexive("ab", [("a", "b")])
        cmap = CompressionMap(source, target, {"x": "a", "x2": "a", "y": "b"})
        verdict = verify_compression(cmap)
        assert verdict.condition == "cond3-not-injective"
        assert verdict.witness == ((("x", "y")), ("x2", "y"))

    def test_partial_assignment_rejected(self, split4, path3):
        with pytest.raises(DomainMismatch):
            verify_compression(
                CompressionMap(split4, path3, {"x": "x", "y": "y", "z": "z"})
            )

    def test_stray_image_rejected(self, split4, path3):
        with pytest.raises(DomainMismatch):
            verify_compression(
                CompressionMap(
                    split4, path3, {"x": "x", "y": "y", "z": "z", "t": "q"}
                )
            )

    def test_reflexivity_is_required(self, path3):
        bare = DiGraph("ab", [("a", "a"), ("a", "b")])
        with pytest.raises(NotReflexive):
            verify_compression(
                CompressionMap(bare, path3, {"a": "x", "b": "y"})
            )

    def test_arrow_counts_match_for_valid_maps(self, example_map):
        assert verify_compression(example_map).valid
        source, target = example_map.source, example_map.target
        assert source.arrow_count(include_loops=False) == target.arrow_count(include_loops=False)

    def test_verdict_description(self, example_map):
        assert verify_compression(example_map).describe() == "Valid"

    def test_violation_descriptions_name_their_witnesses(self, path3):
        source = reflexive("ab", [("a", "b")])
        not_surjective = verify_compression(
            CompressionMap(source, path3, {"a": "x", "b": "y"})
        )
        assert "z has no preimage" in not_surjective.describe()

        chain = reflexive("xyz", [("x", "y"), ("y", "z"), ("x", "z")])
        lifted = reflexive(("x", "y", "y2", "z"), [("x", "y"), ("y2", "z"), ("x", "z")])
        cond2 = verify_compression(
            CompressionMap(lifted, chain, {"x": "x", "y": "y", "y2": "y", "z": "z"})
        )
        assert "(x, y, z) has no lift" in cond2.describe()

        target = reflexive("ab", [("a", "b")])
        cond3 = verify_compression(
            CompressionMap(path3, target, {"x": "a", "y": "a", "z": "b"})
        )
        assert "collapses to a loop" in cond3.describe()

        doubled = reflexive(("x", "x2", "y"), [("x", "y"), ("x2", "y")])
        cond3i = verify_compression(
            CompressionMap(doubled, target, {"x": "a", "x2": "a", "y": "b"})
        )
        assert "share an image" in cond3i.describe()

    @pytest.mark.parametrize(
        "condition,witness,text",
        [
            ("not-surjective", ("z",), "violation not-surjective: target vertex z has no preimage"),
            ("cond1", ("a", "b"), "violation cond1: image of arrow a b is not a target arrow"),
            ("cond2", ("x", "y", "z"), "violation cond2: transitive triple (x, y, z) has no lift"),
            (
                "cond3-not-well-defined",
                ("x", "y"),
                "violation cond3: non-loop arrow x y collapses to a loop",
            ),
            (
                "cond3-not-injective",
                (("x", "y"), ("x2", "y")),
                "violation cond3: arrows x y and x2 y share an image",
            ),
            ("cond9", ("p", ("q", "r")), "violation cond9: ('p', ('q', 'r'))"),
        ],
    )
    def test_violation_descriptions_are_pinned(self, condition, witness, text):
        assert CompressionVerdict(False, condition, witness).describe() == text


class TestTransitiveInducing:
    def test_holds_on_example_map(self, example_map):
        src, tgt = example_map.source, example_map.target
        triples = trans_triples(tgt)
        theta = example_map.assignment
        for x, y, z in itertools.product(src.vertices, repeat=3):
            if src.has_arrow(x, y) and src.has_arrow(y, z):
                if (theta[x], theta[y], theta[z]) in triples:
                    assert src.has_arrow(x, z)


class TestCompose:
    def test_composite_of_expansion_chain(self, two_clasps):
        first, second = expand_to_preorder(two_clasps).trace
        first_map = step_map(first, two_clasps)
        second_map = step_map(second, first_map.source)
        composite = compose(first_map, second_map)
        assert composite.assignment["t1"] == "2"
        assert composite.assignment["t2"] == "4"
        assert all(composite.assignment[v] == v for v in two_clasps.vertices)
        assert verify_compression(composite).valid

    def test_identity_is_neutral(self, example_map, path3):
        assert compose(identity(path3), example_map) == example_map

    def test_chain_mismatch(self, example_map, two_clasps):
        with pytest.raises(ChainMismatch):
            compose(identity(two_clasps), example_map)


class TestSplitVertex:
    def test_path_midpoint(self, path3, split4):
        split, cmap = split_vertex(path3, "y", (), ("z",), "t")
        assert is_isomorphic(split, split4) is not None
        assert cmap.assignment["t"] == "y"
        assert verify_compression(cmap).valid

    def test_empty_split_adds_isolated_vertex(self, path3):
        split, cmap = split_vertex(path3, "y", (), (), "t")
        assert split.has_arrow("t", "t")
        assert split.out_neighbors("t") == ("t",)
        assert verify_compression(cmap).valid

    def test_refused_when_a_triple_cannot_lift(self):
        chain = reflexive("xyz", [("x", "y"), ("y", "z"), ("x", "z")])
        with pytest.raises(InvalidSplit) as info:
            split_vertex(chain, "y", (), ("z",), "t")
        assert info.value.verdict.condition == "cond2"
        assert info.value.verdict.witness == ("x", "y", "z")

    def test_label_collision(self, path3):
        with pytest.raises(DuplicateVertex):
            split_vertex(path3, "y", (), ("z",), "x")

    def test_non_neighbor_rejected(self, path3):
        with pytest.raises(PreconditionViolated):
            split_vertex(path3, "y", ("z",), (), "t")
        with pytest.raises(PreconditionViolated):
            split_vertex(path3, "y", (), ("x",), "t")
        with pytest.raises(PreconditionViolated):
            split_vertex(path3, "y", (), ("y",), "t")  # never its own neighbor

    def test_unknown_vertex(self, path3):
        with pytest.raises(UnknownVertex):
            split_vertex(path3, "q", (), (), "t")

    def test_arrow_conservation(self, two_clasps):
        split, cmap = split_vertex(two_clasps, "2", ("1",), (), "t")
        arrows = two_clasps.arrow_count(include_loops=False)
        assert split.arrow_count(include_loops=False) == arrows
        assert verify_compression(cmap).valid

    def test_locked_clasp_existence_transfers_both_ways(self, locked5, two_clasps):
        # for a valid map with stable source, a locked clasp exists on one
        # side exactly when one exists on the other
        from splitclosure import clasps, is_stable

        def locked_somewhere(g):
            return any(r.locked for r in clasps(g))

        lifted, _ = split_vertex(locked5, "u", (), (), "t")
        assert is_stable(lifted)[0]
        assert locked_somewhere(lifted) and locked_somewhere(locked5)

        clean, _ = split_vertex(two_clasps, "2", (), ("4", "6"), "t")
        assert is_stable(clean)[0]
        assert not locked_somewhere(clean) and not locked_somewhere(two_clasps)


class TestSplitProperty:
    @given(digraphs(max_n=4, force_reflexive=True), st.data())
    @settings(max_examples=100)
    def test_every_split_is_refused_or_verified(self, g, data):
        vertex = data.draw(st.sampled_from(g.vertices))
        ins = [u for u in g.in_neighbors(vertex) if u != vertex]
        outs = [u for u in g.out_neighbors(vertex) if u != vertex]
        in_moved = data.draw(st.sets(st.sampled_from(ins))) if ins else set()
        out_moved = data.draw(st.sets(st.sampled_from(outs))) if outs else set()
        try:
            split, cmap = split_vertex(g, vertex, in_moved, out_moved, "fresh")
        except InvalidSplit as refusal:
            assert not refusal.verdict.valid
            return
        assert verify_compression(cmap).valid
        assert split.arrow_count(include_loops=False) == g.arrow_count(include_loops=False)
        assert cmap.assignment["fresh"] == vertex


def reference_split(graph, vertex, tails, heads, new_label):
    """The split rebuilt from label pairs, as the expansion records once
    carried them: drop a -> vertex and vertex -> b for the tails a and the
    heads b, then add a -> new and new -> b.  The reference for the shared
    bit-row primitive."""
    removed = [(a, vertex) for a in tails] + [(vertex, b) for b in heads]
    added = [(a, new_label) for a in tails] + [(new_label, b) for b in heads]
    t = len(graph.vertices)
    rows = list(graph._rows) + [1 << t]

    def at(v):
        return t if v == new_label else graph.index(v)

    for u, v in removed:
        rows[at(u)] &= ~(1 << at(v))
    for u, v in added:
        rows[at(u)] |= 1 << at(v)
    return DiGraph._from_rows(graph.vertices + (new_label,), tuple(rows), graph.name)


@st.composite
def split_cases(draw):
    """A graph on up to 12 vertices, not necessarily reflexive, a vertex x
    and random tail and head masks that avoid x but may hold
    non-neighbours of x."""
    n = draw(st.integers(min_value=1, max_value=12))
    full = (1 << n) - 1
    rows = tuple(draw(st.lists(st.integers(0, full), min_size=n, max_size=n)))
    graph = DiGraph._from_rows(tuple(f"v{i}" for i in range(n)), rows)
    x = draw(st.integers(0, n - 1))
    tails = draw(st.integers(0, full)) & ~(1 << x)
    heads = draw(st.integers(0, full)) & ~(1 << x)
    return graph, x, tails, heads


class TestSplitPrimitiveOracle:
    @given(split_cases())
    @settings(max_examples=300)
    def test_rows_match_the_label_pair_rebuild(self, case):
        graph, x, tails, heads = case
        labels = graph.vertices
        expected = reference_split(
            graph,
            labels[x],
            [labels[a] for a in range(len(labels)) if tails >> a & 1],
            [labels[b] for b in range(len(labels)) if heads >> b & 1],
            "t",
        )
        rows, cols = list(graph._rows), list(graph._cols)
        assert _split_rows(rows, cols, x, tails, heads) == len(labels)
        assert tuple(rows) == expected._rows
        assert tuple(cols) == expected._cols  # the transpose of the rows

    def test_split_vertex_matches_the_reference_on_census_splits(self, monkeypatch):
        import splitclosure.census as census

        tried = []
        genuine = census.split_vertex
        monkeypatch.setattr(
            census, "split_vertex", lambda *args: tried.append(args) or genuine(*args)
        )
        for n in range(1, 4):
            for graph in enumerate_reflexive(n):
                list(census._all_splits(graph))
        monkeypatch.undo()

        valid = 0
        for graph, vertex, tails, heads, new_label in tried:
            expected = reference_split(graph, vertex, tails, heads, new_label)
            assignment = {v: v for v in graph.vertices}
            assignment[new_label] = vertex
            verdict = verify_compression(CompressionMap(expected, graph, assignment))
            if verdict.valid:
                split, cmap = split_vertex(graph, vertex, tails, heads, new_label)
                assert split == expected and split._cols == expected._cols
                assert cmap == CompressionMap(expected, graph, assignment)
                valid += 1
            else:
                with pytest.raises(InvalidSplit) as info:
                    split_vertex(graph, vertex, tails, heads, new_label)
                assert info.value.verdict == verdict
        assert 0 < valid < len(tried)


class TestMapFile:
    def test_identity_defaulting(self, split4, path3):
        cmap = parse_map_file("t y\n", split4, path3)
        assert cmap.assignment == {"x": "x", "y": "y", "z": "z", "t": "y"}

    def test_comments_and_blanks(self, split4, path3):
        cmap = parse_map_file("# the split vertex\n\nt y\n", split4, path3)
        assert cmap.assignment["t"] == "y"

    def test_non_total_rejected(self, split4):
        target = reflexive("ab", [("a", "b")])
        with pytest.raises(DomainMismatch):
            parse_map_file("x a\ny a\nz b\n", split4, target)

    def test_malformed_line(self, split4, path3):
        with pytest.raises(ParseError):
            parse_map_file("t\n", split4, path3)

    def test_unknown_names(self, split4, path3):
        with pytest.raises(ParseError):
            parse_map_file("q y\n", split4, path3)
        with pytest.raises(ParseError):
            parse_map_file("t q\n", split4, path3)

    def test_repeated_mapping(self, split4, path3):
        with pytest.raises(ParseError):
            parse_map_file("t y\nt x\n", split4, path3)
