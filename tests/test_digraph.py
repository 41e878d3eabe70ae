from __future__ import annotations

import itertools
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import digraphs, reflexive
from splitclosure import (
    BoundExceeded,
    DiGraph,
    DuplicateArrow,
    DuplicateVertex,
    ParseError,
    UnknownVertex,
    canonical_form,
    emit_digraph,
    expand_to_preorder,
    graph_from_mask,
    is_isomorphic,
    is_star_acyclic,
    parse_digraph,
    property_report,
    verify_compression,
)
from splitclosure.digraph import bits

# comment marker, directive colon, DOT metacharacters, and whitespace
# that only Unicode calls whitespace
ADVERSARIAL_CHARS = '#:"\\a\u00e9 \u2028'

PATH_TEXT = """\
vertices: x y z
loops: auto
arrows:
x y
y z
"""


class TestParse:
    def test_loops_auto_adds_all_loops(self):
        g = parse_digraph(PATH_TEXT)
        assert g.vertices == ("x", "y", "z")
        assert len(g.arrows) == 5  # 2 listed + 3 loops
        assert g.has_arrow("x", "x") and g.has_arrow("x", "y")

    def test_auto_is_the_default(self):
        g = parse_digraph("vertices: a b\narrows:\na b\n")
        assert g.has_arrow("a", "a")

    def test_loops_explicit_is_verbatim(self):
        g = parse_digraph("vertices: a b\nloops: explicit\narrows:\na b\na a\n")
        assert g.arrows == frozenset({("a", "b"), ("a", "a")})

    def test_duplicate_arrow_line_rejected(self):
        text = "vertices: x y z\narrows:\nx y\nx y\n"
        with pytest.raises(DuplicateArrow):
            parse_digraph(text)

    def test_unlisted_endpoint_rejected(self):
        with pytest.raises(UnknownVertex):
            parse_digraph("vertices: x y z\narrows:\nx w\n")

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(DuplicateVertex):
            parse_digraph("vertices: x y x\narrows:\n")

    def test_comments_and_blanks_anywhere(self):
        text = "# heading\n\ndigraph: g\n# mid\nvertices: a b\n\narrows:\n# before\na b\n# after\n"
        g = parse_digraph(text)
        assert g.name == "g" and g.has_arrow("a", "b")

    @pytest.mark.parametrize(
        "text",
        [
            "vertices: a b\n",  # no arrows section
            "arrows:\na b\n",  # arrows before vertices
            "vertices: a\nloops: maybe\narrows:\n",  # bad loops value
            "vertices: a b\narrows:\na b c\n",  # three tokens
            "vertices: a\nwhat: ever\narrows:\n",  # unknown directive
            "digraph:\nvertices: a\narrows:\n",  # empty name
            "vertices: a\nvertices: a\narrows:\n",  # repeated vertices
        ],
    )
    def test_malformed_documents(self, text):
        with pytest.raises(ParseError):
            parse_digraph(text)

    def test_directive_after_arrows_reads_as_arrow_line(self):
        # ':' is legal inside labels, so this is an arrow over unlisted ones
        with pytest.raises(UnknownVertex):
            parse_digraph("vertices: a\narrows:\ndigraph: g\n")


class TestEmit:
    def test_round_trip(self, two_clasps):
        assert parse_digraph(emit_digraph(two_clasps)) == two_clasps

    def test_round_trip_non_reflexive(self):
        g = DiGraph("ab", [("a", "b"), ("a", "a")])
        text = emit_digraph(g)
        assert "loops: explicit" in text
        assert parse_digraph(text) == g

    def test_emit_is_deterministic(self, two_clasps):
        assert emit_digraph(two_clasps) == emit_digraph(two_clasps)

    def test_empty_graph_round_trips(self):
        g = parse_digraph("vertices:\narrows:\n")
        assert g.vertices == () and g.arrows == frozenset()
        assert parse_digraph(emit_digraph(g)) == g

    def test_dot_suppresses_loops(self, path3):
        dot = emit_digraph(path3, "dot")
        assert dot.count("->") == 2
        assert '"x" -> "y";' in dot

    def test_dot_unnamed_graph(self):
        g = reflexive("ab", [("a", "b")])
        assert emit_digraph(g, "dot").startswith("digraph G {")

    def test_unknown_format(self, path3):
        with pytest.raises(ValueError):
            emit_digraph(path3, "svg")

    @given(digraphs(max_n=5))
    def test_round_trip_property(self, g):
        assert parse_digraph(emit_digraph(g)) == g

    @given(
        st.lists(st.text(ADVERSARIAL_CHARS, max_size=3), min_size=1, max_size=4, unique=True),
        st.data(),
    )
    @settings(max_examples=200)
    def test_every_accepted_label_round_trips(self, labels, data):
        # a label is either refused up front or survives dg text unchanged
        try:
            DiGraph(labels, [])
        except ValueError:
            return
        pairs = [(u, v) for u in labels for v in labels]
        g = DiGraph(labels, data.draw(st.sets(st.sampled_from(pairs))))
        assert parse_digraph(emit_digraph(g)) == g

    @given(
        st.lists(
            st.text(ADVERSARIAL_CHARS, min_size=1, max_size=4),
            min_size=300,
            max_size=650,
            unique=True,
        ),
        st.data(),
    )
    @settings(max_examples=15, deadline=None)
    def test_large_graphs_with_odd_labels_round_trip(self, labels, data):
        # the whole list is refused at its first bad label; the accepted
        # labels make a graph of 100-300 vertices that survives dg text
        bad = [v for v in labels if v[0] == "#" or any(c.isspace() for c in v)]
        if bad:
            with pytest.raises(ValueError, match=re.escape(repr(bad[0]))):
                DiGraph(labels, [])
        accepted = [v for v in labels if v not in bad][:300]
        if len(accepted) < 100:
            return
        n = len(accepted)
        index = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(index, index), max_size=3 * n))
        g = DiGraph(accepted, [(accepted[i], accepted[j]) for i, j in pairs], name="big")
        assert parse_digraph(emit_digraph(g)) == g
        looped = DiGraph(accepted, g.arrows | {(v, v) for v in accepted})  # emitted as loops: auto
        assert parse_digraph(emit_digraph(looped)) == looped

    def test_hash_labels_are_refused(self):
        # "#a b" would read back as a comment and lose the arrow
        with pytest.raises(ValueError):
            DiGraph(["#a", "b"], [("#a", "b")])
        with pytest.raises(ParseError):
            parse_digraph("vertices: #a b\narrows:\n")

    def test_dot_quotes_names_that_are_not_plain_ids(self):
        g = parse_digraph('digraph: my "graph"\nvertices: a b\narrows:\na b\n')
        assert emit_digraph(g, "dot").startswith('digraph "my \\"graph\\"" {\n')

        def head(name):
            return emit_digraph(DiGraph("a", [], name=name), "dot").split("\n")[0]

        for name in ("layered-0", "3x", "graph", "Digraph", "a\\b"):
            assert head(name) == 'digraph "' + name.replace("\\", "\\\\") + '" {'
        for name in ("G", "twoclasps", "_x1", "grafé", "3", "-2.5", ".5", "graph_1"):
            assert head(name) == f"digraph {name} {{"

    def test_dot_escapes_quotes_and_backslashes(self):
        g = reflexive(['a"b', "c\\", "d"], [('a"b', "c\\"), ("c\\", "d")])
        dot = emit_digraph(g, "dot")
        assert '  "a\\"b" -> "c\\\\";' in dot
        assert '  "c\\\\" -> "d";' in dot


class TestDerivedGraphs:
    def test_star_drops_loops_only(self, path3):
        s = path3.star()
        assert s.vertices == path3.vertices
        assert s.arrows == frozenset({("x", "y"), ("y", "z")})

    def test_star_of_loops_only_graph(self):
        g = reflexive("ab", [])
        assert g.star().arrows == frozenset()

    def test_star_arrow_count(self, two_clasps):
        assert len(two_clasps.star().arrows) == 7

    @given(digraphs())
    def test_star_idempotent(self, g):
        assert g.star().star() == g.star()

    def test_induced_restriction(self, two_clasps):
        sub = two_clasps.induced({"2", "4", "6"})
        assert sub.non_loop_arrows() == frozenset(
            {("2", "4"), ("2", "6"), ("4", "6")}
        )

    def test_induced_on_everything_is_identity(self, two_clasps):
        assert two_clasps.induced(two_clasps.vertices) == two_clasps

    def test_induced_can_be_arrowless(self, path3):
        assert path3.induced({"x", "z"}).non_loop_arrows() == frozenset()

    def test_induced_unknown_vertex(self, path3):
        with pytest.raises(UnknownVertex):
            path3.induced({"x", "q"})

    @given(digraphs(max_n=5))
    def test_induced_arrow_equation(self, g):
        subset = g.vertices[::2]
        sub = g.induced(subset)
        keep = set(subset)
        assert sub.arrows == frozenset(
            (u, v) for (u, v) in g.arrows if u in keep and v in keep
        )


def _reach_closure(g: DiGraph) -> frozenset:
    """Independent oracle: arrows of the closure via DFS reachability."""
    arrows = set()
    for v in g.vertices:
        seen: set[str] = set()
        stack = list(g.out_neighbors(v))
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(g.out_neighbors(u))
        arrows.update((v, u) for u in seen)
    return frozenset(arrows)


class TestTransitiveClosure:
    def test_path_gains_single_arrow(self, path3):
        closed = path3.transitive_closure()
        assert closed.arrows - path3.arrows == {("x", "z")}

    def test_running_example_gains_five(self, two_clasps):
        closed = two_clasps.transitive_closure()
        assert closed.arrows - two_clasps.arrows == {
            ("1", "4"), ("1", "6"), ("1", "7"), ("2", "7"), ("3", "6"),
        }

    def test_fixed_point_on_transitive_graph(self, split4):
        assert split4.transitive_closure() == split4

    @given(digraphs(max_n=5))
    def test_matches_reachability_oracle(self, g):
        assert g.transitive_closure().arrows == _reach_closure(g)

    @given(digraphs())
    def test_idempotent_and_extensive(self, g):
        once = g.transitive_closure()
        assert g.arrows <= once.arrows
        assert once.transitive_closure() == once

    @given(digraphs())
    def test_monotone_under_arrow_removal(self, g):
        arrows = sorted(g.arrows)
        if not arrows:
            return
        smaller = DiGraph(g.vertices, arrows[:-1])
        assert smaller.transitive_closure().arrows <= g.transitive_closure().arrows


def _witness_ok(g1: DiGraph, g2: DiGraph, mapping: dict[str, str]) -> bool:
    if sorted(mapping) != sorted(g1.vertices):
        return False
    if sorted(mapping.values()) != sorted(g2.vertices):
        return False
    image = {(mapping[u], mapping[v]) for (u, v) in g1.arrows}
    return image == set(g2.arrows)


class TestIsomorphism:
    def test_relabeling_found(self, path3):
        other = reflexive("abc", [("a", "b"), ("b", "c")])
        found = is_isomorphic(path3, other)
        assert found is not None and _witness_ok(path3, other, found)

    def test_different_sizes(self, path3, split4):
        assert is_isomorphic(path3, split4) is None

    def test_two_vertex_swap(self):
        g1 = reflexive("ab", [("a", "b")])
        g2 = reflexive("ab", [("b", "a")])
        found = is_isomorphic(g1, g2)
        assert found == {"a": "b", "b": "a"}

    def test_empty_graphs_give_an_empty_witness(self):
        # {} is falsy, so callers must compare with ``is not None``
        found = is_isomorphic(DiGraph([]), DiGraph([]))
        assert found is not None and found == {}

    def test_same_size_non_isomorphic(self):
        g1 = reflexive("abc", [("a", "b"), ("b", "c")])
        g2 = reflexive("abc", [("a", "b"), ("a", "c")])
        assert is_isomorphic(g1, g2) is None

    def test_canonical_form_cache_is_bounded(self):
        from splitclosure.digraph import _canonical_packed

        maxsize = _canonical_packed.cache_info().maxsize
        assert maxsize is not None and maxsize >= 369  # distinct keys of the n <= 5 sweep

    @given(digraphs())
    @settings(max_examples=50)
    def test_reflexive_symmetric(self, g):
        self_map = is_isomorphic(g, g)
        assert self_map is not None and _witness_ok(g, g, self_map)
        relabeled = DiGraph(
            tuple(f"w{i}" for i in range(len(g.vertices))),
            [
                (f"w{g.index(u)}", f"w{g.index(v)}")
                for (u, v) in g.arrows
            ],
        )
        forward = is_isomorphic(g, relabeled)
        assert forward is not None and _witness_ok(g, relabeled, forward)
        assert _witness_ok(relabeled, g, {b: a for a, b in forward.items()})

    @given(digraphs(max_n=3))
    @settings(max_examples=25)
    def test_witness_composition(self, g):
        n = len(g.vertices)
        second = DiGraph(
            tuple(f"w{i}" for i in range(n)),
            [(f"w{g.index(u)}", f"w{g.index(v)}") for (u, v) in g.arrows],
        )
        third = DiGraph(
            tuple(f"u{i}" for i in range(n)),
            [(f"u{n - 1 - g.index(u)}", f"u{n - 1 - g.index(v)}") for (u, v) in g.arrows],
        )
        ab = is_isomorphic(g, second)
        bc = is_isomorphic(second, third)
        assert ab is not None and bc is not None
        composed = {v: bc[ab[v]] for v in g.vertices}
        image = {(composed[u], composed[v]) for (u, v) in g.arrows}
        assert image == set(third.arrows)


def reference_isomorphism(first: DiGraph, second: DiGraph):
    """Brute-force witness search over every vertex permutation: the
    reference for the canonical-order witness of ``is_isomorphic``."""
    n = len(first.vertices)
    if n != len(second.vertices):
        return None
    rows1, rows2 = first._rows, second._rows
    for perm in itertools.permutations(range(n)):
        ok = True
        for i in range(n):
            target = 0
            for j in bits(rows1[i]):
                target |= 1 << perm[j]
            if rows2[perm[i]] != target:
                ok = False
                break
        if ok:
            return {first.vertices[i]: second.vertices[perm[i]] for i in range(n)}
    return None


@st.composite
def _graph_pairs(draw):
    """A graph on at most five vertices and, in turn, a relabeling of it,
    a relabeling with one cell of the matrix flipped, or an unrelated graph."""
    g = draw(digraphs(max_n=5))
    n = len(g.vertices)
    kind = draw(st.sampled_from(["relabeled", "flipped", "unrelated"]))
    if kind == "unrelated":
        return g, draw(digraphs(max_n=5))
    perm = draw(st.permutations(range(n)))
    labels = [f"w{perm[i]}" for i in range(n)]
    arrows = {(labels[g.index(u)], labels[g.index(v)]) for u, v in g.arrows}
    if kind == "flipped":
        cell = (draw(st.sampled_from(labels)), draw(st.sampled_from(labels)))
        arrows ^= {cell}
    return g, DiGraph(sorted(labels), arrows)


class TestIsomorphismOracle:
    """``is_isomorphic`` against the brute-force permutation search."""

    def _agrees(self, g1: DiGraph, g2: DiGraph) -> None:
        found = is_isomorphic(g1, g2)
        assert (found is None) == (reference_isomorphism(g1, g2) is None)
        if found is not None:
            assert _witness_ok(g1, g2, found)

    def test_every_labeled_pair_on_three_vertices(self):
        graphs = [graph_from_mask(3, m) for m in range(64)]
        for g1, g2 in itertools.product(graphs, repeat=2):
            self._agrees(g1, g2)

    @given(_graph_pairs())
    @settings(max_examples=300)
    def test_random_pairs_up_to_five_vertices(self, pair):
        self._agrees(*pair)

    def test_search_is_bounded_at_eight_vertices(self):
        g = reflexive([f"v{i}" for i in range(10)], [])
        with pytest.raises(BoundExceeded):
            canonical_form(g)
        with pytest.raises(BoundExceeded):
            is_isomorphic(g, g)


class TestStarAcyclic:
    def test_running_example(self, two_clasps):
        assert is_star_acyclic(two_clasps)

    def test_two_cycle(self, pair2):
        assert not is_star_acyclic(pair2)

    def test_single_vertex(self):
        assert is_star_acyclic(reflexive("a", []))

    def test_long_cycle(self):
        g = reflexive("abc", [("a", "b"), ("b", "c"), ("c", "a")])
        assert not is_star_acyclic(g)

    @given(digraphs(max_n=6))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_closure_of_the_star(self, g):
        closure = g.star().transitive_closure()
        assert is_star_acyclic(g) == (not any(closure.has_arrow(v, v) for v in g.vertices))

    @pytest.mark.parametrize("closed", [False, True], ids=["path", "cycle"])
    def test_three_thousand_vertices_finish_quickly(self, closed):
        n = 3000
        labels = [f"v{i}" for i in range(n)]
        arrows = list(zip(labels, labels[1:])) + ([(labels[-1], labels[0])] if closed else [])
        g = reflexive(labels, arrows)
        start = time.perf_counter()
        assert is_star_acyclic(g) is not closed
        assert time.perf_counter() - start < 0.5


class TestConstruction:
    def test_bad_labels(self):
        with pytest.raises(ValueError):
            DiGraph(("a", ""), [])
        with pytest.raises(ValueError):
            DiGraph(("a", "b c"), [])

    def test_unknown_arrow_endpoint(self):
        with pytest.raises(UnknownVertex):
            DiGraph("ab", [("a", "q")])

    def test_equality_ignores_name(self, path3):
        clone = DiGraph(path3.vertices, path3.arrows, name="different")
        assert clone == path3 and hash(clone) == hash(path3)

    def test_vertex_order_is_significant(self):
        g1 = reflexive("ab", [])
        g2 = reflexive("ba", [])
        assert g1 != g2

    def test_sorted_arrows_follow_vertex_order(self, two_clasps):
        arrows = two_clasps.sorted_arrows(include_loops=False)
        assert arrows[0] == ("1", "2") and arrows[-1] == ("4", "7")


class TestRowsConstruction:
    @given(digraphs(max_n=6))
    def test_rows_and_pairs_build_the_same_graph(self, g):
        from_rows = DiGraph._from_rows(g.vertices, g._rows, name="r")
        assert from_rows == g and hash(from_rows) == hash(g)
        assert from_rows._cols == g._cols and from_rows.arrows == g.arrows
        assert DiGraph(g.vertices, from_rows.arrows)._rows == g._rows
        for j, col in enumerate(g._cols):
            assert col == sum(1 << i for i, row in enumerate(g._rows) if (row >> j) & 1)

    @given(digraphs(max_n=3), digraphs(max_n=3))
    def test_equality_means_same_vertices_and_arrows(self, g1, g2):
        same = (g1.vertices, g1.arrows) == (g2.vertices, g2.arrows)
        assert (g1 == g2) == same
        if same:
            assert hash(g1) == hash(g2)

    def test_arrows_are_derived_on_first_use(self):
        g = parse_digraph(PATH_TEXT)
        assert "arrows" not in vars(g)
        assert g.arrows == {("x", "x"), ("y", "y"), ("z", "z"), ("x", "y"), ("y", "z")}
        assert g.arrows is g.arrows
        assert g.arrow_count() == 5 and g.arrow_count(include_loops=False) == 2

    def test_label_errors_keep_their_order(self):
        for vertices, error in [
            (("b c", "a", "a"), ValueError),
            (("a", "a", "b c"), DuplicateVertex),
            (("a", "#b", "a"), ValueError),
            (("a", "a", ""), DuplicateVertex),
        ]:
            with pytest.raises(error):
                DiGraph(vertices, [])
            with pytest.raises(error):
                DiGraph._from_rows(vertices, (0,) * len(vertices))

    def test_check_expand_and_verify_build_neither_arrows_nor_pairs(self, monkeypatch):
        calls = []
        monkeypatch.setattr(DiGraph, "__init__", lambda *args, **kw: calls.append(args))
        text = (Path(__file__).parent / "golden" / "layered-0.dg").read_text(encoding="utf-8")
        graph = parse_digraph(text)
        property_report(graph)
        outcome = expand_to_preorder(graph)
        property_report(outcome.result)
        assert verify_compression(outcome.mapping).valid
        emit_digraph(outcome.result, "dg")
        emit_digraph(outcome.result, "dot")
        assert calls == []
        assert "arrows" not in vars(graph) and "arrows" not in vars(outcome.result)
