"""Differential oracles for the bit-row ``check`` and ``verify`` paths.

``verify_compression`` works on an index array and per-target fiber
masks and settles loop triples by one reach mask per target vertex,
``_balance_witness`` tests each (w, x, y) with one mask, and
``property_report`` derives balance from the ``is_stable`` witness and
skips the scans on a preorder.  The references here are the direct
label-level definitions and the full scans: every verdict, witness,
exception type and message must agree with them.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reflexive
from splitclosure import (
    CompressionMap,
    CompressionVerdict,
    DiGraph,
    DomainMismatch,
    InternalInvariantBreached,
    NotReflexive,
    clasps,
    graph_from_mask,
    is_balanced,
    is_preordered,
    is_stable,
    locked_status,
    parse_digraph,
    property_report,
    soloists,
    verify_compression,
)
from splitclosure.census import _classes_by_witness, canonical_masks
from splitclosure.digraph import _heads_of
from splitclosure.predicates import _balance_witness

GOLDEN = Path(__file__).resolve().parent / "golden"


# -- reference verify_compression ----------------------------------------------


def reference_verify(cmap: CompressionMap) -> CompressionVerdict:
    """The compression conditions checked on labels, arrow by arrow and
    triple by triple, in the documented order."""
    src, tgt = cmap.source, cmap.target
    assignment = cmap.assignment
    for v in src.vertices:
        if v not in assignment:
            raise DomainMismatch(f"no image for source vertex {v}")
        if assignment[v] not in tgt:
            raise DomainMismatch(f"image {assignment[v]} of {v} is not a target vertex")
    for g, side in ((src, "source"), (tgt, "target")):
        for v in g.vertices:
            if not g.has_arrow(v, v):
                raise NotReflexive(f"{side} vertex {v} has no loop")

    covered = {assignment[v] for v in src.vertices}
    for t in tgt.vertices:
        if t not in covered:
            return CompressionVerdict(False, "not-surjective", (t,))

    for u, v in src.sorted_arrows():
        if not tgt.has_arrow(assignment[u], assignment[v]):
            return CompressionVerdict(False, "cond1", (u, v))

    fibers: dict[str, list[str]] = {t: [] for t in tgt.vertices}
    for v in src.vertices:
        fibers[assignment[v]].append(v)
    triples = (
        (a1, a2, a3)
        for a1 in tgt.vertices
        for a2 in tgt.out_neighbors(a1)
        for a3 in tgt.out_neighbors(a2)
        if tgt.has_arrow(a1, a3)
    )
    for a1, a2, a3 in triples:
        lifts = any(
            src.has_arrow(x1, x2) and src.has_arrow(x2, x3) and src.has_arrow(x1, x3)
            for x1 in fibers[a1]
            for x2 in fibers[a2]
            for x3 in fibers[a3]
        )
        if not lifts:
            return CompressionVerdict(False, "cond2", (a1, a2, a3))

    seen: dict[tuple[str, str], tuple[str, str]] = {}
    for u, v in src.sorted_arrows(include_loops=False):
        image = (assignment[u], assignment[v])
        if image[0] == image[1]:
            return CompressionVerdict(False, "cond3-not-well-defined", (u, v))
        if image in seen:
            return CompressionVerdict(False, "cond3-not-injective", (seen[image], (u, v)))
        seen[image] = (u, v)
    if len(seen) != tgt.arrow_count(include_loops=False):
        raise InternalInvariantBreached("arrow map not surjective after cond2 passed")
    return CompressionVerdict(True)


def outcome(verify, cmap):
    """A verdict as comparable data, or the exception type and message."""
    try:
        verdict = verify(cmap)
    except (DomainMismatch, NotReflexive, InternalInvariantBreached) as exc:
        return type(exc), str(exc)
    return verdict.valid, verdict.condition, verdict.witness


def triple_kind(a: str, b: str, c: str) -> str:
    """The repeat pattern of a triple: "aab", "abb", "aba" or "abc"."""
    return "aab" if a == b else "abb" if b == c else "aba" if a == c else "abc"


def random_map(rng: random.Random) -> CompressionMap:
    """A small map: the target is the image of the source under a random
    assignment with a few cells toggled, so every condition can fail;
    now and then a loop or an image is broken to raise."""
    n = rng.randint(1, 5)
    m = rng.randint(1, min(n, 4))
    src_v = [f"s{i}" for i in range(n)]
    tgt_v = [f"t{j}" for j in range(m)]
    f = [rng.randrange(m) for _ in range(n)]
    src_a = {(u, u) for u in src_v}
    src_a |= {(src_v[i], src_v[j]) for i in range(n) for j in range(n) if rng.random() < 0.3}
    tgt_a = {(t, t) for t in tgt_v}
    tgt_a |= {(tgt_v[f[src_v.index(u)]], tgt_v[f[src_v.index(v)]]) for u, v in src_a}
    for _ in range(rng.randint(0, 2)):
        cell = (rng.choice(tgt_v), rng.choice(tgt_v))
        tgt_a ^= {cell}
    if rng.random() < 0.05:
        src_a.discard((src_v[0], src_v[0]))
    assignment = {v: tgt_v[f[i]] for i, v in enumerate(src_v)}
    if rng.random() < 0.05:
        del assignment[src_v[-1]]
    elif rng.random() < 0.05:
        assignment[src_v[-1]] = "stray"
    return CompressionMap(DiGraph(src_v, src_a), DiGraph(tgt_v, tgt_a), assignment)


class TestVerifyCompression:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_random_maps(self, rng):
        cmap = random_map(rng)
        assert outcome(verify_compression, cmap) == outcome(reference_verify, cmap)

    def test_random_maps_reach_every_outcome(self):
        reached = set()
        for seed in range(1500):
            cmap = random_map(random.Random(seed))
            got = outcome(verify_compression, cmap)
            assert got == outcome(reference_verify, cmap), seed
            reached.add(got[0] if isinstance(got[0], type) else got[1])
            if got[1] == "cond2":
                reached.add(triple_kind(*got[2]))
        assert reached == {
            None,
            "not-surjective",
            "cond1",
            "cond2",
            "cond3-not-well-defined",
            "cond3-not-injective",
            DomainMismatch,
            NotReflexive,
            "aab",
            "abb",
            "aba",
            "abc",
        }

    @pytest.mark.parametrize(
        "source, arrows, assignment, target, first",
        [
            # no source arrow runs from fiber(a) to fiber(b)
            ("ab", [], {}, [("a", "b")], ("a", "a", "b")),
            # the same, reached through a lower second vertex: (y, x, x)
            # comes before (y, y, x)
            ("xy", [], {}, [("y", "x")], ("y", "x", "x")),
            # a 2-cycle whose walk from a through b lands on a2 only, and
            # a -> a2 would lie inside a fiber
            ("a2b", [("a", "b"), ("b", "2")], {"2": "a"}, [("a", "b"), ("b", "a")],
             ("a", "b", "a")),
        ],
    )
    def test_first_failure_of_each_loop_kind(self, source, arrows, assignment, target, first):
        src = reflexive(source, arrows)
        tgt = reflexive(sorted(set(source) - set(assignment)), target)
        cmap = CompressionMap(src, tgt, {v: assignment.get(v, v) for v in source})
        expected = (False, "cond2", first)
        assert outcome(verify_compression, cmap) == expected
        assert outcome(reference_verify, cmap) == expected

    def test_matches_reference_on_golden_expansion(self):
        source = parse_digraph((GOLDEN / "layered-0.dg").read_text(encoding="utf-8"))
        result = parse_digraph((GOLDEN / "layered-0.result.dg").read_text(encoding="utf-8"))
        trace = json.loads((GOLDEN / "layered-0.trace.json").read_text(encoding="utf-8"))
        f = trace["map"]
        cmap = CompressionMap(result, source, f)
        assert outcome(verify_compression, cmap) == (True, None, None)
        assert outcome(reference_verify, cmap) == (True, None, None)

        # break the 184-vertex map in each of its places: move an image,
        # drop an arrow, add one inside a fiber, add one beside another
        arrows = result.arrows
        dropped = sorted(result.sorted_arrows(include_loops=False))
        inside = sorted((t, x) for t, x in f.items() if t != x)
        beside = sorted(
            (u, t)
            for t, x in inside
            for u in result.in_neighbors(x)
            if u not in (x, t) and (u, t) not in arrows
        )
        rng = random.Random(0)
        conditions = set()
        for _ in range(4):
            moved = dict(f)
            moved[rng.choice(result.vertices)] = rng.choice(source.vertices)
            for new_arrows, assignment in (
                (arrows, moved),
                (arrows - {rng.choice(dropped)}, f),
                (arrows | {rng.choice(inside)}, f),
                (arrows | {rng.choice(beside)}, f),
            ):
                broken = CompressionMap(DiGraph(result.vertices, new_arrows), source, assignment)
                got = outcome(verify_compression, broken)
                assert got == outcome(reference_verify, broken)
                conditions.add(got[1])
        assert {"cond2", "cond3-not-well-defined", "cond3-not-injective"} <= conditions


# -- balance scan and property_report ------------------------------------------


def naive_balance_witness(rows):
    """First (w, x, y, z) in index order with wx, xy, yz, wz arrows and
    chords wy, xz that disagree."""
    def arrow(a, b):
        return (rows[a] >> b) & 1

    for w, x, y, z in itertools.product(range(len(rows)), repeat=4):
        if arrow(w, x) and arrow(x, y) and arrow(y, z) and arrow(w, z):
            if arrow(w, y) != arrow(x, z):
                return w, x, y, z
    return None


@st.composite
def reflexive_rows(draw, max_n: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    return tuple(row | (1 << i) for i, row in enumerate(rows))


class TestBalanceScan:
    @given(reflexive_rows())
    @settings(max_examples=150, deadline=None)
    def test_witness_matches_naive_scan(self, rows):
        assert _balance_witness(rows, _heads_of(rows)) == naive_balance_witness(rows)

    def test_witness_matches_naive_scan_on_every_class_up_to_four(self):
        for n in range(1, 5):
            for mask in canonical_masks(n):
                rows = graph_from_mask(n, mask)._rows
                assert _balance_witness(rows, _heads_of(rows)) == naive_balance_witness(rows)


def unbalanced_examples():
    # the one-chord diamond, and a pair plus a tail (unbalanced only
    # through a repeated quadruple)
    yield reflexive("wxyz", [("w", "x"), ("x", "y"), ("y", "z"), ("w", "z"), ("w", "y")])
    yield reflexive("rse", [("r", "s"), ("s", "r"), ("r", "e")])
    for mask in _classes_by_witness(5)["balance"][:50]:
        yield graph_from_mask(5, mask)


def preorder_examples():
    # every preordered class up to five vertices, then the golden expansion
    for n in range(1, 6):
        for mask in canonical_masks(n):
            graph = graph_from_mask(n, mask)
            if is_preordered(graph):
                yield graph
    yield parse_digraph((GOLDEN / "layered-0.result.dg").read_text(encoding="utf-8"))


@st.composite
def closed_rows(draw):
    """Bit rows of the transitive closure of a random reflexive graph."""
    rows = list(draw(reflexive_rows(max_n=9)))
    for k in range(len(rows)):
        for i in range(len(rows)):
            if (rows[i] >> k) & 1:
                rows[i] |= rows[k]
    return tuple(rows)


def assert_report_matches_full_scans(graph):
    report = property_report(graph)
    assert report.preordered
    assert (report.balanced, report.balanced_witness) == is_balanced(graph)
    assert (report.stable, report.stable_witness) == is_stable(graph)
    assert report.clasps == clasps(graph)


class TestPropertyReport:
    def test_preorders_match_full_scans(self):
        graphs = list(preorder_examples())
        # the unlabeled preorders (finite topologies) on 1..5 points
        assert len(graphs) == 1 + 3 + 9 + 33 + 139 + 1
        for graph in graphs:
            assert_report_matches_full_scans(graph)

    @given(closed_rows())
    @settings(max_examples=150, deadline=None)
    def test_closures_match_full_scans(self, rows):
        labels = tuple(f"v{i}" for i in range(len(rows)))
        assert_report_matches_full_scans(DiGraph._from_rows(labels, rows))

    def test_balance_fields_match_is_balanced(self):
        graphs = [graph_from_mask(n, mask) for n in range(1, 5) for mask in canonical_masks(n)]
        graphs += list(unbalanced_examples())
        unbalanced = 0
        for g in graphs:
            report = property_report(g)
            balanced, witness = is_balanced(g)
            assert (report.balanced, report.balanced_witness) == (balanced, witness)
            assert (report.stable, report.stable_witness) == is_stable(g)
            unbalanced += not balanced
        assert unbalanced > 50

    def test_one_balance_scan_per_report(self, monkeypatch):
        from splitclosure import predicates

        calls = []
        original = predicates._balance_witness

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(predicates, "_balance_witness", counting)
        for g in unbalanced_examples():
            calls.clear()
            property_report(g)
            assert len(calls) == 1
        # a preorder is balanced without a scan
        for g in preorder_examples():
            property_report(g)
        assert len(calls) == 1

    def test_one_reflexivity_scan_per_report(self, monkeypatch):
        scans = []
        scan = DiGraph._missing_loop.func

        def counting(graph):
            scans.append(graph)
            return scan(graph)

        counted = functools.cached_property(counting)
        counted.__set_name__(DiGraph, "_missing_loop")
        monkeypatch.setattr(DiGraph, "_missing_loop", counted)
        result = parse_digraph((GOLDEN / "layered-0.result.dg").read_text(encoding="utf-8"))
        report = property_report(result)
        assert report.reflexive and report.clasps == () and scans == [result]
        # the checks still refuse a non-reflexive graph when called directly
        loopless = DiGraph("ab", [("a", "b"), ("b", "b")])
        for check in (is_balanced, is_stable, clasps, soloists, lambda g: locked_status(g, "b")):
            with pytest.raises(NotReflexive, match="^a$"):
                check(loopless)
        assert scans == [result, loopless]
