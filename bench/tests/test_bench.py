"""Tests of the benchmark's own logic.  Run: python3 -m pytest bench/tests"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_same_seed_gives_identical_input_files(tmp_path):
    first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (first, second, other):
        d.mkdir()
    a = workloads.write_inputs(first, workloads.pick_members(7, 24))
    b = workloads.write_inputs(second, workloads.pick_members(7, 24))
    c = workloads.write_inputs(other, workloads.pick_members(8, 24))
    assert [p.name for p in a] == [p.name for p in b]
    assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]
    assert [p.name for p in a] != [p.name for p in c]


def test_every_pool_member_has_reference_digests():
    assert sorted(workloads.load_reference()) == list(range(workloads.POOL_SIZE))


def test_self_time_on_hand_built_span_tree():
    spans = tracing.Spans()
    a = spans.add("cli.main", 0.0, 10.0)
    spans.add("digraph.parse_digraph", 1.0, 4.0, parent=a)
    c = spans.add("predicates.is_stable", 5.0, 9.0, parent=a)
    spans.add("predicates.is_balanced", 6.0, 8.0, parent=c)
    spans.add("predicates.is_balanced", 8.0, 8.5, parent=c, raised=True)
    summary = tracing.summarize(spans)
    assert summary["cli.main"]["self_s"] == pytest.approx(3.0)
    assert summary["digraph.parse_digraph"]["self_s"] == pytest.approx(3.0)
    assert summary["predicates.is_stable"]["self_s"] == pytest.approx(1.5)
    assert summary["predicates.is_stable"]["total_s"] == pytest.approx(4.0)
    balanced = summary["predicates.is_balanced"]
    assert (balanced["calls"], balanced["raised"]) == (2, 1)
    assert balanced["self_s"] == pytest.approx(2.5)


def test_recheck_time_counts_outermost_rechecks_under_expansion():
    spans = tracing.Spans()
    spans.add("predicates.is_stable", 0.0, 1.0)  # outside any expansion
    e = spans.add("expansion.expand_to_preorder", 1.0, 11.0)
    spans.add("compression.verify_compression", 2.0, 4.0, parent=e)
    s = spans.add("predicates.is_stable", 5.0, 9.0, parent=e)
    spans.add("predicates.locked_status", 6.0, 7.0, parent=s)  # inside a recheck
    summary = tracing.summarize(spans)
    assert summary["expansion.expand_to_preorder"]["recheck_s"] == pytest.approx(6.0)
    metrics = tracing.layer_metrics(summary, 1, 1.0, 1.0)
    assert metrics["expansion.recheck_share"][0] == pytest.approx(0.6)


@pytest.mark.parametrize(
    "n, rank, percentile",
    [(11, 1, 100 / 11), (20, 10, 50.0), (100, 90, 90.0), (1000, 990, 99.0), (5, 5, 100.0), (1, 1, 100.0)],
)
def test_tail_rank_leaves_ten_samples_beyond(n, rank, percentile):
    assert run.tail_rank(n) == (rank, pytest.approx(percentile))


def test_tail_rank_rejects_empty_sample():
    with pytest.raises(ValueError):
        run.tail_rank(0)


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layers = tracing.layer_metrics({}, 1, 1.0, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert all(m["unit"] == layers[m["name"]][1] for m in spec["per_layer"])
    outcomes = [workloads.Outcome(0.1 + i / 100) for i in range(11)]
    e2e = run.end_to_end(workloads.ExpandLayered(tmp_path), [0.5], outcomes, {})
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert all(m["unit"] == e2e[m["name"]][1] for m in spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_independent_expansion_check():
    source = "vertices: x y z\narrows:\nx y\ny z\n"
    good = "vertices: x y z t1\narrows:\nx y\nt1 z\n"
    mapping = {"x": "x", "y": "y", "z": "z", "t1": "y"}
    assert workloads.expansion_problem(source, good, mapping) is None
    assert "transitive" in workloads.expansion_problem(source, source, {v: v for v in "xyz"})
    partial = {"x": "x", "y": "y", "z": "y", "t1": "y"}
    assert "cover" in workloads.expansion_problem(source, good, partial)
    extra = "vertices: x y z t1\narrows:\nx y\nt1 z\nx z\n"
    assert "count" in workloads.expansion_problem(source, extra, mapping)


def test_census_check_by_meaning():
    lines = ["theorem validation up to n=5", "iso classes scanned: 1, 3, 16, 218, 9608"]
    lines += [f"check {name}: pass (3 instances)" for name in workloads.CENSUS_CHECKS]
    text = "\n".join(lines + ["overall: pass"]) + "\n"
    assert workloads.census_problem(0, text) is None
    assert workloads.census_problem(2, text) is not None
    failing = text.replace("check soloist-lemma: pass", "check soloist-lemma: FAIL")
    assert workloads.census_problem(0, failing) is not None
    assert workloads.census_problem(0, text.replace("9608", "9609")) is not None


def test_tracer_wraps_every_binding_and_restores_them():
    import splitclosure.census as census
    import splitclosure.predicates as predicates
    from splitclosure.digraph import DiGraph

    original = predicates.is_stable
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert census.is_stable is predicates.is_stable is not original
        graph = DiGraph(["a", "b"], [("a", "a"), ("b", "b"), ("a", "b")])
        assert census.is_stable(graph)[0]
    finally:
        tracer.uninstall()
    assert census.is_stable is predicates.is_stable is original
    summary = tracing.summarize(tracer.spans)
    assert summary["digraph.DiGraph"]["calls"] == 1
    assert summary["predicates.is_stable"]["calls"] == 1
    assert summary["predicates.is_balanced"]["calls"] == 1
