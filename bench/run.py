"""splitclosure benchmark: closed-loop workloads through the real CLI.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...    # every workload in turn

NAME is expand-layered, census-n5 or inspect-large.  Run from anywhere
inside a checkout: the package is imported from the checkout's ``src/``
and scratch files go to ``.bench_work/``.

With ``--trace 0`` the workload runs operations for S seconds (at least
11, so the tail percentile exists) and reports the end-to-end metrics.
With ``--trace 1`` it runs a fixed list of operations, each once untraced
and once with every public function of the package wrapped in spans,
and reports per-layer metrics plus the tracing overhead.  The timed
section is the operations themselves; correctness checks run between
them, untimed.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds run metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import ROOT, SRC, WORKLOADS, Outcome, Workload
from tracing import Tracer, layer_metrics, merge, summarize

WORK = ROOT / ".bench_work"
MIN_OPS = 11  # the smallest sample with ten operations beyond its tail
MAX_MEASURE_S = 120.0  # stop early if the program got far slower


def tail_rank(n: int) -> tuple[int, float]:
    """1-based rank and percentile of the highest percentile with at
    least ten samples beyond it, in a sorted sample of ``n``.

    With fewer than eleven samples no percentile qualifies, and the
    maximum (rank ``n``, percentile 100) is reported instead.
    """
    if n < 1:
        raise ValueError("empty sample")
    rank = n - 10 if n > 10 else n
    return rank, 100.0 * rank / n


def commit() -> str:
    """HEAD of the checkout's git directory, or "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> dict:
    modules = {
        p.stem: len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "splitclosure").glob("*.py"))
    }
    return {"total": sum(modules.values()), "modules": modules}


def end_to_end(workload: Workload, setup_s: list[float], outcomes: list[Outcome], meta: dict) -> dict:
    latencies = sorted(o.seconds for o in outcomes)
    passed = sum(o.problem is None for o in outcomes)
    rank, percentile = tail_rank(len(latencies))
    meta["op_tail"] = {"percentile": round(percentile, 2), "samples": len(latencies)}
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(o.child_rss_kb for o in outcomes)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (passed / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_tail_ms": (latencies[rank - 1] * 1000, "ms"),
        "pass_ratio": (passed / len(outcomes), "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def traced(workload: Workload, ops: list, meta: dict) -> tuple[dict, list[Outcome]]:
    """Run each planned operation untraced, then traced, in turn, so that
    drift in machine speed hits both sides of the overhead alike."""
    plain, spanned = [], []
    tracer = Tracer()
    for i in range(workload.trace_ops):
        op = ops[i % len(ops)]
        plain.append(op())
        if workload.in_process:
            tracer.install()
            try:
                spanned.append(op())
            finally:
                tracer.uninstall()
        else:
            spanned.append(op(trace_file=workload.work / f"spans-{i}.json"))
    if workload.in_process:
        meta["spans"] = len(tracer.spans)
        summary = summarize(tracer.spans)
    else:
        summary = merge([o.layers or {} for o in spanned])
    for name in workload.required_spans:
        if not summary.get(name, {}).get("calls"):
            raise SystemExit(f"premise broken: {workload.name} never called {name}")
    metrics = layer_metrics(
        summary, len(plain), sum(o.seconds for o in plain), sum(o.seconds for o in spanned)
    )
    return metrics, plain + spanned


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "splitclosure" / "cli.py").is_file():
        raise SystemExit(f"no splitclosure package under {SRC}")
    sys.path.insert(0, str(SRC))
    import splitclosure.cli  # noqa: F401  (import cost stays out of set-up)

    if not Path(splitclosure.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"splitclosure was not imported from {SRC}")
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[name](work)
    setup_s = []
    for _ in range(workload.setup_repeats):
        start = time.perf_counter()
        workload.setup(seed)
        setup_s.append(time.perf_counter() - start)
    ops = workload.operations()
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
        "setup_runs_s": setup_s,
    }
    warm_up = ops[0]()  # the first operation in a process runs cold; checked, not timed
    if trace:
        metrics, outcomes = traced(workload, ops, meta)
    else:
        outcomes = []
        start = time.perf_counter()
        while len(outcomes) < MIN_OPS or time.perf_counter() - start < seconds:
            if time.perf_counter() - start > MAX_MEASURE_S:
                break
            outcomes.append(ops[len(outcomes) % len(ops)]())
        metrics = end_to_end(workload, setup_s, outcomes, meta)
    outcomes.append(warm_up)
    problems = [o.problem for o in outcomes if o.problem]
    meta["problems"] = problems[:5]
    return {
        "meta": meta,
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": len(problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, so peak RSS stays per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{name} exited {proc.returncode}")
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        meta = result.pop("meta")
        print(f"== {args.workload} (seed {args.seed}, trace {args.trace})")
        for key, metric in result["metrics"].items():
            print(f"{key:48} {metric['value']:14.6g} {metric['unit']}")
        failed_ratio = result["failed"] / result["attempted"]
        print(f"{'fail_ratio':48} {failed_ratio:14.6g} ({result['failed']}/{result['attempted']})")
        print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
