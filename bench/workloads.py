"""The benchmark's workloads: seeded inputs, operations and their checks.

Every workload is a closed loop driven from one thread: the next
operation starts when the previous one has finished.  Operations go
through the real command line, either ``splitclosure.cli.main`` in this
process or ``python -m splitclosure`` in a fresh child process.  The
program only ever sees the generated files.

An operation returns an ``Outcome``; a non-empty ``problem`` means it
raised, exited nonzero or gave wrong output, and it counts as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# -- seeded inputs ------------------------------------------------------------
#
# An input is a 3-layer random DAG (arrows only between adjacent layers)
# plus one relabelled copy of each census class below.  Those three are
# the only classes with at most 5 vertices whose expansion uses rule B;
# layered DAGs alone never reach construction_b.  Inputs come from a
# fixed pool so that reference digests exist for every one of them; the
# workload seed picks which pool members a run uses, and in what order.

LAYERS = 3
LAYER_SIZE = 40
ARROW_P = 0.1
RULE_B_CLASSES = (1436, 5833, 76966)  # census masks of c5-1436, c5-5833, c5-76966
POOL_SIZE = 48
REFERENCE = BENCH / "reference.json"


def mask_arrows(n: int, mask: int) -> list[tuple[int, int]]:
    """Non-loop arrows of a census mask: cells (i, j), i != j, row-major,
    first cell most significant."""
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    width = len(cells)
    return [cell for p, cell in enumerate(cells) if (mask >> (width - 1 - p)) & 1]


def layered_input(member: int) -> str:
    """The dg text of pool member ``member``."""
    rng = random.Random(member)
    layers = [[f"v{k}_{i:02d}" for i in range(LAYER_SIZE)] for k in range(LAYERS)]
    vertices = [v for layer in layers for v in layer]
    arrows = [
        (u, w)
        for k in range(LAYERS - 1)
        for u in layers[k]
        for w in layers[k + 1]
        if rng.random() < ARROW_P
    ]
    for k, mask in enumerate(RULE_B_CLASSES):
        labels = [f"k{k}{c}" for c in "abcde"]
        vertices += labels
        arrows += [(labels[i], labels[j]) for i, j in mask_arrows(5, mask)]
    lines = [f"digraph: layered-{member}", "vertices: " + " ".join(vertices), "loops: auto", "arrows:"]
    lines += [f"{u} {w}" for u, w in arrows]
    return "\n".join(lines) + "\n"


def pick_members(seed: int, count: int) -> list[int]:
    return random.Random(seed).sample(range(POOL_SIZE), count)


def write_inputs(work: Path, members: list[int]) -> list[Path]:
    paths = []
    for m in members:
        path = work / f"in-{m}.dg"
        path.write_text(layered_input(m), encoding="utf-8")
        paths.append(path)
    return paths


def guard_premises(paths: list[Path]) -> None:
    """Every input must be stable with no locked clasp, or the expansion
    workloads would stop exercising the split loop."""
    from splitclosure.digraph import parse_digraph
    from splitclosure.predicates import property_report

    for path in paths:
        report = property_report(parse_digraph(path.read_text(encoding="utf-8")))
        if not report.stable or any(r.locked for r in report.clasps):
            raise SystemExit(f"premise broken: {path.name} is not stable and unlocked")


def load_reference() -> dict[int, dict[str, str]]:
    data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return {int(k): v for k, v in data["members"].items()}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- independent result check -----------------------------------------------


def parse_dg(text: str) -> tuple[list[str], list[int]]:
    """Vertices and bit rows of a dg file, without the package's parser."""
    vertices: list[str] = []
    auto_loops = True
    pairs: list[tuple[str, str]] = []
    in_arrows = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if in_arrows:
            tail, head = line.split()
            pairs.append((tail, head))
        elif line.startswith("vertices:"):
            vertices = line[len("vertices:"):].split()
        elif line.startswith("loops:"):
            auto_loops = line[len("loops:"):].strip() == "auto"
        elif line == "arrows:":
            in_arrows = True
    index = {v: i for i, v in enumerate(vertices)}
    rows = [(1 << i) if auto_loops else 0 for i in range(len(vertices))]
    for tail, head in pairs:
        rows[index[tail]] |= 1 << index[head]
    return vertices, rows


def non_loop_count(rows: list[int]) -> int:
    return sum(bin(row & ~(1 << i)).count("1") for i, row in enumerate(rows))


def expansion_problem(input_text: str, result_text: str, mapping: dict[str, str]) -> Optional[str]:
    """Why ``result_text`` is not a preordered expansion of ``input_text``
    with the same non-loop arrow count and a map onto every input vertex;
    None when it is."""
    in_vertices, in_rows = parse_dg(input_text)
    vertices, rows = parse_dg(result_text)
    for i, row in enumerate(rows):
        if not (row >> i) & 1:
            return f"result not reflexive at {vertices[i]}"
        rest = row
        while rest:
            low = rest & -rest
            if rows[low.bit_length() - 1] & ~row:
                return f"result not transitive at {vertices[i]}"
            rest ^= low
    if non_loop_count(rows) != non_loop_count(in_rows):
        return "non-loop arrow count changed"
    if set(mapping) != set(vertices):
        return "map domain is not the result's vertex set"
    if set(mapping.values()) != set(in_vertices):
        return "map does not cover the input's vertices"
    return None


# -- operations ---------------------------------------------------------------


@dataclass
class Outcome:
    seconds: float
    problem: Optional[str] = None
    child_rss_kb: Optional[int] = None
    layers: Optional[dict] = None  # span summary of a traced child


def cli_call(argv: list[str]) -> tuple[int, str, float]:
    """Run ``splitclosure.cli.main`` in this process: exit code, stdout, seconds.

    An exception counts as exit code -1, with its repr in place of stdout.
    """
    from splitclosure import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a raising operation fails, the run goes on
            return -1, f"raised {exc!r}", time.perf_counter() - start
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


def run_child(argv: list[str], work: Path) -> tuple[int, str, float, int]:
    """Run a fresh interpreter: exit code, stdout, seconds, peak RSS in KiB."""
    start = time.perf_counter()
    with open(work / "child.stderr", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=work, env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE, stderr=err,
        )
        try:
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)  # wait4 gives the child's own rusage
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode("utf-8", "replace"), seconds, usage.ru_maxrss


class Workload:
    """Set up inputs once, then hand out operations in a fixed cycle."""

    name = ""
    why = ""
    in_process = True
    setup_repeats = 5
    trace_ops = 8  # operations a traced run times both untraced and traced
    required_spans: tuple[str, ...] = ()  # a traced run must see each of these called

    def __init__(self, work: Path):
        self.work = work

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def operations(self) -> list[Callable[..., Outcome]]:
        raise NotImplementedError


class ExpandLayered(Workload):
    name = "expand-layered"
    why = "about 48 splits per operation on a 135-vertex graph, with rule B: the split loop and its full re-checks"
    required_spans = ("expansion.construction_b",)

    def setup(self, seed: int) -> None:
        self.members = pick_members(seed, 24)
        self.inputs = write_inputs(self.work, self.members)
        guard_premises(self.inputs)
        self.reference = load_reference()

    def operations(self):
        return [self._op(m, path) for m, path in zip(self.members, self.inputs)]

    def _op(self, member: int, path: Path):
        result = self.work / f"out-{member}.dg"
        trace = self.work / f"trace-{member}.json"
        argv = ["expand", str(path), "-o", str(result), "--trace", str(trace)]

        def op() -> Outcome:
            code, out, seconds = cli_call(argv)
            if code != 0:
                return Outcome(seconds, f"expand exited {code} {out[:200]}")
            try:
                mapping = json.loads(trace.read_text(encoding="utf-8"))["map"]
                problem = expansion_problem(
                    path.read_text(encoding="utf-8"), result.read_text(encoding="utf-8"), mapping
                )
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
            ref = self.reference[member]
            if not problem and (
                sha256(result) != ref["result_sha256"] or sha256(trace) != ref["trace_sha256"]
            ):
                problem = "output differs from the reference digests"
            return Outcome(seconds, problem and f"member {member}: {problem}")

        return op


CENSUS_ARGV = ["-m", "splitclosure", "census", "--max-vertices", "5", "--validate"]
CENSUS_CHECKS = (
    "main-theorem-positive",
    "main-theorem-negative-consistency",
    "clasp-implies-soloist",
    "soloist-lemma",
    "compression-theorem",
    "corollary-acyclic-star",
)


def census_problem(code: int, stdout: str) -> Optional[str]:
    """Check the n=5 sweep by meaning; instance counts are left out."""
    if code != 0:
        return f"census exited {code}"
    lines = stdout.splitlines()
    if "iso classes scanned: 1, 3, 16, 218, 9608" not in lines:
        return "wrong iso class counts"
    for name in CENSUS_CHECKS:
        if not any(line.startswith(f"check {name}: pass") for line in lines):
            return f"check {name} did not pass"
    if any(line.startswith("check ") and ": pass" not in line for line in lines):
        return "a census check did not pass"
    if "overall: pass" not in lines:
        return "overall verdict is not pass"
    return None


class CensusN5(Workload):
    name = "census-n5"
    why = "fresh CLI process sweeping 9,846 tiny graphs: enumeration and predicates, with expansion only ~10%"
    in_process = False
    trace_ops = 1

    def setup(self, seed: int) -> None:
        # The sweep has no input files; set-up checks that a fresh
        # interpreter imports this checkout's package (and byte-compiles it).
        code, out, _, _ = run_child(["-c", "import splitclosure; print(splitclosure.__file__)"], self.work)
        if code != 0 or not Path(out.strip()).is_relative_to(SRC):
            raise SystemExit(f"a fresh interpreter does not import the package from {SRC}")

    def operations(self):
        def op(trace_file: Optional[Path] = None) -> Outcome:
            argv = CENSUS_ARGV
            if trace_file is not None:
                argv = [str(BENCH / "traced_cli.py"), str(trace_file), *CENSUS_ARGV[2:]]
            code, out, seconds, rss = run_child(argv, self.work)
            layers = None
            if trace_file is not None and code == 0:
                layers = json.loads(trace_file.read_text(encoding="utf-8"))
            return Outcome(seconds, census_problem(code, out), rss, layers)

        return [op]


class InspectLarge(Workload):
    name = "inspect-large"
    why = "check, check and verify on freshly parsed files: predicates, compression and digraph without the split loop"
    setup_repeats = 3
    trace_ops = 40

    def setup(self, seed: int) -> None:
        self.members = pick_members(seed, 8)
        inputs = write_inputs(self.work, self.members)
        guard_premises(inputs)
        reference = load_reference()
        self.triples = []
        for member, path in zip(self.members, inputs):
            result = self.work / f"out-{member}.dg"
            trace = self.work / f"trace-{member}.json"
            code, _, _ = cli_call(["expand", str(path), "-o", str(result), "--trace", str(trace)])
            if code != 0 or sha256(result) != reference[member]["result_sha256"]:
                raise SystemExit(f"set-up expansion of member {member} is wrong")
            mapping = json.loads(trace.read_text(encoding="utf-8"))["map"]
            map_path = self.work / f"map-{member}.txt"
            map_path.write_text("".join(f"{s} {t}\n" for s, t in mapping.items()), encoding="utf-8")
            self.triples.append((path, result, map_path))

    def operations(self):
        return [self._op(*triple) for triple in self.triples]

    @staticmethod
    def _op(source: Path, result: Path, map_path: Path):
        def op() -> Outcome:
            code1, out1, t1 = cli_call(["check", "--json", str(source)])
            code2, out2, t2 = cli_call(["check", "--json", str(result)])
            code3, out3, t3 = cli_call(["verify", str(result), str(source), str(map_path)])
            seconds = t1 + t2 + t3
            if (code1, code2, code3) != (0, 0, 0):
                return Outcome(seconds, f"exit codes {code1}, {code2}, {code3}")
            try:
                before, after = json.loads(out1), json.loads(out2)
                unlocked = before["stable"] and all(c["status"] != "locked" for c in before["clasps"])
                preordered = after["preordered"] and after["stable"] and after["clasps"] == []
            except (ValueError, KeyError, TypeError) as exc:
                return Outcome(seconds, f"unreadable check output: {exc!r}")
            if not unlocked:
                return Outcome(seconds, f"{source.name} not reported stable and unlocked")
            if not preordered:
                return Outcome(seconds, f"{result.name} not reported preordered, stable, clasp-free")
            if out3 != "Valid\n":
                return Outcome(seconds, f"verify printed {out3.strip()!r}")
            return Outcome(seconds)

        return op


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (ExpandLayered, CensusN5, InspectLarge)
}
