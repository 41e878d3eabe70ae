"""Every benchmark pool input still expands to its reference output.

``bench/reference.json`` holds the SHA-256 of the result dg file and of
the trace JSON that ``splitclosure expand`` writes for each input of the
benchmark's pool.  The benchmark counts an operation whose output differs
as failed; this test catches such a change on a plain test run.
``bench/workloads.py`` is loaded read-only for the pool inputs.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

from splitclosure import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_pool_member_matches_its_reference_digests(tmp_path, monkeypatch):
    workloads = _load_workloads(monkeypatch)
    reference = workloads.load_reference()
    assert sorted(reference) == list(range(workloads.POOL_SIZE))
    source, result, trace = tmp_path / "in.dg", tmp_path / "out.dg", tmp_path / "trace.json"
    mismatched = []
    for member in range(workloads.POOL_SIZE):
        source.write_text(workloads.layered_input(member), encoding="utf-8")
        code = cli.main(["expand", str(source), "-o", str(result), "--trace", str(trace)])
        assert code == 0, f"expand exited {code} on member {member}"
        digests = {
            "result_sha256": hashlib.sha256(result.read_bytes()).hexdigest(),
            "trace_sha256": hashlib.sha256(trace.read_bytes()).hexdigest(),
        }
        if digests != reference[member]:
            mismatched.append(member)
    assert mismatched == []
