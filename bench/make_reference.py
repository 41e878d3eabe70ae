"""Regenerate ``reference.json``: digests of every pool member's expansion.

Usage: python3 bench/make_reference.py

Runs ``splitclosure expand`` on each pool input and records the SHA-256
of the result dg file and of the trace JSON.  The CLI output bytes are
the package's behaviour contract, so this is rerun only when that
contract changes on purpose.
"""

import json
import sys
import tempfile
from pathlib import Path

from workloads import POOL_SIZE, REFERENCE, SRC, cli_call, layered_input, sha256


def main() -> int:
    sys.path.insert(0, str(SRC))
    members = {}
    with tempfile.TemporaryDirectory(dir=REFERENCE.parent) as tmp:
        work = Path(tmp)
        for member in range(POOL_SIZE):
            source, result, trace = work / "in.dg", work / "out.dg", work / "trace.json"
            source.write_text(layered_input(member), encoding="utf-8")
            code, _, _ = cli_call(["expand", str(source), "-o", str(result), "--trace", str(trace)])
            if code != 0:
                raise SystemExit(f"expand exited {code} on member {member}")
            members[str(member)] = {"result_sha256": sha256(result), "trace_sha256": sha256(trace)}
    REFERENCE.write_text(json.dumps({"members": members}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
