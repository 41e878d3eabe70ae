"""Importing the CLI fills no cache: every table is built on first use,
so a process that only imports the package pays for no enumeration."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json
import splitclosure.cli as cli
from splitclosure import census, digraph
caches = {
    "census._row_decoder": census._row_decoder,
    "census._perm_chunk_tables": census._perm_chunk_tables,
    "census.canonical_masks": census.canonical_masks,
    "census._classes_by_witness": census._classes_by_witness,
    "digraph._canonical_packed": digraph._canonical_packed,
    "digraph._byte_bits": digraph._byte_bits,
    "cli._parser": cli._parser,
}
print(json.dumps({name: f.cache_info().currsize for name, f in caches.items()}))
"""


def test_importing_the_cli_fills_no_cache():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    sizes = json.loads(done.stdout)
    assert len(sizes) == 7 and not any(sizes.values()), sizes
