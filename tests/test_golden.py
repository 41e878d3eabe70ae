"""Byte-for-byte pins of the CLI's behaviour contract for ``expand``.

Each case under ``tests/golden/`` is an input ``<stem>.dg`` with the
result dg and the ``--trace`` JSON that ``splitclosure expand`` must
write for it.  ``twoclasps`` is the running example (one rule A split,
one rule B split); ``layered-0`` is a 135-vertex three-layer DAG plus
three five-vertex classes whose expansion uses rule B, with 49 splits.

The ``census-*`` files pin the stdout of the census subcommand: the
theorem sweeps at n <= 3, 4 and 5, the three obstruction sets at their
CLI bounds, and the class counts at n <= 3 and 5.  The n <= 3 and 4
sweeps and counts are the census invocations of acceptance criterion 9.

The ``*.check.txt``/``*.check.json`` files pin ``check`` and
``check --json`` on both ends of the ``layered-0`` expansion and on a
non-reflexive and an unstable graph; ``layered-0.verify.txt`` pins
``verify`` of the result against the input under the traced map.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from splitclosure.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("stem", ["twoclasps", "layered-0"])
def test_expand_output_is_pinned(stem, tmp_path):
    result, trace = tmp_path / "result.dg", tmp_path / "trace.json"
    code = main(["expand", str(GOLDEN / f"{stem}.dg"), "-o", str(result), "--trace", str(trace)])
    assert code == 0
    assert result.read_bytes() == (GOLDEN / f"{stem}.result.dg").read_bytes()
    assert trace.read_bytes() == (GOLDEN / f"{stem}.trace.json").read_bytes()


CENSUS_PINS = [
    ("census-validate-3.txt", ["--max-vertices", "3", "--validate"]),
    ("census-validate-4.txt", ["--max-vertices", "4", "--validate"]),
    ("census-validate-5.txt", ["--max-vertices", "5", "--validate"]),
    ("census-obstructions-balanced-4.json", ["--max-vertices", "4", "--obstructions", "balanced"]),
    (
        "census-obstructions-stable-given-balanced-4.json",
        ["--max-vertices", "4", "--obstructions", "stable-given-balanced"],
    ),
    (
        "census-obstructions-unlocked-given-stable-5.json",
        ["--max-vertices", "5", "--obstructions", "unlocked-given-stable"],
    ),
    ("census-count-3.txt", ["--max-vertices", "3", "--count"]),
    ("census-count-5.txt", ["--max-vertices", "5", "--count"]),
]


@pytest.mark.parametrize("golden,args", CENSUS_PINS, ids=[g for g, _ in CENSUS_PINS])
def test_census_output_is_pinned(golden, args, capsys):
    assert main(["census", *args]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / golden).read_bytes()


def test_readme_census_example_is_the_pin():
    readme = (GOLDEN.parents[1] / "README.md").read_text(encoding="utf-8")
    command = "$ splitclosure census --max-vertices 4 --validate\n"
    start = readme.index(command) + len(command)
    example = readme[start : readme.index("```", start)]
    assert example == (GOLDEN / "census-validate-4.txt").read_text(encoding="utf-8")


def test_pins_cover_both_rules():
    for stem in ("twoclasps", "layered-0"):
        payload = json.loads((GOLDEN / f"{stem}.trace.json").read_text(encoding="utf-8"))
        kinds = {record["construction"] for record in payload["iterations"]}
        assert kinds == {"A", "B"}


INSPECT_STEMS = ["layered-0", "layered-0.result", "nonreflexive", "unstable"]


@pytest.mark.parametrize("stem", INSPECT_STEMS)
@pytest.mark.parametrize("json_flag", [False, True], ids=["text", "json"])
def test_check_output_is_pinned(stem, json_flag, capsys):
    args = ["check", "--json"] if json_flag else ["check"]
    assert main([*args, str(GOLDEN / f"{stem}.dg")]) == 0
    expected = GOLDEN / f"{stem}.check.{'json' if json_flag else 'txt'}"
    assert capsys.readouterr().out.encode("utf-8") == expected.read_bytes()


def test_verify_output_is_pinned(tmp_path, capsys):
    mapping = json.loads((GOLDEN / "layered-0.trace.json").read_text(encoding="utf-8"))["map"]
    map_path = tmp_path / "map.txt"
    map_path.write_text("".join(f"{s} {t}\n" for s, t in mapping.items()), encoding="utf-8")
    source, result = GOLDEN / "layered-0.dg", GOLDEN / "layered-0.result.dg"
    assert main(["verify", str(result), str(source), str(map_path)]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / "layered-0.verify.txt").read_bytes()
