from __future__ import annotations

import json
import os
import stat
import subprocess
import sys

import pytest

from conftest import assert_valid_trace_json
from splitclosure import emit_digraph, is_isomorphic, parse_digraph, property_report
from splitclosure.cli import main

EX_TEXT = """\
digraph: twoclasps
vertices: 1 2 3 4 6 7
arrows:
1 2
2 4
2 6
3 4
3 7
4 6
4 7
"""

PATH_TEXT = "vertices: x y z\narrows:\nx y\ny z\n"
SPLIT_TEXT = "vertices: x y z t\narrows:\nx y\nt z\n"
LOCK_TEXT = """\
vertices: u v w x y
arrows:
u x
x y
u y
x v
u v
w x
w v
"""
UNSTABLE_TEXT = "vertices: a b c d\narrows:\na b\na c\nb c\nb d\nc d\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("ex", EX_TEXT),
        ("path", PATH_TEXT),
        ("split", SPLIT_TEXT),
        ("lock", LOCK_TEXT),
        ("unstable", UNSTABLE_TEXT),
    ]:
        p = tmp_path / f"{name}.dg"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_clasp_listing(self, capsys, files):
        code, out, _ = run_cli(capsys, "check", files["ex"])
        assert code == 0
        assert "clasps: 2 (unlocked), 4 (unlocked)" in out
        assert "stable: yes" in out

    def test_preordered_graph(self, capsys, files):
        code, out, _ = run_cli(capsys, "check", files["split"])
        assert code == 0
        assert "preordered: yes" in out

    def test_reporting_never_fails_the_exit_code(self, capsys, files):
        code, out, _ = run_cli(capsys, "check", files["unstable"])
        assert code == 0
        assert "stable: no (stability witness a, b, c, d)" in out

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "check", str(tmp_path / "missing.dg"))
        assert code == 1 and err

    def test_parse_failure(self, capsys, tmp_path):
        bad = tmp_path / "bad.dg"
        bad.write_text("vertices: a\n")  # no arrows section
        code, _, err = run_cli(capsys, "check", str(bad))
        assert code == 1 and "error" in err

    def test_json_output(self, capsys, files):
        code, out, _ = run_cli(capsys, "check", "--json", files["ex"])
        assert code == 0
        payload = json.loads(out)
        expected = property_report(parse_digraph(EX_TEXT)).to_json()
        assert payload == {"name": "twoclasps", **expected}

    def test_non_reflexive_input_is_reported(self, capsys, tmp_path):
        p = tmp_path / "bare.dg"
        p.write_text("vertices: a b\nloops: explicit\narrows:\na b\n")
        code, out, _ = run_cli(capsys, "check", str(p))
        assert code == 0
        assert "reflexive: no (no loop at a)" in out
        assert "balanced: n/a" in out


class TestExpand:
    def test_result_to_stdout(self, capsys, files):
        code, out, _ = run_cli(capsys, "expand", files["path"])
        assert code == 0
        assert is_isomorphic(parse_digraph(out), parse_digraph(SPLIT_TEXT)) is not None

    def test_output_files(self, capsys, files, tmp_path):
        out_dg = tmp_path / "out.dg"
        out_json = tmp_path / "trace.json"
        out_dot = tmp_path / "out.dot"
        code, out, _ = run_cli(
            capsys,
            "expand", files["ex"],
            "-o", str(out_dg),
            "--trace", str(out_json),
            "--dot", str(out_dot),
        )
        assert code == 0 and out == ""
        result = parse_digraph(out_dg.read_text())
        assert len(result.vertices) == 8
        trace = json.loads(out_json.read_text())
        assert_valid_trace_json(trace)
        assert [r["construction"] for r in trace["iterations"]] == ["A", "B"]
        assert trace["map"]["t1"] == "2" and trace["map"]["t2"] == "4"
        dot = out_dot.read_text()
        assert dot.startswith("digraph twoclasps {") and dot.count("->") == 7

    def test_output_files_get_the_umask_or_keep_their_mode(self, capsys, files, tmp_path):
        outputs = [tmp_path / name for name in ("out.dg", "trace.json", "out.dot")]
        outputs[2].write_text("stale\n")
        outputs[2].chmod(0o640)
        argv = ["expand", files["ex"]]
        for flag, path in zip(("-o", "--trace", "--dot"), outputs):
            argv += [flag, str(path)]
        previous = os.umask(0o022)
        try:
            code, _, _ = run_cli(capsys, *argv)
        finally:
            os.umask(previous)
        assert code == 0
        modes = [stat.S_IMODE(path.stat().st_mode) for path in outputs]
        assert modes == [0o644, 0o644, 0o640]
        assert outputs[2].read_text().startswith("digraph twoclasps {")

    def test_output_links_are_written_through(self, capsys, files, tmp_path):
        # -o and --dot point at existing 0640 files in another directory,
        # --trace at a file that does not exist yet
        real = tmp_path / "real"
        real.mkdir()
        targets = [real / name for name in ("out.dg", "trace.json", "out.dot")]
        links = [tmp_path / f"link-{target.name}" for target in targets]
        for target, link in zip(targets, links):
            if target.suffix != ".json":
                target.write_text("old\n")
                target.chmod(0o640)
            link.symlink_to(target)
        plain = tmp_path / "plain.dg"
        argv = ["expand", files["ex"], "-o", str(links[0]), "--trace", str(links[1])]
        previous = os.umask(0o022)
        try:
            code, _, _ = run_cli(capsys, *argv, "--dot", str(links[2]))
            assert code == 0
            assert run_cli(capsys, "expand", files["ex"], "-o", str(plain))[0] == 0
        finally:
            os.umask(previous)
        assert all(link.is_symlink() for link in links)
        modes = [stat.S_IMODE(target.stat().st_mode) for target in targets]
        assert modes == [0o640, 0o644, 0o640]
        assert targets[0].read_text() == plain.read_text()
        assert json.loads(targets[1].read_text())["result"] == plain.read_text()
        assert targets[2].read_text().startswith("digraph twoclasps {")
        assert [p.name for p in real.iterdir() if p.name.startswith(".")] == []

    @pytest.mark.parametrize("flag", ["-o", "--trace", "--dot"])
    def test_an_empty_output_path_is_an_i_o_error(self, capsys, files, tmp_path, monkeypatch, flag):
        # realpath("") is the working directory, and mkstemp would create
        # the temp file next to it, in its parent
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        code, out, err = run_cli(capsys, "expand", files["ex"], flag, "")
        assert code == 1 and out == ""
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert list(work.iterdir()) == []
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []

    def test_locked_graph(self, capsys, files):
        code, out, err = run_cli(capsys, "expand", files["lock"])
        assert code == 2 and out == ""
        assert "locked clasp x" in err

    def test_unstable_graph(self, capsys, files):
        code, _, err = run_cli(capsys, "expand", files["unstable"])
        assert code == 2
        assert "not stable" in err


class TestVerify:
    def test_valid_map(self, capsys, files, tmp_path):
        m = tmp_path / "map.txt"
        m.write_text("t y\n")
        code, out, _ = run_cli(
            capsys, "verify", files["split"], files["path"], str(m)
        )
        assert code == 0 and out == "Valid\n"

    def test_invalid_map(self, capsys, files, tmp_path):
        m = tmp_path / "map.txt"
        m.write_text("t x\n")
        code, out, _ = run_cli(
            capsys, "verify", files["split"], files["path"], str(m)
        )
        assert code == 2
        assert "cond1" in out and "t z" in out

    def test_non_total_map_is_a_usage_error(self, capsys, files, tmp_path):
        target = tmp_path / "two.dg"
        target.write_text("vertices: a b\narrows:\na b\n")
        m = tmp_path / "map.txt"
        m.write_text("x a\ny a\nz b\n")
        code, _, err = run_cli(
            capsys, "verify", files["split"], str(target), str(m)
        )
        assert code == 1 and "not total" in err


def test_one_parser_serves_successive_calls(files, tmp_path, capsys):
    import splitclosure.cli as cli

    m = tmp_path / "map.txt"
    m.write_text("t y\n")
    expected = property_report(parse_digraph(EX_TEXT)).to_json()

    code, out, _ = run_cli(capsys, "check", "--json", files["ex"])
    assert code == 0 and json.loads(out) == {"name": "twoclasps", **expected}
    code, out, _ = run_cli(capsys, "check", files["path"])
    assert code == 0 and out.startswith("digraph: (unnamed) (3 vertices, 5 arrows)\n")
    with pytest.raises(SystemExit) as info:
        main(["check", "--json"])
    captured = capsys.readouterr()
    assert info.value.code == 1 and captured.out == ""
    assert "the following arguments are required: file" in captured.err
    code, out, err = run_cli(capsys, "verify", files["split"], files["path"], str(m))
    assert (code, out, err) == (0, "Valid\n", "")
    # the parser was built once, and no call left an option set for the next
    assert cli._parser() is cli._parser()
    code, out, _ = run_cli(capsys, "check", files["ex"])
    assert code == 0 and not out.startswith("{")


class TestClosure:
    def test_comparison_rows(self, capsys, files):
        code, out, _ = run_cli(capsys, "closure", files["ex"])
        assert code == 0
        assert out == (
            "closure:   +5 arrows, +0 vertices\n"
            "expansion: +0 arrows, +2 vertices\n"
        )

    def test_preordered_graph_needs_nothing(self, capsys, files):
        code, out, _ = run_cli(capsys, "closure", files["split"])
        assert code == 0
        assert "+0 arrows, +0 vertices" in out.splitlines()[0]
        assert "+0 arrows, +0 vertices" in out.splitlines()[1]

    def test_locked_graph_reports_reason(self, capsys, files):
        code, out, _ = run_cli(capsys, "closure", files["lock"])
        assert code == 0
        assert out.splitlines()[1] == "expansion unavailable: locked clasp x"


class TestCensusCommand:
    def test_counts(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--max-vertices", "3", "--count")
        assert code == 0 and out == "iso classes: 1, 3, 16\n"

    def test_obstruction_envelope(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--max-vertices", "3", "--obstructions", "balanced"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["predicate"] == "balanced" and payload["n_max"] == 3
        assert len(payload["classes"]) == 5
        for block in payload["classes"]:
            parse_digraph(block)

    def test_validation_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--max-vertices", "3", "--validate")
        assert code == 0
        assert "overall: pass" in out

    def test_flag_errors_exit_one(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["census", "--max-vertices", "3"])
        assert info.value.code == 1
        capsys.readouterr()

    def test_bound_errors_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "census", "--max-vertices", "9", "--count")
        assert code == 1 and "bound exceeded" in err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "EX"),
            ("check", "--json", "EX"),
            ("expand", "PATH"),
            ("closure", "EX"),
            ("census", "--max-vertices", "3", "--count"),
            ("census", "--max-vertices", "3", "--validate"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, files, argv):
        resolved = [files["ex"] if a == "EX" else files["path"] if a == "PATH" else a
                    for a in argv]
        first = run_cli(capsys, *resolved)
        second = run_cli(capsys, *resolved)
        assert first == second


def test_internal_breach_exits_three(files, capsys, monkeypatch):
    import splitclosure.cli as cli
    from splitclosure import InternalInvariantBreached

    def boom(graph):
        raise InternalInvariantBreached("synthetic")

    monkeypatch.setattr(cli, "expand_to_preorder", boom)
    code = cli.main(["expand", files["path"]])
    captured = capsys.readouterr()
    assert code == 3
    assert "internal invariant breached" in captured.err


def test_verify_missing_map_file_exits_one(files, capsys, tmp_path):
    code = main(["verify", files["split"], files["path"], str(tmp_path / "no.txt")])
    captured = capsys.readouterr()
    assert code == 1 and "i/o error" in captured.err


def test_undecodable_files_are_i_o_errors(files, capsys, tmp_path):
    bad_graph = tmp_path / "bad.dg"
    bad_graph.write_bytes(b"vertices: a\xff\narrows:\n")
    bad_map = tmp_path / "bad.txt"
    bad_map.write_bytes(b"t \xff\n")
    for argv in (
        ["check", str(bad_graph)],
        ["verify", files["split"], files["path"], str(bad_map)],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("i/o error: ") and captured.err.count("\n") == 1


def _child_env() -> dict:
    """This process's environment with the checkout's ``src`` on the path."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_module_entry_point(files):
    env = _child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "splitclosure", "check", files["path"]],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "transitive: no (witness x, y, z)" in proc.stdout


def test_unknown_endpoint_report_ignores_the_hash_seed(tmp_path):
    path = tmp_path / "unlisted.dg"
    path.write_text("vertices: a b\narrows:\na x\ny b\nz q\n")
    env = _child_env()
    for seed in range(1, 7):
        env["PYTHONHASHSEED"] = str(seed)
        proc = subprocess.run(
            [sys.executable, "-m", "splitclosure", "check", str(path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: x\n"), seed


def test_expand_roundtrip_through_files(files, tmp_path, capsys):
    out_dg = tmp_path / "r.dg"
    assert main(["expand", files["ex"], "-o", str(out_dg)]) == 0
    capsys.readouterr()
    text = out_dg.read_text()
    assert parse_digraph(text) == parse_digraph(emit_digraph(parse_digraph(text)))
