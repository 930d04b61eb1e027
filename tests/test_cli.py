"""Command-line behaviour: outputs, exit codes, byte stability."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from curvetqft import fileio
from curvetqft import surfaces as sf
from curvetqft.cli import main, render_matching


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matchings_human(capsys):
    code, out, _ = run_cli(capsys, "matchings", "--n", "3")
    assert code == 0
    assert "5 crossingless matchings" in out
    gradings = [line for line in out.splitlines() if line.startswith("grading")]
    assert gradings == ["grading +2", "grading +0", "grading +0",
                        "grading +0", "grading -2"]


def test_matchings_machine_count(capsys):
    code, out, _ = run_cli(capsys, "matchings", "--n", "5", "--format", "machine")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 42


def test_matchings_out_of_range(capsys):
    code, _, err = run_cli(capsys, "matchings", "--n", "9")
    assert code == 2
    assert "error" in err


def test_render_matching_shapes():
    art = render_matching(((0, 3), (1, 2)), 4)
    assert art.splitlines()[0] == "/-----\\"
    assert art.splitlines()[1] == "| /-\\ |"


def test_module_human(capsys):
    code, out, _ = run_cli(capsys, "module", "--disk", "6")
    assert code == 0
    assert out.splitlines()[0] == "rank 4; e=2:1, e=0:2, e=-2:1"


def test_module_machine_stable(capsys):
    code1, out1, _ = run_cli(capsys, "module", "--annulus", "2", "2",
                             "--bound", "2", "--format", "machine")
    code2, out2, _ = run_cli(capsys, "module", "--annulus", "2", "2",
                             "--bound", "2", "--format", "machine")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["rank"] == 4


def test_module_strict_escalates_rank_warning(capsys):
    code, out, _ = run_cli(capsys, "module", "--annulus", "2", "2", "--bound", "0",
                           "--strict")
    assert code == 1
    assert "warning" in out


def test_module_requires_one_surface(capsys):
    code, _, err = run_cli(capsys, "module")
    assert code == 2
    assert "choose exactly one" in err


def test_class_command(tmp_path, capsys):
    surface = sf.annulus(2, 2)
    k = sf.make_dividing_set((2,), [[(2, 3), (1, 4), (0, 7), (5, 6)]])
    path = tmp_path / "k0prime.json"
    fileio.dump_json(fileio.dividing_set_to_dict(surface, k), str(path))
    code, out, _ = run_cli(capsys, "class", "--k", str(path), "--bound", "3")
    assert code == 0
    assert "grading +0" in out

    zero = sf.make_dividing_set((), [[(0, 1)]], closed=1)
    zpath = tmp_path / "zero.json"
    fileio.dump_json(fileio.dividing_set_to_dict(sf.disk(2), zero), str(zpath))
    code, out, _ = run_cli(capsys, "class", "--k", str(zpath))
    assert code == 0
    assert out.startswith("class 0")


def test_glue_attach_table(capsys):
    code, out, _ = run_cli(capsys, "glue", "--attach", "3", "0",
                           "--format", "machine")
    assert code == 0
    payload = json.loads(out)
    assert payload["source_rank"] == 4
    assert payload["target_rank"] == 2


def test_lift_command_and_replay(tmp_path, capsys):
    cert = tmp_path / "certificate.json"
    code, out, _ = run_cli(capsys, "lift", "--box", "4", "--out", str(cert))
    assert code == 0
    assert out.startswith("INFEASIBLE")
    assert "should map (1, 1) to 2" in out
    code, out, _ = run_cli(capsys, "lift", "--replay", str(cert))
    assert code == 0
    assert "VALID" in out

    data = json.loads(cert.read_text())
    data["assignments_checked"] += 1
    cert.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "lift", "--replay", str(cert))
    assert code == 1
    assert "INVALID" in out


def test_lift_relaxed(capsys):
    code, out, _ = run_cli(capsys, "lift", "--box", "3", "--relaxed")
    assert code == 0
    assert out.startswith("FEASIBLE")


def test_verify_lift_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "lift")
    assert code == 0
    assert "PASS lift-infeasibility" in out


def test_bad_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "class", "--k", str(bad))
    assert code == 2
    assert "error" in err


def test_module_build_error_is_internal(monkeypatch, capsys):
    from curvetqft import cli

    def broken(surface, bound=4):
        raise cli.ModuleBuildError("bypass relation mixes gradings (2 vs 0)")

    monkeypatch.setattr(cli, "build_module", broken)
    code, _, err = run_cli(capsys, "module", "--disk", "4")
    assert code == 3
    assert "internal error" in err
    assert "mixes gradings" in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "curvetqft.cli", "matchings", "--n", "2",
         "--format", "machine"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["0-1 2-3", "0-3 1-2"]
