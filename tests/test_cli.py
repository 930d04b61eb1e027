"""Command-line behaviour: outputs, exit codes, byte stability."""

from __future__ import annotations

import copy
import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import curvetqft
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


def test_class_machine_output(tmp_path, capsys):
    # The k0prime file of the README: one circle around the annulus core.
    surface = sf.annulus(2, 2)
    k = sf.make_dividing_set((2,), [[(2, 3), (1, 4), (0, 7), (5, 6)]])
    path = tmp_path / "k0prime.json"
    fileio.dump_json(fileio.dividing_set_to_dict(surface, k), str(path))
    code, out, _ = run_cli(capsys, "class", "--k", str(path), "--bound", "3",
                           "--format", "machine")
    assert code == 0
    assert out == '{"coordinates": "0100", "grading": 0, "zero": false}\n'


@pytest.mark.parametrize("with_datum,attach", [(True, ["--attach", "3", "0"]), (False, [])],
                         ids=["both", "neither"])
def test_glue_requires_exactly_one_datum(tmp_path, capsys, with_datum, attach):
    from curvetqft import gluemaps

    path = tmp_path / "datum.json"
    fileio.dump_json(fileio.gluing_datum_to_dict(gluemaps.attach_arc_datum(3, 1)), str(path))
    datum = ["--datum", str(path)] if with_datum else []
    code, out, err = run_cli(capsys, "glue", *datum, *attach)
    assert code == 2
    assert out == ""
    assert err == "error: choose exactly one of --datum FILE, --attach N J\n"


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


# sha256 of `lift --box 4` stdout, `lift --box 3 --relaxed` stdout and the
# `lift --box 4 --out` file, recorded before the scan and the replay read
# their constraints from the incidence pattern.
LIFT_STDOUT_DIGESTS = {
    ("--box", "4"):
        "27c263e6ce44db2068f5423463a68f54851d14591a6f54dc2ebd95dd4595a87f",
    ("--box", "3", "--relaxed"):
        "b3be65b0572ddcf8b205a840713845736ee2d0b0c243090a46c64e27a38f3cc1",
}
LIFT_OUT_FILE_DIGEST = "cd8709534a2cff132982eb65836d6d49eaafd21c39ade83ac5c21a86718575ad"


def test_lift_cli_digest(tmp_path, capsys):
    for flags, digest in LIFT_STDOUT_DIGESTS.items():
        _, out, _ = run_cli(capsys, "lift", *flags)
        assert hashlib.sha256(out.encode()).hexdigest() == digest
    cert = tmp_path / "certificate.json"
    run_cli(capsys, "lift", "--box", "4", "--out", str(cert))
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == LIFT_OUT_FILE_DIGEST


def test_lift_relaxed(capsys):
    code, out, _ = run_cli(capsys, "lift", "--box", "3", "--relaxed")
    assert code == 0
    assert out.startswith("FEASIBLE")


def test_verify_lift_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "lift")
    assert code == 0
    assert "PASS lift-infeasibility" in out


def test_verify_all_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all")
    assert code == 0
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [
        "PASS catalan-enumeration", "PASS disk-ranks", "PASS matching-distinctness",
        "PASS superposition", "PASS gluing-tables", "PASS disk-oracle",
        "PASS annulus", "PASS multiplicativity", "PASS cutting-isomorphism",
        "PASS vanishing-criterion", "PASS lift-infeasibility",
    ]
    assert lines[-1] == "11/11 checks passed"


def test_bad_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "class", "--k", str(bad))
    assert code == 2
    assert "error" in err


DISK4_K = {
    "surface": {"pieces": [["mark", "plain"] * 4], "identifications": [],
                "labels": ["-", "+", "-", "+"]},
    "chords": [[0, 1], [2, 3]],
}
# An annulus(2, 2) set crossing the seam twice.
ANNULUS_K2 = {
    "surface": fileio.surface_to_dict(sf.annulus(2, 2)),
    "crossings": [2],
    "chords": [[[0, 0], [0, 5]], [[0, 1], [0, 4]], [[0, 2], [0, 3]], [[0, 6], [0, 7]]],
}


LIFT_CERT_2 = {"pattern": [[1, 1, 0], [0, 1, 1], [1, 0, 1]], "allow_signs": False,
               "box": 2, "outcome": "infeasible", "assignments_checked": 50}


@pytest.mark.parametrize(
    "argv,content",
    [
        pytest.param(["class", "--k", "{file}"], "[]", id="class-array"),
        pytest.param(["class", "--k", "{file}"],
                     '{"surface": {"pieces": 5, "identifications": [], "labels": []}}',
                     id="class-pieces-int"),
        pytest.param(["class", "--k", "{file}"], '{"chords": [[0, 1]]}',
                     id="class-no-surface"),
        pytest.param(["class", "--k", "{file}"], "{not json", id="class-bad-json"),
        pytest.param(["class", "--k", "{file}"],
                     json.dumps({**DISK4_K, "chords": [[[3, 0], [3, 1]], [2, 3]]}),
                     id="class-missing-piece"),
        pytest.param(["class", "--k", "{file}"],
                     json.dumps({**DISK4_K, "crossings": ["x"]}),
                     id="class-crossing-string"),
        pytest.param(["class", "--k", "{file}"],
                     json.dumps({**ANNULUS_K2, "crossings": [2.9]}),
                     id="class-crossing-float"),
        pytest.param(["class", "--k", "{file}"],
                     json.dumps({**DISK4_K, "chords": [[[0, 0.7], [0, 1]], [2, 3]]}),
                     id="class-slot-float"),
        pytest.param(["class", "--k", "{file}"],
                     json.dumps({**DISK4_K, "closed": "0"}),
                     id="class-closed-string"),
        pytest.param(["module", "--surface", "{file}"], '["mark"]',
                     id="module-surface-array"),
        pytest.param(["module", "--surface", "{file}"],
                     json.dumps({"pieces": [["mark", "plain", "mark", "mark", "plain", "mark"]],
                                 "identifications": [], "labels": ["+", "+"]}),
                     id="module-adjacent-marks"),
        pytest.param(["glue", "--datum", "{file}"],
                     json.dumps({"surface": DISK4_K["surface"], "gamma": [2, 1, 3],
                                 "gamma_prime": [0, 5, 7]}),
                     id="glue-missing-piece"),
        pytest.param(["glue", "--datum", "{file}"],
                     json.dumps({"surface": DISK4_K["surface"], "gamma": [0, 1]}),
                     id="glue-short-arc"),
        pytest.param(["lift", "--replay", "{file}"], "[]", id="lift-array"),
        pytest.param(["lift", "--replay", "{file}"], '{"pattern": 5}',
                     id="lift-pattern-int"),
        pytest.param(["lift", "--replay", "{file}"],
                     json.dumps({**LIFT_CERT_2, "witnesses": [{"a": [1, 0]}]}),
                     id="lift-short-witness"),
        pytest.param(["lift", "--replay", "{file}"],
                     json.dumps({**LIFT_CERT_2, "steps": [{"step": ["normalize-a"]}]}),
                     id="lift-step-list"),
        pytest.param(["lift", "--replay", "{file}"],
                     json.dumps({**LIFT_CERT_2, "steps": [{"value": [1, 0]}]}),
                     id="lift-step-missing"),
        pytest.param(["matchings", "--n", "9"], None, id="matchings-n-range"),
        pytest.param(["module", "--disk", "4", "--bound", "-1"], None,
                     id="module-negative-bound"),
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, argv, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run_cli(capsys, *(a.format(file=path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


UNREADABLE = {"not-utf8": b'{"surface": "\xff\xfe"}', "deep": b"[" * 100_000}


@pytest.mark.parametrize("content", list(UNREADABLE), ids=str)
@pytest.mark.parametrize("option", [("class", "--k"), ("module", "--surface"),
                                    ("lift", "--replay")], ids="-".join)
def test_unreadable_file_exits_2(tmp_path, capsys, option, content):
    # Bytes that are not UTF-8, and nesting deeper than the JSON decoder
    # follows, are bad input like any malformed file.
    path = tmp_path / "input.json"
    path.write_bytes(UNREADABLE[content])
    code, out, err = run_cli(capsys, *option, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unwritable_output_path_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "lift", "--out", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def _mutate(rng, doc):
    """doc with one node replaced by a random JSON value, or deleted."""
    atoms = [None, True, 0, 1, -1, 5, 2.5, "x", "+", "mark", "ident", [], {},
             [0, 0], [[0, 0], [0, 6]]]
    doc = copy.deepcopy(doc)
    nodes = [(None, None)]
    stack = [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            children = node.items()
        elif isinstance(node, list):
            children = enumerate(node)
        else:
            children = ()
        for key, child in children:
            nodes.append((node, key))
            stack.append(child)
    parent, key = rng.choice(nodes)
    value = copy.deepcopy(rng.choice(atoms))
    if parent is None:
        return value
    if rng.random() < 0.2:
        del parent[key]
    else:
        parent[key] = value
    return doc


def test_fuzzed_files_never_escape(tmp_path, capsys):
    from curvetqft import gluemaps, liftsearch

    torus = sf.punctured_torus(2)
    documents = [
        (["class", "--k", "{file}", "--bound", "1"],
         fileio.dividing_set_to_dict(torus, sf.enumerate_dividing_sets(torus, 1)[0])),
        (["module", "--surface", "{file}", "--bound", "1"],
         fileio.surface_to_dict(sf.annulus(2, 2))),
        (["glue", "--datum", "{file}", "--bound", "1"],
         fileio.gluing_datum_to_dict(gluemaps.attach_arc_datum(3, 1))),
        (["lift", "--replay", "{file}"], json.loads(json.dumps(
            liftsearch.search_lift(liftsearch.standard_problem(search_box=2)).certificate))),
    ]
    rng = random.Random(5)
    path = tmp_path / "input.json"
    for _ in range(150):
        for argv, doc in documents:
            path.write_text(json.dumps(_mutate(rng, doc)))
            code, _, err = run_cli(capsys, *(a.format(file=path) for a in argv))
            assert code in (0, 1, 2)
            assert code != 2 or err.startswith("error: ")


def test_internal_value_error_is_not_input_error(monkeypatch, capsys):
    from curvetqft import cli

    def broken(surface, bound=4):
        raise ValueError("an engine fault")

    monkeypatch.setattr(cli, "build_module", broken)
    code, out, err = run_cli(capsys, "module", "--disk", "4")
    assert code == 3
    assert out == ""
    assert err == "internal error: ValueError: an engine fault\n"


def test_euler_bookkeeping_fault_is_internal(monkeypatch, capsys):
    # Coloring a slot layout checks its Euler sum against num_marks; a
    # mismatch is a fault of the engine, not of the input.
    from curvetqft import surfaces

    monkeypatch.setattr(surfaces, "num_marks", lambda surface: 0)
    code, out, err = run_cli(capsys, "module", "--disk", "4")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: RuntimeError: internal Euler bookkeeping failed")


def test_class_with_separate_surface_file(tmp_path, capsys):
    surface_path = tmp_path / "surface.json"
    surface_path.write_text(json.dumps({"surface": DISK4_K["surface"]}))
    k_path = tmp_path / "k.json"
    k_path.write_text(json.dumps({"chords": DISK4_K["chords"]}))
    code, out, _ = run_cli(capsys, "class", "--k", str(k_path),
                           "--surface", str(surface_path), "--bound", "0")
    assert code == 0
    assert out.startswith("grading ")


def test_module_build_error_is_internal(monkeypatch, capsys):
    from curvetqft import cli
    from curvetqft.tqftcore import ModuleBuildError

    def broken(surface, bound=4):
        raise ModuleBuildError("bypass relation mixes gradings (2 vs 0)")

    monkeypatch.setattr(cli, "build_module", broken)
    code, _, err = run_cli(capsys, "module", "--disk", "4")
    assert code == 3
    assert "internal error" in err
    assert "mixes gradings" in err


def _child_env():
    """The environment of a child that imports the package from where this process found it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(curvetqft.__file__)))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "curvetqft.cli", "matchings", "--n", "2",
         "--format", "machine"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["0-1 2-3", "0-3 1-2"]


def test_cli_import_loads_no_dataclass_machinery():
    # dataclasses imports inspect, ast, dis and tokenize and builds each
    # class by exec of generated code; the CLI's cold start should pay for
    # none of it, unless the bare interpreter already loads those modules.
    code = (
        "import sys\n"
        "heavy = {'dataclasses', 'inspect'}\n"
        "before = heavy & set(sys.modules)\n"
        "import curvetqft.cli\n"
        "print(sorted(heavy & set(sys.modules) - before))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
