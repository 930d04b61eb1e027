"""Smoke test of the benchmark's traced mode.

The tracer and the stage replay reach into the engine by name:
analyze_regions, canonicalize, class_of, build_module, glue_map,
search_lift, replay_certificate, SlotLayout.interval_for_word_position,
the two-argument enumerate_dividing_sets and iter_bypass_surgeries,
gf2.rref, whose pivots the replay compares with module.pivots.  A
renamed function or a changed signature makes this run fail.

The replay also calls class_of on every generator of every module it
sees.  The ladders hold disks and glued surfaces; verify-all adds every
module of the verify suite: seams, disjoint unions and cut surfaces.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


# glued-ladder is the only ladder with seams, so only its traced run
# replays gap intervals and bigon reduction through the tracer's hooks.
@pytest.mark.parametrize("workload", ["disk-ladder", "glued-ladder", "verify-all"])
def test_traced_ladder_runs_correctly(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
