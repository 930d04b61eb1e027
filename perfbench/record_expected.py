"""Record the exact ladder outputs that the benchmark's gate compares with.

    python3 perfbench/record_expected.py

Builds every ladder case once in a fresh process and writes its rank,
graded ranks, generator and relation counts and machine-output digest to
perfbench/expected.json.  Run it only on a commit whose outputs are known
to be right: the gate exists to catch a change that alters them.
"""

import json
import time

import run
from run import cases


def main() -> None:
    expected = {}
    for label in cases.CASES:
        spec = {"kind": "case", "case": label, "trace": False}
        gate = run.spawn(spec, time.monotonic() + 3600)["gate"]
        del gate["expected_rank"]
        expected[label] = gate
        print(label, gate)
    with open(run.EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
