"""Benchmark of the curvetqft engine: module ladders, class queries, verify.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload disk-ladder --seed 1 --seconds 28 --trace 0

Workloads (every ladder build and verify run happens in a fresh
interpreter, because curvetqft keeps a process-global slot-layout cache
that a CLI user never sees warm; the driver hands each run process only
the generated inputs):

  disk-ladder    build_module(disk(2n), 0) for 2n = 8, 10, 12, one process
                 per case.  Planar: bypass surgery, canonicalization and
                 region analysis dominate; enumeration does almost nothing.
  glued-ladder   annulus(2,2) at bounds 3 and 4, annulus(4,4) at 3,
                 punctured_torus(2) and (4) at 3, likewise.  Crossing
                 vectors, gap gluing, bigon reduction through seams and
                 slot-interval lookups do real work.
  class-queries  set-up builds annulus(2,2)@3, punctured_torus(2)@3,
                 disk(10)@0 and the arc-attachment modules and makes one
                 warm-up pass; each timed pass (cases.QUERY_PASSES per
                 process) answers a seeded stream of non-canonical class_of
                 queries, evaluates the three attachment gluing maps and
                 runs the lift search at boxes 8 and 16 with certificate
                 replay.
  verify-all     verify.run_suite("all").  It takes no seeded input.

End-to-end metrics (--trace 0), each the median over the repetitions of
the run: norm_wall_s (one repetition: the builds of a ladder, one timed
pass of class-queries, the verify suite), setup_s (interpreter start,
imports, CLI parser, input decoding, set-up builds and warm-up; median
over at least three set-ups) and peak_rss_mb (largest ru_maxrss of the
run processes of a ladder pass, of a class-query process, of a verify
run).  norm_wall_s and setup_s are host-speed-scaled seconds: the time
on a host that runs pace.py's reference loop in pace.NOMINAL_S, measured
by sampling that loop while the program runs (see pace.py), because the
shared host's speed swings by more than the bounds within minutes.  The
unscaled medians are printed beside them as wall_s and raw_setup_s.
Failed operations are reported by the result's `attempted` and
`failed`, and printed as failed_frac.  class-queries also prints
queries_per_s (queries over their summed latency), query_p50_us and
query_p99_us, unscaled; they are not bounded metrics, because every
workload must report every bounded metric and only class-queries has a
query stream.  The traced run reports them as tqftcore.* figures.

The traced run (--trace 1) makes one untraced and one traced round, and
prints per-layer metrics: call counts and times from wrappers put
around public functions (see tracing.py) during the timed phase, stage
times from a replay of every module the timed phase built, the verify
check times, trace.overhead_frac (from scaled times) and
pace.host_slowdown (unscaled over scaled time of the untraced round).
Layer times are unscaled.  A layer a workload does not exercise reads 0.

Correctness gate, applied after each timed phase: ladder modules must
match perfbench/expected.json (rank, graded ranks, generator and
relation counts, sha256 of the `module --format machine` bytes) and have
rank == expected_rank; every query's class is zero iff the set is
isolating and equals the class of its canonical form; the attachment
tables and lift infeasibility are exact; every verify check passes.
A failed operation is counted, never timed into a metric.

The recorded values come from perfbench/record_expected.py.  The last
line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
operation passed, 1 when some failed and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOADS = ("disk-ladder", "glued-ladder", "class-queries", "verify-all")
DEADLINE_S = 170.0  # every run must end within 180 s
MIN_SETUPS = 3  # setup_s is a median over at least this many set-ups
# Names of the CheckResults of verify.run_suite("all"); every traced run
# reports all of them, with 0 where the workload runs no verify check.
VERIFY_CHECKS = (
    "catalan-enumeration", "disk-ranks", "matching-distinctness", "superposition",
    "gluing-tables", "disk-oracle", "annulus", "multiplicativity",
    "cutting-isomorphism", "vanishing-criterion", "lift-infeasibility",
)


sys.path.insert(0, SRC)
try:
    import cases
except ImportError:  # no curvetqft sources in this tree; main() reports it
    cases = None


class WorkerError(RuntimeError):
    pass


def make_inputs(workload: str, seed: int) -> dict:
    """The generated inputs of a workload; only class-queries has any.

    One RNG seeded by --seed draws each module's queries, then
    interleaves them in random order.
    """
    if workload != "class-queries":
        return {}
    rng = random.Random(seed)
    mixed = [
        [label, q]
        for label in cases.QUERY_MODULES
        for q in cases.make_queries(rng, label, cases.QUERIES_PER_MODULE)
    ]
    rng.shuffle(mixed)
    return {"stream": mixed}


def specs(workload: str, inputs: dict, trace: bool) -> list[dict]:
    """The run processes of one repetition."""
    if workload == "verify-all":
        return [{"kind": "verify", "trace": trace}]
    if workload == "class-queries":
        return [{"kind": "queries", "stream": inputs["stream"], "trace": trace}]
    return [{"kind": "case", "case": label, "trace": trace} for label in cases.LADDERS[workload]]


def spawn(spec: dict, deadline: float) -> dict:
    """Run one worker process to completion and return its result line."""
    # A fixed hash seed keeps set iteration order, and with it the work a
    # build does, the same in every run.
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    spec = dict(spec, spawn_ns=time.monotonic_ns())
    proc = subprocess.Popen(
        [sys.executable, WORKER], cwd=ROOT, env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(
            json.dumps(spec), timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("run process exceeded the run deadline")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        raise WorkerError(f"run process exited {proc.returncode}: {tail[0]}")
    return json.loads(lines[-1])


def run_repetition(workload, inputs, expected, trace, deadline) -> dict:
    """One round of run processes, the gate, and the round's numbers.

    A round is one repetition, except for class-queries, whose one
    process makes cases.QUERY_PASSES repetitions.
    """
    rep = {"attempted": 0, "failures": [], "setups": [], "results": []}
    for spec in specs(workload, inputs, trace):
        try:
            res = spawn(spec, deadline)
        except WorkerError as exc:
            rep["attempted"] += 1
            rep["failures"].append(f"{spec.get('case', workload)}: {exc}")
            continue
        rep["attempted"] += res["ops"]
        rep["setups"].append((res["setup_s"], res["raw_setup_s"]))
        rep["results"].append(res)
        if res["digest"] != cases.digest(spec.get("stream")):
            rep["failures"].append("run process received other inputs than generated")
        label = spec.get("case")
        rep["failures"] += [f"{label or workload}: {f}" for f in res["failures"]]
        if label is not None:
            gate = res["gate"]
            if gate["rank"] != gate["expected_rank"]:
                rep["failures"].append(f"{label}: rank {gate['rank']} != expected_rank")
            for key, want in expected[label].items():
                if gate[key] != want:
                    rep["failures"].append(f"{label}: {key} {gate[key]!r} != recorded {want!r}")
    if rep["failures"]:
        return rep
    # A ladder repetition is one build in each of its processes; a
    # class-query process makes several repetitions.
    for key in ("walls", "raw_walls"):
        if workload in cases.LADDERS:
            rep[key] = [sum(r[key][0] for r in rep["results"])]
        else:
            rep[key] = [w for r in rep["results"] for w in r[key]]
    rep["wall_s"] = statistics.median(rep["walls"])
    rep["raw_wall_s"] = statistics.median(rep["raw_walls"])
    rep["peak_rss_mb"] = max(r["rss_kb"] for r in rep["results"]) / 1024.0
    latencies = [x / 1000.0 for r in rep["results"] for x in r["latencies_ns"]]
    if latencies:
        rep["queries_per_s"] = len(latencies) / (sum(latencies) / 1e6)
        rep["query_p50_us"] = statistics.median(latencies)
        rep["query_p99_us"] = statistics.quantiles(latencies, n=100)[98]
    return rep


def setup_probes(workload, inputs, count, deadline) -> list[tuple]:
    """(scaled, raw) set-up times of processes that stop before the timed phase."""
    spec = dict(specs(workload, inputs, False)[0], setup_only=True)
    results = [spawn(spec, deadline) for _ in range(count)]
    return [(r["setup_s"], r["raw_setup_s"]) for r in results]


def end_to_end(workload, inputs, expected, seconds, deadline):
    """Repeat until the next round would end after `seconds`; medians.

    Always makes at least one round.  A round with a failed operation
    contributes no timing.  Returns the rounds, the bounded metrics and
    unscaled figures printed beside them.
    """
    reps = []
    start = time.monotonic()
    while True:
        reps.append(run_repetition(workload, inputs, expected, False, deadline))
        elapsed = time.monotonic() - start
        per_rep = elapsed / len(reps)
        if elapsed + per_rep > seconds or time.monotonic() + per_rep > deadline:
            break
    good = [r for r in reps if not r["failures"]]
    setups = [s for r in reps for s in r["setups"]]
    if good and len(setups) < MIN_SETUPS:
        setups += setup_probes(workload, inputs, MIN_SETUPS - len(setups), deadline)
    metrics, info = {}, {}
    if good:
        metrics["norm_wall_s"] = (statistics.median(w for r in good for w in r["walls"]), "s")
        metrics["setup_s"] = (statistics.median(s for s, _ in setups), "s")
        metrics["peak_rss_mb"] = (statistics.median(r["peak_rss_mb"] for r in good), "MB")
        info["wall_s"] = (statistics.median(w for r in good for w in r["raw_walls"]), "s")
        info["raw_setup_s"] = (statistics.median(raw for _, raw in setups), "s")
        info.update(query_figures(good))
    return reps, metrics, info


QUERY_FIGURES = (("queries_per_s", "1/s"), ("query_p50_us", "us"), ("query_p99_us", "us"))


def query_figures(reps) -> dict:
    """Class-query throughput and latency: medians over the rounds."""
    good = [r for r in reps if "queries_per_s" in r]
    if not good:
        return {}
    return {name: (statistics.median(r[name] for r in good), unit) for name, unit in QUERY_FIGURES}


def per_layer(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics from the traced repetition's counters and replays."""
    c: dict[str, float] = {}
    for res in traced["results"]:
        for key, value in res.get("trace", {}).items():
            c[key] = c.get(key, 0) + value
        for replay in res.get("replays", []):
            for key, value in replay.items():
                c[key] = c.get(key, 0) + value
    checks = {}
    for res in traced["results"]:
        checks.update(res.get("checks", {}))

    def ratio(num, den):
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    stage_s = c.get("enumerate_s", 0) + c.get("surgery_s", 0) + c.get("rref_s", 0)
    m = {
        "surfaces.enumerate_s": (c.get("enumerate_s", 0), "s"),
        "surfaces.generators": (c.get("generators", 0), "count"),
        "surfaces.surgery_s": (c.get("surgery_s", 0), "s"),
        "surfaces.surgeries_yielded": (c.get("surgeries_yielded", 0), "count"),
        "surfaces.distinct_triples": (c.get("distinct_triples", 0), "count"),
        "surfaces.distinct_rows": (c.get("distinct_rows", 0), "count"),
        "surfaces.row_yield": (ratio("distinct_rows", "surgeries_yielded"), "ratio"),
        "surfaces.analyze_regions_calls": (c.get("analyze_regions_calls", 0), "count"),
        "surfaces.analyze_regions_distinct": (c.get("analyze_regions_distinct", 0), "count"),
        "surfaces.region_reuse": (ratio("analyze_regions_distinct", "analyze_regions_calls"), "ratio"),
        "surfaces.interval_lookups": (c.get("interval_lookups", 0), "count"),
        "surfaces.canonicalize_calls": (c.get("canonicalize_calls", 0), "count"),
        "surfaces.canonicalize_s": (c.get("canonicalize_s", 0), "s"),
        "surfaces.noncanonical_share": (ratio("noncanonical", "canonicalize_calls"), "ratio"),
        "tqftcore.class_of_s": (c.get("class_of_s", 0), "s"),
        "tqftcore.class_of_calls": (c.get("class_of_calls", 0), "count"),
        "tqftcore.zero_share": (ratio("class_of_zero", "class_of_calls"), "ratio"),
        "tqftcore.generator_classes_s": (c.get("generator_classes_s", 0), "s"),
        "gf2.rref_s": (c.get("rref_s", 0), "s"),
        "gf2.rref_rows": (c.get("rref_rows", 0), "count"),
        "gf2.pivots": (c.get("pivots", 0), "count"),
        "gf2.rref_share": (c.get("rref_s", 0) / stage_s if stage_s else 0.0, "ratio"),
        "gluemaps.glue_map_s": (c.get("glue_map_s", 0), "s"),
        "gluemaps.images": (c.get("images", 0), "count"),
        "liftsearch.scan_s": (c.get("search_lift_s", 0), "s"),
        "liftsearch.assignments_checked": (c.get("assignments_checked", 0), "count"),
        "liftsearch.replay_s": (c.get("replay_certificate_s", 0), "s"),
        "trace.overhead_frac": (traced["wall_s"] / untraced["wall_s"] - 1.0, "ratio"),
        "pace.host_slowdown": (untraced["raw_wall_s"] / untraced["wall_s"], "ratio"),
    }
    for name, unit in QUERY_FIGURES:
        m[f"tqftcore.{name}"] = (untraced.get(name, 0), unit)
    for label in (*cases.CASES, "other"):
        m[f"tqftcore.build_s.{label}"] = (c.get(f"build_s.{label}", 0), "s")
    for name in VERIFY_CHECKS:
        m[f"verify.{name}_s"] = (checks.get(name, 0), "s")
    return m


def git_sha() -> str:
    """HEAD of the checkout, read without running git; a plain tree has none."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_record() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "loadavg_at_start": os.getloadavg(),
        "note": "machine not tuned: no CPU pinning, frequency or isolation settings",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    record = run_record()

    if cases is None:
        print(f"error: no curvetqft sources under {SRC}", file=sys.stderr)
        return 2
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    inputs = make_inputs(args.workload, args.seed)
    record["inputs_digest"] = cases.digest(inputs)
    if cases.digest(make_inputs(args.workload, args.seed)) != record["inputs_digest"]:
        print("error: the same seed generated different inputs", file=sys.stderr)
        return 2
    print("record " + json.dumps(record))

    if args.trace:
        untraced = run_repetition(args.workload, inputs, expected, False, deadline)
        traced = run_repetition(args.workload, inputs, expected, True, deadline)
        reps = [untraced, traced]
        metrics = {} if untraced["failures"] or traced["failures"] else per_layer(untraced, traced)
        info = {}
    else:
        reps, metrics, info = end_to_end(args.workload, inputs, expected, args.seconds, deadline)

    attempted = sum(r["attempted"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    for f in failures[:20]:
        print("FAILED " + f)
    repetitions = sum(len(r.get("walls", ())) for r in reps)
    print(f"rounds {len(reps)}, repetitions {repetitions}; "
          f"failed_frac {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
