"""One run process of the benchmark: set up, run the timed phase, check.

Started fresh by `run.py` for every ladder build and verify run, so no
cache inside curvetqft (such as the process-global slot-layout cache)
survives from one of them to the next; a class-query process makes its
timed passes after a warm-up pass that fills those caches.  It reads one
JSON spec on standard input, holding only the inputs the driver
generated and the CLOCK_MONOTONIC time the driver started it, and prints
one JSON result line.  Set-up runs from that start to the end of
interpreter start, imports, the CLI parser, decoding the inputs and, for
class-queries, the set-up builds and the warm-up pass.  Set-up and every
timed repetition are reported in host-speed-scaled seconds (see
pace.py), with the unscaled program seconds beside them.

Spec kinds (each `run` returns the monotonic spans of its timed repetitions):
  case     timed: build one ladder case
  queries  set-up builds the query modules and the three arc-attachment
           maps' modules and makes one warm-up pass; timed: QUERY_PASSES
           passes, each answering the class-query stream (recording each
           query's latency), evaluating the three gluing maps and running
           the lift search with certificate replay
  verify   timed: `verify.run_suite("all")`
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

from curvetqft import cli, fileio, gluemaps, liftsearch, surfaces, tqftcore, verify

import cases
import pace

ATTACH_TABLES = [["K+", "K+", "0"], ["0", "K-", "K-"], ["K+", "0", "K+"]]
ATTACH_UNKNOWNS = (
    ((0, 3), (1, 2), (4, 5)),
    ((0, 5), (1, 4), (2, 3)),
    ((0, 1), (2, 5), (3, 4)),
)
LIFT_BOXES = (8, 16)


def module_gate(m) -> dict:
    """Exact values of a built module that the driver compares with record."""
    machine = json.dumps(fileio.module_to_dict(m), indent=2, sort_keys=True)
    return {
        "rank": m.rank,
        "expected_rank": m.expected_rank,
        "graded_ranks": {str(e): r for e, r in sorted(m.graded_ranks().items())},
        "generators": len(m.generators),
        "relations": len(m.relation_rows),
        "sha256": hashlib.sha256(machine.encode()).hexdigest(),
    }


def check_answers(stream, passes, failures) -> None:
    """Zero iff isolating, equal to the canonical form's class, same every pass."""
    first = passes[0]
    for i, ((m, surf, k), v) in enumerate(zip(stream, first)):
        if v.is_zero != surfaces.is_isolating(surf, k):
            failures.append(f"query {i}: zero={v.is_zero} disagrees with is_isolating")
        elif v.coords != tqftcore.class_of(m, surfaces.canonicalize(surf, k)).coords:
            failures.append(f"query {i}: class differs from its canonical form's")
    if any(later != first for later in passes[1:]):
        failures.append("a later pass answered the stream differently")


class Case:
    """Timed phase: one build."""

    def __init__(self, spec):
        self.label = spec["case"]
        self.surface = cases.surface(self.label)

    def ops(self):
        return 1

    def run(self, latencies):
        t = time.monotonic_ns()
        self.module = tqftcore.build_module(self.surface, cases.bound(self.label))
        return [(t, time.monotonic_ns())]

    def check(self, result):
        result["gate"] = module_gate(self.module)


class Queries:
    """Set-up builds every module and makes one warm-up pass; timed passes only read."""

    def __init__(self, spec):
        modules = {}
        for label in cases.QUERY_MODULES:
            surf = cases.surface(label)
            modules[label] = (tqftcore.build_module(surf, cases.bound(label)), surf)
        self.stream = [(*modules[label], cases.query_set(q)) for label, q in spec["stream"]]
        self.attach = []
        sources = {}
        for j in range(3):
            datum = gluemaps.attach_arc_datum(3, j)
            info = gluemaps.glue_surfaces(datum)
            if datum.source not in sources:
                sources[datum.source] = tqftcore.build_module(datum.source, 0)
            self.attach.append(
                (info, sources[datum.source], tqftcore.build_module(info.target, 2))
            )
        # The warm-up pass fills the slot-layout and module index caches, so
        # every timed pass does the same work; it is checked like the others.
        self.passes = [self.one_pass([])]

    def ops(self):
        per_pass = len(self.stream) + len(self.attach) + len(LIFT_BOXES)
        return per_pass * (1 + cases.QUERY_PASSES)

    def one_pass(self, latencies):
        """Answer the stream once, evaluate the gluing maps, run the lift search."""
        classes = []
        for m, _, k in self.stream:
            t = time.perf_counter_ns()
            classes.append(tqftcore.class_of(m, k))
            latencies.append(time.perf_counter_ns() - t)
        glued = [gluemaps.glue_map(*a) for a in self.attach]
        lifts = []
        for box in LIFT_BOXES:
            r = liftsearch.search_lift(liftsearch.standard_problem(search_box=box))
            lifts.append((r, liftsearch.replay_certificate(r.certificate)))
        return classes, glued, lifts

    def run(self, latencies):
        spans = []
        for _ in range(cases.QUERY_PASSES):
            t = time.monotonic_ns()
            self.passes.append(self.one_pass(latencies))
            spans.append((t, time.monotonic_ns()))
        return spans

    def check(self, result):
        failures = result["failures"]
        check_answers(self.stream, [classes for classes, _, _ in self.passes], failures)
        for n, (_, glued_maps, lifts) in enumerate(self.passes):
            tables = []
            for glued, (_, m_src, _) in zip(glued_maps, self.attach):
                row = []
                for chords in ATTACH_UNKNOWNS:
                    v = glued.image_of(m_src, surfaces.make_dividing_set((), [chords, [(0, 1)]]))
                    row.append("0" if v.is_zero else ("K+" if v.grading == 1 else "K-"))
                tables.append(row)
            if tables != ATTACH_TABLES:
                failures.append(f"pass {n}: attachment tables {tables} != {ATTACH_TABLES}")
            for box, (r, replayed) in zip(LIFT_BOXES, lifts):
                if r.feasible or not replayed:
                    failures.append(
                        f"pass {n}: lift at box {box}: feasible={r.feasible} replay={replayed}"
                    )


class Verify:
    """Timed phase: the whole verification suite."""

    def __init__(self, spec):
        pass

    def ops(self):
        return len(verify.SUITES["all"])

    def run(self, latencies):
        t = time.monotonic_ns()
        self.results = verify.run_suite("all")
        return [(t, time.monotonic_ns())]

    def check(self, result):
        result["checks"] = {r.name: r.seconds for r in self.results}
        for r in self.results:
            if not r.passed:
                result["failures"].append(f"verify {r.name}: FAIL {r.detail}")


KINDS = {"case": Case, "queries": Queries, "verify": Verify}


def main() -> None:
    pace.start()
    spec = json.load(sys.stdin)
    cli.build_parser()
    trace = spec["trace"]
    if trace:
        import tracing

        tracing.install()
    work = KINDS[spec["kind"]](spec)
    ready_ns = time.monotonic_ns()
    result = {"digest": cases.digest(spec.get("stream")), "ops": work.ops(), "failures": []}
    if spec.get("setup_only"):
        pace.stop()
        result["setup_s"], result["raw_setup_s"] = pace.scaled(spec["spawn_ns"], ready_ns)
        print(json.dumps(result))
        return
    latencies: list[int] = []
    if trace:
        tracing.start()
    spans = work.run(latencies)
    if trace:
        tracing.stop()
    pace.stop()
    result["setup_s"], result["raw_setup_s"] = pace.scaled(spec["spawn_ns"], ready_ns)
    scaled = [pace.scaled(*span) for span in spans]
    result["walls"] = [w for w, _ in scaled]
    result["raw_walls"] = [raw for _, raw in scaled]
    if trace:
        result["trace"] = tracing.snapshot()
        distinct = {(s, b): m for s, b, m in tracing.builds}
        result["replays"] = []
        for (s, b), m in distinct.items():
            try:
                result["replays"].append(tracing.replay(s, b, m))
            except ValueError as exc:
                result["failures"].append(f"stage replay: {exc}")
    result["latencies_ns"] = latencies
    work.check(result)
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main()
