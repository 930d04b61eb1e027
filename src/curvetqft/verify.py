"""Built-in verification suites.

Each check returns a CheckResult; the CLI prints one pass/fail line per
check and the test suite asserts them individually.  The checks pin the
exact values the model must reproduce: Catalan counts, quotient ranks and
graded ranks, distinctness of matching classes, the superposition
relation, the annulus class identities, the vanishing criterion, the
three attachment-map tables, lift infeasibility, the independent
sub-disk oracle's relation rows, and disjoint-union multiplicativity.

Every check takes one argument, build, called as build(surface, bound)
to obtain a module, and hands it on to the gluing and cutting helpers it
calls.  run_suite passes a memo of build_module that lives for one run,
so a run builds each (surface, bound) once.
"""

from __future__ import annotations

import functools
import time
from typing import NamedTuple

from .gluemaps import attachment_table, cut_check
from .liftsearch import replay_certificate, search_lift, standard_problem
from .surfaces import (
    annulus,
    disjoint_union,
    disk,
    is_isolating,
    make_dividing_set,
    punctured_torus,
)
from .tqftcore import (
    build_module,
    class_of,
    distinct_classes,
    expected_graded_ranks,
    subdisk_relations,
)

ANNULUS_BOUND = 3
TORUS_BOUND = 3


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    seconds: float


def _check(name, budget_s=None):
    """Turn fn(build) -> (passed, detail) into a timed check named name.

    A check that takes budget_s seconds or more fails.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def check(build) -> CheckResult:
            start = time.perf_counter()
            try:
                passed, detail = fn(build)
            except Exception as exc:  # a crash is a failure, not an abort
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
            if budget_s is not None and seconds >= budget_s:
                passed, detail = False, f"{detail}; over the {budget_s:g}s budget"
            return CheckResult(name, passed, detail, seconds)

        return check

    return decorate


@_check("catalan-enumeration", budget_s=1.0)
def check_catalan_counts(build):
    expected = [1, 2, 5, 14, 42, 132]
    got = [len(build(disk(2 * n), 0).generators) for n in range(1, 7)]
    return got == expected, f"counts {got}"


@_check("disk-ranks", budget_s=60.0)
def check_disk_ranks(build):
    details = []
    ok = True
    for n in range(1, 7):
        m = build(disk(2 * n), 0)
        ok &= m.rank == 2 ** (n - 1)
        details.append(f"n={n}:{m.rank}")
        ok &= m.graded_ranks() == expected_graded_ranks(m.surface)
    return ok, " ".join(details)


@_check("matching-distinctness")
def check_distinctness(build):
    ok = True
    details = []
    for n in range(1, 7):
        m = build(disk(2 * n), 0)
        report = distinct_classes(m, list(m.generators))
        ok &= report.all_nonzero and report.all_distinct
        details.append(f"n={n}:{len(m.generators)}")
    return ok, "all matching classes nonzero and distinct " + " ".join(details)


@_check("superposition")
def check_superposition(build):
    m = build(disk(6), 0)
    k1 = make_dividing_set((), [[(0, 3), (1, 2), (4, 5)]])
    k2 = make_dividing_set((), [[(0, 5), (1, 4), (2, 3)]])
    k3 = make_dividing_set((), [[(0, 1), (2, 5), (3, 4)]])
    v1, v2, v3 = (class_of(m, k) for k in (k1, k2, k3))
    ok = (v1.coords ^ v2.coords ^ v3.coords) == 0
    ok &= all(not v.is_zero for v in (v1, v2, v3))
    ok &= len({v1.coords, v2.coords, v3.coords}) == 3
    return ok, "middle classes are nonzero, distinct, and sum to zero"


@_check("annulus", budget_s=60.0)
def check_annulus(build):
    surface = annulus(2, 2)
    m = build(surface, ANNULUS_BOUND)
    ok = m.rank == 4 and m.graded_ranks() == {2: 1, 0: 2, -2: 1}
    cross = make_dividing_set((0,), [[(0, 3), (1, 2)]])
    twisted = make_dividing_set((2,), [[(0, 3), (1, 2), (4, 7), (5, 6)]])
    lens_circle_a = make_dividing_set((2,), [[(2, 3), (1, 4), (0, 7), (5, 6)]])
    lens_circle_b = make_dividing_set((2,), [[(0, 5), (1, 2), (3, 4), (6, 7)]])
    va = class_of(m, lens_circle_a)
    vb = class_of(m, lens_circle_b)
    v0 = class_of(m, cross)
    v1 = class_of(m, twisted)
    ok &= va.coords == vb.coords and not va.is_zero
    ok &= va.coords == (v0.coords ^ v1.coords)
    ranks = [build(surface, b).rank for b in (2, 3, 4)]
    ok &= ranks == [4, 4, 4]
    return ok, f"rank stable {ranks}, class identities hold"


@_check("vanishing-criterion", budget_s=300.0)
def check_vanishing(build):
    cases = [
        (disk(2), 0), (disk(4), 0), (disk(6), 0), (disk(8), 0),
        (annulus(2, 2), ANNULUS_BOUND),
        (punctured_torus(2), TORUS_BOUND),
    ]
    ok = True
    total = isolating = 0
    for surface, bound in cases:
        m = build(surface, bound)
        for g in m.generators:
            zero = class_of(m, g).is_zero
            iso = is_isolating(surface, g)
            ok &= zero == iso
            total += 1
            isolating += iso
    # A contractible closed component always kills the class.
    m = build(disk(4), 0)
    circled = make_dividing_set((), [[(0, 1), (2, 3)]], closed=1)
    ok &= class_of(m, circled).is_zero and is_isolating(disk(4), circled)
    return ok, f"zero iff isolating over {total} dividing sets ({isolating} isolating)"


@_check("gluing-tables")
def check_gluing_tables(build):
    expected = [
        ["K+", "K+", "0"],
        ["0", "K-", "K-"],
        ["K+", "0", "K+"],
    ]
    got = [
        ["0" if v.is_zero else ("K+" if v.grading == 1 else "K-") for v in row]
        for row in attachment_table(build)
    ]
    return got == expected, f"attachment tables {got}"


@_check("lift-infeasibility", budget_s=10.0)
def check_lift(build):
    ok = True
    for box in (4, 8):
        result = search_lift(standard_problem(search_box=box))
        ok &= not result.feasible
        ok &= replay_certificate(result.certificate)
        if box == 4:
            steps = result.certificate.get("steps", [])
            ok &= bool(steps) and steps[-1]["derived"] == 2 \
                and steps[-1]["required"] == 0
    relaxed = search_lift(standard_problem(allow_signs=True))
    ok &= relaxed.feasible
    return ok, "infeasible at boxes 4 and 8, feasible with signs"


@_check("disk-oracle")
def check_disk_oracle(build):
    ok = True
    for n in range(2, 5):
        m = build(disk(2 * n), 0)
        ok &= subdisk_relations(m.surface, m.generators) == frozenset(m.relation_rows)
    return ok, "sub-disk relation rows equal the build's for n = 2, 3, 4"


@_check("multiplicativity")
def check_multiplicativity(build):
    ok = True
    details = []
    for label, (a, bound_a), (b, bound_b) in (
        ("disk2|disk2", (disk(4), 0), (disk(4), 0)),
        ("disk1|annulus", (disk(2), 0), (annulus(2, 2), ANNULUS_BOUND)),
    ):
        union = build(disjoint_union(a, b), max(bound_a, bound_b)).rank
        ranks = (build(a, bound_a).rank, build(b, bound_b).rank)
        ok &= union == ranks[0] * ranks[1]
        details.append(f"{label} rank {union} = {ranks[0]}*{ranks[1]}")
    return ok, ", ".join(details)


@_check("cutting-isomorphism")
def check_cutting(build):
    ok = True
    r1 = cut_check(build, annulus(2, 2, (1, -1)), 0, 2)
    ok &= r1.passed
    r2 = cut_check(build, punctured_torus(2), 0, 2)
    r3 = cut_check(build, punctured_torus(2), 1, 2)
    ok &= r2.passed and r3.passed
    return ok, (
        f"annulus {r1.rank_cut}={r1.rank_original}, torus arcs "
        f"{r2.rank_cut}={r2.rank_original}, {r3.rank_cut}={r3.rank_original}"
    )


SUITES = {
    "disk": [
        check_catalan_counts,
        check_disk_ranks,
        check_distinctness,
        check_superposition,
        check_gluing_tables,
        check_disk_oracle,
    ],
    "annulus": [check_annulus, check_multiplicativity, check_cutting],
    "torus": [check_vanishing],
    "lift": [check_lift],
}
SUITES["all"] = (
    SUITES["disk"] + SUITES["annulus"] + SUITES["torus"] + SUITES["lift"]
)


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    # Looked up at call time, so a rebound build_module sees every build;
    # the memo is dropped when the run returns.
    build = functools.cache(build_module)
    return [check(build) for check in SUITES[name]]
