"""Built-in verification suites.

Each check returns a CheckResult; the CLI prints one pass/fail line per
check and the test suite asserts them individually.  The checks pin the
exact values the model must reproduce: Catalan counts, quotient ranks and
graded ranks, distinctness of matching classes, the superposition
relation, the annulus class identities, the vanishing criterion, the
three attachment-map tables, lift infeasibility, the independent disk
oracle, and disjoint-union multiplicativity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb

from . import gf2
from .gluemaps import attachment_table, cut_check
from .liftsearch import replay_certificate, search_lift, standard_problem
from .surfaces import (
    annulus,
    catalan,
    disjoint_union,
    disk,
    enumerate_matchings,
    euler_grading,
    is_isolating,
    make_dividing_set,
    punctured_torus,
)
from .tqftcore import build_module, class_of, disk_bruteforce_module, distinct_classes

ANNULUS_BOUND = 3
TORUS_BOUND = 3


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _check(name, fn):
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crash is a failure, not an abort
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(name, passed, detail, time.perf_counter() - start)


def check_catalan_counts() -> CheckResult:
    def run():
        expected = [1, 2, 5, 14, 42, 132]
        start = time.perf_counter()
        got = [len(enumerate_matchings(n)) for n in range(1, 7)]
        elapsed = time.perf_counter() - start
        ok = got == expected and elapsed < 1.0
        return ok, f"counts {got} in {elapsed:.3f}s"

    return _check("catalan-enumeration", run)


def check_disk_ranks() -> CheckResult:
    def run():
        details = []
        ok = True
        start = time.perf_counter()
        for n in range(1, 7):
            m = build_module(disk(2 * n), 0)
            ok &= m.rank == 2 ** (n - 1)
            details.append(f"n={n}:{m.rank}")
            ok &= m.graded_ranks() == {n - 1 - 2 * j: comb(n - 1, j) for j in range(n)}
        elapsed = time.perf_counter() - start
        ok &= elapsed < 60.0
        return ok, f"{' '.join(details)} in {elapsed:.1f}s"

    return _check("disk-ranks", run)


def check_distinctness() -> CheckResult:
    def run():
        ok = True
        details = []
        for n in range(1, 7):
            m = build_module(disk(2 * n), 0)
            report = distinct_classes(m, list(m.generators))
            ok &= report.all_nonzero and report.all_distinct
            details.append(f"n={n}:{len(m.generators)}")
        return ok, "all matching classes nonzero and distinct " + " ".join(details)

    return _check("matching-distinctness", run)


def check_superposition() -> CheckResult:
    def run():
        m = build_module(disk(6), 0)
        k1 = make_dividing_set((), [[(0, 3), (1, 2), (4, 5)]])
        k2 = make_dividing_set((), [[(0, 5), (1, 4), (2, 3)]])
        k3 = make_dividing_set((), [[(0, 1), (2, 5), (3, 4)]])
        v1, v2, v3 = (class_of(m, k) for k in (k1, k2, k3))
        ok = (v1.coords ^ v2.coords ^ v3.coords) == 0
        ok &= all(not v.is_zero for v in (v1, v2, v3))
        ok &= len({v1.coords, v2.coords, v3.coords}) == 3
        return ok, "middle classes are nonzero, distinct, and sum to zero"

    return _check("superposition", run)


def check_annulus() -> CheckResult:
    def run():
        start = time.perf_counter()
        surface = annulus(2, 2)
        m = build_module(surface, ANNULUS_BOUND)
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
        ranks = [build_module(surface, b).rank for b in (2, 3, 4)]
        ok &= ranks == [4, 4, 4]
        elapsed = time.perf_counter() - start
        ok &= elapsed < 60.0
        return ok, f"rank stable {ranks}, class identities hold, {elapsed:.1f}s"

    return _check("annulus", run)


def check_vanishing() -> CheckResult:
    def run():
        start = time.perf_counter()
        cases = [
            (disk(2), 0), (disk(4), 0), (disk(6), 0), (disk(8), 0),
            (annulus(2, 2), ANNULUS_BOUND),
            (punctured_torus(2), TORUS_BOUND),
        ]
        ok = True
        total = isolating = 0
        for surface, bound in cases:
            m = build_module(surface, bound)
            for g in m.generators:
                zero = class_of(m, g).is_zero
                iso = is_isolating(surface, g)
                ok &= zero == iso
                total += 1
                isolating += iso
        # A contractible closed component always kills the class.
        m = build_module(disk(4), 0)
        circled = make_dividing_set((), [[(0, 1), (2, 3)]], closed=1)
        ok &= class_of(m, circled).is_zero and is_isolating(disk(4), circled)
        elapsed = time.perf_counter() - start
        ok &= elapsed < 300.0
        return ok, (
            f"zero iff isolating over {total} dividing sets "
            f"({isolating} isolating) in {elapsed:.1f}s"
        )

    return _check("vanishing-criterion", run)


def check_gluing_tables() -> CheckResult:
    def run():
        expected = [
            ["K+", "K+", "0"],
            ["0", "K-", "K-"],
            ["K+", "0", "K+"],
        ]
        got = [
            ["0" if v.is_zero else ("K+" if v.grading == 1 else "K-") for v in row]
            for row in attachment_table()
        ]
        return got == expected, f"attachment tables {got}"

    return _check("gluing-tables", run)


def check_lift() -> CheckResult:
    def run():
        start = time.perf_counter()
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
        elapsed = time.perf_counter() - start
        ok &= elapsed < 10.0
        return ok, f"infeasible at boxes 4 and 8, feasible with signs, {elapsed:.1f}s"

    return _check("lift-infeasibility", run)


def check_disk_oracle() -> CheckResult:
    def run():
        ok = True
        for n in range(2, 5):
            m = build_module(disk(2 * n), 0)
            oracle = disk_bruteforce_module(n)
            ok &= oracle.rank == m.rank
            ms = enumerate_matchings(n)
            vecs = [class_of(m, k).coords for k in ms]
            for i in range(len(ms)):
                for j in range(i + 1, len(ms)):
                    ok &= (vecs[i] == vecs[j]) == (
                        oracle.class_bits[i] == oracle.class_bits[j]
                    )
        return ok, "sub-disk relation oracle agrees for n = 2, 3, 4"

    return _check("disk-oracle", run)


def check_multiplicativity() -> CheckResult:
    def run():
        m1 = build_module(disjoint_union(disk(4), disk(4)), 0)
        m2 = build_module(disjoint_union(disk(2), annulus(2, 2)), ANNULUS_BOUND)
        ok = m1.rank == 4 and m2.rank == 4
        return ok, f"disk2|disk2 rank {m1.rank} = 4, disk1|annulus rank {m2.rank} = 4"

    return _check("multiplicativity", run)


def check_cutting() -> CheckResult:
    def run():
        ok = True
        r1 = cut_check(annulus(2, 2, (1, -1)), 0, 2)
        ok &= r1.passed
        r2 = cut_check(punctured_torus(2), 0, 2)
        r3 = cut_check(punctured_torus(2), 1, 2)
        ok &= r2.passed and r3.passed
        return ok, (
            f"annulus {r1.rank_cut}={r1.rank_original}, torus arcs "
            f"{r2.rank_cut}={r2.rank_original}, {r3.rank_cut}={r3.rank_original}"
        )

    return _check("cutting-isomorphism", run)


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
    return [fn() for fn in SUITES[name]]
