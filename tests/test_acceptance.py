"""Acceptance criteria, one test per criterion.

Every criterion is exact (no tolerances); the stated runtime budgets are
asserted inside the corresponding checks.  Each test prints one pass/fail
line so the suite doubles as a report.
"""

from __future__ import annotations

import pytest

from curvetqft import build_module, verify


def _run(check, label):
    result = check(build_module)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {label}: {result.detail} ({result.seconds:.1f}s)")
    assert result.passed, f"{label}: {result.detail}"


def test_criterion_01_catalan_enumeration():
    # Counts 1, 2, 5, 14, 42, 132 for n = 1..6 in under a second.
    _run(verify.check_catalan_counts, "criterion 1 catalan-enumeration")


def test_criterion_02_disk_ranks():
    # rank 2**(n-1) and graded ranks binom(n-1, j) at grading n-1-2j for
    # n = 1..6, under 60 s.
    _run(verify.check_disk_ranks, "criterion 2 disk-ranks")


def test_criterion_03_distinctness():
    # All matching classes nonzero and pairwise distinct for n <= 6.
    _run(verify.check_distinctness, "criterion 3 distinctness")


def test_criterion_04_superposition():
    # The three middle classes are nonzero, distinct, and sum to zero.
    _run(verify.check_superposition, "criterion 4 superposition")


def test_criterion_05_annulus():
    # Rank 4 with graded ranks (1, 2, 1) at bound 3; the two lens-plus-
    # circle classes agree and equal the sum of the two cross-arc classes;
    # rank stable over bounds 2..4; under 60 s.
    _run(verify.check_annulus, "criterion 5 annulus")


def test_criterion_06_vanishing():
    # Over every enumerated dividing set on the disk (n <= 4), annulus,
    # and once-punctured torus: class zero iff isolating; under 5 min.
    _run(verify.check_vanishing, "criterion 6 vanishing-criterion")


def test_criterion_07_gluing_tables():
    # The three attachment maps reproduce the nine-entry zero/nonzero
    # table exactly.
    _run(verify.check_gluing_tables, "criterion 7 gluing-tables")


def test_criterion_08_lift_infeasibility():
    # INFEASIBLE at boxes 4 and 8 with a replayable certificate ending in
    # the (1,1) -> 2 contradiction; under 10 s.
    _run(verify.check_lift, "criterion 8 lift-infeasibility")


def test_criterion_09_disk_oracle():
    # The sub-disk relation construction gives exactly the surgery build's
    # set of relation rows for n = 2, 3, 4.
    _run(verify.check_disk_oracle, "criterion 9 disk-oracle")


def test_criterion_10_multiplicativity():
    # rank V(S1 | S2) = rank V(S1) * rank V(S2) on the two stated unions.
    _run(verify.check_multiplicativity, "criterion 10 multiplicativity")


def test_supplement_cutting_isomorphism():
    # Cutting along a single-crossing arc preserves the rank and regluing
    # realizes an isomorphism (annulus and both torus arcs).
    _run(verify.check_cutting, "supplement cutting-isomorphism")
