"""The verify suites: the run-scoped module memo and the check wrapper."""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace

import pytest

from curvetqft import build_module, disk, verify
from curvetqft import surfaces, tqftcore


def test_run_suite_builds_each_module_once(monkeypatch):
    built = Counter()
    real = verify.build_module

    def counting(surface, bound):
        built[surface, bound] += 1
        return real(surface, bound)

    enumerated = Counter()
    real_enumerate = surfaces.graded_dividing_sets

    def counting_enumerate(surface, bound):
        enumerated[surface, bound] += 1
        return real_enumerate(surface, bound)

    # The memo wraps verify.build_module; a check that bypassed it would
    # reach tqftcore.build_module directly.
    monkeypatch.setattr(verify, "build_module", counting)
    monkeypatch.setattr(tqftcore, "build_module", counting)
    # build_module and enumerate_dividing_sets (through enumerate_matchings)
    # each look the graded enumeration up in their own module.
    monkeypatch.setattr(tqftcore, "graded_dividing_sets", counting_enumerate)
    monkeypatch.setattr(surfaces, "graded_dividing_sets", counting_enumerate)
    results = verify.run_suite("all")
    assert len(results) == 11
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    assert built and max(built.values()) == 1
    # Each disk is enumerated by its one build; the sub-disk oracle reads
    # the module's generators.
    assert {n: enumerated[disk(2 * n), 0] for n in range(1, 7)} == dict.fromkeys(range(1, 7), 1)

    # The memo lives for one run: the next run builds again.
    verify.run_suite("disk")
    assert built[disk(6), 0] == 2


def test_check_over_its_budget_fails():
    check = verify._check("instant", budget_s=0.0)(lambda build: (True, "done"))
    result = check(build_module)
    assert not result.passed
    assert result.detail == "done; over the 0s budget"


def test_multiplicativity_compares_with_the_component_ranks():
    # A wrong component rank must fail the check even when each union
    # still has rank 4.
    def build(surface, bound):
        rank = build_module(surface, bound).rank
        return SimpleNamespace(rank=3 if surface == disk(2) else rank)

    assert verify.check_multiplicativity(build_module).passed
    result = verify.check_multiplicativity(build)
    assert not result.passed
    assert "disk1|annulus rank 4 = 3*4" in result.detail


def test_run_suite_refuses_an_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        verify.run_suite("nope")


def test_check_that_raises_fails_with_the_error():
    def broken(build):
        raise ZeroDivisionError("no rank")

    result = verify._check("broken")(broken)(build_module)
    assert result.name == "broken"
    assert result.passed is False
    assert result.detail == "raised ZeroDivisionError: no rank"
