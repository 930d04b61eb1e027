"""The verify suite's run-scoped module memo."""

from __future__ import annotations

from collections import Counter

from curvetqft import disk, verify


def test_run_suite_builds_each_module_once(monkeypatch):
    built = Counter()
    real = verify.build_module

    def counting(surface, bound):
        built[surface, bound] += 1
        return real(surface, bound)

    monkeypatch.setattr(verify, "build_module", counting)
    results = verify.run_suite("all")
    assert len(results) == 11
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    assert built and max(built.values()) == 1

    # The memo lives for one run: the next run builds again.
    verify.run_suite("disk")
    assert built[disk(6), 0] == 2
