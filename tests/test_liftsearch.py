"""Lift search: infeasibility, certificates, relaxed and control problems."""

from __future__ import annotations

import hashlib
import json

import pytest

from curvetqft import liftsearch as ls


@pytest.mark.parametrize("box", [2, 4, 8])
def test_standard_problem_infeasible(box):
    result = ls.search_lift(ls.standard_problem(search_box=box))
    assert not result.feasible
    assert result.certificate["outcome"] == "infeasible"
    assert result.certificate["witness_count"] == 0


def test_certificate_contains_contradiction_chain():
    result = ls.search_lift(ls.standard_problem())
    steps = result.certificate["steps"]
    last = steps[-1]
    assert last["step"] == "contradiction"
    assert last["vector"] == [1, 1]
    assert last["derived"] == 2
    assert last["required"] == 0


def test_certificate_replays():
    for box in (4, 8):
        result = ls.search_lift(ls.standard_problem(search_box=box))
        assert ls.replay_certificate(result.certificate)


def test_tampered_certificate_fails_replay():
    result = ls.search_lift(ls.standard_problem())
    cert = dict(result.certificate)
    cert["outcome"] = "feasible"
    assert not ls.replay_certificate(cert)

    cert2 = dict(result.certificate)
    steps = [dict(s) for s in cert2["steps"]]
    steps[-1]["derived"] = 0
    cert2["steps"] = steps
    assert not ls.replay_certificate(cert2)

    cert3 = dict(result.certificate)
    cert3["assignments_checked"] -= 1
    assert not ls.replay_certificate(cert3)

    cert4 = dict(result.certificate)
    cert4["steps"] = result.certificate["steps"][2:]
    assert not ls.replay_certificate(cert4)


# sha256 of json.dumps(certificate, sort_keys=True), recorded from the
# scan that tried every assignment in the box one by one.
CERTIFICATE_DIGESTS = [
    ("STANDARD", False, 2, "fa4e7a71e275c06f7f7503fc3e4bac9c0ad9184bfa6421b5c0e7111e2428102f"),
    ("STANDARD", False, 3, "fdb6d6b1a4ab9dab3fadeb3fd88734cbab29414f467746b63d74a47b275417f1"),
    ("STANDARD", False, 4, "23ad23bd8b879a3b8191ef1373b99ccf68c92e941a029db7132d039325cf5c47"),
    ("STANDARD", False, 8, "f5394617c4272f7617f6e70b197ea8b0ae7c25786ba531f98954d03d7b709f96"),
    ("STANDARD", False, 16, "90dfa6e36035f2cb6a1607d20cd8030a6f62a7f36780f52600656b41dfa51d80"),
    ("STANDARD", True, 2, "504f2b6ed7d939ef5c23e97416c448f9924dfd859bf1965d086ec862fc0db8da"),
    ("STANDARD", True, 3, "bd1d45ecd7d633f8582ee249197fd6b2d7c6139e7d80d9121b3f5cf00162dbf7"),
    ("STANDARD", True, 4, "a2215bb6b0547469349708f56365ffd971bb91d4e1ebe50b468b99d25ff6ae2e"),
    ("STANDARD", True, 8, "1ac1415adda9a9e58917307dc0477f8130e558416d4647ce3f664eb5740b02c8"),
    ("STANDARD", True, 16, "5a3d94c173d7be20e153d73dd5890984941b4c41ef827b17e234557b5685ce9f"),
    ("DEGENERATE", False, 2, "34219729ebcbe26f2ce38a9b29007ae929b81831e6d7f93d042a1bf40cce2d0e"),
    ("DEGENERATE", False, 3, "cdae0d2d061c49d1ad88c631653e0ec123e462da47b7b64761e92a885af9a28f"),
    ("DEGENERATE", False, 4, "f1081271c24333ef59e2981f505bfcf81a02fc46a729c94fabe4df4a4ac64900"),
    ("DEGENERATE", False, 8, "2b1ccc51eae789d59e8eb1254fc122f9f75ce71bfb42ed07d4367fedf8b3005b"),
    ("DEGENERATE", False, 16, "b6d1037640f4663bb909a0958a66f8429cd101feb0462c50a35615aebc4e9dd1"),
    ("DEGENERATE", True, 2, "25256efcb213f7e412c175630e39044dc9aae4efed1b0d3d472a8ef733c2be5d"),
    ("DEGENERATE", True, 3, "21741905356880636bb5e028c45a6b416bf2410dd2a02350390dd1682a4585f4"),
    ("DEGENERATE", True, 4, "8f084afa5152e5da65c8f2866496037566bb0d8dac95c50bf081a0c76bf077e9"),
    ("DEGENERATE", True, 8, "5ba61caa24a9294f3a97ed006e0fcc2efaa422c4453400fe5f68cac19218b48f"),
    ("DEGENERATE", True, 16, "2a5ad8d26fc0c2319fb7c3fd7bf13e7e92f624471391d0fb84ed0640c2aafc3b"),
]


@pytest.mark.parametrize("pattern,allow_signs,box,digest", CERTIFICATE_DIGESTS)
def test_certificate_digests(pattern, allow_signs, box, digest):
    problem = ls.LiftProblem(getattr(ls, f"{pattern}_PATTERN"), allow_signs, box)
    certificate = ls.search_lift(problem).certificate
    text = json.dumps(certificate, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_relaxed_problem_feasible_with_recorded_signs():
    result = ls.search_lift(ls.standard_problem(allow_signs=True, search_box=4))
    assert result.feasible
    assert any(w["d"] == (0, 1) and w["b"] == (1, 1) for w in result.witnesses)
    # Every feasible signed assignment reduces mod 2 to the expected
    # zero/nonzero pattern.
    for w in result.witnesses:
        for j, phi in enumerate((w["phi1"], w["phi2"], w["phi3"])):
            for i, v in enumerate((w["a"], w["b"], w["d"])):
                value = phi[0] * v[0] + phi[1] * v[1]
                assert (value % 2 == 1) == (ls.STANDARD_PATTERN[j][i] == 1)
    assert ls.replay_certificate(result.certificate)


def test_degenerate_control_problem():
    # Regression control: with the first two functionals forced equal the
    # system becomes solvable (outcome frozen from the oracle run).
    result = ls.search_lift(ls.LiftProblem(ls.DEGENERATE_PATTERN, False, 4))
    assert result.feasible
    w = result.witnesses[0]
    assert w["phi1"] == (1, 0)
    for j, phi in enumerate((w["phi1"], w["phi2"], w["phi3"])):
        for i, v in enumerate((w["a"], w["b"], w["d"])):
            value = phi[0] * v[0] + phi[1] * v[1]
            required = ls.DEGENERATE_PATTERN[j][i]
            assert value == required or (required == 1 and value == 1)


def test_infeasibility_stable_under_box_growth():
    small = ls.search_lift(ls.standard_problem(search_box=4))
    large = ls.search_lift(ls.standard_problem(search_box=8))
    assert not small.feasible and not large.feasible


def test_problem_validation():
    with pytest.raises(ls.LiftError):
        ls.LiftProblem(((0, 1, 0), (0, 1, 1), (1, 0, 1)))
    with pytest.raises(ls.LiftError):
        ls.LiftProblem(((1, 1), (0, 1), (1, 0)))
    with pytest.raises(ls.LiftError):
        ls.LiftProblem(search_box=1)


def test_mod2_consistency_against_computed_maps():
    report = ls.mod2_consistency(ls.standard_problem())
    assert report.matches
    assert report.computed_pattern == ls.STANDARD_PATTERN


def test_mod2_consistency_rejects_wrong_pattern():
    wrong = ls.LiftProblem(((1, 0, 1), (0, 1, 1), (1, 0, 1)))
    with pytest.raises(ls.LiftError, match="does not match"):
        ls.mod2_consistency(wrong)
