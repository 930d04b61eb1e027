"""Lift search: infeasibility, certificates, relaxed and control problems."""

from __future__ import annotations

import copy
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


def _forge_required_7(cert):
    cert["steps"][-1]["required"] = 7


def _forge_first_step_only(cert):
    cert["steps"] = cert["steps"][:1]


def _forge_empty_chain(cert):
    cert["steps"] = []


def _forge_chain_on_signed_problem(cert):
    signed = ls.search_lift(ls.standard_problem(allow_signs=True)).certificate
    cert.update(signed, steps=cert["steps"])


def _forge_rebound_a(cert):
    # phi3 derived against a second a = (1, 1): every step checks, but the
    # chain no longer speaks of one a.
    steps = cert["steps"]
    steps.insert(-2, {"step": "normalize-a", "value": [1, 1]})
    steps[-2]["value"] = [0, 1]
    steps[-1]["derived"] = 1


def _forge_closing_kind(cert):
    cert["steps"][-1]["step"] = "remark"


@pytest.mark.parametrize("forge", [
    _forge_required_7, _forge_first_step_only, _forge_empty_chain,
    _forge_chain_on_signed_problem, _forge_rebound_a, _forge_closing_kind,
])
def test_forged_chain_fails_replay(forge):
    cert = copy.deepcopy(ls.search_lift(ls.standard_problem()).certificate)
    forge(cert)
    assert not ls.replay_certificate(cert)


def test_chain_reads_required_values_from_pattern():
    # phi2 vanishes on every unknown and phi3 only on b and d, so the
    # standard chain's steps hold with phi2 = 0 and phi3 = (1, 0).
    pattern = ((1, 1, 0), (0, 0, 0), (1, 0, 0))
    cert = ls.search_lift(ls.LiftProblem(pattern, False, 4)).certificate
    assert cert["outcome"] == "infeasible" and "steps" not in cert
    chain = [("normalize-a", "value", [1, 0]), ("normalize-kernel", "kernel", [0, 1]),
             ("derive-phi1", "value", [1, 0]), ("derive-d", "value", [0, 1]),
             ("derive-phi2", "value", [0, 0]), ("derive-b", "value", [1, 1]),
             ("derive-phi3", "value", [1, 0])]
    cert["steps"] = [{"step": kind, field: value} for kind, field, value in chain]
    cert["steps"].append({"step": "contradiction", "vector": [1, 1], "derived": 1, "required": 0})
    assert ls.replay_certificate(cert)
    cert["steps"][3]["value"] = [0, 2]  # phi1(d) = 0 still holds; d is not primitive
    assert not ls.replay_certificate(cert)


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
    assert ls.replay_certificate(certificate)


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
    # A box that is no int, or no pattern, is refused here, not by the scan.
    for box in (2.5, None, "4"):
        with pytest.raises(ls.LiftError, match="search box must be an int"):
            ls.LiftProblem(search_box=box)
    with pytest.raises(ls.LiftError, match="three rows"):
        ls.LiftProblem(pattern=None)
    # A float or bool entry would compare equal to the standard problem,
    # but its certificate would not read back through fileio.
    for pattern in (((1.0, 1, 0), (0, True, 1), (1, 0, 1)),
                    ((1, 1, 0), (0, True, 1), (1, 0, 1)),
                    ((True, 1, 0), (0, 1, 1), (1, 0, 1))):
        with pytest.raises(ls.LiftError, match="three rows of three 0/1 entries"):
            ls.LiftProblem(pattern)
    # A truthy non-bool allowed signs, and its certificate, which says
    # "allow_signs": 1, replayed in-process but not from a file.
    for allow_signs in (1, 0, "no", None):
        with pytest.raises(ls.LiftError, match="allow_signs must be a bool"):
            ls.LiftProblem(ls.STANDARD_PATTERN, allow_signs, 4)
    certificate = ls.search_lift(ls.standard_problem(allow_signs=True)).certificate
    with pytest.raises(ls.LiftError, match="allow_signs must be a bool"):
        ls.replay_certificate({**certificate, "allow_signs": 1})


def test_pattern_rows_given_as_lists_are_stored_as_tuples():
    listed = ls.LiftProblem([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert listed == ls.standard_problem()
    assert listed.pattern == ls.STANDARD_PATTERN
    assert hash(listed) == hash(ls.standard_problem())
    # It is the standard problem, so it gets the deduction chain and the
    # computed maps match it.
    assert ls.search_lift(listed).certificate == ls.search_lift(ls.standard_problem()).certificate
    assert ls.mod2_consistency(listed) == ls.STANDARD_PATTERN


def test_mod2_consistency_against_computed_maps():
    assert ls.mod2_consistency(ls.standard_problem()) == ls.STANDARD_PATTERN


def test_mod2_consistency_rejects_wrong_pattern():
    wrong = ls.LiftProblem(((1, 0, 1), (0, 1, 1), (1, 0, 1)))
    with pytest.raises(ls.LiftError, match="does not match"):
        ls.mod2_consistency(wrong)
