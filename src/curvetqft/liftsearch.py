"""Exhaustive search for a sign-free integer lift of the middle disk classes.

The three grading-zero classes on the six-point disk map to the four-point
disk under the three boundary-parallel arc attachments; each map kills
exactly one class and carries the other two onto the generator of its
image.  A single-valued integer lift would pick one representative per
class so that every map sends representative to representative with
coefficient exactly +1.  After the unimodular normalization that writes
the first class as (1, 0) and the kernel of the first functional as
span{(0, 1)}, the constraint system becomes finite and an exhaustive scan
over a coordinate box proves it infeasible.  Allowing coefficients of
either sign makes the system solvable, which is the whole point: the sign
ambiguity cannot be removed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

# pattern[j][i] == 1 when functional j must carry unknown i to the image
# generator, and 0 when it must annihilate it.  Unknown order: (a, b, d).
STANDARD_PATTERN = ((1, 1, 0), (0, 1, 1), (1, 0, 1))
DEGENERATE_PATTERN = ((1, 1, 0), (1, 1, 0), (1, 0, 1))


class LiftError(ValueError):
    """The lift problem is malformed or inconsistent with the computed maps."""


@dataclass(frozen=True)
class LiftProblem:
    """Incidence constraints for three rank-1 functionals on three unknowns.

    The unknowns are primitive vectors a, b, d in the rank-2 lattice with
    a normalized to (1, 0) and the first functional's kernel to
    span{(0, 1)}.  allow_signs relaxes "maps to the generator" to "maps
    to plus or minus the generator".
    """

    pattern: tuple = STANDARD_PATTERN
    allow_signs: bool = False
    search_box: int = 4

    def __post_init__(self):
        if len(self.pattern) != 3 or any(len(r) != 3 for r in self.pattern):
            raise LiftError("pattern must be three rows of three 0/1 entries")
        if any(v not in (0, 1) for r in self.pattern for v in r):
            raise LiftError("pattern entries must be 0 or 1")
        if self.pattern[0][0] != 1:
            raise LiftError(
                "the normalization writes a as (1, 0) with functional 1 "
                "sending it to the generator; pattern[0][0] must be 1"
            )
        if self.search_box < 2:
            raise LiftError("search box must be at least 2")


def standard_problem(allow_signs: bool = False, search_box: int = 4) -> LiftProblem:
    """The lift problem computed from the three arc-attachment maps."""
    return LiftProblem(STANDARD_PATTERN, allow_signs, search_box)


@dataclass(frozen=True)
class LiftResult:
    feasible: bool
    witnesses: tuple
    certificate: dict


def _admissible(value: int, required: int, allow_signs: bool) -> bool:
    if required == 0:
        return value == 0
    return value in ((1, -1) if allow_signs else (1,))


def _scan(problem: LiftProblem):
    """All satisfying assignments (d, b, phi2, phi3) within the box.

    Also returns assignments_checked: the number of box assignments whose
    d, b and phi2 pass, times every phi3 in the box.  Since a = (1, 0),
    phi(a) is phi's first coordinate, so phi2 and phi3 run only over the
    first coordinates that phi2(a) and phi3(a) admit; the phi3 values
    ruled out that way are counted without a loop.
    """
    box = problem.search_box
    pat = problem.pattern
    allow = problem.allow_signs
    rng = range(-box, box + 1)
    a = (1, 0)
    phi1 = (1, 0)
    firsts2 = [p for p in rng if _admissible(p, pat[1][0], allow)]
    firsts3 = [p for p in rng if _admissible(p, pat[2][0], allow)]
    witnesses = []
    checked = 0

    def apply(phi, v):
        return phi[0] * v[0] + phi[1] * v[1]

    for d1 in rng:
        for d2 in rng:
            d = (d1, d2)
            if gcd(d1, d2) != 1:
                continue
            if not _admissible(apply(phi1, d), pat[0][2], allow):
                continue
            for b1 in rng:
                for b2 in rng:
                    b = (b1, b2)
                    if gcd(b1, b2) != 1:
                        continue
                    if not _admissible(apply(phi1, b), pat[0][1], allow):
                        continue
                    for p2 in firsts2:
                        for q2 in rng:
                            phi2 = (p2, q2)
                            if not (
                                _admissible(apply(phi2, b), pat[1][1], allow)
                                and _admissible(apply(phi2, d), pat[1][2], allow)
                            ):
                                continue
                            checked += len(rng) ** 2
                            for p3 in firsts3:
                                for q3 in rng:
                                    phi3 = (p3, q3)
                                    if (
                                        _admissible(apply(phi3, b), pat[2][1], allow)
                                        and _admissible(apply(phi3, d), pat[2][2], allow)
                                    ):
                                        witnesses.append(
                                            {"a": a, "b": b, "d": d,
                                             "phi1": phi1, "phi2": phi2, "phi3": phi3}
                                        )
    return witnesses, checked


def _standard_contradiction_steps() -> list[dict]:
    """The forced deduction chain for the standard pattern, sign-free."""
    return [
        {"step": "normalize-a", "value": [1, 0],
         "why": "a is primitive, so a unimodular change of basis writes it as (1, 0)"},
        {"step": "normalize-kernel", "kernel": [0, 1],
         "why": "functional 1 sends a to 1; a further change fixing a makes "
                "its kernel the span of (0, 1)"},
        {"step": "derive-phi1", "value": [1, 0],
         "why": "determined by phi1(a) = 1 and phi1(0, 1) = 0"},
        {"step": "derive-d", "value": [0, 1],
         "why": "phi1(d) = 0 forces d into the kernel; primitivity and a "
                "sign change of the second basis vector give d = (0, 1)"},
        {"step": "derive-phi2", "value": [0, 1],
         "why": "phi2(a) = 0 kills the first coordinate, phi2(d) = 1 fixes "
                "the second"},
        {"step": "derive-b", "value": [1, 1],
         "why": "phi1(b) = 1 gives b = (1, t); phi2(b) = 1 gives t = 1"},
        {"step": "derive-phi3", "value": [1, 1],
         "why": "phi3(a) = 1 and phi3(d) = 1"},
        {"step": "contradiction", "vector": [1, 1], "derived": 2, "required": 0,
         "why": "phi3 should map (1, 1) to 2, but the incidence pattern "
                "sends it to 0"},
    ]


def search_lift(problem: LiftProblem) -> LiftResult:
    """Exhaustively decide the lift problem inside its coordinate box.

    Returns a certificate: for the standard sign-free problem the forced
    deduction chain ending in the arithmetic contradiction, plus the scan
    summary; for feasible problems the witnesses found.  The summary's
    assignments_checked counts every box assignment whose d, b and phi2
    pass, including the phi3 values that phi3(a) rules out without a loop.
    """
    witnesses, checked = _scan(problem)
    feasible = bool(witnesses)
    certificate = {
        "pattern": [list(r) for r in problem.pattern],
        "allow_signs": problem.allow_signs,
        "box": problem.search_box,
        "outcome": "feasible" if feasible else "infeasible",
        "assignments_checked": checked,
        "witnesses": witnesses[:16],
        "witness_count": len(witnesses),
    }
    if not feasible and problem.pattern == STANDARD_PATTERN and not problem.allow_signs:
        certificate["steps"] = _standard_contradiction_steps()
    return LiftResult(feasible, tuple(witnesses), certificate)


def _verify_steps(steps: list[dict]) -> bool:
    """Re-check every arithmetic claim of the deduction chain.

    Raises KeyError when a step lacks a field or uses a value that no
    earlier step derived.
    """
    env = {}
    for step in steps:
        kind = step["step"]
        if kind == "normalize-a":
            env["a"] = tuple(step["value"])
        elif kind == "normalize-kernel":
            env["ker"] = tuple(step["kernel"])
        elif kind == "derive-phi1":
            phi1 = tuple(step["value"])
            if phi1[0] * env["a"][0] + phi1[1] * env["a"][1] != 1:
                return False
            if phi1[0] * env["ker"][0] + phi1[1] * env["ker"][1] != 0:
                return False
            env["phi1"] = phi1
        elif kind == "derive-d":
            d = tuple(step["value"])
            if env["phi1"][0] * d[0] + env["phi1"][1] * d[1] != 0:
                return False
            if gcd(d[0], d[1]) != 1:
                return False
            env["d"] = d
        elif kind == "derive-phi2":
            phi2 = tuple(step["value"])
            if phi2[0] * env["a"][0] + phi2[1] * env["a"][1] != 0:
                return False
            if phi2[0] * env["d"][0] + phi2[1] * env["d"][1] != 1:
                return False
            env["phi2"] = phi2
        elif kind == "derive-b":
            b = tuple(step["value"])
            if env["phi1"][0] * b[0] + env["phi1"][1] * b[1] != 1:
                return False
            if env["phi2"][0] * b[0] + env["phi2"][1] * b[1] != 1:
                return False
            env["b"] = b
        elif kind == "derive-phi3":
            phi3 = tuple(step["value"])
            if phi3[0] * env["a"][0] + phi3[1] * env["a"][1] != 1:
                return False
            if phi3[0] * env["d"][0] + phi3[1] * env["d"][1] != 1:
                return False
            env["phi3"] = phi3
        elif kind == "contradiction":
            v = tuple(step["vector"])
            derived = env["phi3"][0] * v[0] + env["phi3"][1] * v[1]
            if derived != step["derived"]:
                return False
            if tuple(env["b"]) != v:
                return False
            if step["required"] == step["derived"]:
                return False
        else:
            return False
    return True


def replay_certificate(certificate: dict) -> bool:
    """Re-run the scan and re-check every certificate step."""
    problem = LiftProblem(
        tuple(tuple(r) for r in certificate["pattern"]),
        certificate["allow_signs"],
        certificate["box"],
    )
    witnesses, checked = _scan(problem)
    if (certificate["outcome"] == "feasible") != bool(witnesses):
        return False
    if certificate.get("witness_count", len(witnesses)) != len(witnesses):
        return False
    if checked != certificate["assignments_checked"]:
        return False
    steps = certificate.get("steps")
    try:
        if steps is not None and not _verify_steps(steps):
            return False
    except KeyError:
        return False
    for witness in certificate.get("witnesses", []):
        for j, phi_name in enumerate(("phi1", "phi2", "phi3")):
            phi = witness[phi_name]
            for i, v_name in enumerate(("a", "b", "d")):
                v = witness[v_name]
                val = phi[0] * v[0] + phi[1] * v[1]
                if not _admissible(val, problem.pattern[j][i], problem.allow_signs):
                    return False
    return True


@dataclass(frozen=True)
class ConsistencyReport:
    computed_pattern: tuple
    expected_pattern: tuple

    @property
    def matches(self) -> bool:
        return self.computed_pattern == self.expected_pattern


def mod2_consistency(problem: LiftProblem) -> ConsistencyReport:
    """Check the problem's pattern against the computed attachment maps.

    Builds the three arc-attachment maps on the six-point disk and
    compares their zero/nonzero behaviour on the three middle classes
    with the problem's incidence pattern.  A mismatch raises, since it
    means the lift problem encodes the wrong maps.
    """
    from .gluemaps import attachment_table

    computed = tuple(
        tuple(0 if v.is_zero else 1 for v in row) for row in attachment_table()
    )
    report = ConsistencyReport(computed, problem.pattern)
    if not report.matches:
        raise LiftError(
            f"incidence pattern {problem.pattern} does not match the "
            f"computed maps {computed}"
        )
    return report
