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

from itertools import product
from math import gcd
from typing import NamedTuple

# pattern[j][i] == 1 when functional j must carry unknown i to the image
# generator, and 0 when it must annihilate it.  Unknown order: (a, b, d).
STANDARD_PATTERN = ((1, 1, 0), (0, 1, 1), (1, 0, 1))
DEGENERATE_PATTERN = ((1, 1, 0), (1, 1, 0), (1, 0, 1))


class LiftError(ValueError):
    """The lift problem is malformed or inconsistent with the computed maps."""


class _ProblemFields(NamedTuple):
    pattern: tuple = STANDARD_PATTERN
    allow_signs: bool = False
    search_box: int = 4


class LiftProblem(_ProblemFields):
    """Incidence constraints for three rank-1 functionals on three unknowns.

    The unknowns are primitive vectors a, b, d in the rank-2 lattice with
    a normalized to (1, 0) and the first functional's kernel to
    span{(0, 1)}.  allow_signs relaxes "maps to the generator" to "maps
    to plus or minus the generator".  Construction checks the pattern,
    that allow_signs is a bool, and the box; _make and _replace skip it.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        try:
            # Rows given as lists are stored as tuples, so the problem
            # hashes and compares equal to the same pattern given as tuples.
            # An entry must be an int, not a float or bool equal to one, so
            # that a written certificate reads back (fileio requires ints).
            pattern = tuple(map(tuple, self.pattern))
            valid = len(pattern) == 3 and all(
                len(r) == 3 and all(type(v) is int and v in (0, 1) for v in r)
                for r in pattern)
        except TypeError:  # the pattern or a row is not iterable
            valid = False
        if not valid:
            raise LiftError("pattern must be three rows of three 0/1 entries")
        if pattern[0][0] != 1:
            raise LiftError(
                "the normalization writes a as (1, 0) with functional 1 "
                "sending it to the generator; pattern[0][0] must be 1"
            )
        # A truthy non-bool would allow signs, and its certificate would not read back.
        if type(self.allow_signs) is not bool:
            raise LiftError(f"allow_signs must be a bool, got {self.allow_signs!r}")
        if not isinstance(self.search_box, int) or self.search_box < 2:
            raise LiftError(f"search box must be an int of at least 2, got {self.search_box!r}")
        return super().__new__(cls, pattern, *self[1:])


def standard_problem(allow_signs: bool = False, search_box: int = 4) -> LiftProblem:
    """The lift problem for STANDARD_PATTERN, a constant that
    mod2_consistency checks against the computed arc-attachment maps."""
    return LiftProblem(STANDARD_PATTERN, allow_signs, search_box)


class LiftResult(NamedTuple):
    feasible: bool
    witnesses: tuple
    certificate: dict


def _allowed(allow_signs: bool) -> tuple:
    """allowed[r]: the values a functional may take where the pattern holds r."""
    return ((0,), (-1, 1) if allow_signs else (1,))


def _apply(phi, v) -> int:
    return phi[0] * v[0] + phi[1] * v[1]


def _scan(problem: LiftProblem):
    """All satisfying assignments (d, b, phi2, phi3) within the box.

    Since a = (1, 0) and phi1 = (1, 0), phi(a) is phi's first coordinate
    and phi1(v) is v's, so each coordinate runs only over the values the
    pattern admits.  Also returns assignments_checked: the number of box
    assignments whose d, b and phi2 pass, times every phi3 in the box.
    """
    pat = problem.pattern
    allowed = _allowed(problem.allow_signs)
    rng = range(-problem.search_box, problem.search_box + 1)

    def primitive(required):
        """Primitive box vectors v with phi1(v) admissible for required."""
        return [(x, y) for x in allowed[required] for y in rng if gcd(x, y) == 1]

    def functionals(row, b, d):
        """Box functionals meeting one pattern row on a, b and d."""
        return [phi for phi in product(allowed[row[0]], rng)
                if _apply(phi, b) in allowed[row[1]] and _apply(phi, d) in allowed[row[2]]]

    witnesses = []
    checked = 0
    for d, b in product(primitive(pat[0][2]), primitive(pat[0][1])):
        phi2s = functionals(pat[1], b, d)
        checked += len(phi2s) * len(rng) ** 2
        phi3s = functionals(pat[2], b, d) if phi2s else []
        witnesses.extend(
            {"a": (1, 0), "b": b, "d": d, "phi1": (1, 0), "phi2": phi2, "phi3": phi3}
            for phi2 in phi2s for phi3 in phi3s
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

    Returns a certificate: the scan summary and the first witnesses, plus,
    for the standard sign-free problem, the forced deduction chain ending
    in the arithmetic contradiction.
    """
    witnesses, checked = _scan(problem)
    certificate = {
        "pattern": [list(r) for r in problem.pattern],
        "allow_signs": problem.allow_signs,
        "box": problem.search_box,
        "outcome": "feasible" if witnesses else "infeasible",
        "assignments_checked": checked,
        "witnesses": witnesses[:16],
        "witness_count": len(witnesses),
    }
    if not witnesses and problem.pattern == STANDARD_PATTERN and not problem.allow_signs:
        certificate["steps"] = _standard_contradiction_steps()
    return LiftResult(bool(witnesses), tuple(witnesses), certificate)


# Chain step kind -> (field holding its value, the name it binds, the
# (functional, vector) incidences the bound value must meet).
_CHAIN = {
    "normalize-a": ("value", "a", ()),
    "normalize-kernel": ("kernel", "ker", ()),
    "derive-phi1": ("value", "phi1", (("phi1", "a"), ("phi1", "ker"))),
    "derive-d": ("value", "d", (("phi1", "d"),)),
    "derive-phi2": ("value", "phi2", (("phi2", "a"), ("phi2", "d"))),
    "derive-b": ("value", "b", (("phi1", "b"), ("phi2", "b"))),
    "derive-phi3": ("value", "phi3", (("phi3", "a"), ("phi3", "d"))),
}
_FUNCTIONALS = ("phi1", "phi2", "phi3")
_UNKNOWNS = ("a", "b", "d")


def _verify_steps(steps: list, pattern: tuple) -> bool:
    """Re-derive the sign-free deduction chain from pattern.

    Each step binds a new name to a value meeting its incidences exactly,
    unknowns primitive; the last says phi3(b) is not what pattern requires.
    Raises KeyError for an unknown step, a missing field or an unbound name.
    """
    if not steps:
        return False
    required = {(f, v): pattern[j][i] for j, f in enumerate(_FUNCTIONALS)
                for i, v in enumerate(_UNKNOWNS)}
    required["phi1", "ker"] = 0  # ker spans the kernel of phi1
    env = {}
    *chain, last = steps
    for step in chain:
        field, name, incidences = _CHAIN[step["step"]]
        if name in env:
            return False
        env[name] = value = tuple(step[field])
        if (name in _UNKNOWNS and gcd(*value) != 1) or any(
                _apply(env[f], env[v]) != required[f, v] for f, v in incidences):
            return False
    return (last["step"] == "contradiction"
            and tuple(last["vector"]) == env["b"]
            and last["derived"] == _apply(env["phi3"], env["b"])
            and last["required"] == required["phi3", "b"] != last["derived"])


def replay_certificate(certificate: dict) -> bool:
    """Re-run the scan and re-derive every claim of the certificate.

    The summary must match the scan, witnesses must pass its admissibility
    test, and a deduction chain must be sign-free and pass _verify_steps.
    """
    problem = LiftProblem(
        certificate["pattern"],
        certificate["allow_signs"],
        certificate["box"],
    )
    witnesses, checked = _scan(problem)
    claimed = (certificate["outcome"], certificate["assignments_checked"],
               certificate.get("witness_count", len(witnesses)))
    expected = ("feasible" if witnesses else "infeasible", checked, len(witnesses))
    if claimed != expected:
        return False
    steps = certificate.get("steps")
    try:
        if steps is not None and (witnesses or problem.allow_signs
                                  or not _verify_steps(steps, problem.pattern)):
            return False
    except KeyError:
        return False
    allowed = _allowed(problem.allow_signs)
    return all(_apply(w[f], w[v]) in allowed[problem.pattern[j][i]]
               for w in certificate.get("witnesses", [])
               for j, f in enumerate(_FUNCTIONALS) for i, v in enumerate(_UNKNOWNS))


def mod2_consistency(problem: LiftProblem) -> tuple:
    """The zero/nonzero pattern of the computed arc-attachment maps.

    Raises LiftError when it differs from the problem's pattern, since the
    problem then encodes the wrong maps.
    """
    from .gluemaps import attachment_table
    from .tqftcore import build_module

    computed = tuple(tuple(0 if v.is_zero else 1 for v in row)
                     for row in attachment_table(build_module))
    if computed != problem.pattern:
        raise LiftError(
            f"incidence pattern {problem.pattern} does not match the "
            f"computed maps {computed}"
        )
    return computed
