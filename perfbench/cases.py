"""Surfaces, bounds and seeded class-query streams shared by the benchmark.

Imported both by the driver (`run.py`), which generates every input, and
by the run processes (`worker.py`), which only rebuild surfaces from the
case labels they are handed.
"""

from __future__ import annotations

import hashlib
import json
import random

from curvetqft import surfaces

# label -> (preset name, preset arguments, crossing bound)
CASES = {
    "disk8": ("disk", (8,), 0),
    "disk10": ("disk", (10,), 0),
    "disk12": ("disk", (12,), 0),
    "annulus2-2_b3": ("annulus", (2, 2), 3),
    "annulus2-2_b4": ("annulus", (2, 2), 4),
    "annulus4-4_b3": ("annulus", (4, 4), 3),
    "torus2_b3": ("punctured_torus", (2,), 3),
    "torus4_b3": ("punctured_torus", (4,), 3),
}

LADDERS = {
    "disk-ladder": ("disk8", "disk10", "disk12"),
    "glued-ladder": (
        "annulus2-2_b3", "annulus2-2_b4", "annulus4-4_b3", "torus2_b3", "torus4_b3",
    ),
}

# Modules the class-query stream is answered on (built during set-up).
QUERY_MODULES = ("annulus2-2_b3", "torus2_b3", "disk10")

# Distinct queries per module, and how many timed passes over the whole
# stream a run process makes after its warm-up pass.  Many short passes
# in one process give the run's median many samples, so a slow spell of
# the host that covers a few passes does not move it.
QUERIES_PER_MODULE = 1200
QUERY_PASSES = 20

CLOSED_PROBABILITY = 0.1


def surface(label: str) -> surfaces.MarkedSurface:
    preset, args, _ = CASES[label]
    return getattr(surfaces, preset)(*args)


def bound(label: str) -> int:
    return CASES[label][2]


def label_of(surface_obj, bound_value: int) -> str:
    """The case label of a (surface, bound) pair, or "other"."""
    for label, (_, _, b) in CASES.items():
        if b == bound_value and surface(label) == surface_obj:
            return label
    return "other"


def _random_pairing(rng: random.Random, num_slots: int) -> tuple:
    """A uniformly random non-crossing perfect matching of range(num_slots).

    The partner of the first point of each interval is drawn with weight
    C(left) * C(right), the number of matchings it leaves, which makes
    every matching equally likely.
    """
    out = []
    stack = [(0, num_slots)]
    while stack:
        lo, hi = stack.pop()
        m = (hi - lo) // 2
        if m == 0:
            continue
        r = rng.randrange(surfaces.catalan(m))
        for i in range(m):
            weight = surfaces.catalan(i) * surfaces.catalan(m - 1 - i)
            if r < weight:
                break
            r -= weight
        partner = lo + 1 + 2 * i
        out.append((lo, partner))
        stack.append((lo + 1, partner))
        stack.append((partner + 1, hi))
    return tuple(sorted(out))


def make_queries(rng: random.Random, label: str, count: int) -> list:
    """Colorable, possibly non-canonical dividing sets whose canonical form fits.

    Each segment gets up to bound + 2 crossings, each piece a random
    non-crossing pairing, and some sets a contractible closed component.
    A query is [crossings, chords per piece, closed].
    """
    surf, b = surface(label), bound(label)
    out = []
    while len(out) < count:
        crossings = tuple(rng.randrange(b + 3) for _ in range(surf.num_pairs))
        layout = surfaces.layout_of(surf, surfaces.DividingSet(crossings, (), 0))
        counts = [layout.num_slots(p) for p in range(surf.num_pieces)]
        if any(c % 2 for c in counts):
            continue
        chords = tuple(_random_pairing(rng, c) for c in counts)
        closed = 1 if rng.random() < CLOSED_PROBABILITY else 0
        k = surfaces.DividingSet(crossings, chords, closed)
        if not surfaces.is_colorable(surf, k):
            continue
        if any(c > b for c in surfaces.canonicalize(surf, k).crossings):
            continue
        out.append([list(crossings), [[list(c) for c in piece] for piece in chords], closed])
    return out


def query_set(query) -> surfaces.DividingSet:
    crossings, chords, closed = query
    return surfaces.make_dividing_set(crossings, chords, closed)


def digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
