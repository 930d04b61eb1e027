"""Byte stability of `module --format machine` on a fixed ladder of surfaces.

The digests are sha256 sums of the command's standard output, recorded
before bypass enumeration skipped trivial and reversed arcs and graded each
dividing set once per build.  Any change to generators, relation rows,
reduced rows, pivots or graded ranks changes them.

The canonicalize digest locks the bigon reduction of a seeded stream of
random, possibly uncolorable dividing sets, recorded before the reduction
worked on fixed slot keys.  The region digest locks colorability,
grading, isolation and the region multiset of such sets, recorded before
region analysis ran as one union-find pass.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from curvetqft import surfaces as sf
from curvetqft.cli import main
from curvetqft.gluemaps import attach_arc_datum, glue_surfaces

DIGESTS = {
    ("--disk", "2", "--bound", "0"):
        "0178076f95669fbdf1e5541c91a93699390c2bbc18a73c71584edd6346cb26c7",
    ("--disk", "4", "--bound", "0"):
        "8c9844ba64ff5a962aca68ee3a0d01f7903d3fcf3d187eb3ad2b80a0258386b9",
    ("--disk", "6", "--bound", "0"):
        "7c6ebe89d345e5853e95984d104a6f0f40cb06838b480354a5b64ff8255ae383",
    ("--disk", "8", "--bound", "0"):
        "9faed6cca4b52769be3a712bb434d078dfee51bcfbd21bb60151e212b98af4b1",
    ("--disk", "10", "--bound", "0"):
        "2c9a47f9f8fcb3e710f00a7a5d13e9d7db16453852c59a21b878ab2125407514",
    ("--disk", "12", "--bound", "0"):
        "c362972f92f19376fa07fd49373b5ce8e571f135a095cc03ba7ebd364696121f",
    ("--annulus", "2", "2", "--bound", "3"):
        "dc33e5c992126f7c2e2b5bc92af0d2904e315f36549f89ee9ad29002e9786169",
    ("--annulus", "2", "2", "--bound", "4"):
        "55bd61b5c36a0d33043c6f3a78b424e64ce4702d9d8dd47c56fd6d53059d511a",
    ("--annulus", "4", "4", "--bound", "3"):
        "328074e3dcd20edf1e304eda729d84664c1ef42759b2c4888f169eca31c3405a",
    ("--punctured-torus", "2", "--bound", "3"):
        "3db5966f0dc9213bcf14d6abed6a3caf43f92b15685fb1638ad8401dfd68c19f",
    ("--punctured-torus", "4", "--bound", "3"):
        "682bf4d87cc919b114e4e52e6e9f024814443906a145a8f3e1bea065a77124b0",
}


@pytest.mark.parametrize("flags", sorted(DIGESTS), ids=" ".join)
def test_module_machine_digest(flags, capsys):
    code = main(["module", *flags, "--format", "machine"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[flags]


CANONICALIZE_SURFACES = [
    sf.disk(8),
    sf.annulus(2, 2),
    sf.annulus(2, 2, (sf.POS, sf.NEG)),
    sf.punctured_torus(2),
    sf.punctured_torus(4),
] + [glue_surfaces(attach_arc_datum(3, j)).target for j in range(3)]
CANONICALIZE_SETS_PER_SURFACE = 2000
CANONICALIZE_MAX_CROSSINGS = 5
CANONICALIZE_DIGEST = "381b40c0c08c71ba280726290bf5e0cc5125f4e5673aa40bf528982b510af205"


def _random_pairing(rng, num_slots):
    """A random non-crossing perfect matching of range(num_slots)."""
    chords = []
    stack = [(0, num_slots)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        partner = lo + 1 + 2 * rng.randrange((hi - lo) // 2)
        chords.append((lo, partner))
        stack.append((lo + 1, partner))
        stack.append((partner + 1, hi))
    return tuple(sorted(chords))


def _random_sets(surface, rng, count):
    """Seeded random dividing sets, colorable or not, some with circles."""
    made = 0
    while made < count:
        crossings = tuple(
            rng.randrange(CANONICALIZE_MAX_CROSSINGS + 1) for _ in range(surface.num_pairs)
        )
        layout = sf.layout_of(surface, sf.DividingSet(crossings, (), 0))
        counts = [layout.num_slots(p) for p in range(surface.num_pieces)]
        if any(c % 2 for c in counts):
            continue
        chords = tuple(_random_pairing(rng, c) for c in counts)
        closed = rng.choice((0, 0, 0, 0, 1, 2))
        made += 1
        yield sf.DividingSet(crossings, chords, closed)


def test_canonicalize_digest():
    # Locks the ordered canonical forms, and that canonicalize returns
    # its argument itself exactly when it has no bigon.
    rng = random.Random(6)
    digest = hashlib.sha256()
    for surface in CANONICALIZE_SURFACES:
        for k in _random_sets(surface, rng, CANONICALIZE_SETS_PER_SURFACE):
            reduced = sf.canonicalize(surface, k)
            assert (reduced is k) == sf.is_efficient(surface, k)
            digest.update(repr(reduced.encode()).encode())
    assert digest.hexdigest() == CANONICALIZE_DIGEST


REGION_SURFACES = CANONICALIZE_SURFACES + [sf.disjoint_union(sf.disk(4), sf.annulus(2, 2))]
REGION_SETS_PER_SURFACE = 400
REGION_DIGEST = "aa120c35bfa9e34c2b1780b4539502cfc2aadeb8a282572cf2bc6669f8ade117"


def _region_summary(surface, k):
    if not sf.is_colorable(surface, k):
        return None
    regions = sorted((r.sign, r.euler, r.touches_boundary) for r in sf.label_regions(surface, k))
    return (sf.euler_grading(surface, k), sf.is_isolating(surface, k), regions)


def test_region_digest():
    # Locks colorability, grading, isolation and the region multiset of
    # seeded random sets, raw and canonical; region order is free.
    rng = random.Random(7)
    digest = hashlib.sha256()
    for surface in REGION_SURFACES:
        for k in _random_sets(surface, rng, REGION_SETS_PER_SURFACE):
            for s in (k, sf.canonicalize(surface, k)):
                digest.update(repr(_region_summary(surface, s)).encode())
    assert digest.hexdigest() == REGION_DIGEST
