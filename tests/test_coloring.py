"""Region analysis and grading against a reference copy of the per-set analysis.

`reference_regions` is region analysis as it ran before the slot layout
decided colorability: a parity union-find over the faces of every piece,
with chord flips, gap unions and plain-label anchors, run on each set.
The package's region queries must agree with it exactly on seeded sets,
raw and canonical, colorable and not.
"""

from __future__ import annotations

import itertools
import random

import pytest

from curvetqft import surfaces as sf
from curvetqft.gluemaps import attach_arc_datum, cut_surface, glue_surfaces
from curvetqft.tqftcore import build_module
from test_surfaces import reference_faces


class _ReferenceUnionFind:
    def __init__(self, n):
        self.parent = list(range(n))
        self.parity = [0] * n

    def relation(self, x):
        root, par = x, 0
        while self.parent[root] != root:
            par ^= self.parity[root]
            root = self.parent[root]
        return root, par

    def union(self, x, y, flip):
        rx, px = self.relation(x)
        ry, py = self.relation(y)
        if rx == ry:
            return (px ^ py) == flip
        self.parent[rx] = ry
        self.parity[rx] = px ^ py ^ flip
        return True


def reference_regions(surface, k):
    """Sorted (sign, euler, touches_boundary) of k's regions, or None if uncolorable."""
    layout = sf.validate_dividing_set(surface, k)
    faces = [reference_faces(layout.num_slots(p), k.chords[p]) for p in range(surface.num_pieces)]
    offsets = list(itertools.accumulate((n for n, _, _ in faces), initial=0))
    num_faces = offsets[-1]
    uf = _ReferenceUnionFind(num_faces)
    face_of = [face_of_interval or (0,) for _, face_of_interval, _ in faces]

    def face_at(piece, interval):
        return offsets[piece] + face_of[piece][interval]

    euler = [1] * num_faces
    for ((pa, ia), (pb, ib)), r in zip(surface.pairs, k.crossings):
        before_a = layout.first[pa][ia] - 1
        before_b = layout.first[pb][ib] - 1
        for gap in range(r + 1):
            fa = face_at(pa, before_a + gap)
            fb = face_at(pb, before_b + r - gap)
            euler[fa] -= 1
            uf.union(fa, fb, 0)
    region_of = [uf.relation(f)[0] for f in range(num_faces)]

    for p in range(surface.num_pieces):
        for inner, outer in faces[p][2].values():
            if not uf.union(offsets[p] + inner, offsets[p] + outer, 1):
                return None

    anchor = {}
    touches = set()
    for p, word in enumerate(surface.words):
        for i, tok in enumerate(word):
            if tok[0] != sf.PLAIN:
                continue
            fid = face_at(p, layout.first[p][i] - 1)
            touches.add(region_of[fid])
            root, par = uf.relation(fid)
            sign = tok[1] if par == 0 else -tok[1]
            if anchor.setdefault(root, sign) != sign:
                return None

    chi = {}
    for fid, region in enumerate(region_of):
        chi[region] = chi.get(region, 0) + euler[fid]
    regions = []
    for region, e in chi.items():
        root, par = uf.relation(region)
        if root not in anchor:
            return None
        regions.append((anchor[root] if par == 0 else -anchor[root], e, region in touches))
    return sorted(regions)


def _two_piece_cut():
    """A cut result that keeps a seam between two pieces."""
    target = glue_surfaces(attach_arc_datum(3, 1)).target
    return cut_surface(sf.disjoint_union(sf.punctured_torus(2), target), 0).cut_surface


ORACLE_SURFACES = {
    "disk8": sf.disk(8),
    "annulus2-2": sf.annulus(2, 2),
    "annulus2-2-pos-neg": sf.annulus(2, 2, (sf.POS, sf.NEG)),
    "torus2": sf.punctured_torus(2),
    "torus4": sf.punctured_torus(4),
    "disk4+annulus2-2": sf.disjoint_union(sf.disk(4), sf.annulus(2, 2)),
    **{f"attach3-{j}": glue_surfaces(attach_arc_datum(3, j)).target for j in range(3)},
    "cut-torus2+attach3-1": _two_piece_cut(),
}
ORACLE_SETS_PER_SURFACE = 300
ORACLE_MAX_CROSSINGS = 5


def _random_pairing(rng, num_slots):
    chords = []
    stack = [(0, num_slots)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        partner = lo + 1 + 2 * rng.randrange((hi - lo) // 2)
        chords.append((lo, partner))
        stack += [(lo + 1, partner), (partner + 1, hi)]
    return tuple(sorted(chords))


def _random_sets(surface, rng, count):
    """Seeded random dividing sets, colorable or not, some with circles."""
    made = 0
    while made < count:
        crossings = tuple(
            rng.randrange(ORACLE_MAX_CROSSINGS + 1) for _ in range(surface.num_pairs)
        )
        counts = [sf.layout_of(surface, sf.DividingSet(crossings, (), 0)).num_slots(p)
                  for p in range(surface.num_pieces)]
        if any(c % 2 for c in counts):
            continue
        made += 1
        chords = tuple(_random_pairing(rng, c) for c in counts)
        yield sf.DividingSet(crossings, chords, rng.choice((0, 0, 0, 1)))


def test_cut_surface_keeps_a_two_piece_seam():
    surface = _two_piece_cut()
    assert surface.num_pieces == 3
    assert any(pa != pb for (pa, _), (pb, _) in surface.pairs)


@pytest.mark.parametrize("name", ORACLE_SURFACES)
def test_region_queries_match_reference(name):
    surface = ORACLE_SURFACES[name]
    rng = random.Random(16)
    seen = set()
    for k in _random_sets(surface, rng, ORACLE_SETS_PER_SURFACE):
        for s in (k, sf.canonicalize(surface, k)):
            expected = reference_regions(surface, s)
            seen.add(expected is not None)
            assert sf.is_colorable(surface, s) == (expected is not None)
            got = sf.analyze_regions(surface, s)
            if expected is None:
                assert got is None
                with pytest.raises(sf.ColoringError):
                    sf.euler_grading(surface, s)
                continue
            assert sorted((r.sign, r.euler, r.touches_boundary) for r in got) == expected
            assert sf.euler_grading(surface, s) == sum(sign * e for sign, e, _ in expected)
    # Every set on a disk is colorable (an arc attached to a disk gives a
    # disk); every other surface meets both kinds.
    planar = name == "disk8" or name.startswith("attach")
    assert seen == ({True} if planar else {True, False})


GLUED_LADDER = [
    (sf.annulus(2, 2), 3),
    (sf.annulus(2, 2), 4),
    (sf.annulus(4, 4), 3),
    (sf.punctured_torus(2), 3),
    (sf.punctured_torus(4), 3),
]


def test_enumeration_grades_only_generators():
    # A build grades its generators from their slot layouts and nothing
    # else; each grading is the one the set's own query gives.
    total = 0
    for surface, bound in GLUED_LADDER:
        m = build_module(surface, bound)
        assert all(m.gradings[i] == sf.euler_grading(surface, g)
                   for i, g in enumerate(m.generators))
        total += len(m.generators)
    assert total == 228
