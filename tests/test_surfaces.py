"""Surface and dividing-set level tests, checked against independent oracles."""

from __future__ import annotations

import functools
import gc
import hashlib
import itertools
import random
import tracemalloc
import weakref

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvetqft import surfaces as sf
from curvetqft.cli import _surface_from_args, build_parser
from curvetqft.gluemaps import attach_arc_datum, glue_surfaces
from test_digests import DIGESTS, REGION_SURFACES, _random_sets
from test_reduce_reference import genus2_layout_g


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def catalan_oracle(n: int) -> int:
    """C_n by the additive recurrence, independent of the package."""
    c = [1]
    for m in range(1, n + 1):
        c.append(sum(c[i] * c[m - 1 - i] for i in range(m)))
    return c[n]


def face_partition_oracle(num_slots: int, chords) -> list[int]:
    """Face of each boundary interval, by chord-separation signatures.

    Two intervals lie in the same face of the disk cut along a
    non-crossing chord family iff no chord separates them.  Interval i
    (between slot i and i+1) is inside chord (a, b) iff a <= i < b.
    """
    def signature(i):
        return tuple(a <= i < b for a, b in chords)

    sigs = [signature(i) for i in range(num_slots)]
    canon = {}
    return [canon.setdefault(s, len(canon)) for s in sigs]


def disk_region_oracle(n: int, chords):
    """(num_regions, signed counts, grading) for a disk matching.

    Every region of a disk cut along chords is itself a disk, so the
    grading is simply #positive regions - #negative regions.  The sector
    after slot i has sign (-1)^i.
    """
    faces = face_partition_oracle(2 * n, chords)
    sign_of_face = {}
    for i, f in enumerate(faces):
        sign = 1 if i % 2 == 0 else -1
        assert sign_of_face.setdefault(f, sign) == sign, "oracle: inconsistent signs"
    pos = sum(1 for s in sign_of_face.values() if s > 0)
    neg = len(sign_of_face) - pos
    return len(sign_of_face), pos, neg, pos - neg


def reference_faces(num_slots: int, chords):
    """(num_faces, face_of_interval, chord_sides) of a piece cut along its chords.

    The slot walk the package once used for a piece's faces, kept as a
    reference.  face_of_interval[i] is the face at the interval between
    slot i and i+1; face 0 is the one before slot 0.  chord_sides maps
    each chord to (inner_face, outer_face), where the inner face lies
    between the chord and the boundary arc from its lower to its higher
    slot.  The chords must be a non-crossing perfect matching.
    """
    partner = {}
    for a, b in chords:
        partner[a] = b
        partner[b] = a
    face_of_interval = [0] * num_slots
    chord_sides = {}
    stack: list[int] = []
    current = 0
    next_id = 1
    for s in range(num_slots):
        p = partner[s]
        if s < p:
            chord_sides[(s, p)] = (next_id, current)
            stack.append(current)
            current = next_id
            next_id += 1
        else:
            current = stack.pop()
        face_of_interval[s] = current
    return next_id, tuple(face_of_interval), chord_sides


# ---------------------------------------------------------------------------
# Surface validation
# ---------------------------------------------------------------------------

def test_disk_six_marks_validates():
    info = sf.validate_surface(sf.disk(6))
    assert info.euler == 1
    assert info.marks_per_circle == (6,)


def test_odd_marks_rejected():
    for preset in (lambda: sf.disk(3), lambda: sf.annulus(3, 2), lambda: sf.punctured_torus(3)):
        with pytest.raises(sf.SurfaceError, match="even number >= 2 of mark"):
            preset()
    word = (sf.mark(), sf.plain(1), sf.mark(), sf.plain(-1), sf.mark(), sf.plain(1))
    with pytest.raises(sf.SurfaceError, match="marked-point count"):
        sf.validate_surface(sf.MarkedSurface((word,), ()))


def test_non_alternating_labels_rejected():
    word = (sf.mark(), sf.plain(1), sf.mark(), sf.plain(1))
    with pytest.raises(sf.SurfaceError, match="alternate"):
        sf.validate_surface(sf.MarkedSurface((word,), ()))


M, P, N = sf.mark(), sf.plain(1), sf.plain(-1)


@pytest.mark.parametrize(
    "word",
    [
        (M, M, P, M, N, M, P),
        (M, P, M, M, P, M, N),
        (M, P, M, N, M, P, M),
        (M, P, M, M, P, M),
    ],
    ids=["first", "middle", "wrap", "middle-and-wrap"],
)
def test_empty_sector_rejected(word):
    with pytest.raises(sf.SurfaceError, match="adjacent"):
        sf.validate_surface(sf.MarkedSurface((word,), ()))


def test_unpaired_segment_rejected():
    word = (sf.mark(), sf.plain(1), sf.mark(), sf.plain(-1), sf.ident(0))
    with pytest.raises(sf.SurfaceError, match="unpaired"):
        sf.validate_surface(sf.MarkedSurface((word,), ()))


@pytest.mark.parametrize(
    "word",
    [
        (M, (sf.PLAIN, 0), M, (sf.PLAIN, 0)),
        ((sf.MARK, 1), P, M, N),
        (M, P, M, N, ()),
        (M, P, M, N, "mark"),
        # Equal to (PLAIN, 1) but not an int label.
        (M, (sf.PLAIN, 1.0), M, N),
        (M, (sf.PLAIN, True), M, N),
    ],
    ids=["plain-zero", "mark-with-label", "empty", "string", "plain-float", "plain-bool"],
)
def test_malformed_token_rejected_at_construction(word):
    with pytest.raises(sf.SurfaceError, match="unknown token"):
        sf.MarkedSurface((word,), ())


def test_list_words_rejected_at_construction():
    # Such a surface used to be built, and then failed as a dict key.
    with pytest.raises(sf.SurfaceError, match="unhashable"):
        sf.MarkedSurface(([M, P, M, N],), ())


ANNULUS_WORD = sf.annulus(2, 2).words


@pytest.mark.parametrize(
    "pairs",
    [
        (((0, 0), (0, "a")),),
        (((0, 0), (0, 6.0)),),
        (((0, 0), 0),),
        ((0, 0),),
        (((False, 0), (0, 6)),),
        (((0, False), (0, 6)),),
    ],
    ids=["string-index", "float-index", "int-position", "one-position", "bool-piece",
         "bool-index"],
)
def test_malformed_pair_position_rejected_at_construction(pairs):
    with pytest.raises(sf.SurfaceError, match="int positions"):
        sf.MarkedSurface(ANNULUS_WORD, pairs)


def test_float_ident_token_rejected_at_construction():
    # (IDENT, 0.0) compares equal to (IDENT, 0).
    word = tuple((sf.IDENT, 0.0) if tok == sf.ident(0) else tok for tok in ANNULUS_WORD[0])
    with pytest.raises(sf.SurfaceError, match="is not identification segment 0"):
        sf.MarkedSurface((word,), sf.annulus(2, 2).pairs)


@pytest.mark.parametrize("words", [5, (5,)], ids=["int-words", "int-word"])
def test_words_that_are_not_words_rejected_at_construction(words):
    # Each used to escape as a TypeError.
    with pytest.raises(sf.SurfaceError, match="words must be a tuple of boundary words"):
        sf.MarkedSurface(words, ())


def test_empty_boundary_rejected_at_construction():
    with pytest.raises(sf.SurfaceError, match="piece 0 has an empty boundary word"):
        sf.MarkedSurface(((),), ())
    # A piece whose word is one glued pair of segments closes up without
    # boundary, beside a disk or alone.
    closed = (sf.ident(0), sf.ident(0))
    for words in ((closed,), (closed, sf.disk(2).words[0])):
        with pytest.raises(sf.SurfaceError,
                           match=r"component with pieces \(0,\) has empty boundary"):
            sf.MarkedSurface(words, (((0, 0), (0, 1)),))


def test_annulus_euler_zero():
    info = sf.validate_surface(sf.annulus(2, 2))
    assert info.euler == 0
    assert sorted(info.marks_per_circle) == [2, 2]


def test_punctured_torus_euler():
    info = sf.validate_surface(sf.punctured_torus(2))
    assert info.euler == -1
    assert info.marks_per_circle == (2,)


def test_disjoint_union_validates():
    s = sf.disjoint_union(sf.disk(4), sf.annulus(2, 2))
    info = sf.validate_surface(s)
    assert info.euler == 1
    assert len(info.components) == 2


# ---------------------------------------------------------------------------
# Matchings and Catalan counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 7))
def test_matching_count_is_catalan(n):
    assert len(sf.enumerate_matchings(n)) == catalan_oracle(n)
    assert sf.catalan(n) == catalan_oracle(n)


def test_matchings_n3_values():
    ms = sf.enumerate_matchings(3)
    surface = sf.disk(6)
    gradings = [sf.euler_grading(surface, k) for k in ms]
    assert gradings == [2, 0, 0, 0, -2]
    assert {k.chords[0] for k in ms} == set(sf.noncrossing_pairings(6))
    for k in ms:
        sf.validate_dividing_set(surface, k)


def _reference_pairings(num_slots, forbidden=frozenset()):
    """noncrossing_pairings as it was, re-running the right range for every left matching."""
    def rec(points):
        if not points:
            yield ()
            return
        first = points[0]
        for j in range(1, len(points), 2):
            if j == 1 and first in forbidden:
                continue
            for lp in rec(points[1:j]):
                for rp in rec(points[j + 1:]):
                    yield ((first, points[j]),) + lp + rp

    if num_slots % 2 == 0:
        yield from rec(range(num_slots))


def test_negative_counts_have_no_matchings():
    with pytest.raises(ValueError, match="n must be >= 0"):
        sf.catalan(-1)
    with pytest.raises(ValueError, match="n must be >= 1"):
        sf.enumerate_matchings(0)
    assert sf.catalan(0) == 1
    for num_slots in (-1, -2, -4):
        assert list(sf.noncrossing_pairings(num_slots)) == []
    assert list(sf.noncrossing_pairings(0)) == [()]


@pytest.mark.parametrize("num_slots", range(13))
def test_noncrossing_pairings_match_reference(num_slots):
    # The same matchings in the same order, with and without forbidden slots.
    rng = random.Random(num_slots)
    forbidden_sets = [frozenset(), frozenset(range(0, num_slots, 2)),
                      frozenset(range(1, num_slots, 2)), frozenset(range(num_slots))] + [
        frozenset(a for a in range(num_slots - 1) if rng.random() < 0.3) for _ in range(4)
    ]
    for forbidden in forbidden_sets:
        got = sf.noncrossing_pairings(num_slots, forbidden)
        assert not isinstance(got, list)
        assert list(got) == list(_reference_pairings(num_slots, forbidden))


@pytest.mark.parametrize("seed", range(8))
def test_noncrossing_pairings_skip_forbidden_chords(seed):
    # The same matchings in the same order as filtering the full list.
    rng = random.Random(seed)
    for num_slots in range(0, 13, 2):
        forbidden = frozenset(a for a in range(num_slots - 1) if rng.random() < 0.4)
        expected = [
            pairing for pairing in sf.noncrossing_pairings(num_slots)
            if not any(b == a + 1 and a in forbidden for a, b in pairing)
        ]
        got = list(sf.noncrossing_pairings(num_slots, forbidden))
        assert got == expected
        # Chords come in ascending order, as a DividingSet stores them.
        assert all(pairing == tuple(sorted(pairing)) for pairing in got)


@pytest.mark.parametrize("surface", [
    sf.disk(6), sf.annulus(2, 4, (sf.POS, sf.NEG)), sf.punctured_torus(4),
    sf.disjoint_union(sf.annulus(2, 2), sf.punctured_torus(2)),
])
def test_bigon_slots_are_consecutive_crossings_of_one_side(surface):
    for crossings in itertools.product(range(4), repeat=surface.num_pairs):
        layout = surface.layout(crossings)
        for keys, bigons in zip(layout.slots, layout.bigon_slots):
            assert bigons == {
                a for a in range(len(keys) - 1)
                if keys[a][0] == keys[a + 1][0] == "x" and keys[a][1:3] == keys[a + 1][1:3]
            }


@pytest.mark.parametrize("n", range(1, 7))
def test_matchings_valid_and_graded_like_oracle(n):
    surface = sf.disk(2 * n)
    seen = set()
    for k in sf.enumerate_matchings(n):
        seen.add(k.encode())
        regions = sf.label_regions(surface, k)
        num, pos, neg, grading = disk_region_oracle(n, k.chords[0])
        assert len(regions) == num
        assert sum(1 for r in regions if r.sign > 0) == pos
        assert sf.euler_grading(surface, k) == grading
        assert all(r.euler == 1 for r in regions)
        assert not sf.is_isolating(surface, k)
    assert len(seen) == catalan_oracle(n)


def test_grading_partition_matches_narayana():
    # The number of matchings with k positive regions is the Narayana
    # number N(n, k); the grading is 2k - (n + 1).
    from math import comb

    for n in range(1, 7):
        surface = sf.disk(2 * n)
        counts = {}
        for k in sf.enumerate_matchings(n):
            e = sf.euler_grading(surface, k)
            counts[e] = counts.get(e, 0) + 1
        for kpos in range(1, n + 1):
            naryana = comb(n, kpos) * comb(n, kpos - 1) // n
            assert counts.get(2 * kpos - (n + 1), 0) == naryana
    surface = sf.disk(6)
    partition = {}
    for k in sf.enumerate_matchings(3):
        partition.setdefault(sf.euler_grading(surface, k), 0)
        partition[sf.euler_grading(surface, k)] += 1
    assert partition == {2: 1, 0: 3, -2: 1}


# ---------------------------------------------------------------------------
# Regions and gradings on the disk
# ---------------------------------------------------------------------------

def test_disk_n2_regions():
    surface = sf.disk(4)
    k_pos = sf.make_dividing_set((), [[(0, 1), (2, 3)]])
    regions = sf.label_regions(surface, k_pos)
    pos = [r for r in regions if r.sign > 0]
    neg = [r for r in regions if r.sign < 0]
    assert sum(r.euler for r in pos) == 2
    assert sum(r.euler for r in neg) == 1
    assert sf.euler_grading(surface, k_pos) == 1
    k_neg = sf.make_dividing_set((), [[(0, 3), (1, 2)]])
    assert sf.euler_grading(surface, k_neg) == -1


def test_disk_n1_single_chord():
    surface = sf.disk(2)
    k = sf.make_dividing_set((), [[(0, 1)]])
    regions = sf.label_regions(surface, k)
    assert sorted(r.sign for r in regions) == [-1, 1]
    assert sf.euler_grading(surface, k) == 0


def test_disk_n3_gradings():
    surface = sf.disk(6)
    all_plus = sf.make_dividing_set((), [[(0, 1), (2, 3), (4, 5)]])
    assert sf.euler_grading(surface, all_plus) == 2
    for chords in ([(0, 3), (1, 2), (4, 5)], [(0, 5), (1, 4), (2, 3)],
                   [(0, 1), (2, 5), (3, 4)]):
        k = sf.make_dividing_set((), [chords])
        assert sf.euler_grading(surface, k) == 0


def test_closed_component_isolates():
    surface = sf.disk(2)
    k = sf.make_dividing_set((), [[(0, 1)]], closed=1)
    assert sf.is_isolating(surface, k)


# ---------------------------------------------------------------------------
# Annulus regions
# ---------------------------------------------------------------------------

def annulus_slots(r: int):
    """Slot indices of the 2+2 annulus at seam crossing count r.

    Layout order: r seam slots (side 0), marks 0 and 1 (first circle),
    r seam slots (side 1), marks 2 and 3 (second circle).
    """
    side0 = list(range(r))
    m0, m1 = r, r + 1
    side1 = list(range(r + 2, 2 * r + 2))
    m2, m3 = 2 * r + 2, 2 * r + 3
    return side0, (m0, m1), side1, (m2, m3)


def test_annulus_two_lens_configuration():
    surface = sf.annulus(2, 2)
    _, (m0, m1), _, (m2, m3) = annulus_slots(0)
    k = sf.make_dividing_set((0,), [[(m0, m1), (m2, m3)]])
    regions = sf.label_regions(surface, k)
    assert sf.euler_grading(surface, k) == 2
    annular = [r for r in regions if r.euler == 0]
    assert len(annular) == 1 and annular[0].sign == -1
    assert not sf.is_isolating(surface, k)


def test_annulus_vertical_arcs():
    surface = sf.annulus(2, 2)
    _, (m0, m1), _, (m2, m3) = annulus_slots(0)
    k = sf.make_dividing_set((0,), [[(m0, m3), (m1, m2)]])
    assert sf.euler_grading(surface, k) == 0
    regions = sf.label_regions(surface, k)
    assert sorted(r.sign for r in regions) == [-1, 1]
    assert all(r.euler == 1 for r in regions)


def test_annulus_core_circles_isolate():
    surface = sf.annulus(2, 2)
    side0, (m0, m1), side1, (m2, m3) = annulus_slots(2)
    k = sf.make_dividing_set(
        (2,), [[(m0, m1), (m2, m3), (side0[0], side1[1]), (side0[1], side1[0])]]
    )
    regions = sf.label_regions(surface, k)
    middle = [r for r in regions if not r.touches_boundary]
    assert len(middle) == 1 and middle[0].euler == 0
    assert sf.is_isolating(surface, k)


def test_annulus_single_core_circle_with_arcs_colorable():
    # One closed core curve between two boundary-parallel arcs of equal
    # sign is not colorable; the arcs must take opposite signs, which
    # needs a crossing for one of them.
    surface = sf.annulus(2, 2)
    side0, (m0, m1), side1, (m2, m3) = annulus_slots(1)
    k_bad = sf.make_dividing_set((1,), [[(m0, m1), (m2, m3), (side0[0], side1[0])]])
    assert not sf.is_colorable(surface, k_bad)
    assert sf.analyze_regions(surface, k_bad) is None
    for query in (sf.label_regions, sf.euler_grading, sf.is_isolating,
                  lambda s, k: list(sf.iter_bypass_surgeries(s, k))):
        with pytest.raises(sf.ColoringError):
            query(surface, k_bad)
    # A contractible circle does not make the set colorable: every region
    # query still refuses it, is_isolating included.
    k_circle = sf.make_dividing_set(k_bad.crossings, k_bad.chords, closed=1)
    for query in (sf.label_regions, sf.euler_grading, sf.is_isolating):
        with pytest.raises(sf.ColoringError):
            query(surface, k_circle)


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------

def test_efficient_matching_is_fixed():
    surface = sf.disk(6)
    for k in sf.enumerate_matchings(3):
        assert sf.canonicalize(surface, k) == k


def test_bigon_removal_on_annulus():
    # A boundary-parallel arc pushed across the seam and back: removing
    # the bigon leaves the straight configuration.
    surface = sf.annulus(2, 2)
    side0, (m0, m1), side1, (m2, m3) = annulus_slots(2)
    wiggly = sf.make_dividing_set(
        (2,),
        [[(side0[1], m0), (side1[0], side1[1]), (side0[0], m1), (m2, m3)]],
    )
    reduced = sf.canonicalize(surface, wiggly)
    assert reduced is not wiggly
    straight = sf.make_dividing_set((0,), [[(0, 1), (2, 3)]])
    assert reduced == straight


def test_bigon_collapse_to_contractible_circle():
    # A closed component crossing the seam twice and bounding a bigon
    # reduces to a recorded contractible circle.
    surface = sf.annulus(2, 2)
    side0, (m0, m1), side1, (m2, m3) = annulus_slots(2)
    k = sf.make_dividing_set(
        (2,),
        [[(m0, m1), (m2, m3), (side0[0], side0[1]), (side1[0], side1[1])]],
    )
    reduced = sf.canonicalize(surface, k)
    assert reduced is not k
    assert reduced.closed == 1
    assert reduced.crossings == (0,)
    assert sf.is_isolating(surface, reduced)


def test_reduction_is_confluent_on_double_bigon():
    surface = sf.annulus(2, 2)
    side0, (m0, m1), side1, (m2, m3) = annulus_slots(4)
    # Two stacked bigons on one arc: every reduction order must reach the
    # same straight form.
    k = sf.make_dividing_set(
        (4,),
        [[
            (side0[0], m1), (side0[1], side0[2]), (side0[3], m0),
            (side1[0], side1[1]), (side1[2], side1[3]), (m2, m3),
        ]],
    )
    reduced = sf.canonicalize(surface, k)
    assert reduced is not k
    assert reduced == sf.make_dividing_set((0,), [[(0, 1), (2, 3)]])


PROPERTY_SURFACES = [
    sf.annulus(2, 2),
    sf.punctured_torus(2),
    glue_surfaces(attach_arc_datum(3, 0)).target,
]


@st.composite
def chord_data(draw):
    """A surface and a random dividing set on it, colorable or not."""
    surface = draw(st.sampled_from(PROPERTY_SURFACES))
    crossings = tuple(draw(st.integers(0, 4)) for _ in range(surface.num_pairs))
    layout = sf.layout_of(surface, sf.DividingSet(crossings, (), 0))
    counts = [layout.num_slots(p) for p in range(surface.num_pieces)]
    assume(all(c % 2 == 0 for c in counts))
    chords = []
    for count in counts:
        piece_chords = []
        stack = [(0, count)]
        while stack:
            lo, hi = stack.pop()
            if hi - lo < 2:
                continue
            partner = lo + 1 + 2 * draw(st.integers(0, (hi - lo) // 2 - 1))
            piece_chords.append((lo, partner))
            stack += [(lo + 1, partner), (partner + 1, hi)]
        chords.append(tuple(sorted(piece_chords)))
    return surface, sf.DividingSet(crossings, tuple(chords), draw(st.integers(0, 2)))


@settings(max_examples=300, deadline=None)
@given(chord_data())
def test_canonical_form_is_a_bigon_free_fixed_point(data):
    surface, k = data
    reduced = sf.canonicalize(surface, k)
    assert sf.canonicalize(surface, reduced) is reduced
    for before, after in zip(k.crossings, reduced.crossings):
        assert 0 <= after <= before and (before - after) % 2 == 0
    assert reduced.closed >= k.closed


def test_region_queries_analyze_once(monkeypatch):
    # The benchmark's tracer counts region analyses through this name.
    # The slot layout decides colorability and the grading, so only the
    # queries that need the regions themselves analyze them.
    surface = sf.disk(6)
    k = sf.enumerate_matchings(3)[0]
    analyze = sf.analyze_regions
    calls = []
    monkeypatch.setattr(sf, "analyze_regions", lambda s, k: calls.append(k) or analyze(s, k))
    for query, count in ((sf.label_regions, 1), (sf.euler_grading, 0),
                         (sf.is_isolating, 1), (sf.is_colorable, 0)):
        calls.clear()
        query(surface, k)
        assert len(calls) == count


MALFORMED_ANNULUS_SETS = [
    (sf.DividingSet((0, 0), ((),), 0), "crossing vector has length 2, expected 1"),
    (sf.DividingSet((0,), (), 0), "chord data does not cover every piece"),
    (sf.DividingSet((0,), (((0, 1), (2, 3)),), -1), "negative closed-component count"),
    (sf.DividingSet((0,), (((0, 2), (1, 3)),), 0), "piece 0: chords are not"),
    # A contractible circle does not make a malformed set well formed.
    (sf.DividingSet((0, 0), ((),), 1), "crossing vector has length 2, expected 1"),
    (sf.DividingSet((0,), (((0, 2), (1, 3)),), 1), "piece 0: chords are not"),
    # Chords outside make_dividing_set's normal form would not encode uniquely.
    (sf.DividingSet((0,), (((1, 0), (2, 3)),), 0), "piece 0: chords are not sorted"),
    (sf.DividingSet((0,), (((2, 3), (0, 1)),), 0), "piece 0: chords are not sorted"),
    # A repeated chord is in normal form but pairs no slot twice over.
    (sf.DividingSet((0,), (((0, 1), (0, 1)),), 0), "piece 0: chords are not a non-crossing"),
    # Rejected by its slot count, before 2 * 10**5 crossing slots are laid out.
    (sf.DividingSet((10**5,), (((0, 1),),), 0), "piece 0: chords are not"),
    # A bool equals 0 or 1 and was accepted; the file format refuses it.
    (sf.DividingSet((0,), (((0, 1), (2, 3)),), True), "the closed count must be ints"),
    (sf.DividingSet((False,), (((0, 1), (2, 3)),), 0), "the closed count must be ints"),
    (sf.DividingSet((0,), (((False, True), (2, 3)),), 0), "the closed count must be ints"),
]


@pytest.mark.parametrize("num_slots", [2, 4, 6])
def test_validation_accepts_exactly_the_noncrossing_pairings(num_slots):
    # Every sorted tuple of sorted slot pairs, repeats allowed, of up to
    # num_slots / 2 + 1 chords.
    surface = sf.disk(num_slots)
    valid = set(sf.noncrossing_pairings(num_slots))
    pairs = list(itertools.combinations_with_replacement(range(num_slots), 2))
    seen = 0
    for size in range(num_slots // 2 + 2):
        for chords in itertools.combinations_with_replacement(pairs, size):
            k = sf.DividingSet((), (chords,), 0)
            try:
                sf.validate_dividing_set(surface, k)
                accepted = True
            except sf.DividingSetError:
                accepted = False
            assert accepted == (chords in valid), chords
            seen += accepted
    assert seen == len(valid) == sf.catalan(num_slots // 2)


def test_canonicalize_rejects_malformed_sets():
    surface = sf.annulus(2, 2)
    for k, message in MALFORMED_ANNULUS_SETS:
        with pytest.raises(sf.DividingSetError, match=message) as info:
            sf.canonicalize(surface, k)
        assert not isinstance(info.value, sf.ColoringError)


def test_slot_count_mismatch_is_rejected_without_a_layout():
    surface = sf.annulus(2, 2)
    k = sf.DividingSet((10**5,), (((0, 1),),), 0)
    tracemalloc.start()
    try:
        with pytest.raises(sf.DividingSetError, match="piece 0: chords are not"):
            sf.canonicalize(surface, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_layouts_live_and_die_with_their_surface():
    surface = sf.annulus(2, 2)
    k = sf.DividingSet((2,), (), 0)
    layout = weakref.ref(sf.layout_of(surface, k))
    assert sf.layout_of(surface, k) is layout()
    # The memo is no part of the surface's value: verify's module memo
    # keys on surfaces.
    fresh = sf.annulus(2, 2)
    assert surface == fresh and hash(surface) == hash(fresh)
    del surface
    gc.collect()
    assert layout() is None


def test_layout_rejects_a_crossing_vector_of_the_wrong_length():
    with pytest.raises(sf.DividingSetError, match="crossing vector has length 2, expected 1"):
        sf.layout_of(sf.annulus(2, 2), sf.DividingSet((0, 0), (), 0))


@pytest.mark.parametrize("query", [
    sf.euler_grading,
    sf.is_colorable,
    sf.is_isolating,
    # Bigon-freeness: canonicalize returns its argument exactly then.
    lambda s, k: sf.canonicalize(s, k) is k,
    lambda s, k: list(sf.iter_bypass_surgeries(s, k)),
    lambda s, k: sf.bypass_triple(s, k, sf.BypassArc(0, (0, 1), (2, 3), (4, 5))),
], ids=["euler_grading", "is_colorable", "is_isolating", "is_efficient",
        "iter_bypass_surgeries", "bypass_triple"])
def test_region_queries_reject_malformed_sets(query):
    # A malformed set is a structural error, never an uncolorable set.
    surface = sf.annulus(2, 2)
    for k, message in MALFORMED_ANNULUS_SETS:
        with pytest.raises(sf.DividingSetError, match=message) as info:
            query(surface, k)
        assert not isinstance(info.value, sf.ColoringError)


# ---------------------------------------------------------------------------
# Enumeration of dividing sets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,bound", [(1, 0), (2, 3), (3, 2)])
def test_disk_enumeration_is_matchings(n, bound):
    surface = sf.disk(2 * n)
    got = sf.enumerate_dividing_sets(surface, bound)
    assert len(got) == catalan_oracle(n)
    assert {k.encode() for k in got} == {k.encode() for k in sf.enumerate_matchings(n)}


def test_annulus_enumeration_contains_expected():
    surface = sf.annulus(2, 2)
    got = {k.encode() for k in sf.enumerate_dividing_sets(surface, 2)}

    _, (m0, m1), _, (m2, m3) = annulus_slots(0)
    two_plus = sf.make_dividing_set((0,), [[(m0, m1), (m2, m3)]])
    vertical = sf.make_dividing_set((0,), [[(m0, m3), (m1, m2)]])
    assert two_plus.encode() in got
    assert vertical.encode() in got

    side0, (m0, m1), side1, (m2, m3) = annulus_slots(1)
    core = sf.make_dividing_set((1,), [[(m0, m3), (m1, m2), (side0[0], side1[0])]])
    # A single essential circle needs arcs on both sides; here the two
    # cross arcs plus one core circle is not embeddable without crossings,
    # so just check every enumerated set is efficient, colorable, unique.
    sets = sf.enumerate_dividing_sets(surface, 2)
    assert len(got) == len(sets)
    for k in sets:
        assert sf.canonicalize(surface, k) is k
        assert sf.is_colorable(surface, k)
        assert k.closed == 0


def test_annulus_enumeration_b0():
    surface = sf.annulus(2, 2)
    got = sf.enumerate_dividing_sets(surface, 0)
    assert len(got) == 2  # the two-lens configuration and the two cross arcs


def test_enumeration_no_duplicates_torus():
    surface = sf.punctured_torus(2)
    sets = sf.enumerate_dividing_sets(surface, 1)
    encodings = [k.encode() for k in sets]
    assert len(encodings) == len(set(encodings))
    for k in sets:
        assert sf.canonicalize(surface, k) is k


# ---------------------------------------------------------------------------
# Bypass surgery
# ---------------------------------------------------------------------------

K1 = ((0, 3), (1, 2), (4, 5))
K2 = ((0, 5), (1, 4), (2, 3))
K3 = ((0, 1), (2, 5), (3, 4))


def test_bypass_triple_on_disk_three():
    surface = sf.disk(6)
    k3 = sf.make_dividing_set((), [K3])
    arc = sf.BypassArc(0, start_chord=(0, 1), cross_chord=(2, 5), end_chord=(3, 4),
                       start_side="outer")
    front, back = sf.bypass_triple(surface, k3, arc)
    assert {front.chords[0], back.chords[0]} == {K1, K2}


def test_bypass_triple_is_three_cycle():
    surface = sf.disk(6)
    members = {K1, K2, K3}
    for chords in members:
        k = sf.make_dividing_set((), [chords])
        seen = set()
        for _, front, back in sf.iter_bypass_surgeries(surface, k):
            if front.closed == 0 and back.closed == 0:
                seen.add(frozenset((front.chords[0], back.chords[0])))
        assert frozenset(members - {chords}) in seen


# Module digest ladder of test_digests, as (surface, bound), without
# disk(16): its 1,430 generators would more than triple the arcs below.
MODULE_DIGEST_CASES = [
    (_surface_from_args(args), args.bound)
    for args in (build_parser().parse_args(["module", *flags])
                 for flags in DIGESTS if flags != ("--disk", "16", "--bound", "0"))
]
BYPASS_SETS_PER_SURFACE = 200


def test_bypass_preserves_grading_and_slots():
    # Every nontrivial arc, from either side, on every colorable set gives
    # a triple of colorable sets with one grading: a rotation keeps k's
    # crossings, so its slot layout and coloring, and the six endpoints
    # alternate in parity, so each rotation has as many odd low ends.
    # Bigon removal lowers a crossing count by 2 and keeps the grading
    # unless it closes a strand into a contractible circle.
    rng = random.Random(7)
    sets = [
        (surface, s)
        for surface in REGION_SURFACES
        for k in _random_sets(surface, rng, BYPASS_SETS_PER_SURFACE)
        for s in (k, sf.canonicalize(surface, k))
    ] + [
        (surface, g)
        for surface, bound in MODULE_DIGEST_CASES
        for g in sf.enumerate_dividing_sets(surface, bound)
    ]
    arcs = 0
    for surface, k in sets:
        if not sf.is_colorable(surface, k):
            continue
        e = sf.euler_grading(surface, k)
        for side in ("inner", "outer"):
            for arc in _arcs_from_side(surface, k, side):
                if arc.cross_chord in (arc.start_chord, arc.end_chord):
                    continue
                arcs += 1
                for result in sf.bypass_triple(surface, k, arc):
                    assert all(r <= c and (c - r) % 2 == 0
                               for r, c in zip(result.crossings, k.crossings))
                    assert sf.is_colorable(surface, result)
                    if result.closed == k.closed:
                        assert sf.euler_grading(surface, result) == e
    assert arcs == 11174


def test_bypass_members_are_canonical():
    # A member is reduced when its rotated chords hold a bigon, and every
    # member is when k holds one, since a chord the bypass keeps can then
    # be a bigon.  So members are canonical whatever k is.
    rng = random.Random(22)
    with_bigon = 0
    for surface in REGION_SURFACES:
        for k in _random_sets(surface, rng, 100):
            if not sf.is_colorable(surface, k):
                continue
            with_bigon += sf.canonicalize(surface, k) is not k
            for arc, front, back in sf.iter_bypass_surgeries(surface, k):
                for member in (front, back, *sf.bypass_triple(surface, k, arc)):
                    assert sf.canonicalize(surface, member) is member
    assert with_bigon


def _arcs_from_side(surface, k, side):
    """Every arc from a chord on the given side of a cross chord to one on the other."""
    layout = sf.layout_of(surface, k)
    for p in range(surface.num_pieces):
        _, _, chord_sides = reference_faces(layout.num_slots(p), k.chords[p])
        adjacent = {}
        for chord, sides in chord_sides.items():
            for face in sides:
                adjacent.setdefault(face, []).append(chord)
        for cross in k.chords[p]:
            inner, outer = chord_sides[cross]
            f0, f1 = (inner, outer) if side == "inner" else (outer, inner)
            for start in adjacent[f0]:
                for end in adjacent[f1]:
                    yield sf.BypassArc(p, start, cross, end, side)


def _triple_or_none(surface, k, arc):
    try:
        return frozenset(sf.bypass_triple(surface, k, arc))
    except sf.BypassError:
        return None


PRUNING_CASES = [(sf.disk(2 * n), 0) for n in (2, 3, 4)] + [
    (sf.annulus(2, 2), 2),
    (sf.punctured_torus(2), 2),
]


@pytest.mark.parametrize("surface,bound", PRUNING_CASES)
def test_reversed_arc_gives_same_pair(surface, bound):
    # The inner arc (s, c, e) is the outer arc (e, c, s) traversed backwards.
    for k in sf.enumerate_dividing_sets(surface, bound):
        for arc in _arcs_from_side(surface, k, "inner"):
            if arc.cross_chord in (arc.start_chord, arc.end_chord):
                continue
            reverse = sf.BypassArc(arc.piece, arc.end_chord, arc.cross_chord,
                                   arc.start_chord, "outer")
            assert _triple_or_none(surface, k, arc) == \
                _triple_or_none(surface, k, reverse)


def test_trivial_bypass_on_single_chord():
    # Every arc on the 2-point disk starts or ends on the chord it crosses:
    # bypass_triple rejects it and enumeration yields nothing.
    surface = sf.disk(2)
    k = sf.make_dividing_set((), [[(0, 1)]])
    arcs = [arc for side in ("inner", "outer") for arc in _arcs_from_side(surface, k, side)]
    assert arcs
    for arc in arcs:
        with pytest.raises(sf.BypassError, match="trivial"):
            sf.bypass_triple(surface, k, arc)
    assert list(sf.iter_bypass_surgeries(surface, k)) == []


BYPASS_DIGEST_CASES = [(sf.disk(2 * n), 0) for n in (2, 3, 4, 5)] + [
    (sf.annulus(2, 2), 3),
    (sf.annulus(2, 2, (sf.POS, sf.NEG)), 2),
    (sf.punctured_torus(2), 3),
]

# sha256 of the ordered bypass records below, recorded before bypass
# surgery became a rotation of the six endpoints.
BYPASS_DIGEST = "4def2d21a824aa86745f10d7be33e090cfd71e7ddbf1c2e6bb98a4ca6b172787"


def _bypass_records(surface, bound):
    for k in sf.enumerate_dividing_sets(surface, bound):
        for side in ("inner", "outer"):
            for arc in _arcs_from_side(surface, k, side):
                if arc.cross_chord in (arc.start_chord, arc.end_chord):
                    continue
                try:
                    front, back = sf.bypass_triple(surface, k, arc)
                    result = (front.encode(), back.encode())
                except sf.BypassError as exc:
                    result = ("error", str(exc))
                yield (arc.piece, arc.start_chord, arc.cross_chord, arc.end_chord,
                       side, result)
        for arc, front, back in sf.iter_bypass_surgeries(surface, k):
            yield (k.encode(), arc.piece, arc.start_chord, arc.cross_chord,
                   arc.end_chord, arc.start_side, front.encode(), back.encode())


def test_bypass_outputs_digest():
    # Locks the ordered (front, back) of every nontrivial arc of
    # bypass_triple, from both sides, and every surgery enumeration yields.
    digest = hashlib.sha256()
    for surface, bound in BYPASS_DIGEST_CASES:
        for record in _bypass_records(surface, bound):
            digest.update(repr(record).encode())
    assert digest.hexdigest() == BYPASS_DIGEST


NONCANONICAL_BYPASS_SETS_PER_SURFACE = 60

# sha256 of the ordered records of _noncanonical_bypass_records, recorded
# while bypass_triple still decided adjacency from _nest.
NONCANONICAL_BYPASS_DIGEST = "1f798a479516c04376e35b8d14b51c4ca6f658056a12309e64f933627951f74c"


def _noncanonical_bypass_records():
    """Bypass records of seeded colorable sets that hold a bigon.

    Every arc of _arcs_from_side from both sides, trivial ones included,
    and one random triple of distinct chords per piece, which is mostly
    not adjacent, through bypass_triple with errors by message; then
    every surgery of iter_bypass_surgeries.  Every member of these sets'
    triples is reduced, a path the generators of BYPASS_DIGEST never take.
    """
    rng, pick = random.Random(30), random.Random(31)
    for surface in REGION_SURFACES:
        for k in _random_sets(surface, rng, NONCANONICAL_BYPASS_SETS_PER_SURFACE):
            if not sf.is_colorable(surface, k) or sf.canonicalize(surface, k) is k:
                continue
            arcs = [arc for side in ("inner", "outer")
                    for arc in _arcs_from_side(surface, k, side)]
            arcs += [sf.BypassArc(p, *pick.sample(chords, 3), pick.choice(("inner", "outer")))
                     for p, chords in enumerate(k.chords) if len(chords) >= 3]
            for arc in arcs:
                try:
                    front, back = sf.bypass_triple(surface, k, arc)
                    result = (front.encode(), back.encode())
                except sf.BypassError as exc:
                    result = ("error", str(exc))
                yield k.encode(), tuple(arc), result
            for arc, front, back in sf.iter_bypass_surgeries(surface, k):
                yield k.encode(), tuple(arc), front.encode(), back.encode()


def test_noncanonical_bypass_outputs_digest():
    # Locks bypass_triple and iter_bypass_surgeries on sets with a bigon,
    # whose members are all reduced, as BYPASS_DIGEST does on generators.
    digest = hashlib.sha256()
    records = 0
    for record in _noncanonical_bypass_records():
        digest.update(repr(record).encode())
        records += 1
    assert records > 0
    assert digest.hexdigest() == NONCANONICAL_BYPASS_DIGEST


def _reference_arcs(layout, k):
    """The bypass arc walk as it was before it read rotations from chord nesting.

    The faces of each piece come from reference_faces, an adjacency dict
    lists the chords bounding each face, and each arc's six endpoints are
    sorted to find its rotation.
    """
    for p, piece_chords in enumerate(k.chords):
        _, _, chord_sides = reference_faces(layout.num_slots(p), piece_chords)
        adjacency = {}
        for chord, sides in chord_sides.items():
            for face in sides:
                adjacency.setdefault(face, []).append(chord)
        for cross, (inner, outer) in chord_sides.items():
            for start in adjacency[outer]:
                for end in adjacency[inner]:
                    if cross != start and cross != end:
                        q = sorted(s for chord in (start, cross, end) for s in chord)
                        partner = next(b for a, b in (start, cross, end) if a == q[0])
                        i = (q[5], q[1], q[3]).index(partner)
                        yield p, (start, cross, end), tuple(q), i


ARC_WALK_CASES = BYPASS_DIGEST_CASES + [
    (sf.disk(12), 0),
    (sf.annulus(4, 4), 3),
    (sf.punctured_torus(4), 3),
]


@functools.cache
def _layout_g_generators():
    """The first 300 generators of genus 2 layout G at bound 3 with bigon slots.

    Layout G has four seams in one piece; the other walk cases have at
    most two.
    """
    surface = genus2_layout_g()
    with_bigons = (k for k in sf.enumerate_dividing_sets(surface, 3)
                   if surface.layout(k.crossings).bigon_slots[0])
    return [(surface, k) for k in itertools.islice(with_bigons, 300)]


def _case_generators():
    return [
        (surface, k)
        for surface, bound in ARC_WALK_CASES
        for k in sf.enumerate_dividing_sets(surface, bound)
    ]


def _checked_arcs(sets):
    """The number of arcs of the sets, each set's walk checked against the reference."""
    arcs = 0
    for surface, k in sets:
        layout = sf.validate_dividing_set(surface, k)
        got = [(p, tuple(k.chords[p][j] for j in arc), tuple(q), i)
               for p, arc, q, i in sf._arcs(k)]
        assert got == list(_reference_arcs(layout, k))
        arcs += len(got)
    return arcs


def test_arc_walk_matches_reference():
    # The same arcs, rotations and order as the sorting walk, on every
    # generator of these cases and on seeded random sets, canonical or
    # not, and on layout G's first generators with bigon slots.
    rng = random.Random(20)
    sets = _case_generators() + [
        (surface, k) for surface in REGION_SURFACES for k in _random_sets(surface, rng, 100)
    ]
    assert _checked_arcs(sets) == 4565
    assert _checked_arcs(_layout_g_generators()) == 3452


def _checked_owned(sets):
    """The number of owned surgeries of the sets, each set's checked against the reference."""
    owned = 0
    for surface, k in sets:
        layout = sf.validate_dividing_set(surface, k)
        expected = []
        for p, arc_chords, q, i in _reference_arcs(layout, k):
            bigons = layout.bigon_slots[p]
            if i == 0 or bigons and sf._owns(bigons, q, i):
                arc = tuple(map(k.chords[p].index, arc_chords))
                expected.append(sf._rotate(layout, k, p, arc, q, i))
        assert list(sf.owned_bypass_surgeries(surface, k)) == expected
        owned += len(expected)
    return owned


def test_owned_walk_matches_reference():
    # The owned walk rotates, in order, exactly the reference arcs whose
    # set owns the triple: every parent arc, and a sibling arc only where
    # _owns says so on a piece with bigon slots.
    _checked_owned(_case_generators())
    assert _checked_owned(_layout_g_generators()) == 2761


def test_bypass_on_lens_circle_configuration_gives_cross_arcs():
    # The arc from one boundary-parallel arc, across the core circle, to
    # the other boundary-parallel arc replaces the lens-plus-circle
    # configuration by the straight and the once-twisted cross arcs.
    surface = sf.annulus(2, 2)
    k0p = sf.make_dividing_set((2,), [[(2, 3), (1, 4), (0, 7), (5, 6)]])
    arc = sf.BypassArc(0, start_chord=(2, 3), cross_chord=(1, 4),
                       end_chord=(0, 7), start_side="inner")
    front, back = sf.bypass_triple(surface, k0p, arc)
    assert front == sf.make_dividing_set((0,), [[(0, 3), (1, 2)]])
    assert back == sf.make_dividing_set((2,), [[(0, 3), (1, 2), (4, 7), (5, 6)]])


def test_bypass_arc_validation():
    surface = sf.disk(6)
    k = sf.make_dividing_set((), [[(0, 1), (2, 5), (3, 4)]])
    with pytest.raises(sf.BypassError, match="not part"):
        sf.bypass_triple(surface, k, sf.BypassArc(0, (0, 2), (2, 5), (3, 4)))
    with pytest.raises(sf.BypassError, match="adjacent"):
        # (0, 1) and (3, 4) are separated by (2, 5): no single-crossing arc.
        sf.bypass_triple(surface, k, sf.BypassArc(0, (0, 1), (3, 4), (2, 5),
                                                  start_side="inner"))


def test_bypass_arc_piece_must_exist():
    surface = sf.disk(6)
    k = sf.make_dividing_set((), [[(0, 1), (2, 5), (3, 4)]])
    for piece in (-1, 1, 0.0):
        with pytest.raises(sf.BypassError, match=f"piece {piece} is not a piece"):
            sf.bypass_triple(surface, k, sf.BypassArc(piece, (0, 1), (2, 5), (3, 4)))
    # A bool is an int to isinstance, but no piece: True was taken as piece 1.
    union = sf.disjoint_union(surface, surface)
    ku = sf.make_dividing_set((), [k.chords[0], k.chords[0]])
    for piece in (True, False):
        with pytest.raises(sf.BypassError, match=f"piece {piece} is not a piece"):
            sf.bypass_triple(union, ku, sf.BypassArc(piece, (0, 1), (2, 5), (3, 4)))
    assert sf.bypass_triple(union, ku, sf.BypassArc(1, (0, 1), (2, 5), (3, 4)))


@pytest.mark.parametrize("chord", [(0.0, 1.0), (0, 1.0), [0, 1], None, (False, True)])
def test_bypass_arc_chords_must_be_int_pairs(chord):
    # An int-valued float or a bool finds the chord (0, 1) by equality;
    # the triple would then carry endpoints that are no ints.
    surface = sf.disk(6)
    k = sf.make_dividing_set((), [[(0, 1), (2, 5), (3, 4)]])
    with pytest.raises(sf.BypassError, match="is not part of the dividing set"):
        sf.bypass_triple(surface, k, sf.BypassArc(0, chord, (2, 5), (3, 4)))
    assert sf.bypass_triple(surface, k, sf.BypassArc(0, (0, 1), (2, 5), (3, 4)))


def test_annulus_enumeration_contains_named_configurations():
    surface = sf.annulus(2, 2)
    got = {k.encode() for k in sf.enumerate_dividing_sets(surface, 2)}
    named = {
        "two-plus-lenses": sf.make_dividing_set((0,), [[(0, 1), (2, 3)]]),
        "two-minus-lenses": sf.make_dividing_set(
            (2,), [[(0, 7), (1, 2), (3, 4), (5, 6)]]
        ),
        "cross-arcs": sf.make_dividing_set((0,), [[(0, 3), (1, 2)]]),
        "twisted-cross-arcs": sf.make_dividing_set(
            (2,), [[(0, 3), (1, 2), (4, 7), (5, 6)]]
        ),
        "lenses-with-circle-a": sf.make_dividing_set(
            (2,), [[(2, 3), (1, 4), (0, 7), (5, 6)]]
        ),
        "lenses-with-circle-b": sf.make_dividing_set(
            (2,), [[(0, 5), (1, 2), (3, 4), (6, 7)]]
        ),
    }
    for name, k in named.items():
        assert k.encode() in got, name


def test_annulus_bypass_relates_circle_and_cross_configurations():
    # The configuration with two opposite lenses and a core circle admits
    # a bypass onto the two twisted cross-arc configurations.
    surface = sf.annulus(2, 2)
    side0, (m0, m1), side1, (m2, m3) = annulus_slots(2)
    k0p = sf.make_dividing_set(
        (2,),
        [[(m0, m1), (side0[1], side1[0]), (side0[0], m3), (side1[1], m2)]],
    )
    assert sf.euler_grading(surface, k0p) == 0
    found = set()
    for _, front, back in sf.iter_bypass_surgeries(surface, k0p):
        if front.closed == 0 and back.closed == 0:
            found.add((front.encode(), back.encode()))
    cross_straight = sf.make_dividing_set((0,), [[(0, 1 + 2), (1, 2)]])
    # the straight cross arcs use slots (m0, m3), (m1, m2) at r=0
    cross_straight = sf.make_dividing_set((0,), [[(0, 3), (1, 2)]])
    encodings = {e for pair in found for e in pair}
    assert cross_straight.encode() in encodings
