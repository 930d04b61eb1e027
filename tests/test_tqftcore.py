"""Module construction, class vectors, and the independent sub-disk oracle."""

from __future__ import annotations

import functools
import random
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvetqft import gf2
from curvetqft import gluemaps as gm
from curvetqft import surfaces as sf
from curvetqft import tqftcore as tc
from test_digests import SEAM_DIGESTS, _seam_surface
from test_surfaces import MODULE_DIGEST_CASES


def test_gf2_rref_basics():
    rows = [0b111, 0b011, 0b100]
    reduced, pivots = gf2.rref(rows)
    assert gf2.rank(rows) == 2
    assert pivots == [0, 2]
    # Pivot columns are cleared in all other rows.
    for i, row in enumerate(reduced):
        for j, p in enumerate(pivots):
            assert ((row >> p) & 1) == (i == j)


def _reference_rref(rows):
    """gf2.rref with the pivot-by-pivot back-substitution, kept verbatim."""
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            p = gf2.lowest_bit(row)
            if p in basis:
                row ^= basis[p]
            else:
                basis[p] = row
                break
    # Back-substitute so pivot columns are cleared everywhere else.
    pivots = sorted(basis)
    for p in pivots:
        for q in pivots:
            if q != p and (basis[q] >> p) & 1:
                basis[q] ^= basis[p]
    return [basis[p] for p in pivots], pivots


# Each builds a fresh container, so a generator is consumed only once.
CONTAINERS = {
    "list": list,
    "set": set,
    "generator": lambda rows: (row for row in rows),
}


@pytest.mark.parametrize("make", CONTAINERS.values(), ids=CONTAINERS)
@pytest.mark.parametrize("rows", [
    [], [0], [0, 0, 0], [5, 5, 5], [0b110, 0b011, 0b101],
    [1 << 299, 1 << 299 | 1, 1], [0b1011, 0, 0b1011, 0b0110, 0b1101],
])
def test_gf2_rref_edge_cases_match_reference(rows, make):
    assert gf2.rref(make(rows)) == _reference_rref(list(rows))


@settings(max_examples=300, deadline=None)
@given(
    width=st.sampled_from([1, 3, 12, 64, 300]),
    data=st.data(),
    make=st.sampled_from(list(CONTAINERS.values())),
)
def test_gf2_rref_matches_reference(width, data, make):
    # Rows are sums of a few random rows, so zero, repeated and dependent
    # rows all occur.
    word = st.integers(min_value=0, max_value=(1 << width) - 1)
    base = data.draw(st.lists(word, max_size=12))
    masks = data.draw(st.lists(st.integers(0, (1 << len(base)) - 1), max_size=40))
    rows = base + [
        functools.reduce(xor, (b for j, b in enumerate(base) if m >> j & 1), 0)
        for m in masks
    ]
    assert gf2.rref(make(rows)) == _reference_rref(list(rows))


@pytest.mark.parametrize("seed", range(4))
def test_gf2_rref_matches_reference_on_wide_rows(seed):
    # Up to 300 bits and 400 rows, with rank well below the row count.
    rng = random.Random(seed)
    base = [rng.getrandbits(300) >> rng.randrange(300) for _ in range(150)]
    rows = [
        functools.reduce(xor, rng.sample(base, rng.randrange(4)), 0)
        for _ in range(400)
    ]
    for make in CONTAINERS.values():
        assert gf2.rref(make(rows)) == _reference_rref(list(rows))


@pytest.mark.parametrize("n,rank", [(n, 2 ** (n - 1)) for n in range(1, 8)])
def test_disk_module_ranks(n, rank):
    # V^(n-1) with V = GF(2) in gradings +1 and -1: the piece of grading
    # n-1-2j has rank binom(n-1, j).
    m = tc.build_module(sf.disk(2 * n), 0)
    assert m.rank == rank == m.expected_rank
    assert not m.warnings
    assert m.graded_ranks() == tc.expected_graded_ranks(m.surface)


def test_disk_three_graded_ranks():
    m = tc.build_module(sf.disk(6), 0)
    graded = m.graded_ranks()
    assert graded == {2: 1, 0: 2, -2: 1}
    assert graded[0] == 2
    assert graded[2] == 1
    assert 17 not in graded


def test_disk_four_graded_ranks():
    m = tc.build_module(sf.disk(8), 0)
    graded = m.graded_ranks()
    assert graded == {3: 1, 1: 3, -1: 3, -3: 1}
    assert graded[3] == 1
    assert graded[1] == 3


def test_superposition_on_middle_classes():
    m = tc.build_module(sf.disk(6), 0)
    k1 = sf.make_dividing_set((), [[(0, 3), (1, 2), (4, 5)]])
    k2 = sf.make_dividing_set((), [[(0, 5), (1, 4), (2, 3)]])
    k3 = sf.make_dividing_set((), [[(0, 1), (2, 5), (3, 4)]])
    v1, v2, v3 = (tc.class_of(m, k) for k in (k1, k2, k3))
    assert v1.coords ^ v2.coords == v3.coords
    assert v1.coords ^ v2.coords ^ v3.coords == 0
    assert len({v1.coords, v2.coords, v3.coords}) == 3


def test_contractible_component_gives_zero():
    m = tc.build_module(sf.disk(4), 0)
    k = sf.make_dividing_set((), [[(0, 1), (2, 3)]], closed=1)
    v = tc.class_of(m, k)
    assert v.is_zero and v.coords == 0


def test_class_respects_canonical_form():
    # A wiggly presentation reduces to the straight one and gets its class.
    surface = sf.annulus(2, 2)
    m = tc.build_module(surface, 2)
    straight = sf.make_dividing_set((0,), [[(0, 1), (2, 3)]])
    wiggly = sf.make_dividing_set(
        (2,), [[(1, 2), (4, 5), (0, 3), (6, 7)]]
    )
    assert sf.canonicalize(surface, wiggly) == straight
    assert tc.class_of(m, wiggly).coords == tc.class_of(m, straight).coords


def test_bound_exceeded():
    surface = sf.annulus(2, 2)
    m = tc.build_module(surface, 1)
    twisted = sf.make_dividing_set((2,), [[(0, 3), (1, 2), (4, 7), (5, 6)]])
    with pytest.raises(tc.BoundExceededError):
        tc.class_of(m, twisted)


def test_generator_index_refuses_a_set_beyond_the_bound():
    surface = sf.annulus(2, 2)
    twisted = sf.make_dividing_set((2,), [[(0, 3), (1, 2), (4, 7), (5, 6)]])
    m = tc.build_module(surface, 2)
    assert m.generators[m.generator_index(twisted)] == twisted
    with pytest.raises(tc.BoundExceededError, match="not among the generators at this bound"):
        tc.build_module(surface, 1).generator_index(twisted)


def test_class_of_rejects_unnormalized_chords():
    m = tc.build_module(sf.disk(4), 0)
    assert tc.class_of(m, sf.make_dividing_set((), [[(1, 0), (3, 2)]])).coords == 1
    for chords in ((((1, 0), (3, 2)),), (((2, 3), (0, 1)),)):
        with pytest.raises(sf.DividingSetError, match="make_dividing_set"):
            tc.class_of(m, sf.DividingSet((), chords, 0))


@pytest.mark.parametrize(
    "k",
    [
        sf.DividingSet([], (((0, 1), (2, 3)),), 0),
        sf.DividingSet((), ([(0, 1), (2, 3)],), 0),
        sf.DividingSet((), (((0, 1), [2, 3]),), 0),
    ],
    ids=["crossings-list", "piece-list", "chord-list"],
)
def test_class_of_rejects_unhashable_sets(k):
    m = tc.build_module(sf.disk(4), 0)
    with pytest.raises(sf.DividingSetError, match="must hold tuples"):
        tc.class_of(m, k)


@pytest.mark.parametrize(
    "k",
    [
        sf.DividingSet((), ((0, 1),), 0),
        sf.DividingSet((), (((0, 1, 2),),), 0),
        sf.DividingSet((), (((0, 1), (2, 3)),), 0.5),
        sf.DividingSet((), (((0.0, 1.0), (2, 3)),), 0),
        sf.DividingSet((), (((0, 1), (2, 3.0)),), 0),
        sf.DividingSet(5, (((0, 1), (2, 3)),), 0),
        sf.DividingSet((), None, 0),
    ],
    ids=["bare-int-chord", "three-element-chord", "fractional-closed",
         "float-chord", "float-high-end", "int-crossings", "none-chords"],
)
def test_class_of_rejects_malformed_sets(k):
    # Each used to escape as a TypeError or ValueError, or (the fractional
    # closed count and the int-valued float chords, graded 1.0) to be
    # answered.  The last two had no length to check.
    m = tc.build_module(sf.disk(4), 0)
    with pytest.raises(sf.DividingSetError, match="must be ints"):
        tc.class_of(m, k)
    with pytest.raises(sf.DividingSetError, match="must be ints"):
        sf.euler_grading(m.surface, k)


def test_class_of_rejects_a_fractional_crossing_count():
    m = tc.build_module(sf.annulus(2, 2), 2)
    k = sf.DividingSet((2.0,), (((0, 1), (2, 3), (4, 5), (6, 7)),), 0)
    with pytest.raises(sf.DividingSetError, match="must be ints"):
        tc.class_of(m, k)


def _random_pairing(rng: random.Random, lo: int, hi: int) -> list:
    """A random non-crossing perfect matching of range(lo, hi)."""
    if lo >= hi:
        return []
    partner = rng.randrange(lo + 1, hi, 2)
    return ([(lo, partner)] + _random_pairing(rng, lo + 1, partner)
            + _random_pairing(rng, partner + 1, hi))


def _reference_coords(m, idx):
    """Generator idx in the quotient basis, by the pivot and basis walks, kept verbatim."""
    vec = 1 << idx
    for row, p in zip(m.reduced_rows, m.pivots):
        if (vec >> p) & 1:
            vec ^= row
    coords = 0
    for pos, gen_idx in enumerate(m.basis_indices):
        if (vec >> gen_idx) & 1:
            coords |= 1 << pos
    return coords


def _noncanonical_stream(surface, bound, count, seed):
    """Colorable sets with up to bound + 2 crossings (so bigons) and circles."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        crossings = tuple(rng.randrange(bound + 3) for _ in range(surface.num_pairs))
        layout = sf.layout_of(surface, sf.DividingSet(crossings, (), 0))
        slots = [layout.num_slots(p) for p in range(surface.num_pieces)]
        if any(n % 2 for n in slots):
            continue
        chords = [_random_pairing(rng, 0, n) for n in slots]
        k = sf.make_dividing_set(crossings, chords, rng.choice((0, 0, 0, 1)))
        if sf.is_colorable(surface, k):
            out.append(k)
    return out


@pytest.mark.parametrize(
    "surface,bound",
    [(sf.disk(8), 0), (sf.annulus(2, 2), 3), (sf.punctured_torus(2), 3)],
)
def test_class_of_matches_region_analysis(surface, bound):
    m = tc.build_module(surface, bound)
    queries = _noncanonical_stream(surface, bound, 150, seed=bound)
    for k in queries:
        canonical = sf.canonicalize(surface, k)
        if any(c > bound for c in canonical.crossings) and canonical.closed == 0:
            with pytest.raises(tc.BoundExceededError):
                tc.class_of(m, k)
            continue
        v = tc.class_of(m, k)
        assert v.grading == sf.euler_grading(surface, canonical)
        assert v.is_zero == sf.is_isolating(surface, k)
        if canonical.closed:
            assert v.coords == 0
        else:
            assert v.coords == _reference_coords(m, m.generator_index(canonical))
    # Bigons need identified segments; a disk set differs only by circles.
    assert any(k.closed for k in queries)
    assert surface.num_pairs == 0 or any(
        sf.canonicalize(surface, k).crossings != k.crossings for k in queries
    )


def test_class_of_miss_path_errors():
    surface = sf.annulus(2, 2)
    m = tc.build_module(surface, 3)
    # Canonical and within the bound, but not colorable.
    uncolorable = sf.make_dividing_set((3,), [[(0, 5), (1, 4), (2, 3), (6, 9), (7, 8)]])
    assert sf.canonicalize(surface, uncolorable) is uncolorable
    assert not sf.is_colorable(surface, uncolorable)
    with pytest.raises(sf.ColoringError):
        tc.class_of(m, uncolorable)
    # A generator at bound 4 that lies beyond bound 3.
    beyond = sf.make_dividing_set(
        (4,), [[(0, 9), (1, 8), (2, 7), (3, 6), (4, 5), (10, 11)]]
    )
    assert beyond in tc.build_module(surface, 4).generators
    with pytest.raises(tc.BoundExceededError):
        tc.class_of(m, beyond)
    # With a contractible circle its class is zero, graded as the set.
    circled = sf.make_dividing_set(beyond.crossings, beyond.chords, closed=1)
    v = tc.class_of(m, circled)
    assert v.is_zero and v.coords == 0
    assert v.grading == sf.euler_grading(surface, beyond) == 2


def test_distinct_classes_report():
    m = tc.build_module(sf.disk(6), 0)
    ms = sf.enumerate_matchings(3)
    report = tc.distinct_classes(m, ms)
    assert report.all_nonzero and report.all_distinct

    doubled = tc.distinct_classes(m, ms + [ms[0]])
    assert not doubled.all_distinct
    assert (0, len(ms)) in doubled.equal_pairs


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_disk_oracle_agreement(n):
    # The sub-disk rows over freshly enumerated matchings are the build's.
    m = tc.build_module(sf.disk(2 * n), 0)
    assert tc.subdisk_relations(m.surface, sf.enumerate_matchings(n)) == \
        frozenset(m.relation_rows)


# Every module digest surface; SEAM_DIGESTS holds disk(14).
ORACLE_CASES = MODULE_DIGEST_CASES + [
    (_seam_surface(name), bound) for name, bound in SEAM_DIGESTS
]


def test_subdisk_oracle_gives_the_relation_rows():
    # Row for row on surfaces with seams too, where the ownership rule
    # decides which member realizes a triple.
    for surface, bound in ORACLE_CASES:
        m = tc.build_module(surface, bound)
        assert tc.subdisk_relations(surface, m.generators) == frozenset(m.relation_rows), \
            (surface, bound)


def test_class_coordinates_are_the_quotient_map():
    # class_of on generators is the quotient map onto the basis positions:
    # it kills every relation row, fixes the basis, and agrees with the
    # reference walks, on every oracle surface and through the gluing maps.
    for surface, bound in ORACLE_CASES:
        m = tc.build_module(surface, bound)
        coords = [tc.class_of(m, g).coords for g in m.generators]
        for row in m.relation_rows:
            assert functools.reduce(xor, (coords[i] for i in gf2.set_bits(row)), 0) == 0
        for pos, idx in enumerate(m.basis_indices):
            assert coords[idx] == 1 << pos
        assert coords == [_reference_coords(m, idx) for idx in range(len(coords))], \
            (surface, bound)
    for j in range(3):
        result, m_src, m_tgt = gm.attach_arc_map(tc.build_module, 3, j)
        info = gm.glue_surfaces(gm.attach_arc_datum(3, j))
        expected = []
        for idx in m_src.basis_indices:
            image = gm.map_dividing_set(info, m_src.generators[idx])
            image = sf.canonicalize(m_tgt.surface, image)
            expected.append(
                0 if image.closed else _reference_coords(m_tgt, m_tgt.generator_index(image))
            )
        assert result.basis_columns == tuple(expected)


def test_relation_rows_are_homogeneous():
    for surface, bound in ((sf.disk(8), 0), (sf.annulus(2, 2), 2)):
        m = tc.build_module(surface, bound)
        for row in m.relation_rows:
            gradings = {m.gradings[i] for i in range(len(m.generators)) if (row >> i) & 1}
            assert len(gradings) == 1


def test_bypass_relation_closure():
    # Every surgery triple sums to zero in the quotient.
    surface = sf.annulus(2, 2)
    m = tc.build_module(surface, 2)
    for g in m.generators:
        vg = tc.class_of(m, g)
        for _, front, back in sf.iter_bypass_surgeries(surface, g):
            total = vg.coords ^ tc.class_of(m, front).coords ^ tc.class_of(m, back).coords
            assert total == 0


def test_annulus_identities():
    surface = sf.annulus(2, 2)
    m = tc.build_module(surface, 3)
    cross = sf.make_dividing_set((0,), [[(0, 3), (1, 2)]])
    twisted = sf.make_dividing_set((2,), [[(0, 3), (1, 2), (4, 7), (5, 6)]])
    circle_a = sf.make_dividing_set((2,), [[(2, 3), (1, 4), (0, 7), (5, 6)]])
    circle_b = sf.make_dividing_set((2,), [[(0, 5), (1, 2), (3, 4), (6, 7)]])
    va, vb = tc.class_of(m, circle_a), tc.class_of(m, circle_b)
    v0, v1 = tc.class_of(m, cross), tc.class_of(m, twisted)
    assert va.coords == vb.coords and not va.is_zero
    assert va.coords == v0.coords ^ v1.coords
    assert v0.coords != v1.coords
    assert va.grading == v0.grading == v1.grading == 0


def test_rank_warning_below_stability():
    m = tc.build_module(sf.annulus(2, 2), 0)
    assert m.rank == 2 and m.expected_rank == 4
    assert m.warnings


def test_expected_graded_ranks_are_binomial():
    # N = n - chi: 2 for the annulus(2,2), 3 for the disk with 8 marks,
    # 4 for punctured_torus(2) plus annulus(2,2).
    assert tc.expected_graded_ranks(sf.annulus(2, 2)) == {2: 1, 0: 2, -2: 1}
    assert tc.expected_graded_ranks(sf.disk(8)) == {3: 1, 1: 3, -1: 3, -3: 1}
    union = sf.disjoint_union(sf.punctured_torus(2), sf.annulus(2, 2))
    assert tc.expected_graded_ranks(union) == {4: 1, 2: 4, 0: 6, -2: 4, -4: 1}
    for surface in (sf.disk(2), sf.disk(12), union):
        assert tc.build_module(surface, 0).expected_rank == \
            sum(tc.expected_graded_ranks(surface).values())


@pytest.mark.parametrize("bound", [-1, 1.5, "1", True, False])
def test_build_rejects_a_bound_that_is_not_a_count(bound):
    # A bool is an int to isinstance, but no count: True would be stored
    # as the module's bound.
    with pytest.raises(sf.DividingSetError, match="crossing bound must be an int >= 0"):
        tc.build_module(sf.disk(4), bound)
    with pytest.raises(sf.DividingSetError, match="crossing bound must be an int >= 0"):
        sf.enumerate_dividing_sets(sf.disk(4), bound)


def test_graded_rank_mismatch_warns(monkeypatch):
    # Same total as the true {2: 1, 0: 2, -2: 1}, other grading pieces.
    monkeypatch.setattr(tc, "expected_graded_ranks", lambda surface: {2: 2, -2: 2})
    m = tc.build_module(sf.annulus(2, 2), 3)
    assert m.rank == m.expected_rank == 4
    assert m.warnings == (
        "graded ranks {-2: 1, 0: 2, 2: 1} differ from the expected {-2: 2, 2: 2}",
    )


# Disks are covered by test_disk_module_ranks.
FULL_RANK_PRESETS = [
    (sf.annulus(a, b, corners), 3)
    for a, b in ((2, 2), (2, 4), (4, 2))
    for corners in ((sf.NEG, sf.NEG), (sf.NEG, sf.POS), (sf.POS, sf.NEG), (sf.POS, sf.POS))
] + [(sf.punctured_torus(m), 3) for m in (2, 4)] + [
    (sf.disjoint_union(sf.disk(4), sf.annulus(2, 2)), 3),
]


@pytest.mark.parametrize("surface,bound", FULL_RANK_PRESETS)
def test_full_rank_presets_have_binomial_graded_ranks(surface, bound):
    m = tc.build_module(surface, bound)
    assert m.rank == m.expected_rank
    assert m.graded_ranks() == tc.expected_graded_ranks(surface)
    assert not m.warnings


def test_build_realizes_each_row_once(monkeypatch):
    # Every bypass on a disk is realizable, and each triple is realized
    # from one of its three members only: its owner.  On a disk that is
    # one rotation per relation row.  On a surface with seams the owner
    # can meet the same row again along another arc, when both other
    # members reduce to the same sets: the torus build makes 466 owned
    # surgeries for 280 rows, and annulus(2,2) at bound 4 makes 30 for 13.
    # The arc walk reads each rotation from how the chords nest.  An arc
    # from the parent chord always owns its triple, and on a piece with no
    # bigon slots no other arc does, so the walk yields no other arc there;
    # _owns decides the rest.  A disk build never calls it, and the torus
    # build calls it for 263 of its 606 arcs.  Only a member whose rotated
    # chords hold a bigon is reduced, and each generator is graded once.
    # The reduction builds its sorted chords itself, with no
    # make_dividing_set.  The _reduce counts pin the reduction work of the
    # whole glued ladder.
    cases = [
        (sf.disk(12), 0, 220,
         {"_rotate": 220, "_owns": 0, "make_dividing_set": 0,
          "_arcs": 220, "_reduce": 0, "grading": 132}),
        (sf.punctured_torus(4), 3, 280,
         {"_rotate": 466, "_owns": 263,
          "make_dividing_set": 0, "_arcs": 606, "_reduce": 776, "grading": 100}),
        (sf.annulus(2, 2), 3, 5,
         {"_rotate": 6, "_owns": 6,
          "make_dividing_set": 0, "_arcs": 10, "_reduce": 8, "grading": 8}),
        (sf.annulus(2, 2), 4, 13,
         {"_rotate": 30, "_owns": 12,
          "make_dividing_set": 0, "_arcs": 34, "_reduce": 56, "grading": 14}),
        (sf.annulus(4, 4), 3, 138,
         {"_rotate": 146, "_owns": 188,
          "make_dividing_set": 0, "_arcs": 312, "_reduce": 110, "grading": 76}),
        (sf.punctured_torus(2), 3, 57,
         {"_rotate": 112, "_owns": 52,
          "make_dividing_set": 0, "_arcs": 130, "_reduce": 204, "grading": 30}),
    ]
    calls = {}

    def counting(fn, name):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in ("_rotate", "_owns", "make_dividing_set", "_reduce"):
        monkeypatch.setattr(sf, name, counting(getattr(sf, name), name))
    monkeypatch.setattr(sf.SlotLayout, "grading", counting(sf.SlotLayout.grading, "grading"))
    arcs = sf._arcs

    def counted_arcs(*args):
        for arc in arcs(*args):
            calls["_arcs"] += 1  # arcs yielded, not walks begun
            yield arc

    monkeypatch.setattr(sf, "_arcs", counted_arcs)
    for surface, bound, rows, expected in cases:
        calls.update(dict.fromkeys(expected, 0))
        m = tc.build_module(surface, bound)
        assert len(m.relation_rows) == rows
        assert calls == expected


@pytest.mark.parametrize("surface,bound", [(sf.disk(12), 0), (sf.annulus(2, 2), 3)])
def test_build_reduces_all_rows_in_one_rref(monkeypatch, surface, bound):
    calls = []
    rref = gf2.rref
    monkeypatch.setattr(gf2, "rref", lambda rows: calls.append(rows) or rref(rows))
    m = tc.build_module(surface, bound)
    assert len(calls) == 1
    assert sorted(calls[0]) == list(m.relation_rows)


def test_grading_fault_is_loud(monkeypatch):
    # A grading that changes when the nested chord (0, 5) of disk(6) is
    # rotated away puts one bypass triple across two gradings: the build
    # must raise, not drop the row.
    grading = sf.SlotLayout.grading
    monkeypatch.setattr(sf.SlotLayout, "grading",
                        lambda self, chords: grading(self, chords) + 2 * ((0, 5) in chords[0]))
    with pytest.raises(tc.ModuleBuildError, match="bypass relation mixes gradings"):
        tc.build_module(sf.disk(6), 0)


@pytest.mark.parametrize(
    "surface,bound",
    [(sf.disk(4), 0), (sf.disk(6), 0), (sf.disk(8), 0),
     (sf.annulus(2, 2), 3), (sf.punctured_torus(2), 3)],
)
def test_vanishing_criterion(surface, bound):
    m = tc.build_module(surface, bound)
    for g in m.generators:
        assert tc.class_of(m, g).is_zero == sf.is_isolating(surface, g)


def test_grading_homogeneity_of_classes():
    surface = sf.punctured_torus(2)
    m = tc.build_module(surface, 3)
    for g in m.generators:
        v = tc.class_of(m, g)
        if v.is_zero:
            continue
        assert v.grading == sf.euler_grading(surface, g)
        support_gradings = {
            m.gradings[m.basis_indices[pos]]
            for pos in range(m.rank)
            if (v.coords >> pos) & 1
        }
        assert support_gradings == {v.grading}


def test_rank_stability_at_default_bound():
    for surface, bounds in (
        (sf.annulus(2, 2), (2, 3, 4)),
        (sf.punctured_torus(2), (2, 3)),
    ):
        ranks = {tc.build_module(surface, b).rank for b in bounds}
        assert ranks == {4}
