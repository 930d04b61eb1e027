"""Gluing maps, arc attachments, cutting isomorphisms, multiplicativity."""

from __future__ import annotations

import pytest

from curvetqft import gf2
from curvetqft import gluemaps as gm
from curvetqft import surfaces as sf
from curvetqft import tqftcore as tc

K1 = ((0, 3), (1, 2), (4, 5))
K2 = ((0, 5), (1, 4), (2, 3))
K3 = ((0, 1), (2, 5), (3, 4))


def middle_class_image(result, m_src, chords):
    union = sf.make_dividing_set((), [chords, [(0, 1)]])
    return result.image_of(m_src, union)


def test_attachment_tables():
    expected = {
        0: ["K+", "K+", "0"],
        1: ["0", "K-", "K-"],
        2: ["K+", "0", "K+"],
    }
    for j in range(3):
        result, m_src, m_tgt = gm.attach_arc_map(tc.build_module, 3, j)
        assert m_tgt.rank == 2
        row = []
        for chords in (K1, K2, K3):
            v = middle_class_image(result, m_src, chords)
            row.append("0" if v.is_zero else ("K+" if v.grading == 1 else "K-"))
        assert row == expected[j]


def test_attachment_on_any_position():
    # Positions wrap around the disk; each map must be well-defined.
    for j in range(6):
        result, m_src, m_tgt = gm.attach_arc_map(tc.build_module, 3, j)
        assert m_tgt.rank == 2
        images = [v for v in result.images]
        assert any(not v.is_zero for v in images)


def test_glue_kills_exactly_circle_creators():
    # Attaching across marks (j, j+1) annihilates exactly the matchings
    # with a chord at (j, j+1).
    for j in range(4):
        result, m_src, _ = gm.attach_arc_map(tc.build_module, 2, j)
        for k in sf.enumerate_matchings(2):
            union = sf.make_dividing_set((), [k.chords[0], [(0, 1)]])
            v = result.image_of(m_src, union)
            has_chord = tuple(sorted(((j % 4), (j + 1) % 4))) in k.chords[0]
            assert v.is_zero == has_chord


def test_disjoint_union_gluing_is_isomorphism():
    # Gluing two disks along arcs through one marked point each.
    source = sf.disjoint_union(sf.disk(4), sf.disk(4))
    # The arcs run through one marked point each, in sectors of opposite
    # label so that the glued labels alternate.
    datum = gm.GluingDatum(
        source,
        gm.BoundaryArc(0, 1, 3),
        gm.BoundaryArc(1, 3, 5),
    )
    info = gm.glue_surfaces(datum)
    assert sf.validate_surface(info.target).euler == 1
    m_src = tc.build_module(source, 0)
    m_tgt = tc.build_module(info.target, 1)
    result = gm.glue_map(info, m_src, m_tgt)
    assert m_src.rank == m_tgt.rank == 4
    assert gf2.rank(list(result.basis_columns)) == 4


def test_gluing_sends_zero_to_zero():
    result, m_src, m_tgt = gm.attach_arc_map(tc.build_module, 3, 0)
    for gen in m_src.generators:
        src_v = tc.class_of(m_src, gen)
        if src_v.is_zero:
            img = result.images[m_src.generator_index(gen)]
            assert img.is_zero


def test_functoriality_two_disjoint_attachments():
    # Attaching boundary-parallel arcs at two disjoint positions commutes:
    # the kernel pattern and pairwise identifications of the composite
    # agree whichever arc goes first.
    n = 4
    positions = (0, 2)

    def composite(first, second):
        datum1 = gm.attach_arc_datum(n, first)
        info1 = gm.glue_surfaces(datum1)
        # Marks of the big disk keep their token positions via token_map.
        m1_src = tc.build_module(datum1.source, 0)
        m1_tgt = tc.build_module(info1.target, 2)
        res1 = gm.glue_map(info1, m1_src, m1_tgt)
        source2 = sf.disjoint_union(info1.target, sf.disk(2))
        total = 4 * n
        start = info1.token_map[(0, (2 * second - 1) % total)][1]
        end = info1.token_map[(0, (2 * second + 3) % total)][1]
        small_piece = source2.num_pieces - 1
        gamma_prime = gm.BoundaryArc(small_piece, 1, 1) if second % 2 \
            else gm.BoundaryArc(small_piece, 3, 3)
        datum2 = gm.GluingDatum(source2, gm.BoundaryArc(0, start, end), gamma_prime)
        info2 = gm.glue_surfaces(datum2)
        m2_tgt = tc.build_module(info2.target, 2)

        out, vecs = [], []
        for k in sf.enumerate_matchings(n):
            union1 = sf.make_dividing_set((), [k.chords[0], [(0, 1)]])
            mid = sf.canonicalize(info1.target, gm.map_dividing_set(info1, union1))
            union2 = sf.make_dividing_set(
                mid.crossings, list(mid.chords) + [((0, 1),)], mid.closed
            )
            v = tc.class_of(m2_tgt, gm.map_dividing_set(info2, union2))
            out.append((v.is_zero, v.grading if not v.is_zero else None))
            vecs.append(v.coords)
        pattern = [
            [vecs[i] == vecs[j] for j in range(len(vecs))] for i in range(len(vecs))
        ]
        return out, pattern

    out_a, pat_a = composite(positions[0], positions[1])
    out_b, pat_b = composite(positions[1], positions[0])
    assert out_a == out_b
    assert pat_a == pat_b


def test_cut_annulus_to_disk():
    ann = sf.annulus(2, 2, (1, -1))
    info = gm.cut_surface(ann, 0)
    cut_info = sf.validate_surface(info.cut_surface)
    assert cut_info.euler == 1
    assert cut_info.marks_per_circle == (6,)
    report = gm.cut_check(tc.build_module, ann, 0, 2)
    assert report.passed
    assert report.rank_original == report.rank_cut == 4


@pytest.mark.parametrize("pair_id", [-1, 2, 0.0, True, False])
def test_cut_rejects_a_pair_that_does_not_exist(pair_id):
    with pytest.raises(gm.GluingError, match=f"no identification pair {pair_id}"):
        gm.cut_surface(sf.punctured_torus(2), pair_id)


def test_cut_rejects_even_seam():
    # The default annulus seam meets every dividing set evenly; cutting it
    # cannot produce a consistent marked surface.
    with pytest.raises(gm.GluingError):
        gm.cut_surface(sf.annulus(2, 2), 0)


def test_cut_punctured_torus_twice():
    torus = sf.punctured_torus(2)
    first = gm.cut_surface(torus, 0)
    mid_info = sf.validate_surface(first.cut_surface)
    assert mid_info.euler == 0
    assert sorted(mid_info.marks_per_circle) == [2, 2]
    second = gm.cut_surface(first.cut_surface, 0)
    final_info = sf.validate_surface(second.cut_surface)
    assert final_info.euler == 1
    assert final_info.marks_per_circle == (6,)
    m = tc.build_module(second.cut_surface, 0)
    assert m.rank == 4
    assert m.graded_ranks() == {2: 1, 0: 2, -2: 1}


def test_glue_and_cut_validate_only_the_surface_they_build(monkeypatch):
    # Construction is the one check: the surface a gluing or a cut makes
    # is validated when it is built, and nothing else is.
    checked = []
    real = sf.validate_surface
    monkeypatch.setattr(sf, "validate_surface", lambda s: checked.append(s) or real(s))
    ann = sf.annulus(2, 2, (1, -1))
    datum = gm.attach_arc_datum(3, 0)
    checked.clear()
    cut = gm.cut_surface(ann, 0).cut_surface
    glued = gm.glue_surfaces(datum).target
    assert checked == [cut, glued]


def test_cut_check_fails_a_map_that_is_not_injective(monkeypatch):
    # One basis column duplicated keeps the three ranks equal, so only the
    # injectivity test stands between this map and a passing report.
    real = gm.glue_map

    def collapsed(info, m_src, m_tgt):
        result = real(info, m_src, m_tgt)
        columns = result.basis_columns
        return gm.GlueResult(result.images, (columns[0],) + columns[:-1])

    monkeypatch.setattr(gm, "glue_map", collapsed)
    report = gm.cut_check(tc.build_module, sf.annulus(2, 2, (1, -1)), 0, 2)
    assert report.rank_original == report.rank_cut == report.rank_reglued == 4
    assert report.map_injective is False
    assert report.passed is False


@pytest.mark.parametrize("pair", [0, 1])
def test_cut_check_torus(pair):
    report = gm.cut_check(tc.build_module, sf.punctured_torus(2), pair, 2)
    assert report.passed
    assert report.rank_original == 4


def test_multiplicativity():
    m1 = tc.build_module(sf.disjoint_union(sf.disk(4), sf.disk(4)), 0)
    assert m1.rank == 4
    m2 = tc.build_module(sf.disjoint_union(sf.disk(2), sf.annulus(2, 2)), 3)
    assert m2.rank == 4
    assert m1.expected_rank == 4 and m2.expected_rank == 4


def test_glue_requires_matching_marks():
    source = sf.disjoint_union(sf.disk(6), sf.disk(2))
    with pytest.raises(gm.GluingError, match="marked points"):
        gm.glue_surfaces(gm.GluingDatum(
            source, gm.BoundaryArc(0, 1, 3), gm.BoundaryArc(1, 3, 3)
        ))


@pytest.mark.parametrize("gamma,message", [
    (gm.BoundaryArc(1, 1, 5), "names piece 1"),
    (gm.BoundaryArc(0.0, 1, 5), "names piece 0.0"),
    (gm.BoundaryArc(0, 0, 5), "inside plain segments"),
    (gm.BoundaryArc(0, 1, 17), "inside plain segments"),
    (gm.BoundaryArc(0, 1.0, 5), "inside plain segments"),
    # A bool is an int to isinstance, but no position: False was piece 0
    # and True token 1.
    (gm.BoundaryArc(False, 1, 5), "names piece False"),
    (gm.BoundaryArc(0, True, 5), "inside plain segments"),
    (gm.BoundaryArc(0, 1, True), "inside plain segments"),
])
def test_glue_rejects_arc_off_the_boundary(gamma, message):
    with pytest.raises(gm.GluingError, match=message):
        gm.glue_surfaces(gm.GluingDatum(sf.disk(8), gamma, gm.BoundaryArc(0, 9, 13)))


def test_glue_rejects_overlapping_arcs():
    source = sf.disk(8)
    with pytest.raises(gm.GluingError, match="overlap"):
        gm.glue_surfaces(gm.GluingDatum(
            source, gm.BoundaryArc(0, 1, 5), gm.BoundaryArc(0, 3, 7)
        ))


def test_glue_rejects_arc_across_seam():
    source = sf.annulus(2, 2)
    with pytest.raises(gm.GluingError, match="identification"):
        gm.glue_surfaces(gm.GluingDatum(
            source, gm.BoundaryArc(0, 1, 1), gm.BoundaryArc(0, 3, 5)
        ))


def test_bound_guard_on_target():
    datum = gm.attach_arc_datum(3, 0)
    info = gm.glue_surfaces(datum)
    m_src = tc.build_module(datum.source, 0)
    m_tgt = tc.build_module(info.target, 1)
    with pytest.raises(tc.BoundExceededError):
        gm.glue_map(info, m_src, m_tgt)


def test_glue_map_refuses_modules_of_other_surfaces():
    info = gm.glue_surfaces(gm.attach_arc_datum(3, 0))
    m_src = tc.build_module(info.source, 0)
    m_tgt = tc.build_module(info.target, 2)
    with pytest.raises(gm.GluingError, match="source module was built on a different surface"):
        gm.glue_map(info, m_tgt, m_tgt)
    with pytest.raises(gm.GluingError, match="target module was built on a different surface"):
        gm.glue_map(info, m_src, m_src)


def test_attach_needs_a_big_disk():
    with pytest.raises(gm.GluingError, match="at least 4 marked points"):
        gm.attach_arc_datum(1, 0)


@pytest.mark.parametrize("bound,target_bound", [(0, 2), (1, 2), (3, 3)])
def test_datum_map_builds_the_target_to_hold_every_image(bound, target_bound):
    # The seam of an attachment holds 2 marks, so every glued image needs
    # a target bound of at least 2.
    datum = gm.attach_arc_datum(3, 1)
    built = []

    def build(surface, b):
        built.append((surface, b))
        return tc.build_module(surface, b)

    result, m_src, m_tgt = gm.datum_map(build, datum, bound)
    target = gm.glue_surfaces(datum).target
    assert built == [(datum.source, bound), (target, target_bound)]
    assert (m_src.bound, m_tgt.bound) == (bound, target_bound)
    assert len(result.images) == len(m_src.generators)


def test_cut_check_builds_the_reglued_module_to_hold_every_image():
    # A reglue arc holds 1 mark, so the reglued module is built at bound 1
    # even when the cut is checked at bound 0.
    built = []

    def build(surface, b):
        built.append((surface, b))
        return tc.build_module(surface, b)

    ann = sf.annulus(2, 2, (1, -1))
    cut = gm.cut_surface(ann, 0)
    report = gm.cut_check(build, ann, 0, 0)
    assert (report.rank_cut, report.rank_reglued, report.map_injective) == (4, 4, True)
    assert built == [(ann, 0), (cut.cut_surface, 0), (gm.glue_surfaces(cut.reglue).target, 1)]


# A punctured torus of genus 1 in two pieces: piece 0 reads
# i2 + i0 + m - m + i1 +, piece 1 reads i0 + i1 + i2 +.
I, P, M, N = sf.ident, sf.plain(1), sf.mark(), sf.plain(-1)
TWO_PIECE_TORUS = sf.MarkedSurface(
    ((I(2), P, I(0), P, M, N, M, P, I(1), P), (I(0), P, I(1), P, I(2), P)),
    (((0, 2), (1, 0)), ((0, 8), (1, 2)), ((0, 0), (1, 4))),
)


def test_cut_refuses_a_cut_that_leaves_an_odd_circle():
    # Cutting pair 0 leaves circles of 3 and 1 marks; the cut itself says
    # so, not the construction of the cut surface.
    with pytest.raises(gm.GluingError, match="odd number of marked points"):
        gm.cut_surface(TWO_PIECE_TORUS, 0)
    for pair_id in (1, 2):
        with pytest.raises(gm.GluingError, match="sectors of equal sign"):
            gm.cut_surface(TWO_PIECE_TORUS, pair_id)
