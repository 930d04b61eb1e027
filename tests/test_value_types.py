"""The contract of the public value types: fields, equality, repr, immutability."""

from __future__ import annotations

import copy
import pickle

import pytest

from curvetqft import gluemaps as gm
from curvetqft import liftsearch as ls
from curvetqft import surfaces as sf
from curvetqft import tqftcore as tc
from curvetqft import verify as vf

DISK2_REPR = (
    "MarkedSurface(words=((('mark',), ('plain', 1), ('mark',), ('plain', -1)),), pairs=())"
)
ARC_REPRS = (
    "gamma=BoundaryArc(piece=0, start=1, end=1), gamma_prime=BoundaryArc(piece=0, start=3, end=3)"
)
MODULE_FIELDS = (
    "surface", "bound", "generators", "gradings", "relation_rows", "reduced_rows",
    "pivots", "basis_indices", "expected_rank", "warnings", "index",
)


def _datum_fields():
    return sf.disk(2), gm.BoundaryArc(0, 1, 1), gm.BoundaryArc(0, 3, 3)


def _module_fields():
    m = tc.build_module(sf.disk(2), 0)
    return tuple(getattr(m, name) for name in MODULE_FIELDS)


# (type, field names in order, a thunk for field values, hashable, repr).
CASES = [
    (sf.MarkedSurface, ("words", "pairs"), lambda: (sf.disk(2).words, ()), True,
     DISK2_REPR),
    (sf.DividingSet, ("crossings", "chords", "closed"), lambda: ((), (((0, 1),),), 0), True,
     "DividingSet(crossings=(), chords=(((0, 1),),), closed=0)"),
    (sf.SurfaceInfo, ("euler", "marks_per_circle", "components"),
     lambda: (1, (2,), ((0,),)), True,
     "SurfaceInfo(euler=1, marks_per_circle=(2,), components=((0,),))"),
    (sf.Region, ("sign", "euler", "touches_boundary"), lambda: (-1, 1, True), True,
     "Region(sign=-1, euler=1, touches_boundary=True)"),
    (sf.BypassArc, ("piece", "start_chord", "cross_chord", "end_chord", "start_side"),
     lambda: (0, (0, 1), (2, 5), (3, 4), "inner"), True,
     "BypassArc(piece=0, start_chord=(0, 1), cross_chord=(2, 5), end_chord=(3, 4), "
     "start_side='inner')"),
    (tc.ClassVector, ("coords", "grading"), lambda: (5, -2), True,
     "ClassVector(coords=5, grading=-2)"),
    (tc.TqftModule, MODULE_FIELDS, _module_fields, True,
     f"TqftModule(surface={DISK2_REPR}, bound=0, generators=(DividingSet(crossings=(), "
     "chords=(((0, 1),),), closed=0),), gradings=(0,), relation_rows=(), reduced_rows=(), "
     "pivots=(), basis_indices=(0,), expected_rank=1, warnings=())"),
    (tc.DistinctnessReport, ("zero_indices", "equal_pairs"), lambda: ((1,), ((0, 2),)), True,
     "DistinctnessReport(zero_indices=(1,), equal_pairs=((0, 2),))"),
    (gm.BoundaryArc, ("piece", "start", "end"), lambda: (0, 1, 3), True,
     "BoundaryArc(piece=0, start=1, end=3)"),
    (gm.GluingDatum, ("source", "gamma", "gamma_prime"), _datum_fields, True,
     f"GluingDatum(source={DISK2_REPR}, {ARC_REPRS})"),
    (gm.GlueInfo, ("source", "target", "seam_pair", "seam_marks", "mark_map", "token_map"),
     lambda: (sf.disk(2), sf.disk(2), 0, 0, {("m", 0, 0): ("m", 0, 0)}, {}), False,
     f"GlueInfo(source={DISK2_REPR}, target={DISK2_REPR}, seam_pair=0, seam_marks=0, "
     "mark_map={('m', 0, 0): ('m', 0, 0)}, token_map={})"),
    (gm.GlueResult, ("images", "basis_columns"), lambda: ((tc.ClassVector(1, 0),), (1,)), True,
     "GlueResult(images=(ClassVector(coords=1, grading=0),), basis_columns=(1,))"),
    (gm.CutInfo, ("cut_surface", "reglue"),
     lambda: (sf.disk(2), gm.GluingDatum(*_datum_fields())), True,
     f"CutInfo(cut_surface={DISK2_REPR}, reglue=GluingDatum(source={DISK2_REPR}, "
     f"{ARC_REPRS}))"),
    (gm.CutReport, ("rank_original", "rank_cut", "rank_reglued", "map_injective"),
     lambda: (4, 4, 4, True), True,
     "CutReport(rank_original=4, rank_cut=4, rank_reglued=4, map_injective=True)"),
    (ls.LiftProblem, ("pattern", "allow_signs", "search_box"),
     lambda: (ls.DEGENERATE_PATTERN, True, 3), True,
     "LiftProblem(pattern=((1, 1, 0), (1, 1, 0), (1, 0, 1)), allow_signs=True, search_box=3)"),
    (ls.LiftResult, ("feasible", "witnesses", "certificate"),
     lambda: (False, (), {"outcome": "infeasible"}), False,
     "LiftResult(feasible=False, witnesses=(), certificate={'outcome': 'infeasible'})"),
    (vf.CheckResult, ("name", "passed", "detail", "seconds"),
     lambda: ("annulus", True, "ok", 0.25), True,
     "CheckResult(name='annulus', passed=True, detail='ok', seconds=0.25)"),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, names, values, hashable, text", CASES, ids=IDS)
def test_fields_equality_and_repr(cls, names, values, hashable, text):
    args = values()
    positional = cls(*args)
    by_name = cls(**dict(zip(names, values())))
    assert [getattr(positional, name) for name in names] == list(args)
    assert positional == by_name
    assert not positional != by_name
    if hashable:
        assert hash(positional) == hash(by_name)
    else:
        with pytest.raises(TypeError):
            hash(positional)
    assert repr(positional) == text


@pytest.mark.parametrize("cls, names, values, hashable, text", CASES, ids=IDS)
def test_fields_are_read_only(cls, names, values, hashable, text):
    value = cls(*values())
    for name in names:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        assert getattr(value, name) is before


def test_defaults():
    assert sf.DividingSet((), (((0, 1),),)).closed == 0
    assert sf.BypassArc(0, (0, 1), (2, 5), (3, 4)).start_side == "outer"
    problem = ls.LiftProblem()
    assert problem.pattern == ls.STANDARD_PATTERN
    assert problem.allow_signs is False
    assert problem.search_box == 4
    assert problem == ls.standard_problem()


def test_surface_layout_memo_is_not_compared():
    used, fresh = sf.disk(4), sf.disk(4)
    used.layout(())
    with pytest.raises(AttributeError):
        used._layouts = {}
    assert used == fresh and not used != fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert "_layouts" not in repr(used)


def test_module_index_is_not_compared():
    fields = dict(zip(MODULE_FIELDS, _module_fields()))
    built = tc.TqftModule(**fields)
    other = tc.TqftModule(**{**fields, "index": {}})
    assert built == other and not built != other
    assert hash(built) == hash(other)
    assert repr(built) == repr(other)
    assert "index" not in repr(built)
    assert other.index == {}
    for twin in (copy.copy(built), pickle.loads(pickle.dumps(built))):
        assert twin == built and twin.index == built.index


def test_checked_types_reject_bad_input():
    with pytest.raises(sf.SurfaceError):
        sf.MarkedSurface(((("mark",), ("plain", 1)),), ())
    with pytest.raises(sf.SurfaceError):
        sf.MarkedSurface(words=[(("mark",), ("plain", 1), ("mark",), ("plain", -1))], pairs=())
    with pytest.raises(ls.LiftError):
        ls.LiftProblem(search_box=1)
    with pytest.raises(ls.LiftError):
        ls.LiftProblem(pattern=((0, 1, 0), (0, 1, 1), (1, 0, 1)))
