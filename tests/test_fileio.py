"""Round trips through the JSON interchange formats."""

from __future__ import annotations

import json
import random

import pytest

from curvetqft import fileio
from curvetqft import gluemaps as gm
from curvetqft import surfaces as sf
from curvetqft import tqftcore as tc
from test_digests import REGION_SURFACES, _random_sets


@pytest.mark.parametrize(
    "surface",
    [
        sf.disk(6),
        sf.annulus(2, 2),
        sf.annulus(4, 2, (1, -1)),
        sf.punctured_torus(2),
        sf.disjoint_union(sf.disk(4), sf.annulus(2, 2)),
    ],
)
def test_surface_round_trip(surface):
    data = fileio.surface_to_dict(surface)
    assert fileio.surface_from_dict(data) == surface


def test_dividing_set_round_trip():
    surface = sf.annulus(2, 2)
    k = sf.make_dividing_set((2,), [[(0, 3), (1, 2), (4, 7), (5, 6)]])
    data = fileio.dividing_set_to_dict(surface, k)
    surface2, k2 = fileio.dividing_set_from_dict(data)
    assert surface2 == surface
    assert k2 == k


def _bool_variants(k):
    """k with its closed count, its crossing counts or its chord ends of 0 and 1 as bools."""
    def as_bool(x):
        return bool(x) if x in (0, 1) else x

    yield k._replace(closed=as_bool(k.closed))
    yield k._replace(crossings=tuple(map(as_bool, k.crossings)))
    yield k._replace(chords=tuple(
        tuple((as_bool(a), as_bool(b)) for a, b in piece) for piece in k.chords
    ))


def test_accepted_dividing_sets_round_trip():
    # Every set validation accepts, colorable or not, is written and read
    # back as it is.  A bool count or chord end equals its int, so it was
    # accepted, and then written as a JSON bool that the reader refuses.
    rng = random.Random(8)
    accepted = refused = 0
    for surface in REGION_SURFACES:
        for k in _random_sets(surface, rng, 30):
            for s in (k, *_bool_variants(k)):
                try:
                    sf.validate_dividing_set(surface, s)
                except sf.DividingSetError:
                    refused += 1
                    continue
                accepted += 1
                data = json.loads(json.dumps(fileio.dividing_set_to_dict(surface, s)))
                surface2, k2 = fileio.dividing_set_from_dict(data)
                assert (surface2, repr(k2)) == (surface, repr(s))
    assert accepted and refused


def test_bare_int_slots_mean_piece_zero():
    surface = sf.disk(4)
    data = fileio.dividing_set_to_dict(surface, sf.make_dividing_set((), [[(0, 1), (2, 3)]]))
    data["chords"] = [[0, 1], [2, 3]]
    _, k = fileio.dividing_set_from_dict(data)
    assert k.chords[0] == ((0, 1), (2, 3))


def test_gluing_datum_round_trip():
    datum = gm.attach_arc_datum(3, 1)
    data = fileio.gluing_datum_to_dict(datum)
    again = fileio.gluing_datum_from_dict(data)
    assert again == datum


def test_module_export_is_stable():
    m = tc.build_module(sf.disk(6), 0)
    d1 = fileio.module_to_dict(m)
    d2 = fileio.module_to_dict(tc.build_module(sf.disk(6), 0))
    assert d1 == d2
    assert d1["rank"] == 4
    assert d1["graded_ranks"] == {"-2": 1, "0": 2, "2": 1}
    assert all(len(r) in (1, 2, 3) for r in d1["relations"])


def test_malformed_inputs_rejected():
    with pytest.raises(fileio.FormatError):
        fileio.surface_from_dict({"pieces": [["mark"]]})
    with pytest.raises(fileio.FormatError):
        fileio.surface_from_dict(
            {"pieces": [["mark", "plain"]], "identifications": [], "labels": ["?"]}
        )
    surface = sf.disk(4)
    data = fileio.dividing_set_to_dict(surface, sf.make_dividing_set((), [[(0, 1), (2, 3)]]))
    data["chords"][0] = [[0, 0], [1, 1], [2, 2]]
    with pytest.raises(fileio.FormatError):
        fileio.dividing_set_from_dict(data)


def test_files_round_trip(tmp_path):
    surface = sf.punctured_torus(2)
    k = sf.enumerate_dividing_sets(surface, 1)[0]
    path = tmp_path / "k.json"
    fileio.dump_json(fileio.dividing_set_to_dict(surface, k), str(path))
    surface2, k2 = fileio.dividing_set_from_dict(fileio.load_json(str(path)))
    assert (surface2, k2) == (surface, k)
