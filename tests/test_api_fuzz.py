"""Fuzzed inputs at the public API: only the package's input errors escape.

Each example takes a well-formed value (a surface, a dividing set, a
bypass arc, a gluing datum), replaces or deletes one node of it with a
float, a list, None, a string, or a negative or out-of-range int, and
calls the entry point on the result.  A call may succeed or raise one of
the package's input errors; anything else (a TypeError, an IndexError, a
ModuleBuildError) fails the test.  Fuzzed surfaces must also get the
same SurfaceInfo or SurfaceError message from validate_surface as from
a reference copy of it.
"""

from __future__ import annotations

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from curvetqft import surfaces as sf
from curvetqft import tqftcore as tc
from curvetqft.gluemaps import (
    BoundaryArc,
    GluingDatum,
    GluingError,
    attach_arc_datum,
    cut_surface,
    glue_surfaces,
)

INPUT_ERRORS = (sf.SurfaceError, sf.DividingSetError, sf.BypassError, GluingError,
                tc.BoundExceededError)

JUNK = st.one_of(
    st.integers(-2, 9),
    st.sampled_from([0.0, 1.0, 2.5, -1.0, True, None, "", "x", 10**9, -(10**9),
                     (), (0, 1), (0, 1, 2), ("mark",), ("plain", 1), ("ident", 0)]),
    st.lists(st.integers(-1, 5), max_size=2),
)

# (surface, bound) pairs small enough to build in a few milliseconds.
CASES = [
    (sf.disk(6), 0),
    (sf.annulus(2, 2), 2),
    (sf.punctured_torus(2), 1),
    (sf.disjoint_union(sf.disk(2), sf.annulus(2, 2)), 1),
]

_DELETE = object()


def _paths(value, path=()):
    yield path
    if isinstance(value, tuple):
        for i, child in enumerate(value):
            yield from _paths(child, path + (i,))


def _replace(value, path, new):
    if not path:
        return new
    i, rest = path[0], path[1:]
    if not rest and new is _DELETE:
        return value[:i] + value[i + 1:]
    return value[:i] + (_replace(value[i], rest, new),) + value[i + 1:]


def _mutate(data, fields):
    """fields (nested tuples) with one node below them replaced by junk.

    A node inside a field may instead be deleted; the fields stay as many.
    """
    path = data.draw(st.sampled_from(list(_paths(fields))[1:]))
    new = data.draw(st.one_of(JUNK, st.just(_DELETE)) if len(path) > 1 else JUNK)
    return _replace(fields, path, new)


@functools.cache
def _module(case: int) -> tc.TqftModule:
    return tc.build_module(*CASES[case])


def _calls(*calls):
    for call in calls:
        try:
            call()
        except INPUT_ERRORS:
            pass


@settings(max_examples=60, deadline=None)
@given(data=st.data(), case=st.sampled_from(range(len(CASES))))
def test_fuzzed_surfaces_never_escape(data, case):
    surface, _ = CASES[case]
    words, pairs = _mutate(data, (surface.words, surface.pairs))
    try:
        fuzzed = sf.MarkedSurface(words, pairs)
    except sf.SurfaceError:
        return
    # A surface that passes validation builds, and cuts or refuses.
    _calls(lambda: tc.build_module(fuzzed, 1),
           *(functools.partial(cut_surface, fuzzed, p) for p in range(fuzzed.num_pairs)))


def _reference_validate_surface(surface):
    """validate_surface as it was when each token was tested by up to three _is_token calls."""
    try:
        hash(surface)
    except TypeError:
        raise sf.SurfaceError("words and pairs must be tuples; a list is unhashable") from None
    try:
        lengths = [len(word) for word in surface.words]
    except TypeError:
        raise sf.SurfaceError(
            f"words must be a tuple of boundary words, got {surface.words!r}"
        ) from None
    errors = []
    seen_positions = {}
    try:
        for k, (pos_a, pos_b) in enumerate(surface.pairs):
            if pos_a == pos_b:
                errors.append(f"pair {k} identifies a segment with itself")
            for pos in (pos_a, pos_b):
                p, i = pos
                if type(p) is not int or type(i) is not int:
                    raise TypeError  # a bool or an int-valued float would find a token
                if not (0 <= p < len(lengths) and 0 <= i < lengths[p]):
                    errors.append(f"pair {k} references missing token {pos}")
                    continue
                if not sf._is_token(surface.token(p, i), (sf.IDENT, k)):
                    errors.append(f"token at {pos} is not identification segment {k}")
                if pos in seen_positions:
                    errors.append(f"segment {pos} belongs to more than one pair")
                seen_positions[pos] = k
    except (TypeError, ValueError):
        raise sf.SurfaceError(
            f"pairs must hold two (piece, token index) int positions each, got {surface.pairs!r}"
        ) from None
    for p, word in enumerate(surface.words):
        if not word:
            errors.append(f"piece {p} has an empty boundary word")
        for i, tok in enumerate(word):
            if (p, i) in seen_positions or any(
                sf._is_token(tok, want)
                for want in ((sf.MARK,), (sf.PLAIN, sf.POS), (sf.PLAIN, sf.NEG))
            ):
                continue
            if isinstance(tok, tuple) and tok[:1] == (sf.IDENT,):
                errors.append(f"identification segment at {(p, i)} is unpaired")
            else:
                errors.append(f"unknown token {tok!r} at {(p, i)}")
    if errors:
        raise sf.SurfaceError("; ".join(errors))

    circles = sf._trace_boundary(surface.words, surface.pairs)
    for n_marks, plains in circles:
        if n_marks % 2 or n_marks < 2:
            errors.append(f"odd or deficient marked-point count {n_marks} on a boundary circle")
            continue
        if len({sector for _, sector in plains}) < n_marks:
            errors.append("two adjacent marked points with no segment between")
        if len({surface.token(*pos)[1] * (-1) ** sector for pos, sector in plains}) > 1:
            errors.append("labels do not alternate across marked points")

    components = sf._surface_components(surface)
    for group in components:
        if not any(
            surface.token(p, i)[0] != sf.IDENT
            for p in group
            for i in range(len(surface.words[p]))
        ):
            errors.append(f"component with pieces {group} has empty boundary")

    if errors:
        raise sf.SurfaceError("; ".join(errors))
    return sf.SurfaceInfo(
        euler=surface.euler_characteristic(),
        marks_per_circle=tuple(n_marks for n_marks, _ in circles),
        components=tuple(components),
    )


def _validated(validate, surface):
    """validate(surface), or the message of the SurfaceError it raises."""
    try:
        return validate(surface)
    except sf.SurfaceError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), case=st.sampled_from(range(len(CASES))))
def test_fuzzed_surfaces_validate_as_the_reference(data, case):
    # _make skips the check that construction runs.
    surface, _ = CASES[case]
    fuzzed = sf.MarkedSurface._make(_mutate(data, (surface.words, surface.pairs)))
    assert (_validated(sf.validate_surface, fuzzed)
            == _validated(_reference_validate_surface, fuzzed))


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(range(len(CASES))), arg=JUNK)
def test_fuzzed_bounds_and_pair_ids_never_escape(case, arg):
    surface, _ = CASES[case]
    if isinstance(arg, int) and arg > 1 and surface.num_pairs:
        arg = -arg  # a large bound on a surface with seams is an explosion, not a fuzz
    _calls(lambda: tc.build_module(surface, arg), lambda: cut_surface(surface, arg))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), case=st.sampled_from(range(len(CASES))))
def test_fuzzed_dividing_sets_never_escape(data, case):
    m = _module(case)
    k = data.draw(st.sampled_from(m.generators))
    fuzzed = sf.DividingSet(*_mutate(data, (k.crossings, k.chords, k.closed)))
    _calls(lambda: tc.class_of(m, fuzzed),
           lambda: sf.canonicalize(m.surface, fuzzed),
           lambda: list(sf.iter_bypass_surgeries(m.surface, fuzzed)))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), case=st.sampled_from(range(len(CASES))))
def test_fuzzed_bypass_arcs_never_escape(data, case):
    m = _module(case)
    k = data.draw(st.sampled_from(m.generators))
    arcs = [arc for arc, _, _ in sf.iter_bypass_surgeries(m.surface, k)]
    arc = data.draw(st.sampled_from(arcs)) if arcs else sf.BypassArc(0, (0, 1), (0, 1), (0, 1))
    fields = (arc.piece, arc.start_chord, arc.cross_chord, arc.end_chord, arc.start_side)
    fuzzed = sf.BypassArc(*_mutate(data, fields))
    _calls(lambda: sf.bypass_triple(m.surface, k, fuzzed))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), position=st.sampled_from(range(3)))
def test_fuzzed_gluing_data_never_escape(data, position):
    datum = attach_arc_datum(3, position)
    g, gp = datum.gamma, datum.gamma_prime
    fuzzed = _mutate(data, (g.piece, g.start, g.end, gp.piece, gp.start, gp.end))
    arcs = BoundaryArc(*fuzzed[:3]), BoundaryArc(*fuzzed[3:])
    _calls(lambda: glue_surfaces(GluingDatum(datum.source, *arcs)))
