"""Graded GF(2) modules presented by dividing sets modulo bypass triples.

The module attached to a marked surface at crossing bound B is the free
GF(2) vector space on the canonical dividing sets within the bound,
modulo one relation for every nontrivial bypass surgery: the three
members of a triple sum to zero, where a member with a contractible
closed component counts as zero.  The quotient is expected to be
V^(n - chi), with n half the number of marked points and V = GF(2) in
gradings +1 and -1: rank binom(N, j) in grading N - 2j, N = n - chi.  A
mismatch is reported, not silently repaired, since it signals that the
bound is too small or the relation set incomplete.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from math import comb
from typing import NamedTuple

from . import gf2
from .surfaces import (
    DividingSet,
    MarkedSurface,
    canonicalize,
    euler_grading,
    graded_dividing_sets,
    num_marks,
    owned_bypass_surgeries,
)


class ModuleBuildError(ValueError):
    """The presentation is internally inconsistent (a surgery bug)."""


class BoundExceededError(ValueError):
    """A dividing set does not fit within the module's crossing bound."""


DEFAULT_BOUND = 4


class ClassVector(NamedTuple):
    """The class of a dividing set, in the reduced quotient basis.

    coords is a bitset over the quotient basis positions.  grading is the
    grading of the underlying dividing set (informational when the vector
    is zero).
    """

    coords: int
    grading: int

    @property
    def is_zero(self) -> bool:
        return self.coords == 0


class _ModuleFields(NamedTuple):
    surface: MarkedSurface
    bound: int
    generators: tuple[DividingSet, ...]
    gradings: tuple[int, ...]
    relation_rows: tuple[int, ...]
    reduced_rows: tuple[int, ...]
    pivots: tuple[int, ...]
    basis_indices: tuple[int, ...]
    expected_rank: int
    warnings: tuple[str, ...]


class TqftModule(_ModuleFields):
    """Presented module: generators, relation rows, reduced basis, grading.

    index maps each generator's encoding to its position.  It is the last
    argument but sits beside the tuple, outside ==, hash and repr;
    _make and _replace skip it.
    """

    def __new__(cls, surface, bound, generators, gradings, relation_rows, reduced_rows,
                pivots, basis_indices, expected_rank, warnings, index):
        self = super().__new__(cls, surface, bound, generators, gradings, relation_rows,
                               reduced_rows, pivots, basis_indices, expected_rank, warnings)
        self.__dict__["index"] = index
        return self

    def __getnewargs__(self):
        return (*self, self.index)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a TqftModule is immutable")

    @property
    def rank(self) -> int:
        return len(self.basis_indices)

    def graded_ranks(self) -> dict[int, int]:
        return dict(Counter(self.gradings[i] for i in self.basis_indices))

    def generator_index(self, k: DividingSet) -> int:
        try:
            return self.index[k.encode()]
        except KeyError:
            raise BoundExceededError(
                "dividing set is not among the generators at this bound"
            ) from None


def expected_graded_ranks(surface: MarkedSurface) -> dict[int, int]:
    """Graded ranks of V^N, N = n - chi: binom(N, j) in grading N - 2j.

    Over all components at once: n and chi add under disjoint union, and
    so do gradings.
    """
    n = num_marks(surface) // 2 - surface.euler_characteristic()
    return {n - 2 * j: comb(n, j) for j in range(n + 1)}


def build_module(surface: MarkedSurface, bound: int = DEFAULT_BOUND) -> TqftModule:
    """Assemble and reduce the bypass presentation at the given bound.

    Each relation row is realized from the generator that owns its
    triple, and all rows are reduced by one gf2.rref call.  On a surface
    with seams the owner can realize a row more than once, along
    different arcs; the rows are a set, so a repeat adds nothing.  A
    member with a contractible circle contributes nothing.  A member
    outside the generators, or of another grading than the owner, is a
    surgery bug and raises ModuleBuildError.  Only generators are graded,
    each once, by the enumeration that sorts them.
    """
    gradings, generators = graded_dividing_sets(surface, bound)
    index = {g.encode(): i for i, g in enumerate(generators)}

    rows: set[int] = set()
    for i, g in enumerate(generators):
        for members in owned_bypass_surgeries(surface, g):
            row = 1 << i
            for k in members:
                if k.closed > 0:
                    continue
                # A DividingSet is the tuple its encode() returns.
                j = index.get(k)
                if j is None:
                    raise ModuleBuildError(
                        "a bypass surgery left the enumerated generator set; "
                        "this should be impossible at a fixed bound"
                    )
                if gradings[j] != gradings[i]:
                    raise ModuleBuildError(
                        "bypass relation mixes gradings "
                        f"({gradings[i]} vs {gradings[j]})"
                    )
                row ^= 1 << j
            if row:
                rows.add(row)

    reduced, pivots = gf2.rref(rows)
    basis_indices = tuple(sorted(set(range(len(generators))).difference(pivots)))
    expected_graded = expected_graded_ranks(surface)
    expected = sum(expected_graded.values())
    graded = dict(Counter(gradings[i] for i in basis_indices))
    warnings = []
    if len(basis_indices) != expected:
        warnings.append(
            f"rank {len(basis_indices)} differs from the expected {expected}; "
            "raise the crossing bound"
        )
    elif graded != expected_graded:
        warnings.append(
            f"graded ranks {dict(sorted(graded.items()))} differ from the expected "
            f"{dict(sorted(expected_graded.items()))}"
        )
    return TqftModule(
        surface=surface,
        bound=bound,
        generators=generators,
        gradings=gradings,
        relation_rows=tuple(sorted(rows)),
        reduced_rows=tuple(reduced),
        pivots=tuple(pivots),
        basis_indices=basis_indices,
        expected_rank=expected,
        warnings=tuple(warnings),
        index=index,
    )


def class_of(module: TqftModule, k: DividingSet) -> ClassVector:
    """The class of a dividing set in the reduced quotient basis.

    The generators are exactly the bigon-free, colorable sets within the
    bound without contractible circles, and the grading ignores those
    circles.  So when the canonical form, circles dropped, is a generator,
    its grading is the one the build computed.  Any other set is graded
    from its slot layout, which raises ColoringError when it is not
    colorable, and then goes through the bound check.
    """
    canonical = canonicalize(module.surface, k)
    idx = module.index.get((canonical.crossings, canonical.chords, 0))
    if idx is not None:
        grading = module.gradings[idx]
    else:
        grading = euler_grading(module.surface, canonical)
    if canonical.closed > 0:
        return ClassVector(0, grading)
    if idx is None:
        # Bigon-free, colorable and circle-free: only the bound keeps it out.
        raise BoundExceededError("canonical form exceeds the module's crossing bound")
    # The rows are fully reduced: a pivot's row holds, besides its pivot,
    # only basis elements, and basis element b sits at position b less
    # the number of pivots below it.
    pivots = module.pivots
    j = bisect_left(pivots, idx)
    vec = 1 << idx
    if j < len(pivots) and pivots[j] == idx:
        vec ^= module.reduced_rows[j]
    coords = 0
    for b in gf2.set_bits(vec):
        coords |= 1 << (b - bisect_left(pivots, b))
    return ClassVector(coords, grading)


class DistinctnessReport(NamedTuple):
    zero_indices: tuple[int, ...]
    equal_pairs: tuple[tuple[int, int], ...]

    @property
    def all_nonzero(self) -> bool:
        return not self.zero_indices

    @property
    def all_distinct(self) -> bool:
        return not self.equal_pairs


def distinct_classes(module: TqftModule, ks: list[DividingSet]) -> DistinctnessReport:
    """Which of the given dividing sets have zero or pairwise equal classes."""
    vectors = [class_of(module, k) for k in ks]
    zero = tuple(i for i, v in enumerate(vectors) if v.is_zero)
    groups: dict[int, list[int]] = {}
    for i, v in enumerate(vectors):
        groups.setdefault(v.coords, []).append(i)
    equal = tuple(sorted(
        pair for group in groups.values() for pair in itertools.combinations(group, 2)
    ))
    return DistinctnessReport(zero, equal)


# ---------------------------------------------------------------------------
# Independent sub-disk oracle
# ---------------------------------------------------------------------------

# The matchings of six ascending endpoints, as index pairs, in which one
# chord separates the other two.
_SUBDISK_PATTERNS = frozenset({
    frozenset({(0, 5), (1, 4), (2, 3)}),
    frozenset({(0, 1), (2, 5), (3, 4)}),
    frozenset({(0, 3), (1, 2), (4, 5)}),
})


def subdisk_relations(surface: MarkedSurface, generators) -> frozenset[int]:
    """The bypass relation rows over generators, from six-endpoint sub-disks.

    Three chords of one piece meet a sub-disk in three strands exactly
    when one of them separates the other two, so that they form one of
    the three patterns above, and no other chord of the piece separates
    their six endpoints.  The row holds the set and the set with the
    other two patterns, canonicalized; a member with a contractible
    circle adds nothing.  This shares only canonicalize with
    build_module, so on a module's generators the two give the same rows.
    """
    index = {g.encode(): i for i, g in enumerate(generators)}
    rows = set()
    for i, g in enumerate(generators):
        for p, chords in enumerate(g.chords):
            for triple in itertools.combinations(chords, 3):
                ends = sorted(x for chord in triple for x in chord)
                rank = {x: r for r, x in enumerate(ends)}
                pattern = frozenset((rank[a], rank[b]) for a, b in triple)
                if pattern not in _SUBDISK_PATTERNS:
                    continue
                rest = [chord for chord in chords if chord not in triple]
                if any(sum(a < x < b for x in ends) not in (0, 6) for a, b in rest):
                    continue
                row = 1 << i
                for other in _SUBDISK_PATTERNS - {pattern}:
                    piece = tuple(sorted(rest + [(ends[a], ends[b]) for a, b in other]))
                    member = canonicalize(surface, DividingSet(
                        g.crossings, g.chords[:p] + (piece,) + g.chords[p + 1:], g.closed
                    ))
                    if member.closed == 0:
                        row ^= 1 << index[member.encode()]
                if row:
                    rows.add(row)
    return frozenset(rows)
