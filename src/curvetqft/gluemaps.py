"""Gluing maps between modules induced by identifying boundary arcs.

Gluing two boundary arcs turns the marked points inside them into
crossing points on a fresh identification segment, so a dividing set on
the source surface maps to one on the glued surface with a prescribed
crossing pattern on the seam.  The induced linear map sends a generator
to the class of its glued image; well-definedness on the quotient is
checked by mapping every relation row, not assumed.

Cutting is the inverse procedure: removing one identification pair and
replacing each of its segments by plain-mark-plain.  When the cut arc
admits a single-crossing transversal (its endpoint sectors carry
opposite labels), regluing realizes the cut-open module isomorphically
onto the original one.
"""

from __future__ import annotations

from typing import NamedTuple

from . import gf2
from .surfaces import (
    IDENT,
    MARK,
    PLAIN,
    DividingSet,
    MarkedSurface,
    _trace_boundary,
    disjoint_union,
    disk,
    layout_of,
    make_dividing_set,
)
from .tqftcore import BoundExceededError, ClassVector, TqftModule, class_of


class GluingError(ValueError):
    """The gluing or cutting datum is invalid or inconsistent."""


class BoundaryArc(NamedTuple):
    """An arc of the glued boundary, inside one piece's boundary word.

    The arc runs forward from the middle of the plain token at `start` to
    the middle of the plain token at `end`, never crossing an
    identification segment.  start == end means the arc covers the whole
    boundary circle except a sub-segment of that token.
    """

    piece: int
    start: int
    end: int


class GluingDatum(NamedTuple):
    source: MarkedSurface
    gamma: BoundaryArc
    gamma_prime: BoundaryArc


class GlueInfo(NamedTuple):
    """Everything needed to transfer dividing sets across one gluing."""

    source: MarkedSurface
    target: MarkedSurface
    seam_pair: int
    seam_marks: int
    mark_map: dict
    token_map: dict


def _is_position(x, n: int) -> bool:
    """Whether x is an int (a bool is none) in range(n)."""
    return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < n


def _arc_interior(surface: MarkedSurface, arc: BoundaryArc) -> list[tuple[int, int]]:
    """Positions (piece, token) strictly inside the arc, in boundary order."""
    if not _is_position(arc.piece, surface.num_pieces):
        raise GluingError(f"arc names piece {arc.piece}, which does not exist")
    word = surface.words[arc.piece]
    n = len(word)
    for t in (arc.start, arc.end):
        if not _is_position(t, n) or word[t][0] != PLAIN:
            raise GluingError("arc endpoints must lie inside plain segments")
    count = (arc.end - arc.start - 1) % n if arc.start != arc.end else n - 1
    interior = [(arc.piece, (arc.start + 1 + j) % n) for j in range(count)]
    if any(word[i][0] == IDENT for _, i in interior):
        raise GluingError("arc crosses an identification segment")
    return interior


def _rewrite(surface: MarkedSurface, replace) -> tuple[tuple, dict]:
    """New words with each token replaced by replace(position, token).

    token_map sends the position of every token with a non-empty
    replacement to the position of the first token that replaces it.
    """
    words = []
    token_map: dict = {}
    for p, word in enumerate(surface.words):
        new_word: list = []
        for i, tok in enumerate(word):
            new = replace((p, i), tok)
            if new:
                token_map[(p, i)] = (p, len(new_word))
                new_word += new
        words.append(tuple(new_word))
    return tuple(words), token_map


def glue_surfaces(datum: GluingDatum) -> GlueInfo:
    """Identify the two arcs of the datum; returns the glued surface.

    The arcs are matched by an orientation-reversing correspondence, so
    mark i of gamma is identified with mark q-1-i of gamma_prime.
    """
    surface, *arcs = datum
    interiors = [_arc_interior(surface, arc) for arc in arcs]
    spans = [{(arc.piece, arc.start), (arc.piece, arc.end), *inner}
             for arc, inner in zip(arcs, interiors)]
    if spans[0] & spans[1]:
        raise GluingError("the two arcs overlap")
    marks = [[pos for pos in inner if surface.token(*pos)[0] == MARK] for inner in interiors]
    if len(marks[0]) != len(marks[1]):
        raise GluingError(
            f"arcs carry {len(marks[0])} and {len(marks[1])} marked points; "
            "they must match"
        )
    seam_pair = surface.num_pairs
    starts = {(arc.piece, arc.start) for arc in arcs}
    dropped = {*interiors[0], *interiors[1]}

    def replace(pos, tok):
        if pos in starts:
            return [tok, (IDENT, seam_pair)]
        return [] if pos in dropped else [tok]

    words, token_map = _rewrite(surface, replace)
    seam = tuple((arc.piece, token_map[(arc.piece, arc.start)][1] + 1) for arc in arcs)
    pairs = tuple(
        (token_map[pos_a], token_map[pos_b]) for pos_a, pos_b in surface.pairs
    ) + (seam,)
    target = MarkedSurface(words, pairs)

    seam_slots = {
        ("m", *pos): ("x", seam_pair, side, j)
        for side, arc_marks in enumerate(marks)
        for j, pos in enumerate(arc_marks)
    }
    mark_map: dict = {}
    for p, word in enumerate(surface.words):
        for i, tok in enumerate(word):
            if tok[0] == MARK:
                key = ("m", p, i)
                mark_map[key] = seam_slots.get(key) or ("m", *token_map[(p, i)])
    return GlueInfo(surface, target, seam_pair, len(marks[0]), mark_map, token_map)


def map_dividing_set(info: GlueInfo, k: DividingSet) -> DividingSet:
    """The glued image of a dividing set on the source surface."""
    src_layout = layout_of(info.source, k)
    crossings = k.crossings + (info.seam_marks,)
    tgt_layout = info.target.layout(crossings)

    def target_slot(key):
        return tgt_layout.slot_of(info.mark_map.get(key, key))[1]

    chords = [
        [(target_slot(keys[a]), target_slot(keys[b])) for a, b in piece_chords]
        for keys, piece_chords in zip(src_layout.slots, k.chords)
    ]
    return make_dividing_set(crossings, chords, k.closed)


class GlueResult(NamedTuple):
    """A gluing map evaluated on generators and on the quotient basis."""

    images: tuple[ClassVector, ...]
    basis_columns: tuple[int, ...]

    def image_of(self, module: TqftModule, k: DividingSet) -> ClassVector:
        idx = module.generator_index(k)
        return self.images[idx]


def glue_map(info: GlueInfo, m_src: TqftModule, m_tgt: TqftModule) -> GlueResult:
    """The linear map on classes induced by gluing the two arcs.

    Every source relation row must map to zero in the target; a failure
    is raised as an inconsistency rather than repaired.
    """
    if m_src.surface != info.source:
        raise GluingError("source module was built on a different surface")
    if m_tgt.surface != info.target:
        raise GluingError("target module was built on a different surface")
    if info.seam_marks > m_tgt.bound:
        raise BoundExceededError(
            "glued dividing sets exceed the target module's crossing bound"
        )
    images = []
    for gen in m_src.generators:
        images.append(class_of(m_tgt, map_dividing_set(info, gen)))
    for row in m_src.relation_rows:
        acc = 0
        for i in gf2.set_bits(row):
            acc ^= images[i].coords
        if acc:
            raise GluingError(
                "a bypass relation does not map to zero; the model is inconsistent"
            )
    basis_columns = tuple(images[i].coords for i in m_src.basis_indices)
    return GlueResult(tuple(images), basis_columns)


def datum_map(build, datum: GluingDatum, bound: int):
    """(glue result, source module, target module) for one gluing datum.

    The source is built at bound, the target at max(bound, marks on the
    seam): the least bound that holds every generator's glued image.
    """
    info = glue_surfaces(datum)
    m_src = build(info.source, bound)
    m_tgt = build(info.target, max(bound, info.seam_marks))
    return glue_map(info, m_src, m_tgt), m_src, m_tgt


# ---------------------------------------------------------------------------
# Cutting
# ---------------------------------------------------------------------------

def _infer_labels(words, pairs):
    """Fill unknown plain labels (stored as 0) from boundary alternation."""
    resolved = {}
    circles = _trace_boundary(words, pairs)
    for _, plains in circles:
        bases = {
            words[p][i][1] * (-1) ** sector
            for (p, i), sector in plains
            if words[p][i][1]
        }
        if len(bases) > 1:
            raise GluingError(
                "cut arc endpoints lie in sectors of equal sign; "
                "no single-crossing cut exists here"
            )
        if not bases:
            raise GluingError("cannot infer labels on an all-new boundary circle")
        (base,) = bases
        for pos, sector in plains:
            resolved[pos] = base * (-1) ** sector
    if any(n_marks % 2 for n_marks, _ in circles):
        raise GluingError(
            "cutting leaves a boundary circle with an odd number of marked "
            "points; no single-crossing cut exists here"
        )
    return tuple(
        tuple(
            (PLAIN, resolved[(p, i)]) if t == (PLAIN, 0) else t
            for i, t in enumerate(word)
        )
        for p, word in enumerate(words)
    )


class CutInfo(NamedTuple):
    cut_surface: MarkedSurface
    reglue: GluingDatum


def cut_surface(surface: MarkedSurface, pair_id: int) -> CutInfo:
    """Cut along one identification pair, adding a marked point per side.

    The new plain labels are inferred from alternation; the cut is
    rejected when the arc's endpoint sectors carry equal labels (then no
    dividing set crosses it an odd number of times).
    """
    if not _is_position(pair_id, surface.num_pairs):
        raise GluingError(f"no identification pair {pair_id}")
    cut_positions = set(surface.pairs[pair_id])

    def replace(pos, tok):
        if pos in cut_positions:
            return [(PLAIN, 0), (MARK,), (PLAIN, 0)]
        if tok[0] == IDENT and tok[1] > pair_id:
            return [(IDENT, tok[1] - 1)]
        return [tok]

    new_words, token_map = _rewrite(surface, replace)
    pairs = tuple(
        (token_map[pos_a], token_map[pos_b])
        for j, (pos_a, pos_b) in enumerate(surface.pairs)
        if j != pair_id
    )
    words = _infer_labels(new_words, pairs)
    cut = MarkedSurface(words, pairs)
    (pa, ia), (pb, ib) = surface.pairs[pair_id]
    (qa, ja), (qb, jb) = token_map[(pa, ia)], token_map[(pb, ib)]
    reglue = GluingDatum(
        cut,
        BoundaryArc(qa, ja, ja + 2),
        BoundaryArc(qb, jb, jb + 2),
    )
    return CutInfo(cut, reglue)


class CutReport(NamedTuple):
    rank_original: int
    rank_cut: int
    rank_reglued: int
    map_injective: bool

    @property
    def passed(self) -> bool:
        return (
            self.rank_original == self.rank_cut == self.rank_reglued
            and self.map_injective
        )


def cut_check(build, surface: MarkedSurface, pair_id: int, bound: int) -> CutReport:
    """Verify the cutting isomorphism along one pair, with modules from build."""
    m = build(surface, bound)
    result, m_cut, m_reglued = datum_map(build, cut_surface(surface, pair_id).reglue, bound)
    injective = gf2.rank(list(result.basis_columns)) == m_cut.rank
    return CutReport(m.rank, m_cut.rank, m_reglued.rank, injective)


# ---------------------------------------------------------------------------
# Boundary-parallel arc attachment on the disk
# ---------------------------------------------------------------------------

def attach_arc_datum(n: int, position: int) -> GluingDatum:
    """Datum gluing a 2-point disk onto marks (position, position+1) of a 2n disk.

    This realizes the maps that attach a boundary-parallel arc across two
    adjacent marked points.  position is 0-based and wraps modulo 2n.
    """
    if n < 2:
        raise GluingError("need at least 4 marked points on the big disk")
    big = disk(2 * n)
    small = disk(2)
    source = disjoint_union(big, small)
    total = 4 * n
    j = position % (2 * n)
    start = (2 * j - 1) % total
    end = (2 * j + 3) % total
    gamma = BoundaryArc(0, start, end)
    # The small disk's surviving plain segment must carry the sign of the
    # sector the seam lands in, which alternates with the position.
    gamma_prime = BoundaryArc(1, 1, 1) if j % 2 else BoundaryArc(1, 3, 3)
    return GluingDatum(source, gamma, gamma_prime)


def attach_arc_map(build, n: int, position: int):
    """datum_map of one attachment from bound 0; its seam holds 2 marks."""
    return datum_map(build, attach_arc_datum(n, position), 0)


# The three matchings of disk(6) of grading 0, in the order of the
# attachment tables.
_MIDDLE_MATCHINGS = (
    ((0, 3), (1, 2), (4, 5)),
    ((0, 5), (1, 4), (2, 3)),
    ((0, 1), (2, 5), (3, 4)),
)


def attachment_table(build) -> tuple[tuple[ClassVector, ...], ...]:
    """Images of the middle matchings of disk(6) under the arc attachments.

    Row j is attach_arc_map(build, 3, j); column c is the image of
    _MIDDLE_MATCHINGS[c] beside the small disk's chord.
    """
    table = []
    for j in range(3):
        result, m_src, _ = attach_arc_map(build, 3, j)
        table.append(tuple(
            result.image_of(m_src, make_dividing_set((), [chords, [(0, 1)]]))
            for chords in _MIDDLE_MATCHINGS
        ))
    return tuple(table)
