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

from dataclasses import dataclass

from . import gf2
from .surfaces import (
    IDENT,
    MARK,
    PLAIN,
    DividingSet,
    MarkedSurface,
    _layout,
    _trace_boundary,
    layout_of,
    make_dividing_set,
    validate_surface,
)
from .tqftcore import BoundExceededError, ClassVector, TqftModule, class_of


class GluingError(ValueError):
    """The gluing or cutting datum is invalid or inconsistent."""


@dataclass(frozen=True)
class BoundaryArc:
    """An arc of the glued boundary, inside one piece's boundary word.

    The arc runs forward from the middle of the plain token at `start` to
    the middle of the plain token at `end`, never crossing an
    identification segment.  start == end means the arc covers the whole
    boundary circle except a sub-segment of that token.
    """

    piece: int
    start: int
    end: int


@dataclass(frozen=True)
class GluingDatum:
    source: MarkedSurface
    gamma: BoundaryArc
    gamma_prime: BoundaryArc


@dataclass(frozen=True)
class GlueInfo:
    """Everything needed to transfer dividing sets across one gluing."""

    source: MarkedSurface
    target: MarkedSurface
    seam_pair: int
    seam_marks: int
    mark_map: dict
    token_map: dict


def _arc_interior(surface: MarkedSurface, arc: BoundaryArc) -> list[int]:
    if not 0 <= arc.piece < surface.num_pieces:
        raise GluingError(f"arc names piece {arc.piece}, which does not exist")
    word = surface.words[arc.piece]
    n = len(word)
    for t in (arc.start, arc.end):
        if not (0 <= t < n) or word[t][0] != PLAIN:
            raise GluingError("arc endpoints must lie inside plain segments")
    if arc.start == arc.end:
        interior = [(arc.start + 1 + j) % n for j in range(n - 1)]
    else:
        interior = []
        i = (arc.start + 1) % n
        while i != arc.end:
            interior.append(i)
            i = (i + 1) % n
    for i in interior:
        if word[i][0] == IDENT:
            raise GluingError("arc crosses an identification segment")
    return interior


def glue_surfaces(datum: GluingDatum) -> GlueInfo:
    """Identify the two arcs of the datum; returns the glued surface.

    The arcs are matched by an orientation-reversing correspondence, so
    mark i of gamma is identified with mark q-1-i of gamma_prime.
    """
    surface = datum.source
    validate_surface(surface)
    g, gp = datum.gamma, datum.gamma_prime
    int_g = _arc_interior(surface, g)
    int_gp = _arc_interior(surface, gp)
    span_g = {(g.piece, i) for i in int_g} | {(g.piece, g.start), (g.piece, g.end)}
    span_gp = {(gp.piece, i) for i in int_gp} | {(gp.piece, gp.start), (gp.piece, gp.end)}
    if span_g & span_gp:
        raise GluingError("the two arcs overlap")
    marks_g = [i for i in int_g if surface.words[g.piece][i][0] == MARK]
    marks_gp = [i for i in int_gp if surface.words[gp.piece][i][0] == MARK]
    if len(marks_g) != len(marks_gp):
        raise GluingError(
            f"arcs carry {len(marks_g)} and {len(marks_gp)} marked points; "
            "they must match"
        )
    seam_pair = surface.num_pairs
    q = len(marks_g)

    token_map: dict = {}
    new_words = []
    seam_pos: dict = {}
    for p, word in enumerate(surface.words):
        spans = []
        if p == g.piece:
            spans.append((g, set(int_g), 0))
        if p == gp.piece:
            spans.append((gp, set(int_gp), 1))
        new_word: list = []
        skip = set()
        starts, ends = {}, {}
        for arc, interior, side in spans:
            skip |= interior
            starts[arc.start] = side
            ends[arc.end] = side
        for i, tok in enumerate(word):
            if i in starts:
                new_word.append((PLAIN, tok[1]))
                token_map[(p, i)] = (p, len(new_word) - 1)
                seam_pos[starts[i]] = (p, len(new_word))
                new_word.append((IDENT, seam_pair))
            elif i in ends:
                new_word.append((PLAIN, tok[1]))
                token_map[(p, i)] = (p, len(new_word) - 1)
            elif i in skip:
                continue
            else:
                new_word.append(tok)
                token_map[(p, i)] = (p, len(new_word) - 1)
        new_words.append(tuple(new_word))

    pairs = tuple(
        (token_map[pos_a], token_map[pos_b]) for pos_a, pos_b in surface.pairs
    ) + ((seam_pos[0], seam_pos[1]),)
    target = MarkedSurface(tuple(new_words), pairs)
    validate_surface(target)

    mark_map: dict = {}
    for p, word in enumerate(surface.words):
        for i, tok in enumerate(word):
            if tok[0] != MARK:
                continue
            key = ("m", p, i)
            if p == g.piece and i in marks_g:
                mark_map[key] = ("x", seam_pair, 0, marks_g.index(i))
            elif p == gp.piece and i in marks_gp:
                mark_map[key] = ("x", seam_pair, 1, marks_gp.index(i))
            else:
                mark_map[key] = ("m", p, token_map[(p, i)][1])
    return GlueInfo(surface, target, seam_pair, q, mark_map, token_map)


def map_dividing_set(info: GlueInfo, k: DividingSet) -> DividingSet:
    """The glued image of a dividing set on the source surface."""
    src_layout = layout_of(info.source, k)
    crossings = k.crossings + (info.seam_marks,)
    tgt_layout = _layout(info.target, crossings)
    chords = []
    for p in range(info.source.num_pieces):
        pairs = []
        for a, b in k.chords[p]:
            keys = []
            for slot in (a, b):
                key = src_layout.key(p, slot)
                keys.append(info.mark_map.get(key, key))
            pairs.append((tgt_layout.index[keys[0]][1], tgt_layout.index[keys[1]][1]))
        chords.append(pairs)
    return make_dividing_set(crossings, chords, k.closed)


@dataclass(frozen=True)
class GlueResult:
    """A gluing map evaluated on generators and on the quotient basis."""

    info: GlueInfo
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
    return GlueResult(info, tuple(images), basis_columns)


# ---------------------------------------------------------------------------
# Cutting
# ---------------------------------------------------------------------------

def _infer_labels(words, pairs, unknowns):
    """Fill unknown plain labels (stored as 0) from boundary alternation."""
    trial = MarkedSurface(tuple(tuple(w) for w in words), pairs)
    resolved = dict(unknowns)
    for circle in _trace_boundary(trial):
        toks = [(pos, trial.token(*pos)) for pos in circle.tokens]
        mark_positions = [j for j, (_, t) in enumerate(toks) if t[0] == MARK]
        if not mark_positions:
            raise GluingError("a boundary circle has no marked points after cutting")
        n = len(toks)
        sector_of = {}
        first = mark_positions[0]
        sector = 0
        for off in range(1, n + 1):
            j = (first + off) % n
            pos, t = toks[j]
            if t[0] == MARK:
                sector += 1
            else:
                sector_of[j] = sector
        base = None
        for j, (pos, t) in enumerate(toks):
            if t[0] != MARK and t[1] != 0:
                s = sector_of[j]
                val = t[1] * (-1) ** (s % 2)
                if base is None:
                    base = val
                elif base != val:
                    raise GluingError(
                        "cut arc endpoints lie in sectors of equal sign; "
                        "no single-crossing cut exists here"
                    )
        if base is None:
            raise GluingError("cannot infer labels on an all-new boundary circle")
        for j, (pos, t) in enumerate(toks):
            if t[0] != MARK and t[1] == 0:
                resolved[pos] = base * (-1) ** (sector_of[j] % 2)
    out = []
    for p, word in enumerate(words):
        out.append(
            tuple(
                (PLAIN, resolved[(p, i)]) if t == (PLAIN, 0) else t
                for i, t in enumerate(word)
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class CutInfo:
    source: MarkedSurface
    cut_surface: MarkedSurface
    reglue: GluingDatum


def cut_surface(surface: MarkedSurface, pair_id: int) -> CutInfo:
    """Cut along one identification pair, adding a marked point per side.

    The new plain labels are inferred from alternation; the cut is
    rejected when the arc's endpoint sectors carry equal labels (then no
    dividing set crosses it an odd number of times).
    """
    validate_surface(surface)
    if not (0 <= pair_id < surface.num_pairs):
        raise GluingError(f"no identification pair {pair_id}")
    cut_positions = set(surface.pairs[pair_id])
    token_map: dict = {}
    new_words = []
    for p, word in enumerate(surface.words):
        new_word: list = []
        for i, tok in enumerate(word):
            if (p, i) in cut_positions:
                new_word.append((PLAIN, 0))
                new_word.append((MARK,))
                new_word.append((PLAIN, 0))
                token_map[(p, i)] = (p, len(new_word) - 3)
            else:
                if tok[0] == IDENT:
                    k = tok[1]
                    tok = (IDENT, k - 1 if k > pair_id else k)
                new_word.append(tok)
                token_map[(p, i)] = (p, len(new_word) - 1)
        new_words.append(new_word)
    pairs = tuple(
        (token_map[pos_a], token_map[pos_b])
        for j, (pos_a, pos_b) in enumerate(surface.pairs)
        if j != pair_id
    )
    words = _infer_labels(new_words, pairs, {})
    cut = MarkedSurface(words, pairs)
    validate_surface(cut)
    (pa, ia), (pb, ib) = surface.pairs[pair_id]
    (qa, ja), (qb, jb) = token_map[(pa, ia)], token_map[(pb, ib)]
    reglue = GluingDatum(
        cut,
        BoundaryArc(qa, ja, ja + 2),
        BoundaryArc(qb, jb, jb + 2),
    )
    return CutInfo(surface, cut, reglue)


@dataclass(frozen=True)
class CutReport:
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


def cut_check(surface: MarkedSurface, pair_id: int, bound: int) -> CutReport:
    """Verify the cutting isomorphism along one identification pair."""
    from .tqftcore import build_module

    m = build_module(surface, bound)
    info = cut_surface(surface, pair_id)
    m_cut = build_module(info.cut_surface, bound)
    glue_info = glue_surfaces(info.reglue)
    m_reglued = build_module(glue_info.target, max(bound, 1))
    result = glue_map(glue_info, m_cut, m_reglued)
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
    from .surfaces import disjoint_union, disk

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


def attach_arc_map(n: int, position: int, bound: int = 2):
    """(glue result, source module, target module) for one arc attachment."""
    from .tqftcore import build_module

    datum = attach_arc_datum(n, position)
    info = glue_surfaces(datum)
    m_src = build_module(datum.source, 0)
    m_tgt = build_module(info.target, max(bound, 2))
    return glue_map(info, m_src, m_tgt), m_src, m_tgt


# The three matchings of disk(6) of grading 0, in the order of the
# attachment tables.
_MIDDLE_MATCHINGS = (
    ((0, 3), (1, 2), (4, 5)),
    ((0, 5), (1, 4), (2, 3)),
    ((0, 1), (2, 5), (3, 4)),
)


def attachment_table(bound: int = 2) -> tuple[tuple[ClassVector, ...], ...]:
    """Images of the middle matchings of disk(6) under the arc attachments.

    Row j is attach_arc_map(3, j, bound); column c is the image of
    _MIDDLE_MATCHINGS[c] beside the small disk's chord.
    """
    table = []
    for j in range(3):
        result, m_src, _ = attach_arc_map(3, j, bound)
        table.append(tuple(
            result.image_of(m_src, make_dividing_set((), [chords, [(0, 1)]]))
            for chords in _MIDDLE_MATCHINGS
        ))
    return tuple(table)
