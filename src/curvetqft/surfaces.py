"""Marked surfaces and dividing sets, represented exactly.

A surface is presented as one or more oriented disk pieces whose boundary
words are cyclic sequences of tokens: marked points, labeled plain
segments (which stay on the boundary), and identification segments
(which are glued in pairs).  Gluing a pair matches one segment traversed
forward with the other traversed backward, so every presented surface is
oriented.  The Euler characteristic is #pieces - #pairs.

A dividing set is a properly embedded multicurve whose boundary is
exactly the marked points and whose complementary regions can be
2-colored compatibly with the boundary labels.  It is stored as a
non-crossing chord pairing per piece; chord endpoints ("slots") are the
marked points together with the crossing points on identification
segments.  Crossing lists on paired segments match in reversed order.
Closed components that cross no identification segment are contractible
and are recorded only by count.

The bypass operation removes a neighborhood of an arc that meets the
multicurve in exactly three points and reconnects the three strands in
the other two ways that preserve the grading: the next two rotations of
their six endpoints.  The three configurations so related form a bypass
triple.
"""

from __future__ import annotations

import itertools
import operator
from typing import NamedTuple

MARK = "mark"
PLAIN = "plain"
IDENT = "ident"

POS = 1
NEG = -1

Token = tuple
Chord = tuple[int, int]


class SurfaceError(ValueError):
    """The marked-surface data violates a structural invariant."""


class DividingSetError(ValueError):
    """The dividing-set data violates a structural invariant."""


class ColoringError(DividingSetError):
    """The complement of the multicurve has no consistent 2-coloring."""


class BypassError(ValueError):
    """The arc data does not describe a valid bypass attachment."""


def mark() -> Token:
    return (MARK,)


def plain(label: int) -> Token:
    return (PLAIN, label)


def ident(pair_id: int) -> Token:
    return (IDENT, pair_id)


class _SurfaceFields(NamedTuple):
    words: tuple[tuple[Token, ...], ...]
    pairs: tuple[tuple[tuple[int, int], tuple[int, int]], ...]


class MarkedSurface(_SurfaceFields):
    """Disk pieces with paired boundary segments and labeled marked points.

    words[p] is the cyclic boundary word of piece p.  pairs[k] is the
    ordered pair of (piece, token_index) positions of the two segments
    glued by identification k; the first is traversed forward and the
    second backward.  Construction runs validate_surface, so every
    MarkedSurface is a valid sutured surface.  The tuple holds words and
    pairs only: the slot-layout memo sits beside it, outside ==, hash
    and repr.  _make and _replace skip the check and the memo.
    """

    def __new__(cls, words, pairs):
        self = super().__new__(cls, words, pairs)
        # crossing vector -> SlotLayout; it lives as long as the surface does.
        self.__dict__["_layouts"] = {}
        validate_surface(self)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a MarkedSurface is immutable")

    def token(self, piece: int, idx: int) -> Token:
        return self.words[piece][idx]

    def layout(self, crossings: tuple[int, ...]) -> SlotLayout:
        """The slot layout for a crossing vector, built once."""
        layouts = self._layouts
        if crossings not in layouts:
            _check_length(self, crossings)
            layouts[crossings] = SlotLayout(self, crossings)
        return layouts[crossings]

    @property
    def num_pieces(self) -> int:
        return len(self.words)

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)

    def euler_characteristic(self) -> int:
        return self.num_pieces - self.num_pairs


class DividingSet(NamedTuple):
    """A multicurve on a marked surface.

    crossings[k] is the number of times the curve crosses identification
    pair k.  chords[p] is the non-crossing pairing of the slots of piece
    p, as sorted (lo, hi) slot-index pairs.  closed counts contractible
    closed components, whose embedded position is deliberately dropped.
    """

    crossings: tuple[int, ...]
    chords: tuple[tuple[Chord, ...], ...]
    closed: int = 0

    def encode(self) -> tuple:
        """Canonical sort key; equal keys mean equal dividing sets."""
        return (self.crossings, self.chords, self.closed)


def make_dividing_set(crossings, chords_per_piece, closed=0) -> DividingSet:
    """Normalize chord data (sorted pairs, sorted per piece) into a DividingSet."""
    norm = tuple(
        tuple(sorted(tuple(sorted(pair)) for pair in piece_chords))
        for piece_chords in chords_per_piece
    )
    return DividingSet(tuple(crossings), norm, closed)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def disk(num_marks: int) -> MarkedSurface:
    """Disk with num_marks marked points; the segment after slot 0 is positive."""
    if num_marks < 2 or num_marks % 2:
        raise SurfaceError("a disk needs an even number >= 2 of marked points")
    word = []
    for i in range(num_marks):
        word.append(mark())
        word.append(plain(POS if i % 2 == 0 else NEG))
    return MarkedSurface((tuple(word),), ())


def annulus(
    marks_a: int = 2, marks_b: int = 2, corner_labels: tuple[int, int] = (NEG, NEG)
) -> MarkedSurface:
    """Annulus presented as one piece with one identified segment pair.

    marks_a points sit on one boundary circle and marks_b on the other.
    corner_labels gives the sign of the boundary sector through which the
    seam meets each circle.  With the default (-, -) the seam is crossed
    an even number of times by every dividing set; use opposite labels to
    present an annulus whose seam admits single-crossing transversals.
    """
    for m in (marks_a, marks_b):
        if m < 2 or m % 2:
            raise SurfaceError("each boundary circle needs an even number >= 2 of marks")
    word: list[Token] = []
    for m, corner in ((marks_a, corner_labels[0]), (marks_b, corner_labels[1])):
        word.append(ident(0))
        word.append(plain(corner))
        for i in range(m):
            word.append(mark())
            word.append(plain(-corner if i % 2 == 0 else corner))
    second = word.index((IDENT, 0), 1)
    return MarkedSurface((tuple(word),), (((0, 0), (0, second)),))


def punctured_torus(num_marks: int = 2) -> MarkedSurface:
    """Once-punctured torus: one piece, two identified pairs, one boundary circle.

    The marked points are distributed so that each of the two handle arcs
    has its endpoints in boundary sectors of opposite sign, which makes
    both arcs cuttable by a single-crossing transversal.
    """
    if num_marks < 2 or num_marks % 2:
        raise SurfaceError("the boundary circle needs an even number >= 2 of marks")
    word: list[Token] = [ident(0), plain(NEG)]
    for i in range(num_marks - 1):
        word.append(mark())
        word.append(plain(POS if i % 2 == 0 else NEG))
    word.extend(
        [ident(1), plain(NEG), ident(0), plain(POS), mark(), plain(NEG), ident(1), plain(POS)]
    )
    a2 = word.index((IDENT, 0), 1)
    b1 = word.index((IDENT, 1))
    b2 = word.index((IDENT, 1), b1 + 1)
    return MarkedSurface((tuple(word),), (((0, 0), (0, a2)), ((0, b1), (0, b2))))


def disjoint_union(a: MarkedSurface, b: MarkedSurface) -> MarkedSurface:
    """Disjoint union; pieces and pairs of b are re-indexed after a's."""
    offset = a.num_pieces
    shift = a.num_pairs

    def shift_word(word):
        return tuple(
            (IDENT, t[1] + shift) if t[0] == IDENT else t for t in word
        )

    words = a.words + tuple(shift_word(w) for w in b.words)
    pairs = a.pairs + tuple(
        ((pa[0] + offset, pa[1]), (pb[0] + offset, pb[1])) for pa, pb in b.pairs
    )
    return MarkedSurface(words, pairs)


# ---------------------------------------------------------------------------
# Surface validation
# ---------------------------------------------------------------------------

class SurfaceInfo(NamedTuple):
    euler: int
    marks_per_circle: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]


def _trace_boundary(words, pairs) -> list[tuple[int, list]]:
    """Boundary circles of the glued words as (mark count, plain sectors).

    Each circle lists its plain tokens as (position, sector), where the
    sector counts the marks passed since the circle's first mark, from 0.
    On a well-labelled circle label * (-1)**sector is constant.  When the
    walk reaches an identification segment it continues after the partner
    segment, because a segment's start corner is glued to its partner's
    end corner.  Plain labels are not read, so they may still be unknown.
    """
    partner = {}
    for pos_a, pos_b in pairs:
        partner[pos_a] = pos_b
        partner[pos_b] = pos_a
    seen: set[tuple[int, int]] = set()
    circles = []
    for piece, word in enumerate(words):
        for start in range(len(word)):
            if word[start][0] == IDENT or (piece, start) in seen:
                continue
            walk = []
            p, i = piece, start
            while (p, i) not in seen:
                seen.add((p, i))
                walk.append((p, i))
                i = (i + 1) % len(words[p])
                while words[p][i][0] == IDENT:
                    p, i = partner[(p, i)]
                    i = (i + 1) % len(words[p])
            first = next((j for j, (p, i) in enumerate(walk) if words[p][i][0] == MARK), 0)
            sector = -1
            plains = []
            for p, i in walk[first:] + walk[:first]:
                if words[p][i][0] == MARK:
                    sector += 1
                else:
                    plains.append(((p, i), sector))
            circles.append((sector + 1, plains))
    return circles


def _surface_components(surface: MarkedSurface) -> list[tuple[int, ...]]:
    uf = _ParityUnionFind(surface.num_pieces)
    for (pa, _), (pb, _) in surface.pairs:
        uf.union(pa, pb, 0)
    groups: dict[int, list[int]] = {}
    for p in range(surface.num_pieces):
        groups.setdefault(uf.relation(p)[0], []).append(p)
    return [tuple(g) for g in groups.values()]


# Tokens that need no pair; their entries must be of these types too.
_BOUNDARY_TOKENS = frozenset({(MARK,), (PLAIN, POS), (PLAIN, NEG)})


def _is_token(tok, want: Token) -> bool:
    """tok == want, entry types included: 1.0 and True compare equal to 1."""
    return tok == want and all(type(a) is type(b) for a, b in zip(tok, want))


def validate_surface(surface: MarkedSurface) -> SurfaceInfo:
    """Check all marked-surface invariants; raise SurfaceError on failure.

    Each token must be (MARK,), (PLAIN, +1 or -1) or (IDENT, k) where
    pairs[k] names it, with int entries, and the surface must be hashable
    (tuples all the way down).  Every MarkedSurface runs this when
    constructed.
    """
    try:
        hash(surface)
    except TypeError:
        raise SurfaceError("words and pairs must be tuples; a list is unhashable") from None
    try:
        lengths = [len(word) for word in surface.words]
    except TypeError:
        raise SurfaceError(
            f"words must be a tuple of boundary words, got {surface.words!r}"
        ) from None
    errors = []
    seen_positions: dict[tuple[int, int], int] = {}
    try:
        for k, (pos_a, pos_b) in enumerate(surface.pairs):
            if pos_a == pos_b:
                errors.append(f"pair {k} identifies a segment with itself")
            for pos in (pos_a, pos_b):
                p, i = pos
                if type(p) is not int or type(i) is not int:
                    raise TypeError  # a bool would index a token as 0 or 1
                if not (0 <= p < len(lengths) and 0 <= i < lengths[p]):
                    errors.append(f"pair {k} references missing token {pos}")
                    continue
                if not _is_token(surface.token(p, i), (IDENT, k)):
                    errors.append(f"token at {pos} is not identification segment {k}")
                if pos in seen_positions:
                    errors.append(f"segment {pos} belongs to more than one pair")
                seen_positions[pos] = k
    except (TypeError, ValueError):
        raise SurfaceError(
            f"pairs must hold two (piece, token index) int positions each, got {surface.pairs!r}"
        ) from None
    for p, word in enumerate(surface.words):
        if not word:
            errors.append(f"piece {p} has an empty boundary word")
        for i, tok in enumerate(word):
            if (p, i) in seen_positions or (
                tok in _BOUNDARY_TOKENS and type(tok[0]) is str
                and (tok[0] == MARK or type(tok[1]) is int)
            ):
                continue
            if isinstance(tok, tuple) and tok[:1] == (IDENT,):
                errors.append(f"identification segment at {(p, i)} is unpaired")
            else:
                errors.append(f"unknown token {tok!r} at {(p, i)}")
    if errors:
        raise SurfaceError("; ".join(errors))

    circles = _trace_boundary(surface.words, surface.pairs)
    for n_marks, plains in circles:
        if n_marks % 2 or n_marks < 2:
            errors.append(f"odd or deficient marked-point count {n_marks} on a boundary circle")
            continue
        if len({sector for _, sector in plains}) < n_marks:
            errors.append("two adjacent marked points with no segment between")
        if len({surface.token(*pos)[1] * (-1) ** sector for pos, sector in plains}) > 1:
            errors.append("labels do not alternate across marked points")

    components = _surface_components(surface)
    for group in components:
        if not any(
            surface.token(p, i)[0] != IDENT
            for p in group
            for i in range(len(surface.words[p]))
        ):
            errors.append(f"component with pieces {group} has empty boundary")

    if errors:
        raise SurfaceError("; ".join(errors))
    return SurfaceInfo(
        euler=surface.euler_characteristic(),
        marks_per_circle=tuple(n_marks for n_marks, _ in circles),
        components=tuple(components),
    )


def num_marks(surface: MarkedSurface) -> int:
    return sum(
        1 for word in surface.words for t in word if t[0] == MARK
    )


# ---------------------------------------------------------------------------
# Slot layout
# ---------------------------------------------------------------------------

# Slot keys are stable names for chord endpoints:
#   ("m", piece, word_index)            a marked point
#   ("x", pair, side, position)         crossing #position on one segment
SlotKey = tuple


class SlotLayout:
    """Slot indexing and coloring for a surface with a fixed crossing vector.

    slots[p] lists the slot keys of piece p in boundary order.  first[p][i]
    is the number of slots of piece p before token i, so a mark at token
    i is slot first[p][i] and the crossings of a segment at token i are
    the slots from first[p][i] on.  bigon_slots[p] holds every slot a of
    piece p such that a and a+1 are crossings of one segment side: a
    chord (a, a+1) is then a bigon.

    Passing a slot along a piece's boundary crosses the multicurve, so
    whatever the chords, the face at interval i (between slot i and i+1)
    of piece p has sign signs[p] * (-1)**(i + 1).  signs is None when no
    dividing set with these crossings is colorable; this is the one place
    that decides colorability.
    """

    def __init__(self, surface: MarkedSurface, crossings: tuple[int, ...]):
        self.surface = surface
        self.crossings = crossings
        side_of = {pos: (pair, side) for pair, sides in enumerate(surface.pairs)
                   for side, pos in enumerate(sides)}
        self.slots: list[list[SlotKey]] = []
        self.first: list[list[int]] = []
        self.bigon_slots: list[frozenset[int]] = []
        for p, word in enumerate(surface.words):
            keys: list[SlotKey] = []
            first = []
            bigons: list[int] = []
            for i, tok in enumerate(word):
                first.append(len(keys))
                if tok[0] == MARK:
                    keys.append(("m", p, i))
                elif tok[0] == IDENT:
                    pair, side = side_of[p, i]
                    bigons.extend(range(len(keys), len(keys) + crossings[pair] - 1))
                    keys.extend(("x", pair, side, pos) for pos in range(crossings[pair]))
            self.slots.append(keys)
            self.first.append(first)
            self.bigon_slots.append(frozenset(bigons))
        self.signs: tuple[int, ...] | None = None
        self._gap_grading = 0
        if not any(len(keys) % 2 for keys in self.slots):
            self._color()

    def _color(self) -> None:
        """Set signs, or leave them None when the labels admit no coloring.

        Seams and labels constrain the pieces only: gap g of a seam joins
        interval first[pa][ia] - 1 + g of pa to first[pb][ib] - 1 + r - g
        of pb, whose signs agree for every g exactly when the pieces'
        signs differ by (-1)**(first[pa][ia] + first[pb][ib] + r), and a
        plain token at (p, i) lies on interval first[p][i] - 1.
        """
        surface = self.surface
        uf = _ParityUnionFind(surface.num_pieces)
        for ((pa, ia), (pb, ib)), r in zip(surface.pairs, self.crossings):
            if not uf.union(pa, pb, (self.first[pa][ia] + self.first[pb][ib] + r) % 2):
                return
        anchor: dict[int, int] = {}
        for p, word in enumerate(surface.words):
            for i, tok in enumerate(word):
                if tok[0] == PLAIN:
                    root, par = uf.relation(p)
                    sign = tok[1] * (-1) ** (self.first[p][i] + par)
                    if anchor.setdefault(root, sign) != sign:
                        return
        # Every surface component holds a plain token, so every root is anchored.
        self.signs = tuple(
            anchor[root] * (-1) ** par for root, par in map(uf.relation, range(surface.num_pieces))
        )
        # A piece cut along its chords has slots/2 + 1 faces; each of a
        # seam's r + 1 gaps glues two of them.
        got = sum(len(keys) // 2 + 1 for keys in self.slots) - sum(r + 1 for r in self.crossings)
        expected = surface.euler_characteristic() + num_marks(surface) // 2
        if got != expected:
            raise RuntimeError(
                f"internal Euler bookkeeping failed: regions sum to {got}, expected {expected}"
            )
        # The gaps of a seam are charged to the faces on side pa; their
        # signs alternate, so they cancel unless the count r + 1 is odd.
        self._gap_grading = sum(
            self.signs[pa] * (-1) ** self.first[pa][ia]
            for ((pa, ia), _), r in zip(surface.pairs, self.crossings)
            if r % 2 == 0
        )

    def grading(self, chords: tuple[tuple[Chord, ...], ...]) -> int:
        """chi(positive regions) - chi(negative regions) for chords laid out here.

        chi(region) is its number of faces less the seam gaps charged to
        them.  Piece p has face 0 (sign signs[p]) and the inner face of
        each chord (a, b), whose sign is signs[p] * (-1)**(a + 1).  The
        layout must be colorable.
        """
        return sum(
            s * (1 + 2 * sum(a % 2 for a, _ in piece) - len(piece))
            for s, piece in zip(self.signs, chords)
        ) - self._gap_grading

    def num_slots(self, piece: int) -> int:
        return len(self.slots[piece])

    def slot_of(self, key: SlotKey) -> tuple[int, int]:
        """(piece, slot) of a slot key."""
        if key[0] == "m":
            return key[1], self.first[key[1]][key[2]]
        piece, i = self.surface.pairs[key[1]][key[2]]
        return piece, self.first[piece][i] + key[3]

    def interval_for_word_position(self, piece: int, word_idx: int) -> int:
        """Interval index (between slot i and i+1) at the start of a token.

        The interval before slot 0 is the last one, given as -1, so that
        gap g of a segment at word_idx is this interval plus g.
        """
        return self.first[piece][word_idx] - 1


def layout_of(surface: MarkedSurface, k: DividingSet) -> SlotLayout:
    return surface.layout(k.crossings)


def _check_length(surface: MarkedSurface, crossings: tuple[int, ...]) -> None:
    if len(crossings) != surface.num_pairs:
        raise DividingSetError(
            f"crossing vector has length {len(crossings)}, expected {surface.num_pairs}"
        )


# ---------------------------------------------------------------------------
# Faces of one piece
# ---------------------------------------------------------------------------

def _nest(chords: tuple[Chord, ...]) -> tuple[list[int], list[list[int]]]:
    """(parent, children) of a piece's chords, by index, in one pass.

    The chords are a valid piece's, so ascending and non-crossing.
    parent[j] is the index of the chord directly enclosing chord j, or
    -1, and children[j] the indices of the chords directly inside it,
    ascending; children[-1] holds the top-level chords.  Cut along its
    chords, the piece has face 0, before slot 0 and bounded by the
    top-level chords, and one inner face j + 1 per chord j, bounded by j
    and children[j]; parent[j] and its children bound j's outer face.
    """
    parent: list[int] = []
    children: list[list[int]] = [[] for _ in range(len(chords) + 1)]
    for j, (a, _) in enumerate(chords):
        # The chords still open at a are chord j - 1 and its ancestors.
        up = j - 1
        while up >= 0 and chords[up][1] < a:
            up = parent[up]
        parent.append(up)
        children[up].append(j)
    return parent, children


# ---------------------------------------------------------------------------
# Regions: 2-coloring, Euler characteristics, isolation
# ---------------------------------------------------------------------------

class _ParityUnionFind:
    """Union-find whose edges carry a GF(2) parity (color flip or not)."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.parity = [0] * n

    def relation(self, x: int) -> tuple[int, int]:
        root = x
        par = 0
        while self.parent[root] != root:
            par ^= self.parity[root]
            root = self.parent[root]
        return root, par

    def union(self, x: int, y: int, flip: int) -> bool:
        rx, px = self.relation(x)
        ry, py = self.relation(y)
        if rx == ry:
            return (px ^ py) == flip
        self.parent[rx] = ry
        self.parity[rx] = px ^ py ^ flip
        return True


class Region(NamedTuple):
    """One component of the complement of the multicurve."""

    sign: int
    euler: int
    touches_boundary: bool


def validate_dividing_set(surface: MarkedSurface, k: DividingSet) -> SlotLayout:
    """Structural validity: crossing vector, normalized perfect non-crossing
    pairings (as make_dividing_set writes them, so encode() is unique).

    One walk over each piece's chords, in stored order, decides both:
    every chord opens at the next unvisited slot and closes inside the
    innermost open chord, and the walk ends on the piece's slot count
    (its marks plus the crossings of its segments).  Returns k's slot
    layout, which is built only once k has passed.
    """
    try:
        hash(k)
    except TypeError:
        raise DividingSetError("a dividing set must hold tuples; use make_dividing_set") from None
    try:
        crossings, chords_per_piece, closed = k
        _check_length(surface, crossings)
        if len(chords_per_piece) != surface.num_pieces:
            raise DividingSetError("chord data does not cover every piece")
        # type() refuses a bool or an int-valued float, though they equal ints.
        if type(closed) is not int:
            raise TypeError
        if closed < 0:
            raise DividingSetError("negative closed-component count")
        for c in crossings:
            if type(c) is not int:
                raise TypeError
            if c < 0:
                raise DividingSetError("negative crossing count")
        counts = [word.count((MARK,)) for word in surface.words]
        for ((pa, _), (pb, _)), r in zip(surface.pairs, crossings):
            counts[pa] += r
            counts[pb] += r
        for p, count in enumerate(counts):
            chords = chords_per_piece[p]
            ends: list[int] = []  # high ends of the open chords, innermost last
            slot = 0  # the next unvisited slot
            for a, b in chords:
                while ends and ends[-1] == slot:
                    ends.pop()
                    slot += 1
                if a != slot or not a < b < (ends[-1] if ends else count):
                    break
                if type(a) is not int or type(b) is not int:
                    raise TypeError
                ends.append(b)
                slot = a + 1
            else:
                # The open ends are distinct and lie in [slot, count), so
                # they close the remaining slots exactly when there are
                # that many.
                if len(ends) == count - slot:
                    continue
            if chords != tuple(sorted(chords)) or not all(itertools.starmap(operator.lt, chords)):
                raise DividingSetError(
                    f"piece {p}: chords are not sorted (lo, hi) pairs in ascending "
                    "order; build the set with make_dividing_set"
                )
            raise DividingSetError(
                f"piece {p}: chords are not a non-crossing perfect matching of its slots"
            )
    except DividingSetError:
        raise
    except (TypeError, ValueError):
        # A chord that is not a pair, or a count that is not an int, fails
        # inside the walk; catching it here costs an accepted set nothing.
        raise DividingSetError(
            "crossings and the closed count must be ints and chords (lo, hi) int pairs"
        ) from None
    return surface.layout(crossings)


def analyze_regions(surface: MarkedSurface, k: DividingSet) -> tuple[Region, ...] | None:
    """Regions with signs and Euler characteristics, or None if uncolorable.

    The slot layout decides colorability and gives every face its sign.
    Faces of the pieces are glued along the gaps of identified segments
    into regions.  With all cells of the cut-open surface open, only faces
    and glued gaps contribute to a region's Euler characteristic, so
    chi(region) = #faces - #glued gaps.  Raises DividingSetError when k
    is malformed.
    """
    layout = validate_dividing_set(surface, k)
    if layout.signs is None:
        return None
    # Faces of piece p are numbered from offsets[p]: face 0, then the
    # inner face of its chord j as j + 1 (see _nest).  Interval a of a
    # chord (a, b) lies in the chord's inner face, and interval b in its
    # parent's, or in face 0.
    offsets = []
    sign = []
    face_of = []
    for s, chords in zip(layout.signs, k.chords):
        offsets.append(len(sign))
        sign.append(s)
        sign.extend(s if a % 2 else -s for a, _ in chords)
        parent, _ = _nest(chords)
        # A piece with no slots is its single face 0.
        intervals = [0] * (2 * len(chords) or 1)
        for j, (a, b) in enumerate(chords):
            intervals[a] = j + 1
            intervals[b] = parent[j] + 1
        face_of.append(intervals)
    num_faces = len(sign)
    uf = _ParityUnionFind(num_faces)

    def face_at(piece: int, interval: int) -> int:
        return offsets[piece] + face_of[piece][interval]

    # Gap edges join faces into regions: gap g of a segment with r
    # crossings lies between crossings g-1 and g.  euler[f] is 1 for face
    # f less the gaps charged to it.
    euler = [1] * num_faces
    for ((pa, ia), (pb, ib)), r in zip(surface.pairs, k.crossings):
        before_a = layout.interval_for_word_position(pa, ia)
        before_b = layout.interval_for_word_position(pb, ib)
        for gap in range(r + 1):
            fa = face_at(pa, before_a + gap)
            fb = face_at(pb, before_b + r - gap)
            euler[fa] -= 1
            uf.union(fa, fb, 0)
    region_of = [uf.relation(f)[0] for f in range(num_faces)]
    touches = {
        region_of[face_at(p, layout.interval_for_word_position(p, i))]
        for p, word in enumerate(surface.words)
        for i, tok in enumerate(word)
        if tok[0] == PLAIN
    }
    chi: dict[int, int] = {}
    for fid, region in enumerate(region_of):
        chi[region] = chi.get(region, 0) + euler[fid]
    return tuple(Region(sign[region], e, region in touches) for region, e in chi.items())


def _colored(value):
    """value, or ColoringError when the slot layout admits no coloring (None)."""
    if value is None:
        raise ColoringError("no 2-coloring of the complement extends the boundary labels")
    return value


def label_regions(surface: MarkedSurface, k: DividingSet) -> tuple[Region, ...]:
    """Connected components of the complement, with signs and Euler numbers."""
    return _colored(analyze_regions(surface, k))


def euler_grading(surface: MarkedSurface, k: DividingSet) -> int:
    """chi(positive regions) - chi(negative regions) of the embedded part.

    Contractible closed components carry no position data, so they do not
    contribute; every class with such components is zero anyway.
    """
    layout = validate_dividing_set(surface, k)
    _colored(layout.signs)
    return layout.grading(k.chords)


def is_isolating(surface: MarkedSurface, k: DividingSet) -> bool:
    """Whether some complementary region avoids the surface boundary."""
    regions = label_regions(surface, k)
    return k.closed > 0 or any(not r.touches_boundary for r in regions)


def is_colorable(surface: MarkedSurface, k: DividingSet) -> bool:
    return validate_dividing_set(surface, k).signs is not None


# ---------------------------------------------------------------------------
# Crossingless matchings on the disk
# ---------------------------------------------------------------------------

def noncrossing_pairings(num_slots: int, forbidden=frozenset()):
    """Non-crossing perfect matchings of range(num_slots), as ascending chord tuples.

    Matchings with a chord (a, a+1), a in forbidden, are never built: the
    recursion pairs ranges of consecutive slots, so such a chord is always
    a range's first point paired with its neighbour.  Each sub-range's
    matchings are listed once per call.  An odd or negative count has
    none.
    """
    if num_slots % 2:
        return
    memo: dict[tuple[int, int], list] = {}

    def ranged(lo, hi):
        """The matchings of range(lo, hi); empty when hi < lo."""
        if (lo, hi) not in memo:
            memo[lo, hi] = [()] if lo == hi else [
                ((lo, j),) + left + right
                for j in range(lo + 1, hi, 2)
                if j > lo + 1 or lo not in forbidden
                for left in ranged(lo + 1, j)
                for right in ranged(j + 1, hi)
            ]
        return memo[lo, hi]

    yield from ranged(0, num_slots)


def enumerate_matchings(n: int) -> list[DividingSet]:
    """The crossingless matchings of the disk with 2n points.

    Ordered by descending grading, then lexicographically on the pairing
    read from the basepoint.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return enumerate_dividing_sets(disk(2 * n), 0)


def catalan(n: int) -> int:
    """Catalan number C_n, by the additive recurrence."""
    if n < 0:
        raise ValueError("n must be >= 0")
    c = [1] + [0] * n
    for m in range(1, n + 1):
        c[m] = sum(c[i] * c[m - 1 - i] for i in range(m))
    return c[n]


# ---------------------------------------------------------------------------
# Canonical form: greedy bigon reduction
# ---------------------------------------------------------------------------

def _find_bigon(layout: SlotLayout, k: DividingSet):
    """(piece, a) of the first chord (a, a+1) whose low end a is a bigon slot."""
    for p, (bigons, chords) in enumerate(zip(layout.bigon_slots, k.chords)):
        if bigons:
            for a, b in chords:
                if b - a == 1 and a in bigons:
                    return p, a
    return None


def canonicalize(surface: MarkedSurface, k: DividingSet) -> DividingSet:
    """Greedy bigon reduction to the canonical bigon-free representative.

    A bigon is a chord joining two consecutive crossings of one
    identification segment.  Removing it deletes both crossings (and the
    partner crossings), reconnects the partner chords, and increments the
    contractible count when the partner strand closes up.  Bigons are
    removed first by piece, then by low slot.  Returns k itself when it
    has no bigon.
    """
    return _reduce(validate_dividing_set(surface, k), k)


def _reduce(layout: SlotLayout, k: DividingSet) -> DividingSet:
    """canonicalize without validation, for a set laid out by layout.

    Each step removes the first bigon (a, a+1), crossings pos and pos+1
    of one side of a pair with r crossings, in piece p.  Its partners
    are crossings r-2-pos and r-1-pos of the other side, slots b and b+1
    of piece q.  The chords at b and b+1 join into one chord, or close a
    circle when they are one chord.  The later slots of p and q move
    down by 2, and the next step reads the layout with r - 2 crossings.

    The steps work on partner arrays: mates[p][x] is the other end of
    the chord at slot x of piece p.  A piece with no bigon slots is
    never touched, so it keeps its chords and has no array.
    """
    bigon = _find_bigon(layout, k)
    if bigon is None:
        return k
    surface = layout.surface
    crossings, chords, closed = k
    mates = []
    for bigons, piece in zip(layout.bigon_slots, chords):
        m = None
        if bigons:
            m = [0] * (2 * len(piece))
            for x, y in piece:
                m[x] = y
                m[y] = x
        mates.append(m)
    while bigon is not None:
        p, a = bigon
        _, pair, side, pos = layout.slots[p][a]
        r = crossings[pair]
        q, i = surface.pairs[pair][1 - side]
        b = layout.first[q][i] + r - 2 - pos
        m = mates[q]
        x, y = m[b], m[b + 1]
        if x == b + 1:
            closed += 1
        else:
            m[x] = y
            m[y] = x
        if p == q:
            lo, hi = (a, b) if a < b else (b, a)
            del m[hi:hi + 2], m[lo:lo + 2]
            mates[p] = [x - 2 * ((x > lo) + (x > hi)) for x in m]
        else:
            for piece, s in ((p, a), (q, b)):
                m = mates[piece]
                del m[s:s + 2]
                mates[piece] = [x - 2 * (x > s) for x in m]
        crossings = crossings[:pair] + (r - 2,) + crossings[pair + 1:]
        layout = surface.layout(crossings)
        bigon = None
        for p, (bigons, m) in enumerate(zip(layout.bigon_slots, mates)):
            if m is not None:
                found = [c for c in bigons if m[c] == c + 1]
                if found:
                    bigon = p, min(found)
                    break
    chords = tuple(
        piece if m is None else tuple([(x, y) for x, y in enumerate(m) if x < y])
        for piece, m in zip(chords, mates)
    )
    return DividingSet(crossings, chords, closed)


# ---------------------------------------------------------------------------
# Enumeration of canonical dividing sets
# ---------------------------------------------------------------------------

def enumerate_dividing_sets(surface: MarkedSurface, bound: int) -> list[DividingSet]:
    """All canonical dividing sets with at most `bound` crossings per segment.

    Contractible closed components are excluded (their classes vanish and
    their position is not recorded); closed components that cross
    identification segments are included.  Ordered by descending grading,
    then by encoding.  Only bigon-free pairings are enumerated, and only
    on slot layouts that color, so every candidate is a generator.
    """
    return list(graded_dividing_sets(surface, bound)[1])


def graded_dividing_sets(
    surface: MarkedSurface, bound: int
) -> tuple[tuple[int, ...], tuple[DividingSet, ...]]:
    """The sets of enumerate_dividing_sets and their gradings, as (gradings, sets).

    The grading leads the sort key, so each set is graded once.
    """
    if not isinstance(bound, int) or isinstance(bound, bool) or bound < 0:
        raise DividingSetError(f"crossing bound must be an int >= 0, got {bound!r}")
    out = []
    for crossings in itertools.product(range(bound + 1), repeat=surface.num_pairs):
        layout = surface.layout(crossings)
        if layout.signs is None:
            continue
        pairings = (
            noncrossing_pairings(len(keys), bigons)
            for keys, bigons in zip(layout.slots, layout.bigon_slots)
        )
        for chords in itertools.product(*pairings):
            k = DividingSet(crossings, chords, 0)
            out.append((-layout.grading(chords), k.encode(), k))
    out.sort(key=lambda t: t[:2])
    return tuple(-t[0] for t in out), tuple(t[2] for t in out)


# ---------------------------------------------------------------------------
# Bypass surgery
# ---------------------------------------------------------------------------

class BypassArc(NamedTuple):
    """An attachment arc inside one piece, meeting the multicurve 3 times.

    The arc starts on start_chord, crosses cross_chord once, and ends on
    end_chord.  start_side selects which side of cross_chord the start
    chord lies on: "inner" is the face enclosed between the chord and
    the boundary arc from its lower to its higher slot.  An arc that
    starts or ends on the chord it crosses is trivial, and bypass_triple
    rejects it.
    """

    piece: int
    start_chord: Chord
    cross_chord: Chord
    end_chord: Chord
    start_side: str = "outer"


# The three matchings of six sorted endpoints q0 < ... < q5 in which one
# chord separates the other two, as index pairs.  Shifting every endpoint
# one step carries each to the next.
_ROTATIONS = (
    ((0, 5), (1, 4), (2, 3)),
    ((0, 1), (2, 5), (3, 4)),
    ((0, 3), (1, 2), (4, 5)),
)


def _holds_bigon(bigons: frozenset[int], q, j: int) -> bool:
    """Whether rotation j of q joins a bigon slot (of bigons) to the next slot."""
    for a, b in _ROTATIONS[j]:
        if q[b] - q[a] == 1 and q[a] in bigons:
            return True
    return False


def _rotate(layout: SlotLayout, k: DividingSet, piece: int, arc, q, i) -> tuple:
    """(front, back) of the bypass on three chords of one piece.

    arc, q and i are the chords' indices and rotation (see _arcs).  front
    and back hold the next two rotations of the six endpoints.  Every
    other chord of the piece has both ends between two consecutive
    endpoints, so it stays, as do the other pieces and closed components.

    Every such surgery is realizable.  front and back keep k's crossings,
    so its slot layout and coloring.  The slots between two neighbouring
    endpoints are matched among themselves, so the six endpoints alternate
    in parity and each rotation has as many chords with an odd low end:
    the grading is k's.  Reducing their bigons (_reduce) is an isotopy,
    unless it closes a strand into a contractible circle.  A member whose
    rotated chords hold a bigon is reduced; any other member is returned
    as it is, so both are canonical when k is bigon-free.
    """
    crossings, chords, closed = k
    own = chords[piece]
    before, after = chords[:piece], chords[piece + 1:]
    s, c, e = arc
    a, b, d = (c, e, s) if i == 2 else arc  # ascending
    rest = own[:a] + own[a + 1:b] + own[b + 1:d] + own[d + 1:]
    bigons = layout.bigon_slots[piece]
    out = []
    for step in (1, 2):
        # q is sorted, so each rotated chord is a (lo, hi) pair already.
        j = (i + step) % 3
        (x0, y0), (x1, y1), (x2, y2) = _ROTATIONS[j]
        rotated = tuple(sorted(rest + ((q[x0], q[y0]), (q[x1], q[y1]), (q[x2], q[y2]))))
        member = DividingSet(crossings, before + (rotated,) + after, closed)
        if bigons and _holds_bigon(bigons, q, j):
            member = _reduce(layout, member)
        out.append(member)
    return out[0], out[1]


def bypass_triple(
    surface: MarkedSurface, k: DividingSet, arc: BypassArc
) -> tuple[DividingSet, DividingSet]:
    """The other two members of the bypass triple through k along arc.

    Results are canonicalized.  Outside a neighborhood of the arc all
    three configurations agree; inside, the three chords the arc meets
    are replaced by the next two rotations of their six endpoints.  The
    chords must belong to k.  A trivial arc is rejected: its triple holds
    k twice and a set with a contractible circle, so its relation is
    zero.  Any other arc is valid exactly when _arcs walks it: the start
    and end chords meet the faces on either side of the cross chord.
    """
    layout = validate_dividing_set(surface, k)
    if not (isinstance(arc.piece, int) and not isinstance(arc.piece, bool)
            and 0 <= arc.piece < surface.num_pieces):
        raise BypassError(f"piece {arc.piece} is not a piece of the surface")
    chords = k.chords[arc.piece]
    arc_chords = arc.start_chord, arc.cross_chord, arc.end_chord
    for chord in arc_chords:
        # An int-valued float or a bool would find the int chord by equality.
        if not (chord in chords and all(type(x) is int for x in chord)):
            raise BypassError(f"chord {chord} is not part of the dividing set")
    # The inner arc (s, c, e) is the outer arc (e, c, s).
    if arc.start_side == "inner":
        end, cross, start = map(chords.index, arc_chords)
    elif arc.start_side == "outer":
        start, cross, end = map(chords.index, arc_chords)
    else:
        raise BypassError("start_side must be 'inner' or 'outer'")
    if cross in (start, end):
        raise BypassError("trivial arc: it starts or ends on the chord it crosses")
    piece_arc = arc.piece, (start, cross, end)
    walked = {(p, found): (q, i) for p, found, q, i in _arcs(k)}
    if piece_arc not in walked:
        raise BypassError("chord is not adjacent to the required face")
    _colored(layout.signs)
    return tuple(_reduce(surface.layout(m.crossings), m)
                 for m in _rotate(layout, k, *piece_arc, *walked[piece_arc]))


def _owns(bigons: frozenset[int], q, i: int) -> bool:
    """Whether the bigon-free set holding rotation i of q owns its triple.

    bigons are the bigon slots of the piece.  The members hold the three
    rotations of the six endpoints and share every other chord.  The set
    is bigon-free, so a member holds a bigon only in its rotated chords.
    The owner is the bigon-free member of lowest rotation index.  The
    owner is a generator with the set's crossings and grading, its outer
    arc over the same chords is enumerated, and it gives the same triple;
    so each relation row is found from its owner alone.
    Rotation 0 always owns (an empty all), and with no bigon slots 1 and
    2 never do; owned_bypass_surgeries settles both without this call,
    and _arcs does not even walk the arcs of the second kind.
    """
    return all(_holds_bigon(bigons, q, j) for j in range(i))


def _arcs(k: DividingSet, bigon_slots=None):
    """Each nontrivial outer arc on k once, as (piece, (s, c, e), q, i).

    s, c, e index the start, cross and end chords: e is a child of c,
    s its parent (i = 0) or a sibling to the left (i = 1) or right
    (i = 2), so s < c < e, or c < e < s for i = 2.  q, the six endpoints
    in ascending order, and i, the rotation of _ROTATIONS they hold,
    follow from the nesting (_nest) with no sort.  Parent first, then
    siblings, ends in chord order.  k is valid.  Given the layout's
    bigon_slots, a piece with none yields its parent arcs only: there no
    sibling arc owns its triple (see _owns).
    """
    for p, chords in enumerate(k.chords):
        siblings = bigon_slots is None or bigon_slots[p]
        parent, children = _nest(chords)
        for c, (c0, c1) in enumerate(chords):
            ends = children[c]
            if not ends:
                continue
            up = parent[c]
            if up >= 0:
                u0, u1 = chords[up]
                for e in ends:
                    yield p, (up, c, e), (u0, c0, *chords[e], c1, u1), 0
            if not siblings:
                continue
            for s in children[up]:
                if s < c:
                    for e in ends:
                        yield p, (s, c, e), (*chords[s], c0, *chords[e], c1), 1
                elif s > c:
                    for e in ends:
                        yield p, (s, c, e), (c0, *chords[e], c1, *chords[s]), 2


def iter_bypass_surgeries(surface: MarkedSurface, k: DividingSet):
    """The nontrivial bypass surgeries on k, as (arc, front, back).

    front and back are canonical.  Trivial arcs, which start or end on the
    chord they cross, are skipped: their triple holds k twice and a set
    with a contractible circle, which is zero, so the relation row is 0.
    The faces of a piece form a tree, so the remaining arcs touch three
    distinct chords, the cross chord separating the other two.  Only arcs
    starting on the outer side of the cross chord are tried: the inner
    arc (s, c, e) is the outer arc (e, c, s) reversed and gives the same
    pair.  Every such surgery is realizable (see _rotate).  Each member
    is then reduced on its own layout, for a bigon of k that it kept.
    """
    layout = validate_dividing_set(surface, k)
    _colored(layout.signs)
    return (
        (BypassArc(p, *(k.chords[p][j] for j in arc)),
         *(_reduce(surface.layout(m.crossings), m) for m in _rotate(layout, k, p, arc, q, i)))
        for p, arc, q, i in _arcs(k)
    )


def owned_bypass_surgeries(surface: MarkedSurface, k: DividingSet):
    """(front, back) of each surgery of iter_bypass_surgeries that k owns.

    Each triple is met from exactly one of its members (see _owns), so a
    module build that runs this over every generator realizes each
    relation row from its owner alone.  On a surface with seams the owner
    can meet a row again along another arc, when both other members
    reduce to the same sets, so a row can come more than once.  k must be
    a generator, so it is not validated, and it is bigon-free, so the
    members _rotate gives are canonical.
    """
    layout = surface.layout(k.crossings)
    bigon_slots = layout.bigon_slots
    for p, arc, q, i in _arcs(k, bigon_slots):
        if i == 0 or _owns(bigon_slots[p], q, i):
            yield _rotate(layout, k, p, arc, q, i)
