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

import bisect
import itertools
from dataclasses import dataclass
from functools import lru_cache

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
    if label not in (POS, NEG):
        raise SurfaceError(f"plain label must be +1 or -1, got {label!r}")
    return (PLAIN, label)


def ident(pair_id: int) -> Token:
    return (IDENT, pair_id)


@dataclass(frozen=True)
class MarkedSurface:
    """Disk pieces with paired boundary segments and labeled marked points.

    words[p] is the cyclic boundary word of piece p.  pairs[k] is the
    ordered pair of (piece, token_index) positions of the two segments
    glued by identification k; the first is traversed forward and the
    second backward.
    """

    words: tuple[tuple[Token, ...], ...]
    pairs: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    def token(self, piece: int, idx: int) -> Token:
        return self.words[piece][idx]

    @property
    def num_pieces(self) -> int:
        return len(self.words)

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)

    def euler_characteristic(self) -> int:
        return self.num_pieces - self.num_pairs


@dataclass(frozen=True)
class DividingSet:
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

@dataclass(frozen=True)
class BoundaryCircle:
    """One boundary circle of the glued surface, as traversed token positions."""

    tokens: tuple[tuple[int, int], ...]

    def num_marks(self, surface: MarkedSurface) -> int:
        return sum(1 for p, i in self.tokens if surface.token(p, i)[0] == MARK)


@dataclass(frozen=True)
class SurfaceInfo:
    euler: int
    circles: tuple[BoundaryCircle, ...]
    marks_per_circle: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]


def _pair_lookup(surface: MarkedSurface) -> dict[tuple[int, int], tuple[int, int]]:
    lookup = {}
    for (pos_a, pos_b) in surface.pairs:
        lookup[pos_a] = pos_b
        lookup[pos_b] = pos_a
    return lookup


def _trace_boundary(surface: MarkedSurface) -> list[BoundaryCircle]:
    """Boundary circles of the glued surface as token walks.

    When the walk reaches an identification segment it continues after the
    partner segment, because a segment's start corner is glued to its
    partner's end corner.
    """
    partner = _pair_lookup(surface)
    seen: set[tuple[int, int]] = set()
    circles = []
    for piece, word in enumerate(surface.words):
        for start in range(len(word)):
            if word[start][0] == IDENT or (piece, start) in seen:
                continue
            walk = []
            p, i = piece, start
            while (p, i) not in seen:
                seen.add((p, i))
                walk.append((p, i))
                p2, i2 = p, (i + 1) % len(surface.words[p])
                while surface.token(p2, i2)[0] == IDENT:
                    p2, i2 = partner[(p2, i2)]
                    i2 = (i2 + 1) % len(surface.words[p2])
                p, i = p2, i2
            circles.append(BoundaryCircle(tuple(walk)))
    return circles


def _surface_components(surface: MarkedSurface) -> list[tuple[int, ...]]:
    parent = list(range(surface.num_pieces))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (pa, _), (pb, _) in surface.pairs:
        ra, rb = find(pa), find(pb)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for p in range(surface.num_pieces):
        groups.setdefault(find(p), []).append(p)
    return [tuple(g) for g in groups.values()]


def validate_surface(surface: MarkedSurface) -> SurfaceInfo:
    """Check all marked-surface invariants; raise SurfaceError on failure."""
    errors = []
    seen_positions: dict[tuple[int, int], int] = {}
    for k, (pos_a, pos_b) in enumerate(surface.pairs):
        if pos_a == pos_b:
            errors.append(f"pair {k} identifies a segment with itself")
        for pos in (pos_a, pos_b):
            p, i = pos
            if not (0 <= p < surface.num_pieces and 0 <= i < len(surface.words[p])):
                errors.append(f"pair {k} references missing token {pos}")
                continue
            if surface.token(p, i) != (IDENT, k):
                errors.append(f"token at {pos} is not identification segment {k}")
            if pos in seen_positions:
                errors.append(f"segment {pos} belongs to more than one pair")
            seen_positions[pos] = k
    for p, word in enumerate(surface.words):
        if not word:
            errors.append(f"piece {p} has an empty boundary word")
        for i, tok in enumerate(word):
            if tok[0] == IDENT and (p, i) not in seen_positions:
                errors.append(f"identification segment at {(p, i)} is unpaired")
            elif tok[0] not in (MARK, PLAIN, IDENT):
                errors.append(f"unknown token {tok!r} at {(p, i)}")
    if errors:
        raise SurfaceError("; ".join(errors))

    circles = _trace_boundary(surface)
    marks_per_circle = []
    for circle in circles:
        n_marks = circle.num_marks(surface)
        if n_marks % 2 or n_marks < 2:
            errors.append(f"odd or deficient marked-point count {n_marks} on a boundary circle")
            marks_per_circle.append(n_marks)
            continue
        marks_per_circle.append(n_marks)
        # Labels must be constant between consecutive marks and flip at marks.
        toks = [surface.token(p, i) for p, i in circle.tokens]
        first_mark = next(j for j, t in enumerate(toks) if t[0] == MARK)
        expected = None
        for off in range(1, len(toks) + 1):
            t = toks[(first_mark + off) % len(toks)]
            if t[0] == MARK:
                if expected is None:
                    errors.append("two adjacent marked points with no segment between")
                expected = -expected if expected is not None else None
            else:
                if expected is None:
                    expected = t[1]
                elif t[1] != expected:
                    errors.append("labels do not alternate across marked points")

    for group in _surface_components(surface):
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
        circles=tuple(circles),
        marks_per_circle=tuple(marks_per_circle),
        components=tuple(_surface_components(surface)),
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
    """Slot indexing for a surface with a fixed crossing vector."""

    def __init__(self, surface: MarkedSurface, crossings: tuple[int, ...]):
        if len(crossings) != surface.num_pairs:
            raise DividingSetError(
                f"crossing vector has length {len(crossings)}, expected {surface.num_pairs}"
            )
        self.surface = surface
        self.crossings = tuple(crossings)
        self.slots: list[list[SlotKey]] = []
        self.index: dict[SlotKey, tuple[int, int]] = {}
        side_of: dict[tuple[int, int], tuple[int, int]] = {}
        for k, (pos_a, pos_b) in enumerate(surface.pairs):
            side_of[pos_a] = (k, 0)
            side_of[pos_b] = (k, 1)
        self._word_pos: list[list[tuple[int, int]]] = []
        for p, word in enumerate(surface.words):
            piece_slots: list[SlotKey] = []
            word_pos: list[tuple[int, int]] = []
            for i, tok in enumerate(word):
                if tok[0] == MARK:
                    piece_slots.append(("m", p, i))
                    word_pos.append((i, 0))
                elif tok[0] == IDENT:
                    pair, side = side_of[(p, i)]
                    for pos in range(crossings[pair]):
                        piece_slots.append(("x", pair, side, pos))
                        word_pos.append((i, pos))
            self.slots.append(piece_slots)
            self._word_pos.append(word_pos)
            for j, key in enumerate(piece_slots):
                self.index[key] = (p, j)

    def num_slots(self, piece: int) -> int:
        return len(self.slots[piece])

    def key(self, piece: int, slot: int) -> SlotKey:
        return self.slots[piece][slot]

    def partner_key(self, key: SlotKey) -> SlotKey:
        _, pair, side, pos = key
        r = self.crossings[pair]
        return ("x", pair, 1 - side, r - 1 - pos)

    def interval_for_word_position(self, piece: int, word_idx: int, sub: float) -> int:
        """Interval index (between slot i and i+1) containing a boundary point.

        The point is addressed by its token index and a sub-position within
        the token.  Returns -1 when the piece has no slots at all.  Slot
        positions are stored in boundary order, so this is a bisection.
        """
        positions = self._word_pos[piece]
        if not positions:
            return -1
        return (bisect.bisect_left(positions, (word_idx, sub)) - 1) % len(positions)

    def segment_gap_interval(self, pair: int, side: int, gap: int) -> tuple[int, int]:
        """(piece, interval) adjacent to the given gap of a segment side.

        Gap g on a segment with r crossings lies between crossing g-1 and
        crossing g (segment ends for g=0 and g=r).
        """
        piece, tok_idx = self.surface.pairs[pair][side]
        r = self.crossings[pair]
        if r == 0:
            return piece, self.interval_for_word_position(piece, tok_idx, -0.5)
        if gap == 0:
            first = self.index[("x", pair, side, 0)][1]
            return piece, (first - 1) % self.num_slots(piece)
        return piece, self.index[("x", pair, side, gap - 1)][1]


# Layouts are keyed by (surface, crossing vector).  The largest working
# set seen is 73 layouts (the full verify suite), so the bound keeps the
# cache from growing without limit and never evicts in practice.
@lru_cache(maxsize=1024)
def _layout(surface: MarkedSurface, crossings: tuple[int, ...]) -> SlotLayout:
    return SlotLayout(surface, crossings)


def layout_of(surface: MarkedSurface, k: DividingSet) -> SlotLayout:
    return _layout(surface, k.crossings)


# ---------------------------------------------------------------------------
# Faces of one piece
# ---------------------------------------------------------------------------

def is_noncrossing(num_slots: int, chords: tuple[Chord, ...]) -> bool:
    """Whether the pairing is a perfect non-crossing matching of the slots."""
    partner = {}
    for a, b in chords:
        if a == b or not (0 <= a < num_slots and 0 <= b < num_slots):
            return False
        if a in partner or b in partner:
            return False
        partner[a] = b
        partner[b] = a
    if len(partner) != num_slots:
        return False
    stack: list[int] = []
    for s in range(num_slots):
        if s < partner[s]:
            stack.append(s)
        else:
            if not stack or stack[-1] != partner[s]:
                return False
            stack.pop()
    return not stack


@dataclass(frozen=True)
class PieceFaces:
    """Planar faces of a disk piece cut along its chords.

    face_of_interval[i] is the face adjacent to the boundary interval
    between slot i and slot i+1 (cyclically); face 0 is the face adjacent
    to the interval preceding slot 0.  chord_sides maps each chord to
    (inner_face, outer_face), where the inner face is enclosed between
    the chord and the boundary arc from its lower to its higher slot.
    """

    num_faces: int
    face_of_interval: tuple[int, ...]
    chord_sides: dict


def piece_faces(num_slots: int, chords: tuple[Chord, ...]) -> PieceFaces:
    """Faces of a piece whose chords are a non-crossing perfect matching.

    The matching is not checked here: callers pass chords of a dividing
    set that validate_dividing_set accepted.
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
    return PieceFaces(next_id, tuple(face_of_interval), chord_sides)


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


@dataclass(frozen=True)
class Region:
    """One component of the complement of the multicurve."""

    sign: int
    euler: int
    touches_boundary: bool


def validate_dividing_set(surface: MarkedSurface, k: DividingSet) -> SlotLayout:
    """Structural validity: crossing vector, perfect non-crossing pairings.

    Returns k's slot layout.
    """
    layout = layout_of(surface, k)
    if len(k.chords) != surface.num_pieces:
        raise DividingSetError("chord data does not cover every piece")
    if k.closed < 0:
        raise DividingSetError("negative closed-component count")
    if any(c < 0 for c in k.crossings):
        raise DividingSetError("negative crossing count")
    for p in range(surface.num_pieces):
        if not is_noncrossing(layout.num_slots(p), k.chords[p]):
            raise DividingSetError(
                f"piece {p}: chords are not a non-crossing perfect matching of its slots"
            )
    return layout


def analyze_regions(surface: MarkedSurface, k: DividingSet) -> tuple[Region, ...] | None:
    """Regions with signs and Euler characteristics, or None if uncolorable.

    Faces of the pieces are glued along the gaps of identified segments
    into regions; signs flip across chords, persist across gaps, and must
    extend the plain-segment labels.  With all cells of the cut-open
    surface open, only faces and glued gaps contribute to a region's Euler
    characteristic, so chi(region) = #faces - #glued gaps.  Raises
    DividingSetError when k is malformed.
    """
    layout = validate_dividing_set(surface, k)
    faces = [piece_faces(layout.num_slots(p), k.chords[p]) for p in range(surface.num_pieces)]
    offsets = list(itertools.accumulate((f.num_faces for f in faces), initial=0))
    num_faces = offsets[-1]
    uf = _ParityUnionFind(num_faces)

    def face_at(piece: int, interval: int) -> int:
        if interval == -1:
            return offsets[piece]
        return offsets[piece] + faces[piece].face_of_interval[interval]

    # Gap edges alone join faces into regions.  euler[f] is 1 for face f
    # less the gaps charged to it.
    euler = [1] * num_faces
    for pair in range(surface.num_pairs):
        r = k.crossings[pair]
        for gap in range(r + 1):
            fa = face_at(*layout.segment_gap_interval(pair, 0, gap))
            fb = face_at(*layout.segment_gap_interval(pair, 1, r - gap))
            euler[fa] -= 1
            uf.union(fa, fb, 0)
    region_of = [uf.relation(f)[0] for f in range(num_faces)]

    for p in range(surface.num_pieces):
        for inner, outer in faces[p].chord_sides.values():
            if not uf.union(offsets[p] + inner, offsets[p] + outer, 1):
                return None

    # Anchor colors with the plain-segment labels.
    anchor: dict[int, int] = {}
    touches: set[int] = set()
    for p, word in enumerate(surface.words):
        for i, tok in enumerate(word):
            if tok[0] != PLAIN:
                continue
            fid = face_at(p, layout.interval_for_word_position(p, i, -0.5))
            touches.add(region_of[fid])
            root, par = uf.relation(fid)
            sign = tok[1] if par == 0 else -tok[1]
            if anchor.setdefault(root, sign) != sign:
                return None

    chi: dict[int, int] = {}
    for fid, region in enumerate(region_of):
        chi[region] = chi.get(region, 0) + euler[fid]
    regions = []
    for region, e in chi.items():
        root, par = uf.relation(region)
        if root not in anchor:
            return None
        regions.append(Region(anchor[root] if par == 0 else -anchor[root], e, region in touches))

    expected = surface.euler_characteristic() + num_marks(surface) // 2
    got = sum(chi.values())
    if got != expected:
        raise DividingSetError(
            f"internal Euler bookkeeping failed: regions sum to {got}, expected {expected}"
        )
    return tuple(regions)


def _colored(value):
    """value, or ColoringError when region analysis found no coloring (None)."""
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
    return _colored(_grade(surface, k, {}))


def is_isolating(surface: MarkedSurface, k: DividingSet) -> bool:
    """Whether some complementary region avoids the surface boundary."""
    if k.closed > 0:
        return True
    return any(not r.touches_boundary for r in label_regions(surface, k))


def is_colorable(surface: MarkedSurface, k: DividingSet) -> bool:
    return analyze_regions(surface, k) is not None


def _grade(surface: MarkedSurface, k: DividingSet, gradings: dict) -> int | None:
    """Grading of k, or None when k is not colorable, memoized in gradings.

    gradings maps encodings to gradings; its owner decides how long it
    lives, so each dividing set is analyzed once per owner.
    """
    enc = k.encode()
    if enc not in gradings:
        regions = analyze_regions(surface, k)
        gradings[enc] = None if regions is None else sum(r.sign * r.euler for r in regions)
    return gradings[enc]


# ---------------------------------------------------------------------------
# Crossingless matchings on the disk
# ---------------------------------------------------------------------------

def noncrossing_pairings(num_slots: int):
    """All non-crossing perfect matchings of range(num_slots), as chord tuples."""
    if num_slots % 2:
        return
    if num_slots == 0:
        yield ()
        return
    slots = list(range(num_slots))

    def rec(points):
        if not points:
            yield ()
            return
        first = points[0]
        for j in range(1, len(points), 2):
            left = points[1:j]
            right = points[j + 1:]
            for lp in rec(left):
                for rp in rec(right):
                    yield ((first, points[j]),) + lp + rp

    for pairing in rec(slots):
        yield tuple(sorted(pairing))


def enumerate_matchings(n: int) -> list[DividingSet]:
    """The crossingless matchings of the disk with 2n points.

    Ordered by descending grading, then lexicographically on the pairing
    read from the basepoint.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    surface = disk(2 * n)
    out = []
    for pairing in noncrossing_pairings(2 * n):
        k = make_dividing_set((), (pairing,))
        out.append((-euler_grading(surface, k), k.encode(), k))
    out.sort(key=lambda t: t[:2])
    return [k for _, _, k in out]


def catalan(n: int) -> int:
    """Catalan number C_n, by the additive recurrence."""
    c = [1] + [0] * n
    for m in range(1, n + 1):
        c[m] = sum(c[i] * c[m - 1 - i] for i in range(m))
    return c[n]


# ---------------------------------------------------------------------------
# Canonical form: greedy bigon reduction
# ---------------------------------------------------------------------------

def _find_bigon(layout: SlotLayout, k: DividingSet):
    """First chord joining consecutive crossings of one segment side."""
    for p in range(layout.surface.num_pieces):
        for a, b in k.chords[p]:
            ka, kb = layout.key(p, a), layout.key(p, b)
            if ka[0] != "x" or kb[0] != "x":
                continue
            if ka[1] == kb[1] and ka[2] == kb[2] and abs(ka[3] - kb[3]) == 1:
                return p, (a, b)
    return None


def _next_bigon(layout: SlotLayout, mate: dict, alive: dict):
    """First bigon, by piece and low slot, on the surviving slot keys."""
    for keys in layout.slots:
        for key in keys:
            other = mate.get(key)
            if key[0] != "x" or other is None or other[0] != "x" \
                    or other[1] != key[1] or other[2] != key[2] or other[3] < key[3]:
                continue
            live = alive[key[1], key[2]]
            if live[bisect.bisect_left(live, key[3]) + 1] == other[3]:
                return key, other
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

    Works on the slot keys of k's layout throughout.  A removal deletes
    two consecutive crossings of one segment side and their partners, so
    the surviving keys stay partnered and keep their boundary order:
    consecutive crossings are neighbours among the surviving positions
    of a side.  The keys are renumbered into the final layout once.
    """
    found = _find_bigon(layout, k)
    if found is None:
        return k
    mate: dict[SlotKey, SlotKey] = {}
    for keys, chords in zip(layout.slots, k.chords):
        for a, b in chords:
            mate[keys[a]] = keys[b]
            mate[keys[b]] = keys[a]
    # Surviving crossing positions of each segment side, ascending.
    alive = {
        (pair, side): list(range(r)) for pair, r in enumerate(k.crossings) for side in (0, 1)
    }
    crossings = list(k.crossings)
    closed = k.closed
    p, (a, b) = found
    bigon = (layout.key(p, a), layout.key(p, b))
    while bigon is not None:
        ka, kb = bigon
        pa, pb = layout.partner_key(ka), layout.partner_key(kb)
        for key in (ka, kb, pa, pb):
            live = alive[key[1], key[2]]
            del live[bisect.bisect_left(live, key[3])]
        del mate[ka], mate[kb]
        end_a, end_b = mate.pop(pa), mate.pop(pb)
        if end_a == pb:
            closed += 1
        else:
            mate[end_a] = end_b
            mate[end_b] = end_a
        crossings[ka[1]] -= 2
        bigon = _next_bigon(layout, mate, alive)

    final = _layout(layout.surface, tuple(crossings))

    def slot(key: SlotKey) -> tuple[int, int]:
        if key[0] == "x":
            _, pair, side, pos = key
            key = ("x", pair, side, bisect.bisect_left(alive[pair, side], pos))
        return final.index[key]

    chords: list[list[Chord]] = [[] for _ in k.chords]
    for key, other in mate.items():
        piece, a = slot(key)
        b = slot(other)[1]
        if a < b:
            chords[piece].append((a, b))
    return make_dividing_set(crossings, chords, closed)


def is_efficient(surface: MarkedSurface, k: DividingSet) -> bool:
    """Whether k is bigon-free (already in canonical position)."""
    layout = layout_of(surface, k)
    return _find_bigon(layout, k) is None


# ---------------------------------------------------------------------------
# Enumeration of canonical dividing sets
# ---------------------------------------------------------------------------

def enumerate_dividing_sets(
    surface: MarkedSurface, bound: int, gradings: dict | None = None
) -> list[DividingSet]:
    """All canonical dividing sets with at most `bound` crossings per segment.

    Contractible closed components are excluded (their classes vanish and
    their position is not recorded); closed components that cross
    identification segments are included.  Ordered by descending grading,
    then by encoding.  When gradings is given, the grading of every
    bigon-free candidate (None for an uncolorable one) is recorded in it
    by encoding.
    """
    if bound < 0:
        raise DividingSetError(f"crossing bound must be >= 0, got {bound}")
    validate_surface(surface)
    if gradings is None:
        gradings = {}
    out = []
    for crossings in itertools.product(range(bound + 1), repeat=surface.num_pairs):
        layout = _layout(surface, crossings)
        counts = [layout.num_slots(p) for p in range(surface.num_pieces)]
        if any(c % 2 for c in counts):
            continue
        for chords in itertools.product(*(noncrossing_pairings(c) for c in counts)):
            k = DividingSet(crossings, chords, 0)
            if not is_efficient(surface, k):
                continue
            e = _grade(surface, k, gradings)
            if e is not None:
                out.append((-e, k.encode(), k))
    out.sort(key=lambda t: t[:2])
    return [k for _, _, k in out]


# ---------------------------------------------------------------------------
# Bypass surgery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BypassArc:
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


def _rotate(
    k: DividingSet, piece: int, arc_chords: tuple[Chord, Chord, Chord]
) -> tuple[DividingSet, DividingSet]:
    """Raw (front, back) of the bypass on three chords of one piece.

    The chords, one separating the other two, are one rotation of their
    six endpoints; front and back are the next two.  Every other chord
    of the piece has both ends between two consecutive endpoints, so it
    stays, as do the other pieces and the closed components.
    """
    q = sorted(s for chord in arc_chords for s in chord)
    # The partner of q0 names the rotation k holds.
    partner = next(b for a, b in arc_chords if a == q[0])
    i = (q[5], q[1], q[3]).index(partner)
    rest = [c for c in k.chords[piece] if c not in arc_chords]
    out = []
    for step in (1, 2):
        chords = list(k.chords)
        chords[piece] = rest + [(q[a], q[b]) for a, b in _ROTATIONS[(i + step) % 3]]
        out.append(make_dividing_set(k.crossings, chords, k.closed))
    return out[0], out[1]


def _realize(
    surface: MarkedSurface,
    k: DividingSet,
    base_e: int,
    raw: tuple[DividingSet, DividingSet],
    gradings: dict,
) -> tuple[DividingSet, DividingSet] | None:
    """Canonical (front, back) of a raw surgery on k, or None if unrealizable.

    Both results must be consistently colorable, and a result without new
    contractible components must keep k's grading base_e.
    """
    layout = layout_of(surface, k)
    front, back = (_reduce(layout, s) for s in raw)
    for result in (front, back):
        e = _grade(surface, result, gradings)
        if e is None or (result.closed == k.closed and e != base_e):
            return None
    return front, back


def bypass_triple(
    surface: MarkedSurface, k: DividingSet, arc: BypassArc
) -> tuple[DividingSet, DividingSet]:
    """The other two members of the bypass triple through k along arc.

    Results are canonicalized.  Outside a neighborhood of the arc all
    three configurations agree; inside, the three chords the arc meets
    are replaced by the next two rotations of their six endpoints.  The
    chords must belong to k, and the start and end chords must meet the
    faces on either side of the cross chord.  A trivial arc is rejected:
    its triple holds k twice and a set with a contractible circle, so
    its relation is zero.
    """
    layout = validate_dividing_set(surface, k)
    if not 0 <= arc.piece < surface.num_pieces:
        raise BypassError(f"piece {arc.piece} is not a piece of the surface")
    faces = piece_faces(layout.num_slots(arc.piece), k.chords[arc.piece])
    chords = (arc.start_chord, arc.cross_chord, arc.end_chord)
    for chord in chords:
        if chord not in faces.chord_sides:
            raise BypassError(f"chord {chord} is not part of the dividing set")
    inner, outer = faces.chord_sides[arc.cross_chord]
    if arc.start_side == "inner":
        f0, f1 = inner, outer
    elif arc.start_side == "outer":
        f0, f1 = outer, inner
    else:
        raise BypassError("start_side must be 'inner' or 'outer'")
    if f0 not in faces.chord_sides[arc.start_chord] or \
            f1 not in faces.chord_sides[arc.end_chord]:
        raise BypassError("chord is not adjacent to the required face")
    if arc.cross_chord in (arc.start_chord, arc.end_chord):
        raise BypassError("trivial arc: it starts or ends on the chord it crosses")
    base_e = euler_grading(surface, k)
    realized = _realize(
        surface, k, base_e, _rotate(k, arc.piece, chords), {k.encode(): base_e}
    )
    if realized is None:
        raise BypassError("no realizable bypass arc with the given data")
    return realized


def iter_bypass_surgeries(
    surface: MarkedSurface, k: DividingSet, gradings: dict | None = None
):
    """The realizable nontrivial bypass surgeries on k, as (arc, front, back).

    front and back are canonical.  Trivial arcs, which start or end on the
    chord they cross, are skipped: their triple holds k twice and a set
    with a contractible circle, which is zero, so the relation row is 0.
    The faces of a piece form a tree, so the remaining arcs touch three
    distinct chords, the cross chord separating the other two.  Only arcs
    starting on the outer side of the cross chord are tried: the inner
    arc (s, c, e) is the outer arc (e, c, s) reversed and gives the same
    pair.  A surgery is kept when its results are consistently colorable
    and grading-preserving.  gradings is _grade's encoding -> grading
    map; a module build passes one map to every call so that each
    dividing set is analyzed once.
    """
    if gradings is None:
        gradings = {}
    base_e = _colored(_grade(surface, k, gradings))
    layout = layout_of(surface, k)
    for p in range(surface.num_pieces):
        faces = piece_faces(layout.num_slots(p), k.chords[p])
        adjacency: dict[int, list[Chord]] = {}
        for chord, (inner, outer) in faces.chord_sides.items():
            adjacency.setdefault(inner, []).append(chord)
            adjacency.setdefault(outer, []).append(chord)
        for cross in k.chords[p]:
            inner, outer = faces.chord_sides[cross]
            for start in adjacency[outer]:
                for end in adjacency[inner]:
                    if cross in (start, end):
                        continue
                    raw = _rotate(k, p, (start, cross, end))
                    realized = _realize(surface, k, base_e, raw, gradings)
                    if realized is not None:
                        yield (BypassArc(p, start, cross, end), *realized)
