"""Bigon reduction against a reference copy of the slot-key reduction.

`reference_reduce` is greedy bigon reduction as it ran on the fixed slot
keys of the input's layout: a partner dict over every key, the surviving
crossing positions of each segment side, a scan over every key after
each removal, and one renumbering into the final layout.  canonicalize
must give the same set on seeded random sets, colorable or not, some
with closed circles, on the digest surfaces and on a genus 2 surface
with four seams in one piece.  The reference also runs in the opposite
order, last bigon first, to show that the order in which bigons are
removed does not change the result on these sets.
"""

from __future__ import annotations

import bisect
import random

import pytest

from curvetqft import surfaces as sf
from test_digests import CANONICALIZE_SURFACES, _random_pairing


def _partner_key(layout, key):
    _, pair, side, pos = key
    return ("x", pair, 1 - side, layout.crossings[pair] - 1 - pos)


def _reference_find_bigon(layout, k):
    """Slot keys of the first chord joining consecutive crossings of one segment side."""
    for keys, bigons, chords in zip(layout.slots, layout.bigon_slots, k.chords):
        for a, b in chords:
            if b - a == 1 and a in bigons:
                return keys[a], keys[b]
    return None


def _reference_next_bigon(layout, mate, alive, last_first=False):
    """First bigon, by piece and low slot, on the surviving slot keys.

    With last_first, the last one: highest piece, then highest low slot.
    """
    order = reversed if last_first else iter
    for keys in order(layout.slots):
        for key in order(keys):
            other = mate.get(key)
            if key[0] != "x" or other is None or other[0] != "x" \
                    or other[1] != key[1] or other[2] != key[2] or other[3] < key[3]:
                continue
            live = alive[key[1], key[2]]
            if live[bisect.bisect_left(live, key[3]) + 1] == other[3]:
                return key, other
    return None


def reference_reduce(layout, k, last_first=False):
    """Greedy bigon reduction on the slot keys of k's layout.

    Bigons are removed first by piece, then by low slot, or in the
    opposite order with last_first.
    """
    if _reference_find_bigon(layout, k) is None:
        return k
    mate = {}
    for keys, chords in zip(layout.slots, k.chords):
        for a, b in chords:
            mate[keys[a]] = keys[b]
            mate[keys[b]] = keys[a]
    alive = {
        (pair, side): list(range(r)) for pair, r in enumerate(k.crossings) for side in (0, 1)
    }
    crossings = list(k.crossings)
    closed = k.closed
    bigon = _reference_next_bigon(layout, mate, alive, last_first)
    while bigon is not None:
        ka, kb = bigon
        pa, pb = _partner_key(layout, ka), _partner_key(layout, kb)
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
        bigon = _reference_next_bigon(layout, mate, alive, last_first)

    final = layout.surface.layout(tuple(crossings))

    def slot(key):
        if key[0] == "x":
            _, pair, side, pos = key
            key = ("x", pair, side, bisect.bisect_left(alive[pair, side], pos))
        return final.slot_of(key)

    chords = [[] for _ in k.chords]
    for key, other in mate.items():
        piece, a = slot(key)
        b = slot(other)[1]
        if a < b:
            chords[piece].append((a, b))
    return sf.make_dividing_set(crossings, chords, closed)


def genus2_layout_g():
    """Genus 2 with one boundary circle, layout G: four seams in one piece."""
    i0, i1, i2, i3 = (sf.ident(j) for j in range(4))
    pos, neg, m = sf.plain(sf.POS), sf.plain(sf.NEG), sf.mark()
    word = (i0, pos, i1, neg, m, pos, i0, neg, i1, pos,
            i2, neg, i3, pos, m, neg, i2, pos, i3, neg)
    pairs = (((0, 0), (0, 6)), ((0, 2), (0, 8)), ((0, 10), (0, 16)), ((0, 12), (0, 18)))
    return sf.MarkedSurface((word,), pairs)


def _random_sets(surface, rng, count, max_crossings):
    """Seeded random dividing sets, colorable or not, some with circles."""
    made = 0
    while made < count:
        crossings = tuple(rng.randrange(max_crossings + 1) for _ in range(surface.num_pairs))
        layout = surface.layout(crossings)
        counts = [layout.num_slots(p) for p in range(surface.num_pieces)]
        if any(c % 2 for c in counts):
            continue
        made += 1
        chords = tuple(_random_pairing(rng, c) for c in counts)
        yield sf.DividingSet(crossings, chords, rng.choice((0, 0, 0, 0, 1, 2)))


CASES = [(surface, 5, 400) for surface in CANONICALIZE_SURFACES] + [(genus2_layout_g(), 3, 2000)]


@pytest.mark.parametrize("case", range(len(CASES)))
def test_canonicalize_matches_reference(case):
    surface, max_crossings, count = CASES[case]
    rng = random.Random(100 + case)
    reduced = 0
    for k in _random_sets(surface, rng, count, max_crossings):
        got = sf.canonicalize(surface, k)
        assert got == reference_reduce(surface.layout(k.crossings), k)
        reduced += got is not k
    # On a surface with seams the sets exercise the reduction, not only
    # its early return; a disk has no bigon slots.
    assert reduced > count // 10 if surface.num_pairs else reduced == 0


@pytest.mark.parametrize("case", range(len(CASES)))
def test_removal_order_does_not_change_the_result(case):
    surface, max_crossings, count = CASES[case]
    rng = random.Random(100 + case)
    for k in _random_sets(surface, rng, count, max_crossings):
        got = sf.canonicalize(surface, k)
        assert got == reference_reduce(surface.layout(k.crossings), k, last_first=True)
