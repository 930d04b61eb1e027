"""GF(2) linear algebra on int bitsets.

A vector over GF(2) is a Python int whose bit i is the coefficient of
basis element i.  A matrix is a list of such row-ints.  rref keeps the
pivot of each row at its lowest set bit and clears it in every other
row, which makes the reduced rows of a row space unique.
"""

from __future__ import annotations

from typing import Iterable


def lowest_bit(x: int) -> int:
    """Index of the lowest set bit of x (x must be nonzero)."""
    return (x & -x).bit_length() - 1


def set_bits(x: int) -> list[int]:
    """Indices of the set bits of x, in increasing order."""
    out = []
    while x:
        out.append(lowest_bit(x))
        x &= x - 1
    return out


def rref(rows: Iterable[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form of the row space.

    Returns (reduced_rows, pivots) where reduced_rows[i] has its pivot at
    bit pivots[i], pivots are strictly increasing, and no row has a set
    bit at another row's pivot.

    With each pivot at its row's lowest set bit, this fully reduced form
    of a row space is unique, so the order of the work cannot change the
    result, only its cost.  Forward elimination takes the rows in
    descending order, which on disk presentations ran several times
    faster than a set's order or ascending order.  Back-substitution runs
    from the top pivot down.  When it reaches p, the row at each higher
    pivot q is already reduced: its lowest bit is q, and it is clear at
    every other pivot above p.  So row p is cleared by XORing, once each,
    the rows at the higher pivots it holds.
    """
    basis: dict[int, int] = {}
    for row in sorted(rows, reverse=True):
        while row:
            p = lowest_bit(row)
            if p in basis:
                row ^= basis[p]
            else:
                basis[p] = row
                break
    pivots = sorted(basis)
    higher = 0  # the pivots above p, as a bitset
    for p in reversed(pivots):
        for q in set_bits(basis[p] & higher):
            basis[p] ^= basis[q]
        higher |= 1 << p
    return [basis[p] for p in pivots], pivots


def rank(rows: Iterable[int]) -> int:
    """Rank of the row space over GF(2)."""
    return len(rref(rows)[0])

