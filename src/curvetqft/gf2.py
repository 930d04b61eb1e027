"""GF(2) linear algebra on int bitsets.

A vector over GF(2) is a Python int whose bit i is the coefficient of
basis element i.  A matrix is a list of such row-ints.  Reduction keeps
the pivot of each row at its lowest set bit, which makes reduced forms
canonical for a fixed column order.
"""

from __future__ import annotations

from typing import Iterable, Sequence


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
    """
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            p = lowest_bit(row)
            if p in basis:
                row ^= basis[p]
            else:
                basis[p] = row
                break
    # Back-substitute so pivot columns are cleared everywhere else.
    pivots = sorted(basis)
    for p in pivots:
        for q in pivots:
            if q != p and (basis[q] >> p) & 1:
                basis[q] ^= basis[p]
    return [basis[p] for p in pivots], pivots


def reduce_vector(vec: int, reduced_rows: Sequence[int], pivots: Sequence[int]) -> int:
    """Canonical representative of vec modulo the row space."""
    for row, p in zip(reduced_rows, pivots):
        if (vec >> p) & 1:
            vec ^= row
    return vec


def rank(rows: Iterable[int]) -> int:
    """Rank of the row space over GF(2)."""
    return len(rref(rows)[0])

