"""Linear algebra over GF(2) on integer bit vectors.

Echelon is an incremental row-echelon basis that remembers which inserted
vectors each row combines; solve reads every solution of a linear system
off an Echelon of its columns (bit_column transposes); span_table holds
all 2^k XOR combinations of k rows as a uint64 array, built by doubling
so that index i holds the combination selected by the bits of i.
"""

from __future__ import annotations

import numpy as np


class Echelon:
    """Row-echelon basis over GF(2) with combination tracking.

    Rows have distinct leading bits and are kept in descending order of
    them; each carries the XOR mask of the combos it was built from.
    """

    __slots__ = ("_rows",)

    def __init__(self):
        self._rows = []  # (vector, pivot_bit, combo)

    def reduce(self, vec: int, combo: int = 0) -> tuple[int, int]:
        """Clear every pivot bit of vec; returns (residual, combo)."""
        for row, pivot, row_combo in self._rows:
            if (vec >> pivot) & 1:
                vec ^= row
                combo ^= row_combo
        return vec, combo

    def add(self, vec: int, combo: int = 0) -> bool:
        """Insert a vector; returns False if it was already in the span."""
        vec, combo = self.reduce(vec, combo)
        if vec == 0:
            return False
        self._rows.append((vec, vec.bit_length() - 1, combo))
        self._rows.sort(key=lambda r: -r[1])
        return True

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> tuple[int, ...]:
        """The basis vectors, leading bit descending."""
        return tuple(row for row, _, _ in self._rows)


def bit_column(words, j: int) -> int:
    """Bit j of every word, as a mask over the words."""
    return sum(((w >> j) & 1) << i for i, w in enumerate(words))


def solve(columns, target: int = 0):
    """The x with XOR of columns[j] over the set bits j of x equal to target:
    (particular, kernel) with every solution particular ^ an XOR of kernel
    vectors, or None.  Columns enter last first, so each kernel vector sets
    its lowest column and later ones, and the kernel ascends by that column.
    """
    echelon, kernel = Echelon(), []
    for j in reversed(range(len(columns))):
        residual, combo = echelon.reduce(columns[j], 1 << j)
        if not echelon.add(residual, combo):
            kernel.insert(0, combo)
    residual, particular = echelon.reduce(target)
    return None if residual else (particular, kernel)


def span_table(rows) -> np.ndarray:
    """All 2^k XOR combinations of k row masks (each below 2^64); index i
    combines the rows picked by the bits of i, so index 0 is zero."""
    rows = list(rows)
    table = np.zeros(1 << len(rows), dtype=np.uint64)
    for i, r in enumerate(rows):
        np.bitwise_xor(table[:1 << i], np.uint64(r), out=table[1 << i:2 << i])
    return table
