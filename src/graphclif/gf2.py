"""Linear algebra over GF(2) on integer bit vectors.

Two tools serve every module: Echelon, an incremental row-echelon basis
that remembers which inserted vectors each row combines, and span_table,
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


def span_table(rows) -> np.ndarray:
    """All 2^k XOR combinations of k row masks (each below 2^64); index i
    combines the rows picked by the bits of i, so index 0 is zero."""
    rows = list(rows)
    table = np.zeros(1 << len(rows), dtype=np.uint64)
    for i, r in enumerate(rows):
        np.bitwise_xor(table[:1 << i], np.uint64(r), out=table[1 << i:2 << i])
    return table
