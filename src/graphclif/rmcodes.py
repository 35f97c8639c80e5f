"""Punctured first-order Reed-Muller codes and the [2^m-1, 1, 3] CSS family.

Codewords are integers; bit i is coordinate i.  Evaluation points of
GF(2)^m are taken in binary counting order with the zero point first,
so puncturing drops bit 0.  The quantum code stacks X stabilizers from
the even subcode C2 and Z stabilizers from the dual of C1; adding
Z on every qubit or X on the logical-X support pins the logical zero
and plus states.

The GF(2) work is gf2.py's: a code's basis is an Echelon, membership is
a reduction against it, and the codewords are a span_table.  Words of
C1 outside C2 are the coset C2 + anchor for any anchor in C1 minus C2, so
coset weights come from one shifted span table, not a membership test
per word.  A code with more rows than its dual takes its distance from
the dual's weights by the MacWilliams identity, so only the smaller of
the two is ever tabulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import CapabilityError
from .gf2 import Echelon, span_table
from .pauli import PauliOperator
from .stabilizer import StabilizerGroup


class BinaryCode:
    """A linear code over GF(2) with an explicit generator basis."""

    def __init__(self, length: int, rows):
        if not 0 < length <= 63:
            raise ValueError(f"code length {length} outside 1..63")
        rows = [int(r) for r in rows]
        if not all(0 <= r < (1 << length) for r in rows):
            raise ValueError("generator row exceeds the code length")
        echelon = Echelon()
        for r in rows:
            if not echelon.add(r):
                raise ValueError("generator rows must be independent")
        self.length = length
        self._echelon = echelon
        self.rows = echelon.rows

    @property
    def k(self) -> int:
        return len(self.rows)

    def codewords(self) -> np.ndarray:
        return span_table(self.rows)

    def weights(self) -> np.ndarray:
        return np.bitwise_count(self.codewords())

    def min_distance(self) -> int:
        """Least nonzero weight; length + 1 for the zero code."""
        n = self.length
        if self.k > n - self.k:
            return _distance_from_dual_weights(n, self.dual().weights())
        w = self.weights()
        w[0] = n + 1
        return int(w.min())

    def parameters(self) -> tuple:
        return (self.length, self.k, self.min_distance())

    def contains(self, word: int) -> bool:
        return self._echelon.reduce(int(word))[0] == 0

    def dual(self) -> "BinaryCode":
        """Kernel basis of the generator matrix."""
        n = self.length
        rows = list(self.rows)
        pivots = []
        for r in rows:
            pivots.append(r.bit_length() - 1)
        free = [j for j in range(n) if j not in pivots]
        # solve for pivot coordinates so every generator row is orthogonal
        duals = []
        for j in free:
            word = 1 << j
            for r, p in sorted(zip(rows, pivots), key=lambda t: t[1]):
                if (r & word).bit_count() % 2:
                    word ^= 1 << p
            duals.append(word)
        return BinaryCode(n, duals)

    def even_subcode(self) -> "BinaryCode":
        odd = [r for r in self.rows if r.bit_count() % 2]
        even = [r for r in self.rows if r.bit_count() % 2 == 0]
        if odd:
            anchor = odd[0]
            even.extend(r ^ anchor for r in odd[1:])
        return BinaryCode(self.length, even)

    def puncture_first(self) -> "BinaryCode":
        return BinaryCode(self.length - 1, [r >> 1 for r in self.rows])

    def __repr__(self):
        return f"BinaryCode{self.parameters()}"


def _distance_from_dual_weights(n: int, dual_weights) -> int:
    """Least i >= 1 with A_i > 0.  By MacWilliams, |C-dual| A_i is the sum
    over weights j of B_j K_i(j), with B_j the dual's weight counts and
    K_i(j) = sum_s (-1)^s C(j, s) C(n - j, i - s) the Krawtchouk values."""
    counts = np.bincount(dual_weights, minlength=n + 1).tolist()
    for i in range(1, n + 1):
        if sum(b * sum((-1) ** s * comb(j, s) * comb(n - j, i - s)
                       for s in range(i + 1))
               for j, b in enumerate(counts)):
            return i
    return n + 1


def rm1(m: int) -> BinaryCode:
    """First-order Reed-Muller: all-ones plus the m coordinate forms."""
    if not 3 <= m <= 5:
        raise ValueError(f"rm1 supports m in 3..5, got {m}")
    n = 1 << m
    ones = (1 << n) - 1
    rows = [ones]
    for i in range(m):
        row = 0
        for point in range(n):
            if (point >> i) & 1:
                row |= 1 << point
        rows.append(row)
    return BinaryCode(n, rows)


def punctured_rm1(m: int) -> BinaryCode:
    return rm1(m).puncture_first()


@dataclass(frozen=True)
class CSSCode:
    n: int
    x_rows: tuple
    z_rows: tuple
    logical_x: int
    logical_z: int

    @property
    def k(self) -> int:
        return self.n - len(self.x_rows) - len(self.z_rows)


def build_css(m: int) -> CSSCode:
    """CSS code from C2 inside C1 = punctured RM(1, m)."""
    c1 = punctured_rm1(m)
    c2 = c1.even_subcode()
    dual1 = c1.dual()
    n = c1.length

    for x in c2.rows:
        assert c1.contains(x)
        for z in dual1.rows:
            assert (x & z).bit_count() % 2 == 0, "CSS rows must be orthogonal"

    min_wt = 1 << (m - 1)
    words = c1.codewords()
    odd = words[np.bitwise_count(words) == min_wt - 1]
    assert odd.size, "C1 minus C2 must contain minimum-weight words"
    logical_x = int(odd.min())
    logical_z = (1 << n) - 1
    assert (logical_x & logical_z).bit_count() % 2 == 1
    css = CSSCode(n=n, x_rows=c2.rows, z_rows=dual1.rows,
                  logical_x=logical_x, logical_z=logical_z)
    assert css.k == 1
    return css


def logical_state_stabilizer(css: CSSCode, choice: str) -> StabilizerGroup:
    """Stabilizer of the logical zero or plus state, n generators."""
    gens = [PauliOperator(css.n, x, 0, 0) for x in css.x_rows]
    gens += [PauliOperator(css.n, 0, z, 0) for z in css.z_rows]
    if choice == "zero":
        gens.append(PauliOperator(css.n, 0, css.logical_z, 0))
    elif choice == "plus":
        gens.append(PauliOperator(css.n, css.logical_x, 0, 0))
    else:
        raise ValueError("choice must be 'zero' or 'plus'")
    return StabilizerGroup(gens)


def _coset_weights(rows, anchor: int) -> np.ndarray:
    """Weights of the words of the coset span(rows) + anchor."""
    return np.bitwise_count(span_table(rows) ^ np.uint64(anchor))


def css_distance(css: CSSCode) -> int:
    """Minimum weight over both logical coset representatives (n <= 15):
    C1 minus C2 is span(x_rows) + logical_x, and C2-dual minus C1-dual is
    span(z_rows) + logical_z."""
    if css.n > 15:
        raise CapabilityError(
            f"coset enumeration is kept at desk scale (n <= 15, not {css.n})")
    return int(min(_coset_weights(css.x_rows, css.logical_x).min(),
                   _coset_weights(css.z_rows, css.logical_z).min()))


def transversal_weight_check(m: int) -> bool:
    """Codeword weights certifying exp(-i pi/2^{m-1} Z_L) is transversal:
    C2 weights in {0, 2^{m-1}}, C1 minus C2 weights in {2^{m-1}-1, 2^m-1}."""
    c1 = punctured_rm1(m)
    c2 = c1.even_subcode()
    half = 1 << (m - 1)
    w2 = set(int(w) for w in c2.weights())
    if not w2 <= {0, half}:
        return False
    odd = [r for r in c1.rows if r.bit_count() % 2]
    w_outside = set(_coset_weights(c2.rows, odd[0]).tolist()) if odd else set()
    return w_outside <= {half - 1, (1 << m) - 1}
