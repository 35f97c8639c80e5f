"""Pauli operators on up to 63 qubits in binary symplectic form.

An n-qubit Pauli operator is stored as two n-bit masks and a power of i:

    P = i**phase_exp * X(x_bits) * Z(z_bits)

where X(m) applies X on every qubit whose bit is set in m, likewise Z(m),
and qubit j (1-based label j+1 at the string boundary) occupies bit j.
Single-qubit letters decode as

    (x, z) = (0, 0) -> I    (1, 0) -> X
             (1, 1) -> Y    (0, 1) -> Z

with the convention Y = i * X * Z.  A Hermitian operator therefore has
phase_exp congruent to popcount(x_bits & z_bits) mod 2.

Only one rule is needed for products: moving Z(a) past X(b) costs a sign
(-1) per overlapping qubit, i.e. 2 * popcount(a & b) added to phase_exp.
Everything downstream (group membership, support tables, conjugation by
local Cliffords) reduces to XORs and popcounts on machine words, which is
why n is capped at 63.
"""

from __future__ import annotations

import numpy as np

from .errors import CapabilityError

MAX_QUBITS = 63

_PHASE_PREFIX = {0: "+", 1: "i", 2: "-", 3: "-i"}
_PREFIX_PHASE = {"": 0, "+": 0, "i": 1, "+i": 1, "-": 2, "-i": 3}

# Single-qubit matrices, indexed by the (x, z) bit pair.
_I2 = np.eye(2, dtype=complex)
_X2 = np.array([[0, 1], [1, 0]], dtype=complex)
_Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z2 = np.array([[1, 0], [0, -1]], dtype=complex)


class PauliOperator:
    """Immutable Pauli operator with exact integer phase tracking."""

    __slots__ = ("n", "x_bits", "z_bits", "phase_exp")

    def __init__(self, n: int, x_bits: int, z_bits: int, phase_exp: int = 0):
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"qubit count {n} outside 1..{MAX_QUBITS}")
        mask = (1 << n) - 1
        if not (0 <= x_bits <= mask and 0 <= z_bits <= mask):
            raise ValueError("mask exceeds qubit count")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "x_bits", x_bits)
        object.__setattr__(self, "z_bits", z_bits)
        object.__setattr__(self, "phase_exp", phase_exp % 4)

    def __setattr__(self, name, value):
        raise AttributeError("PauliOperator is immutable")

    # -- algebra ---------------------------------------------------------

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        if self.n != other.n:
            raise ValueError(f"qubit counts differ: {self.n} and {other.n}")
        phase = (
            self.phase_exp
            + other.phase_exp
            + 2 * (self.z_bits & other.x_bits).bit_count()
        )
        return PauliOperator(
            self.n, self.x_bits ^ other.x_bits, self.z_bits ^ other.z_bits, phase
        )

    def commutes(self, other: "PauliOperator") -> bool:
        if self.n != other.n:
            raise ValueError(f"qubit counts differ: {self.n} and {other.n}")
        anti = (self.x_bits & other.z_bits).bit_count() + (
            self.z_bits & other.x_bits
        ).bit_count()
        return anti % 2 == 0

    def negate(self) -> "PauliOperator":
        return PauliOperator(self.n, self.x_bits, self.z_bits, self.phase_exp + 2)

    def is_hermitian(self) -> bool:
        return self.phase_exp % 2 == (self.x_bits & self.z_bits).bit_count() % 2

    def is_identity(self) -> bool:
        return self.x_bits == 0 and self.z_bits == 0 and self.phase_exp == 0

    # -- structure -------------------------------------------------------

    @property
    def support_mask(self) -> int:
        return self.x_bits | self.z_bits

    def weight(self) -> int:
        return (self.x_bits | self.z_bits).bit_count()

    def support(self) -> tuple[int, ...]:
        """Supported qubits as sorted 1-based labels."""
        mask = self.support_mask
        return tuple(j + 1 for j in range(self.n) if (mask >> j) & 1)

    def letter(self, qubit: int) -> str:
        """Letter at a 1-based qubit label."""
        if not 1 <= qubit <= self.n:
            raise ValueError(f"qubit label {qubit} outside 1..{self.n}")
        j = qubit - 1
        return "IXZY"[((self.x_bits >> j) & 1) | (((self.z_bits >> j) & 1) << 1)]

    # -- identity/equality -----------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliOperator)
            and self.n == other.n
            and self.x_bits == other.x_bits
            and self.z_bits == other.z_bits
            and self.phase_exp == other.phase_exp
        )

    def __hash__(self) -> int:
        return hash((self.n, self.x_bits, self.z_bits, self.phase_exp))

    # -- formatting ------------------------------------------------------

    def __str__(self) -> str:
        y_count = (self.x_bits & self.z_bits).bit_count()
        prefix = _PHASE_PREFIX[(self.phase_exp - y_count) % 4]
        letters = "".join(self.letter(q) for q in range(1, self.n + 1))
        return prefix + letters

    def __repr__(self) -> str:
        return f"PauliOperator({self.n}, {self.x_bits:#x}, {self.z_bits:#x}, {self.phase_exp})"

    # -- dense form (small n only, for oracles and state checks) ----------

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix.  Qubit 1 is the leftmost kron factor."""
        if self.n > 12:
            raise CapabilityError("dense form limited to 12 qubits")
        out = np.array([[1j**self.phase_exp]], dtype=complex)
        table = (_I2, _X2, _Z2, _Y2)  # indexed by x + 2z
        for j in range(self.n):
            xb = (self.x_bits >> j) & 1
            zb = (self.z_bits >> j) & 1
            # Y = i X Z: using the Y matrix absorbs one factor of i,
            # compensate so the product of factors equals X(x) Z(z).
            if xb and zb:
                out = out * (-1j)
            out = np.kron(out, table[xb + 2 * zb])
        return out


def identity(n: int) -> PauliOperator:
    return PauliOperator(n, 0, 0, 0)


def parse_pauli(text: str) -> PauliOperator:
    """Parse strings like 'XZI', '-YY', 'iXZ', '+IZX' (qubit 1 leftmost)."""
    s = text.strip()
    prefix = ""
    while s and s[0] in "+-i":
        prefix += s[0]
        s = s[1:]
    if prefix not in _PREFIX_PHASE:
        raise ValueError(f"bad phase prefix in {text!r}")
    if not s or any(c not in "IXYZ" for c in s):
        raise ValueError(f"bad Pauli letters in {text!r}")
    n = len(s)
    if n > MAX_QUBITS:
        raise ValueError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit limit")
    x = z = 0
    phase = _PREFIX_PHASE[prefix]
    for j, c in enumerate(s):
        if c in "XY":
            x |= 1 << j
        if c in "ZY":
            z |= 1 << j
        if c == "Y":
            phase += 1
    return PauliOperator(n, x, z, phase)
