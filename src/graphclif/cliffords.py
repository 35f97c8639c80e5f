"""The 24-element single-qubit Clifford catalog and local operators.

Each catalog element carries two layers: an exact symplectic action (the
images of X and Z as signed one-qubit Paulis, composed with integer
arithmetic only) and a numeric 2x2 representative (a product of H and S
matrices).  Group operations, conjugation of stabilizer generators, and
Pauli matching all run on the exact layer; the matrices exist for dense
state checks and for recognizing numerically-given unitaries.

A LocalOp is a plain per-qubit list of 2x2 unitaries (no Clifford
promise); a LocalCliffordOp restricts the factors to catalog elements and
therefore supports exact conjugation.
"""

from __future__ import annotations

import numpy as np

from .pauli import PauliOperator
from .stabilizer import StabilizerGroup

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
PHASE_S = np.array([[1, 0], [0, 1j]], dtype=complex)

_X1 = PauliOperator(1, 1, 0, 0)
_Y1 = PauliOperator(1, 1, 1, 1)
_Z1 = PauliOperator(1, 0, 1, 0)


def _action_key(img_x: PauliOperator, img_z: PauliOperator) -> tuple:
    return (img_x.x_bits, img_x.z_bits, img_x.phase_exp,
            img_z.x_bits, img_z.z_bits, img_z.phase_exp)


class SingleQubitClifford:
    """One catalog element: exact X/Z images plus a 2x2 representative."""

    __slots__ = ("name", "img_x", "img_z", "matrix", "index")

    def __init__(self, name, img_x, img_z, matrix, index=-1):
        self.name = name
        self.img_x = img_x
        self.img_z = img_z
        self.matrix = matrix
        self.index = index

    def conjugate(self, p: PauliOperator) -> PauliOperator:
        """Image of a one-qubit Pauli i^e X^x Z^z under conjugation."""
        if p.n != 1:
            raise ValueError(f"a one-qubit Clifford cannot conjugate {p}")
        out = PauliOperator(1, 0, 0, p.phase_exp)
        if p.x_bits:
            out = out * self.img_x
        if p.z_bits:
            out = out * self.img_z
        return out

    def compose(self, other: "SingleQubitClifford") -> "SingleQubitClifford":
        """self applied after other (matrix product self @ other)."""
        key = _action_key(self.conjugate(other.img_x), self.conjugate(other.img_z))
        return _BY_ACTION[key]

    def inverse(self) -> "SingleQubitClifford":
        return _INVERSE[self.index]

    def __eq__(self, other):
        return isinstance(other, SingleQubitClifford) and self.index == other.index

    def __hash__(self):
        return hash(self.index)

    def __repr__(self):
        return f"<Clifford {self.name}>"


def _build_catalog():
    ident = SingleQubitClifford("I", _X1, _Z1, np.eye(2, dtype=complex))
    gens = [
        SingleQubitClifford("H", _Z1, _X1, HADAMARD),
        SingleQubitClifford("S", _Y1, _Z1, PHASE_S),
    ]
    catalog = [ident]
    seen = {_action_key(ident.img_x, ident.img_z)}
    frontier = [ident]
    while frontier:
        fresh = []
        for e in frontier:
            for g in gens:
                img_x = g.conjugate(e.img_x)
                img_z = g.conjugate(e.img_z)
                key = _action_key(img_x, img_z)
                if key in seen:
                    continue
                seen.add(key)
                word = g.name + (e.name if e.name != "I" else "")
                elem = SingleQubitClifford(word, img_x, img_z, g.matrix @ e.matrix)
                catalog.append(elem)
                fresh.append(elem)
        frontier = fresh
    assert len(catalog) == 24, "single-qubit Clifford group has 24 elements mod phase"
    # Friendlier names where the action is a Pauli or a standard gate.
    renames = {
        _action_key(_X1, _Z1.negate()): "X",
        _action_key(_X1.negate(), _Z1.negate()): "Y",
        _action_key(_X1.negate(), _Z1): "Z",
        _action_key(_Y1.negate(), _Z1): "SDG",
    }
    for e in catalog:
        e.name = renames.get(_action_key(e.img_x, e.img_z), e.name)
    for i, e in enumerate(catalog):
        e.index = i
    return catalog


CLIFFORD_CATALOG: list[SingleQubitClifford] = _build_catalog()
_BY_ACTION = {_action_key(e.img_x, e.img_z): e for e in CLIFFORD_CATALOG}
_BY_NAME = {e.name: e for e in CLIFFORD_CATALOG}


def clifford_by_name(name: str) -> SingleQubitClifford:
    return _BY_NAME[name]


def _invert_all():
    inv = {}
    for e in CLIFFORD_CATALOG:
        for f in CLIFFORD_CATALOG:
            if f.compose(e).index == 0:
                inv[e.index] = f
                break
    return inv


_INVERSE = _invert_all()

IDENTITY_1Q = CLIFFORD_CATALOG[0]


# Signed one-qubit Paulis +P and -P per letter, with their dense forms.
_LETTERS = (_X1, _Y1, _Z1)
_SIGNED = tuple((p, p.negate()) for p in _LETTERS)
_PAULI_MATRICES = np.array([p.to_matrix() for p in _LETTERS])
_X_MATRIX, _Z_MATRIX = _PAULI_MATRICES[0], _PAULI_MATRICES[2]


def pauli_match(matrix: np.ndarray, tol: float = 1e-9) -> PauliOperator | None:
    """Match a 2x2 matrix to a signed one-qubit Pauli, else None.

    The coefficients tr(P M)/2 on X, Y and Z name the one candidate +-P
    that M can be close to; it is accepted only if M is allclose to it.
    """
    coeffs = np.einsum("pij,ji->p", _PAULI_MATRICES, matrix) / 2
    letter = int(np.argmax(np.abs(coeffs)))
    negative = bool(coeffs[letter].real < 0)
    cand = -_PAULI_MATRICES[letter] if negative else _PAULI_MATRICES[letter]
    if np.allclose(matrix, cand, atol=tol):
        return _SIGNED[letter][negative]
    return None


def is_clifford(matrix: np.ndarray, tol: float = 1e-9) -> SingleQubitClifford | None:
    """Snap a 2x2 unitary to the catalog element with the same action.

    Returns None when either conjugated image fails to be a signed Pauli.
    The catalog representative equals the input up to global phase.
    """
    img_x = pauli_match(matrix @ _X_MATRIX @ matrix.conj().T, tol)
    if img_x is None:
        return None
    img_z = pauli_match(matrix @ _Z_MATRIX @ matrix.conj().T, tol)
    if img_z is None:
        return None
    return _BY_ACTION.get(_action_key(img_x, img_z))


def _conjugator_table():
    # Prefer Pauli elements, then catalog order, so the choices stay stable:
    # +Z -> I, +X -> H, -Z -> X.
    order = [_BY_NAME[n] for n in ("I", "X", "Y", "Z")] + CLIFFORD_CATALOG
    table = {}
    for letter in (_X1, _Y1, _Z1):
        for sgn in (0, 2):
            p = PauliOperator(1, letter.x_bits, letter.z_bits, letter.phase_exp + sgn)
            for e in order:
                if e.conjugate(p) == _Z1:
                    table[(p.x_bits, p.z_bits, p.phase_exp)] = e
                    break
    return table


_CONJUGATOR = _conjugator_table()


def find_clifford_conjugator(p: PauliOperator) -> SingleQubitClifford:
    """Catalog F with F p F^dag = +Z, for a signed non-identity Pauli p."""
    if p.n != 1 or p.is_identity() or not p.is_hermitian():
        raise ValueError(f"{p} is not a Hermitian one-qubit Pauli")
    return _CONJUGATOR[(p.x_bits, p.z_bits, p.phase_exp)]


class LocalCliffordOp:
    """A tensor product of catalog elements, one per qubit."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = tuple(factors)
        if not all(isinstance(f, SingleQubitClifford) for f in self.factors):
            raise TypeError("factors must be catalog Cliffords")

    @classmethod
    def identity(cls, n: int) -> "LocalCliffordOp":
        return cls([IDENTITY_1Q] * n)

    @property
    def n(self) -> int:
        return len(self.factors)

    def names(self) -> list[str]:
        return [f.name for f in self.factors]

    def compose(self, other: "LocalCliffordOp") -> "LocalCliffordOp":
        if self.n != other.n:
            raise ValueError(f"qubit counts differ: {self.n} and {other.n}")
        return LocalCliffordOp(
            [a.compose(b) for a, b in zip(self.factors, other.factors)]
        )

    def inverse(self) -> "LocalCliffordOp":
        return LocalCliffordOp([f.inverse() for f in self.factors])

    def conjugate_pauli(self, p: PauliOperator) -> PauliOperator:
        """Exact image K p K^dag; phases accumulate per qubit."""
        if p.n != self.n:
            raise ValueError(f"qubit counts differ: {self.n} and {p.n}")
        x_out = z_out = 0
        phase = p.phase_exp
        support = p.x_bits | p.z_bits
        j = 0
        while support >> j:
            if (support >> j) & 1:
                w = PauliOperator(1, (p.x_bits >> j) & 1, (p.z_bits >> j) & 1, 0)
                img = self.factors[j].conjugate(w)
                x_out |= img.x_bits << j
                z_out |= img.z_bits << j
                phase += img.phase_exp
            j += 1
        return PauliOperator(p.n, x_out, z_out, phase)

    def matrices(self) -> list[np.ndarray]:
        return [f.matrix.copy() for f in self.factors]

    def __eq__(self, other):
        return isinstance(other, LocalCliffordOp) and self.factors == other.factors

    def __repr__(self):
        return f"LocalCliffordOp({self.names()})"


def conjugate_stabilizer(op: LocalCliffordOp, group: StabilizerGroup) -> StabilizerGroup:
    """The stabilizer group K S K^dag, generator by generator."""
    return StabilizerGroup([op.conjugate_pauli(g) for g in group.generators])
