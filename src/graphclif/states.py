"""Dense state vectors for small qubit counts.

Basis convention: qubit 0 is the leftmost tensor factor, so its value
is the most significant bit of the amplitude index.  This matches
PauliOperator.to_matrix, which builds matrices with kron in qubit order.
Everything here is capped at 12 qubits.
"""

from __future__ import annotations

import numpy as np

from .errors import CapabilityError
from .graphs import Graph
from .pauli import PauliOperator
from .stabilizer import StabilizerGroup

DENSE_LIMIT = 12


def _index_mask(qubit_mask: int, n: int) -> int:
    """Qubit mask -> amplitude-index mask (bit v becomes bit n-1-v)."""
    out = 0
    for v in range(n):
        if (qubit_mask >> v) & 1:
            out |= 1 << (n - 1 - v)
    return out


def graph_state_vector(g: Graph) -> np.ndarray:
    """Amplitudes 2^{-n/2} (-1)^{sum over edges of a_u a_v}."""
    n = g.n
    if n > DENSE_LIMIT:
        raise CapabilityError("dense vectors capped at 12 qubits")
    idx = np.arange(1 << n)
    signs = np.zeros(1 << n, dtype=np.int64)
    for u, v in g.edges():
        both = (idx >> (n - 1 - u)) & (idx >> (n - 1 - v)) & 1
        signs += both
    amps = np.where(signs % 2 == 0, 1.0, -1.0) / np.sqrt(2.0**n)
    return amps.astype(complex)


def apply_pauli(p: PauliOperator, vec: np.ndarray) -> np.ndarray:
    """Matrix-free action: X part permutes indices, Z part flips signs."""
    n = p.n
    if vec.shape != (1 << n,):
        raise ValueError(f"vector of shape {vec.shape} for {n} qubits")
    xm = _index_mask(p.x_bits, n)
    zm = _index_mask(p.z_bits, n)
    idx = np.arange(1 << n)
    src = idx ^ xm
    # i^phase * (-1)^{popcount(src & z)} since Z acts before X
    par = np.bitwise_count(src & zm) & 1
    coef = (1j**p.phase_exp) * np.where(par == 0, 1.0, -1.0)
    return coef * vec[src]


def stabilizer_state_vector(s: StabilizerGroup, seed: int = 12345) -> np.ndarray:
    """Project a fixed pseudorandom vector onto the joint +1 eigenspace."""
    if not s.is_state_group():
        raise ValueError("state vector needs a full set of generators")
    if s.n > DENSE_LIMIT:
        raise CapabilityError("dense vectors capped at 12 qubits")
    for attempt in range(8):
        rng = np.random.default_rng(seed + attempt)
        vec = rng.normal(size=1 << s.n) + 1j * rng.normal(size=1 << s.n)
        for gen in s.generators:
            vec = (vec + apply_pauli(gen, vec)) / 2.0
        norm = np.linalg.norm(vec)
        if norm > 1e-9:
            vec = vec / norm
            anchor = int(np.argmax(np.abs(vec)))
            return vec * (abs(vec[anchor]) / vec[anchor])
    raise AssertionError("random vector kept landing outside the code space")


def apply_local(matrices, vec: np.ndarray) -> np.ndarray:
    """Apply one 2x2 matrix per qubit to a dense vector."""
    n = len(matrices)
    if vec.shape != (1 << n,):
        raise ValueError(f"vector of shape {vec.shape} for {n} qubits")
    t = vec.reshape((2,) * n)
    for j, m in enumerate(matrices):
        t = np.moveaxis(np.tensordot(np.asarray(m, dtype=complex), t, axes=([1], [j])), 0, j)
    return t.reshape(1 << n)


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-8) -> bool:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    anchor = int(np.argmax(np.abs(a)))
    if abs(a[anchor]) < tol:
        return bool(np.all(np.abs(b) < tol))
    phase = b[anchor] / a[anchor]
    if abs(abs(phase) - 1.0) > tol:
        return False
    return bool(np.allclose(a * phase, b, atol=tol, rtol=0.0))


def is_diagonal(m: np.ndarray, tol: float = 1e-9) -> bool:
    return abs(m[0, 1]) <= tol and abs(m[1, 0]) <= tol

