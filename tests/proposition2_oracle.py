"""Proposition 2 on the even-weight code, checked with dense matrices.

Diagonal local unitaries diag(1, e^{i theta_i}) preserve the n-qubit
even-weight code; the induced logical operation is Clifford exactly when
every local factor is.  verify_proposition2 builds the logical operation
as a dense 2^(n-1) matrix and matches the conjugated logical X images
against every Pauli, so it is kept to n in {3, 4} as a test oracle.
"""

from dataclasses import dataclass

import numpy as np

from graphclif import PauliOperator


def _match_pauli_any_phase(m: np.ndarray, n: int, tol: float = 1e-9):
    """Match m against i^k P for P an n-qubit Pauli; None if nothing fits."""
    flat = np.abs(m).ravel()
    anchor = int(np.argmax(flat))
    if flat[anchor] < tol:
        return None
    for x in range(1 << n):
        for z in range(1 << n):
            p = PauliOperator(n, x, z, 0)
            dense = p.to_matrix()
            ref = dense.ravel()[anchor]
            if abs(ref) < 0.5:
                continue
            scale = m.ravel()[anchor] / ref
            if abs(abs(scale) - 1.0) > tol:
                continue
            if np.allclose(dense * scale, m, atol=tol, rtol=0.0):
                return p, scale
    return None


@dataclass(frozen=True)
class EvenCodeCheck:
    each_local_clifford: bool
    logical_clifford: bool
    thetas: tuple


def verify_proposition2(n: int, thetas, tol: float = 1e-9) -> EvenCodeCheck:
    """Diagonal locals diag(1, e^{i theta_i}) on the even-weight code.

    Qubit 1 is the parity bit; logical basis |b>_L maps to the physical
    codeword (parity(b), b).  Logical X_j acts physically as X_1 X_{j+1},
    logical Z_j as Z_{j+1}.  The induced logical operation is Clifford
    exactly when every conjugated logical X image is a Pauli; each local
    factor is Clifford exactly when e^{2i theta_i} = +-1.
    """
    assert 3 <= n <= 4, "dense logical check supported for n in {3, 4}"
    thetas = tuple(float(t) for t in thetas)
    assert len(thetas) == n

    k = n - 1
    logical = np.arange(1 << k)
    parity = np.bitwise_count(logical) & 1
    # physical codeword index: parity bit in front of the k data bits
    exponents = np.zeros(1 << k)
    exponents += parity * thetas[0]
    for j in range(k):
        bit = (logical >> (k - 1 - j)) & 1
        exponents += bit * thetas[j + 1]
    f_logical = np.diag(np.exp(1j * exponents))

    logical_ok = True
    for j in range(k):
        xj = PauliOperator(k, 1 << j, 0, 0).to_matrix()
        img = f_logical @ xj @ f_logical.conj().T
        if _match_pauli_any_phase(img, k, tol) is None:
            logical_ok = False
            break

    each_ok = all(abs(np.sin(2.0 * t)) <= 1e-7 for t in thetas)
    if logical_ok:
        assert each_ok, "logical Clifford without local Cliffords"
    return EvenCodeCheck(each_local_clifford=each_ok, logical_clifford=logical_ok, thetas=thetas)
