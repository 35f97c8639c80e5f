"""Symplectic Pauli arithmetic checked against dense matrices.

The dense side is built here from explicit 2x2 matrices and Kronecker
products, independent of the package's own to_matrix, so the two routes
only agree if the phase bookkeeping is right.
"""

import itertools

import numpy as np
import pytest

from graphclif import PauliOperator, identity, parse_pauli

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
LETTER = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}
PREFIX = {"+": 1, "i": 1j, "-": -1, "-i": -1j}


def dense(text: str) -> np.ndarray:
    s = text
    scale = 1.0 + 0j
    for p in ("-i", "+i", "+", "-", "i"):
        if s.startswith(p):
            scale = PREFIX[p if p != "+i" else "i"]
            s = s[len(p):]
            break
    out = np.array([[scale]], dtype=complex)
    for c in s:
        out = np.kron(out, LETTER[c])
    return out


def all_paulis(n):
    for letters in itertools.product("IXYZ", repeat=n):
        for prefix in ("+", "i", "-", "-i"):
            yield prefix + "".join(letters)


def test_roundtrip_strings():
    for text in all_paulis(2):
        p = parse_pauli(text)
        q = parse_pauli(str(p))
        assert p == q
    assert str(parse_pauli("XZI")) == "+XZI"
    assert str(parse_pauli("-YY")) == "-YY"


def test_parse_phase_exponent():
    # "-" contributes 2 and each Y contributes 1 to the i-exponent.
    assert parse_pauli("-YY").phase_exp == 0
    assert parse_pauli("Y").phase_exp == 1
    assert parse_pauli("iZ").phase_exp == 1
    assert parse_pauli("-iX").phase_exp == 3


def test_parse_rejects_garbage():
    for bad in ("", "+-", "XA", "x", "++X", "Q"):
        with pytest.raises(ValueError):
            parse_pauli(bad)


def test_known_products():
    x = parse_pauli("X")
    z = parse_pauli("Z")
    assert str(x * z) == "-iY"
    assert str(z * x) == "iY"
    assert str(parse_pauli("XZ") * parse_pauli("ZX")) == "+YY"
    assert (x * x).is_identity()


def test_dense_matrix_matches_oracle():
    for text in all_paulis(2):
        np.testing.assert_allclose(
            parse_pauli(text).to_matrix(), dense(text), atol=1e-12
        )


def test_products_match_dense_exhaustive_two_qubits():
    ops = [parse_pauli("".join(ls)) for ls in itertools.product("IXYZ", repeat=2)]
    for p, q in itertools.product(ops, repeat=2):
        got = (p * q).to_matrix()
        want = dense(str(p)) @ dense(str(q))
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_commutes_matches_dense():
    ops = [parse_pauli("".join(ls)) for ls in itertools.product("IXYZ", repeat=2)]
    for p, q in itertools.product(ops, repeat=2):
        bracket = dense(str(p)) @ dense(str(q)) - dense(str(q)) @ dense(str(p))
        assert p.commutes(q) == bool(np.allclose(bracket, 0, atol=1e-12))


def dagger(p):
    # (i^e X Z)^dag = i^-e Z X = i^-e (-1)^|x&z| X Z
    phase = -p.phase_exp + 2 * (p.x_bits & p.z_bits).bit_count()
    return PauliOperator(p.n, p.x_bits, p.z_bits, phase)


def test_hermiticity_and_dagger():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        p = PauliOperator(
            n,
            int(rng.integers(0, 1 << n)),
            int(rng.integers(0, 1 << n)),
            int(rng.integers(0, 4)),
        )
        m = p.to_matrix()
        assert p.is_hermitian() == bool(np.allclose(m, m.conj().T, atol=1e-12))
        np.testing.assert_allclose(dagger(p).to_matrix(), m.conj().T, atol=1e-12)


def test_weight_support_letters():
    p = parse_pauli("XIZY")
    assert p.weight() == 3
    assert p.support() == (1, 3, 4)
    assert p.support_mask == 0b1101
    assert [p.letter(q) for q in (1, 2, 3, 4)] == ["X", "I", "Z", "Y"]
    assert identity(4).weight() == 0


def test_qubit_count_limits():
    with pytest.raises(ValueError):
        PauliOperator(64, 0, 0, 0)
    p = PauliOperator(63, (1 << 63) - 1, 0, 0)
    assert p.weight() == 63
