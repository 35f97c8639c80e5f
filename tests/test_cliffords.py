"""Single-qubit Clifford catalog and local operators.

The catalog is checked for group closure and against dense matrix
conjugation; the conjugator table's sign-exactness (F p F^dagger = +Z,
never -Z) is what the constructive converter leans on, so it gets its
own test.
"""

import itertools

import numpy as np

import enumeration_oracles as oracle
from graphclif import (CLIFFORD_CATALOG, IDENTITY_1Q, LocalCliffordOp,
                       PauliOperator, clifford_by_name, conjugate_stabilizer,
                       find_clifford_conjugator, is_clifford, parse_pauli,
                       pauli_match)
from graphclif.graphs import Graph
from graphclif.graphstates import standard_generators

X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S2 = np.array([[1, 0], [0, 1j]], dtype=complex)


def test_catalog_has_24_elements():
    assert len(CLIFFORD_CATALOG) == 24
    assert len({e.name for e in CLIFFORD_CATALOG}) == 24
    assert IDENTITY_1Q.name == "I"


def test_catalog_closed_under_composition():
    actions = {(str(e.img_x), str(e.img_z)) for e in CLIFFORD_CATALOG}
    assert len(actions) == 24
    for a, b in itertools.product(CLIFFORD_CATALOG, repeat=2):
        c = a.compose(b)
        assert (str(c.img_x), str(c.img_z)) in actions


def test_symplectic_action_matches_dense():
    paulis = {"X": X2, "Y": Y2, "Z": Z2}
    for e in CLIFFORD_CATALOG:
        for letter, dense in paulis.items():
            img = e.conjugate(parse_pauli(letter))
            got = e.matrix @ dense @ e.matrix.conj().T
            want = _dense_1q(img)
            assert np.allclose(got, want, atol=1e-12), (e.name, letter)


def _dense_1q(p: PauliOperator) -> np.ndarray:
    base = {0: np.eye(2, dtype=complex), 1: X2}[p.x_bits] if p.z_bits == 0 \
        else ({0: Z2, 1: Y2}[p.x_bits] if p.z_bits == 1 else None)
    return (1j ** p.phase_exp) * base * (-1j if p.x_bits and p.z_bits else 1)


def test_dense_1q_helper_consistent():
    # guard the helper itself: Y = i X Z
    assert np.allclose(_dense_1q(parse_pauli("Y")), Y2)
    assert np.allclose(_dense_1q(parse_pauli("-Z")), -Z2)


def test_compose_order_is_left_after_right():
    h = clifford_by_name("H")
    s = clifford_by_name("S")
    hs = h.compose(s)
    assert np.allclose(_phase_free(hs.matrix), _phase_free(H2 @ S2), atol=1e-12)


def _phase_free(m):
    idx = np.unravel_index(np.argmax(np.abs(m)), m.shape)
    return m / (m[idx] / abs(m[idx]))


def test_inverse():
    for e in CLIFFORD_CATALOG:
        r = e.compose(e.inverse())
        assert str(r.img_x) == "+X" and str(r.img_z) == "+Z"


def test_conjugator_is_sign_exact():
    # F p F^dagger must equal +Z exactly for every Hermitian single-qubit
    # Pauli, minus signs included.
    for text in ("X", "Y", "Z", "-X", "-Y", "-Z"):
        p = parse_pauli(text)
        f = find_clifford_conjugator(p)
        assert str(f.conjugate(p)) == "+Z", text


def test_conjugator_canonical_picks():
    assert find_clifford_conjugator(parse_pauli("Z")).name == "I"
    assert find_clifford_conjugator(parse_pauli("X")).name == "H"
    assert find_clifford_conjugator(parse_pauli("-Z")).name == "X"


def test_pauli_match_and_is_clifford():
    assert pauli_match(Y2) == parse_pauli("Y")
    assert pauli_match(-Z2) == parse_pauli("-Z")
    assert pauli_match(np.exp(0.3j) * Z2) is None
    assert pauli_match(H2) is None
    e = is_clifford(np.exp(0.7j) * H2)  # global phase is forgiven
    assert e is not None and e.name == "H"
    t = np.diag([1, np.exp(1j * np.pi / 4)])
    assert is_clifford(t) is None


def _oracle_inputs():
    """Catalog matrices under random global phases, the signed Paulis,
    Haar-random unitaries, and signed Paulis and catalog matrices
    perturbed at three scales, all drawn from one seed."""
    rng = np.random.default_rng(8)
    phases = np.exp(2j * np.pi * rng.random(3))
    paulis = [p.to_matrix() for p in oracle.SIGNED_PAULIS]
    mats = [e.matrix * ph for e in CLIFFORD_CATALOG for ph in (1, -1, 1j, *phases)]
    mats += paulis + [p * ph for p in paulis for ph in phases]
    for _ in range(100):
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        mats.append(q * (np.diag(r) / np.abs(np.diag(r))))
    for scale in (1e-12, 1e-7, 1e-3):
        for base in paulis + [e.matrix for e in CLIFFORD_CATALOG]:
            noise = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            mats.append(base + scale * noise)
    return mats


def test_pauli_match_and_is_clifford_agree_with_scan_oracle():
    mats = _oracle_inputs()
    for m in mats:
        assert pauli_match(m) == oracle.pauli_match(m)
        assert is_clifford(m) is oracle.is_clifford(m)
    # the set reaches both answers of both recognizers
    assert sum(pauli_match(m) is not None for m in mats) > len(oracle.SIGNED_PAULIS)
    assert sum(is_clifford(m) is not None for m in mats) > len(CLIFFORD_CATALOG)
    assert any(is_clifford(m) is None for m in mats)


def test_local_clifford_op_conjugation():
    ops = LocalCliffordOp((clifford_by_name("H"), IDENTITY_1Q,
                           clifford_by_name("S")))
    p = parse_pauli("XZX")
    img = ops.conjugate_pauli(p)
    # H X H = Z; S X S^dagger = Y
    assert str(img) == "+ZZY"
    back = ops.inverse().conjugate_pauli(img)
    assert back == p


def test_conjugate_stabilizer_roundtrip():
    g = Graph.cycle(5)
    s = standard_generators(g)
    ops = LocalCliffordOp(tuple(CLIFFORD_CATALOG[i % 24] for i in range(5)))
    t = conjugate_stabilizer(ops, s)
    assert t.n == 5 and t.k == 5
    back = conjugate_stabilizer(ops.inverse(), t)
    for a, b in zip(back.generators, s.generators):
        assert a == b
