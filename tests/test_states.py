"""Dense state vectors: graph states, Pauli action, the even-weight-code
factor check."""

import numpy as np

from graphclif import (Graph, StabilizerGroup, apply_local, apply_pauli,
                       equal_up_to_global_phase, graph_state_vector,
                       parse_pauli, stabilizer_state_vector,
                       standard_generators)
from proposition2_oracle import verify_proposition2


def test_graph_state_k2_is_cz_plus_plus():
    v = graph_state_vector(Graph.complete(2))
    want = np.array([1, 1, 1, -1], dtype=complex) / 2
    assert np.allclose(v, want)


def test_graph_state_fixed_by_generators():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
    v = graph_state_vector(g)
    for p in standard_generators(g).generators:
        assert np.allclose(apply_pauli(p, v), v, atol=1e-12)


def test_apply_pauli_matches_dense():
    rng = np.random.default_rng(5)
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    Z = np.array([[1, 0], [0, -1]], dtype=complex)
    I = np.eye(2, dtype=complex)
    mats = {"I": I, "X": X, "Y": Y, "Z": Z}
    for text in ("XZY", "-YIX", "iZZZ", "IXI"):
        p = parse_pauli(text)
        sign, clean = 1 + 0j, text
        for pre, val in (("-i", -1j), ("i", 1j), ("-", -1), ("+", 1)):
            if text.startswith(pre):
                sign, clean = val, text[len(pre):]
                break
        dense = np.array([[1]], dtype=complex)
        for c in clean:
            dense = np.kron(dense, mats[c])
        dense = dense * sign
        v = rng.normal(size=2 ** len(clean)) + 1j * rng.normal(size=2 ** len(clean))
        assert np.allclose(apply_pauli(p, v), dense @ v, atol=1e-12)


def test_stabilizer_state_vector_agrees_with_graph_state():
    g = Graph.cycle(5)
    s = standard_generators(g)
    v = stabilizer_state_vector(s)
    w = graph_state_vector(g)
    assert equal_up_to_global_phase(v, w, tol=1e-9)
    for p in s.generators:
        assert np.allclose(apply_pauli(p, v), v, atol=1e-9)


def test_stabilizer_state_vector_nontrivial_signs():
    s = StabilizerGroup([parse_pauli("-XX"), parse_pauli("-ZZ")])
    v = stabilizer_state_vector(s)
    for p in s.generators:
        assert np.allclose(apply_pauli(p, v), v, atol=1e-9)


def test_apply_local_matches_kron():
    rng = np.random.default_rng(9)
    mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            for _ in range(3)]
    big = np.kron(np.kron(mats[0], mats[1]), mats[2])
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    assert np.allclose(apply_local(mats, v), big @ v, atol=1e-12)


def test_equal_up_to_global_phase():
    v = np.array([1, 1j]) / np.sqrt(2)
    assert equal_up_to_global_phase(v, np.exp(0.4j) * v)
    assert not equal_up_to_global_phase(v, np.array([1, -1j]) / np.sqrt(2))


def test_proposition2_clifford_angles():
    # theta multiples of pi/2 make each factor Clifford: implication holds
    for n in (3, 4):
        for k in range(4):
            thetas = [k * np.pi / 2] * n
            res = verify_proposition2(n, thetas)
            assert res.logical_clifford
            assert res.each_local_clifford


def test_proposition2_non_clifford_angles():
    res = verify_proposition2(3, [np.pi / 8, 0.0, 0.0])
    assert not res.logical_clifford
    assert not res.each_local_clifford
    # mixed: logical Clifford only if every exp(2 i theta) is a sign
    res = verify_proposition2(4, [np.pi / 2, np.pi / 2, 0.0, np.pi / 2])
    assert res.logical_clifford and res.each_local_clifford
