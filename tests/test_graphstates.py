"""Graph-state generators, the graph extraction round trip, and the
theorem classifier's taxonomy on the worked examples."""

import random

import pytest

from graphclif import (Graph, StabilizerGroup, classify_theorem,
                       conjugate_stabilizer, has_weight_two_element,
                       is_ghz_class, parse_pauli, stabilizer_to_graph,
                       standard_generators)
from graphclif.cliffords import CLIFFORD_CATALOG, LocalCliffordOp
from graphclif.canon import canonical_form


def test_standard_generators_b4():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
    s = standard_generators(g)
    assert [str(p) for p in s.generators] == [
        "+XZIII", "+ZXZII", "+IZXZZ", "+IIZXI", "+IIZIX"]


def test_stabilizer_to_graph_is_identity_on_graph_states():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randrange(2, 9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        g = Graph.from_edges(n, edges)
        h, op = stabilizer_to_graph(standard_generators(g))
        assert h == g
        assert all(f.name == "I" for f in op.factors)


def test_stabilizer_to_graph_round_trip_under_conjugation():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randrange(2, 8)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.45]
        g = Graph.from_edges(n, edges)
        if not g.is_connected():
            continue
        s = standard_generators(g)
        ops = LocalCliffordOp(tuple(rng.choice(CLIFFORD_CATALOG)
                                    for _ in range(n)))
        t = conjugate_stabilizer(ops, s)
        h, op = stabilizer_to_graph(t)
        # op witnesses the conversion: op t op^-1 = standard generators of h
        back = conjugate_stabilizer(op, t)
        want = standard_generators(h)
        for p in want.generators:
            assert back.is_element(p)
        # graph states are LC-equivalent, so h sits in g's class
        assert canonical_form(h) in {canonical_form(m) for m in
                                     _orbit_forms(g)}


def _orbit_forms(g):
    from graphclif.canon import lc_orbit
    return lc_orbit(g).values()


def test_stabilizer_to_graph_on_bell_and_ghz():
    bell = StabilizerGroup([parse_pauli("XX"), parse_pauli("ZZ")])
    h, op = stabilizer_to_graph(bell)
    assert h == Graph.complete(2)
    ghz = StabilizerGroup([parse_pauli("XXX"), parse_pauli("ZZI"),
                           parse_pauli("IZZ")])
    h, _ = stabilizer_to_graph(ghz)
    assert h.is_connected() and h.n == 3


def test_has_weight_two_element():
    assert has_weight_two_element(Graph.path(4))          # leaves
    assert has_weight_two_element(Graph.complete(4))      # twins
    assert has_weight_two_element(Graph.star(5))
    assert not has_weight_two_element(Graph.cycle(5))
    assert not has_weight_two_element(Graph.cycle(6))


def test_is_ghz_class():
    assert is_ghz_class(Graph.star(4))
    assert is_ghz_class(Graph.complete(5))
    assert is_ghz_class(Graph.complete(3))
    assert is_ghz_class(Graph.complete(2))
    assert not is_ghz_class(Graph.path(4))
    assert not is_ghz_class(Graph.cycle(6))


def test_classifier_taxonomy():
    cases = [
        (Graph.star(5), "GHZ"),
        (Graph.complete(4), "GHZ"),
        (Graph.complete(3), "GHZ"),
        (Graph.cycle(5), "MainTheorem"),
        (Graph.cycle(6), "MainTheorem"),
        (Graph.path(4), "MainTheorem"),
        (Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4)]),
         "MainTheorem"),  # B4
        (Graph.cycle(4), "Open"),
    ]
    for g, want in cases:
        got = classify_theorem(g)
        assert got.tag == want, (g, got)


def test_classifier_satisfied_sets():
    b4 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
    res = classify_theorem(b4)
    assert "MainTheorem" in res.satisfied
    assert "Delta2BarMSC" in res.satisfied
    ring = classify_theorem(Graph.cycle(5))
    assert "MSC" in ring.satisfied  # girth 5, delta 3: the MSC holds
    assert ring.tag == "MainTheorem"
    hexa = Graph.from_edges(6, [(0, 1), (0, 2), (0, 5), (1, 3), (1, 5),
                                (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)])
    res = classify_theorem(hexa)
    assert res.tag == "MSC"  # triangles bar MainTheorem; MSC holds


def test_classifier_requires_connected():
    with pytest.raises(ValueError, match="connected"):
        classify_theorem(Graph.from_edges(4, [(0, 1), (2, 3)]))
