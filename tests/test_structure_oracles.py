"""The GF(2) structure layer against the enumeration oracles.

msc_check, s_equals_m, minimal_subgroup and minimal_elements read the
minimal-support structure off the mask table by rank; the oracles in
enumeration_oracles walk every group element.  Both must agree on every
connected graph up to n = 7, on the Reed-Muller logical states for m = 3
and 4, on a seeded sample of graphs up to n = 10, and on subgroups with
more qubits than FULL_PROFILE_LIMIT.  distance (a scan of the graph form
by subset size) and minimal_supports (a subset transform) must equal the
full span-table scan and the pairwise support loop on those groups, on
every connected graph up to n = 7 under a random local Clifford, and on
a seeded sample of such groups up to n = 16.  is_ghz_class, a degree
test, must agree with the canonical-form comparison, and
weight_two_elements, read off the span table, must list the pool of a
Gray-code walk in its order.
"""

import random

import pytest

import enumeration_oracles as oracle
from graphclif import (CLIFFORD_CATALOG, FULL_PROFILE_LIMIT, Graph,
                       LocalCliffordOp, StabilizerGroup, build_css,
                       conjugate_stabilizer, generate_connected_graphs,
                       is_ghz_class, logical_state_stabilizer,
                       minimal_elements, minimal_subgroup, minimal_supports,
                       msc_check, s_equals_m, standard_generators,
                       weight_two_elements)
from graphclif.gf2 import Echelon


def assert_matches_oracle(group):
    res = msc_check(group)
    assert (res.passed, res.letters) == oracle.msc_check(group)
    want = oracle.minimal_subgroup(group)
    got = minimal_subgroup(group)
    assert got.k == want.k
    assert all(want.is_element(p) for p in got.generators)
    assert s_equals_m(group) == res.s_eq_m == oracle.s_equals_m(group)
    new = sorted(str(p) for p in minimal_elements(group))
    assert new == sorted(str(p) for p in oracle.minimal_elements(group))
    assert_scans_match_oracle(group)


def assert_scans_match_oracle(group):
    assert group.distance() == oracle.distance(group)
    assert minimal_supports(group) == oracle.minimal_supports(group)


def x_rank(group):
    basis = Echelon()
    for p in group.generators:
        basis.add(p.x_bits)
    return basis.rank


def random_local_clifford(group, rng):
    op = LocalCliffordOp([rng.choice(CLIFFORD_CATALOG) for _ in range(group.n)])
    return conjugate_stabilizer(op, group)


@pytest.mark.parametrize("n", range(1, 8))
def test_connected_graphs_match_oracles(n):
    rng = random.Random(n)
    short_x_rank = 0
    for g in generate_connected_graphs(n):
        assert_matches_oracle(standard_generators(g))
        assert is_ghz_class(g) == oracle.is_ghz_class(g), g
        group = random_local_clifford(standard_generators(g), rng)
        short_x_rank += x_rank(group) < n
        assert_scans_match_oracle(group)
    # the distance's graph-form reduction needs its Hadamard step here
    assert short_x_rank or n == 1


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("choice", ["zero", "plus"])
def test_reed_muller_states_match_enumeration(m, choice):
    assert_matches_oracle(logical_state_stabilizer(build_css(m), choice))


def test_wide_subgroup_matches_enumeration():
    # more qubits than a full support table would cover
    n = FULL_PROFILE_LIMIT + 4
    gens = standard_generators(Graph.cycle(n)).generators
    assert_matches_oracle(StabilizerGroup(gens[::3]))
    assert_matches_oracle(StabilizerGroup(gens[:6]))


def test_sampled_graphs_match_enumeration():
    rng = random.Random(10)
    for _ in range(300):
        n = rng.randrange(2, 11)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        assert_matches_oracle(standard_generators(Graph.from_edges(n, edges)))


def test_conjugated_graphs_up_to_16_match_scans():
    rng = random.Random(16)
    for _ in range(300):
        n, p = rng.randrange(2, 17), rng.choice((0.2, 0.5))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        group = standard_generators(Graph.from_edges(n, edges))
        assert_scans_match_oracle(random_local_clifford(group, rng))


def test_weight_two_pool_matches_gray_scan():
    # generate_instance draws its phase pairs from this pool by position
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(2, 10)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        base = LocalCliffordOp([rng.choice(CLIFFORD_CATALOG) for _ in range(n)])
        group = conjugate_stabilizer(
            base, standard_generators(Graph.from_edges(n, edges)))
        assert weight_two_elements(group) == oracle.weight_two_elements(group)
