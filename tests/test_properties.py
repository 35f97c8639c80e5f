"""Randomized property suites, 1000 seeded cases each.

Each suite pins one structural fact about graph-state stabilizers:
support multiplicities, distance-2 exclusion, local-element uniqueness,
girth-5 support closure, LC invariance, complementation, the distance
cap, and Clifford-angle logicals on the even-weight code.
"""

import numpy as np

from enumeration_oracles import local_elements
from graphclif import (CLIFFORD_CATALOG, Graph, LocalCliffordOp, PauliOperator,
                       bound_violation, canonical_form, conjugate_stabilizer,
                       distance_upper_bound, is_even_code, lc_class_key,
                       lc_orbit, minimal_supports, msc_check, s_equals_m,
                       standard_generators)
from proposition2_oracle import verify_proposition2

CASES = 1000


def _random_connected(rng, n_lo=3, n_hi=10, p=None):
    while True:
        n = int(rng.integers(n_lo, n_hi + 1))
        prob = p if p is not None else float(rng.uniform(0.25, 0.7))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < prob]
        g = Graph.from_edges(n, edges)
        if g.is_connected():
            return g


def _random_tree(rng, n):
    # Pruefer decode: uniform over labeled trees
    if n <= 2:
        return Graph.path(n)
    seq = [int(x) for x in rng.integers(0, n, n - 2)]
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(n) if deg[v] == 1)
        edges.append((leaf, x))
        deg[leaf] -= 1
        deg[x] -= 1
    last = [v for v in range(n) if deg[v] == 1]
    edges.append((last[0], last[1]))
    return Graph.from_edges(n, edges)


def _theta_graph(a, b, c):
    """Two hubs joined by internally disjoint paths of a, b, c edges."""
    n = a + b + c - 1
    edges = []
    nxt = 2
    for length in (a, b, c):
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return Graph.from_edges(n, edges)


THETAS_GIRTH5 = [(a, b, c)
                 for a in range(1, 13) for b in range(max(a, 2), 13)
                 for c in range(b, 13)
                 if a + b >= 5 and a + b + c - 1 <= 12]


def test_support_multiplicities_on_minimal_supports():
    rng = np.random.default_rng(11)
    for _ in range(CASES):
        g = _random_connected(rng)
        s = standard_generators(g)
        counts = s.support_counts()
        for omega in minimal_supports(s):
            a = counts[omega]
            assert a in (1, 3)
            if a == 3:
                assert omega.bit_count() % 2 == 0


def test_distance_two_blocks_msc():
    rng = np.random.default_rng(13)
    hits = 0
    for case in range(CASES):
        if case % 2:
            g = _random_connected(rng, 3, 10)
        else:
            # force a weight-2 element by hanging a pendant vertex
            base = _random_connected(rng, 2, 9)
            g = base.add_vertex(1 << int(rng.integers(base.n)))
        s = standard_generators(g)
        if s.distance() == 2:
            hits += 1
            assert not msc_check(s).passed
    assert hits >= CASES // 2


def test_local_element_uniqueness():
    rng = np.random.default_rng(17)
    hits = 0
    for case in range(CASES):
        if case % 2:
            g = _random_connected(rng, 4, 10, p=float(rng.uniform(0.15, 0.4)))
        else:
            g = _random_tree(rng, int(rng.integers(4, 11)))
        s = standard_generators(g)
        for v in range(g.n):
            nbrs = [u for u in range(g.n) if (g.adj[v] >> u) & 1]
            if any(g.degree(u) == 1 for u in nbrs):
                continue
            clean = True
            for i, a in enumerate(nbrs):
                for b in nbrs[i + 1:]:
                    if g.has_edge(a, b):
                        clean = False  # triangle through v
                    joint = g.adj[a] & g.adj[b]
                    if joint & ~(1 << v):
                        clean = False  # four-cycle through v
            if not clean:
                continue
            hits += 1
            omega = g.adj[v] | (1 << v)
            elems = local_elements(s, omega)
            got = sorted(str(e) for e in elems)
            want = sorted([str(PauliOperator(g.n, 0, 0, 0)),
                           str(s.generators[v])])
            assert got == want
    assert hits >= 1000


def test_girth_five_support_closure():
    rng = np.random.default_rng(19)
    hits = 0
    for case in range(CASES):
        r = case % 10
        if r < 3:
            g = Graph.cycle(int(rng.integers(5, 13)))
        elif r < 6:
            a, b, c = THETAS_GIRTH5[int(rng.integers(len(THETAS_GIRTH5)))]
            g = _theta_graph(a, b, c)
        else:
            g = _random_connected(rng, 5, 12, p=float(rng.uniform(0.15, 0.35)))
        perm = tuple(int(x) for x in rng.permutation(g.n))
        g = g.relabel(perm)
        if not g.girth_exceeds_four():
            continue
        s = standard_generators(g)
        if s.distance() > 2:
            hits += 1
            assert s_equals_m(s)
    assert hits >= CASES // 4


def test_lc_invariance_of_profile():
    rng = np.random.default_rng(23)
    for _ in range(CASES):
        g = _random_connected(rng, 3, 10)
        s = standard_generators(g)
        op = LocalCliffordOp(tuple(
            CLIFFORD_CATALOG[int(rng.integers(24))] for _ in range(g.n)))
        h = conjugate_stabilizer(op, s)
        assert h.distance() == s.distance()
        # single-qubit factors preserve every support, not just the multiset
        assert h.support_counts() == s.support_counts()
        assert msc_check(h).passed == msc_check(s).passed


def test_complementation_involution_and_key():
    rng = np.random.default_rng(29)
    for case in range(CASES):
        g = _random_connected(rng, 3, 10 if case % 2 else 7)
        v = int(rng.integers(g.n))
        assert g.local_complement(v).local_complement(v) == g
        if case % 2:
            continue
        # complement stays inside the orbit, so the class key is stable
        orbit = lc_orbit(g)
        assert canonical_form(g.local_complement(v)) in orbit
        if case % 20 == 0:
            assert lc_class_key(g.local_complement(v)) == min(orbit)


def test_distance_bound_on_census(censuses_to_8):
    checked = 0
    for n, report in censuses_to_8.items():
        for record in report.records:
            assert not bound_violation(record, n)
            checked += 1
    assert checked == sum(r.class_count for r in censuses_to_8.values())

    rng = np.random.default_rng(31)
    for _ in range(CASES - checked):
        g = _random_connected(rng, 3, 12)
        s = standard_generators(g)
        assert s.distance() <= distance_upper_bound(g.n, is_even_code(s))


def test_clifford_angle_logicals():
    rng = np.random.default_rng(37)
    for _ in range(CASES):
        n = int(rng.integers(3, 5))
        clifford_draw = rng.random(n) < 0.5
        thetas = []
        for i in range(n):
            base = float(rng.integers(4)) * np.pi / 2
            if clifford_draw[i]:
                thetas.append(base)
            else:
                thetas.append(base + float(rng.uniform(0.1, np.pi / 2 - 0.1)))
        res = verify_proposition2(n, thetas)
        assert res.each_local_clifford == bool(clifford_draw.all())
        assert res.logical_clifford == res.each_local_clifford
