"""Canonical labeling and local-complementation orbits.

Completeness is checked by brute force: over every labeled graph on up
to 5 vertices, equal canonical forms must coincide exactly with graph
isomorphism (tested through random relabelings both ways).  Bitmask
refinement and pruned orbits (automorphism orbits and the involution
mark) are checked against the list refinement and the every-vertex
closure of enumeration_oracles.
"""

import itertools
import os
import random

import pytest

import enumeration_oracles as oracle
from graphclif import (Graph, OrbitCapExceeded, canon, canonical_form,
                       canonical_graph, generate_connected_graphs,
                       lc_class_key, lc_orbit, run_census)
from graphclif.canon import _refine


def all_labeled(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(
            n, [e for k, e in enumerate(pairs) if (bits >> k) & 1])


def test_canonical_form_complete_small():
    # same form <=> isomorphic; count distinct forms against known values
    for n, want in ((2, 2), (3, 4), (4, 11)):
        forms = {canonical_form(g) for g in all_labeled(n)}
        assert len(forms) == want


def test_relabeling_invariance():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(2, 9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        g = Graph.from_edges(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(g.relabel(perm))


def test_distinct_graphs_distinct_forms():
    seen = {}
    for g in all_labeled(4):
        key = canonical_form(g)
        if key in seen:
            # brute-force isomorphism: some permutation must map one to the other
            other = seen[key]
            assert any(g.relabel(list(p)) == other
                       for p in itertools.permutations(range(4)))
        seen[key] = g


def test_canonical_graph_is_fixed_point():
    g = Graph.from_edges(6, [(0, 3), (1, 3), (2, 4), (3, 5), (4, 5)])
    c = canonical_graph(g)
    assert canonical_form(c) == canonical_form(g)
    assert canonical_graph(c) == c


def test_star_orbit_is_star_and_complete():
    for n in (3, 4, 5, 6):
        orbit = lc_orbit(Graph.star(n))
        forms = set(orbit)
        want = {canonical_form(Graph.star(n)), canonical_form(Graph.complete(n))}
        assert forms == want


def test_triangle_and_path_share_class():
    assert lc_class_key(Graph.complete(3)) == lc_class_key(Graph.path(3))
    assert lc_class_key(Graph.path(4)) == lc_class_key(Graph.cycle(4))


def test_class_key_invariant_under_complementation():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randrange(3, 8)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        v = rng.randrange(n)
        assert lc_class_key(g) == lc_class_key(g.local_complement(v))


def test_representative_has_minimal_key():
    g = Graph.cycle(6)
    orbit = lc_orbit(g)
    rep = orbit[min(orbit)]
    assert canonical_form(rep) == lc_class_key(g)


def test_orbit_cap():
    with pytest.raises(OrbitCapExceeded):
        lc_orbit(Graph.cycle(8), cap=2)
    os.environ["GRAPHCLIF_ORBIT_CAP"] = "3"
    try:
        with pytest.raises(OrbitCapExceeded):
            lc_orbit(Graph.cycle(8))
    finally:
        del os.environ["GRAPHCLIF_ORBIT_CAP"]
    assert len(lc_orbit(Graph.cycle(8))) > 3


def _masks(cells):
    return [sum(1 << v for v in cell) for cell in cells]


def test_bitmask_refinement_matches_list_oracle():
    # same ordered cells from the unit partition, from each vertex
    # individualized in it, and from each vertex individualized in its
    # cell of the equitable partition with only the two halves of that
    # cell as splitters, as the labeling search does
    for n in range(1, 8):
        for g in generate_connected_graphs(n):
            unit = (1 << n) - 1
            equitable = _refine(g.adj, [unit], [unit])
            starts = [([unit], [unit])]
            for v in range(n):
                low = 1 << v
                if n > 1:
                    starts.append(([low, unit ^ low], [low, unit ^ low]))
                i = next(i for i, c in enumerate(equitable) if c & low)
                if equitable[i] != low:
                    halves = [low, equitable[i] ^ low]
                    starts.append((equitable[:i] + halves + equitable[i + 1:],
                                   halves))
            for cells, splitters in starts:
                lists = [[u for u in range(n) if c >> u & 1] for c in cells]
                want = _masks(oracle.refine(g.adj, lists))
                assert _refine(g.adj, cells, list(splitters)) == want


def test_pruned_orbit_matches_full_closure():
    # keys, members and the order they are found in
    graphs = [g for n in range(1, 8) for g in generate_connected_graphs(n)]
    for g in graphs + [Graph.cycle(8), Graph.complete(8)]:
        assert list(lc_orbit(g).items()) == list(oracle.lc_orbit(g).items())


def test_cap_raises_exactly_when_the_orbit_is_larger():
    for n in range(1, 7):
        for g in generate_connected_graphs(n):
            size = len(oracle.lc_orbit(g))
            for cap in range(1, size + 1):
                if cap < size:
                    with pytest.raises(OrbitCapExceeded):
                        lc_orbit(g, cap=cap)
                else:
                    assert len(lc_orbit(g, cap=cap)) == size


def test_census_labels_each_orbit_edge_once(monkeypatch):
    # each orbit edge is labeled from one end only; labeling every edge
    # from both ends takes 5,210 labelings here
    calls = 0
    labeling = canon.canonical_labeling

    def counted(g):
        nonlocal calls
        calls += 1
        return labeling(g)

    monkeypatch.setattr(canon, "canonical_labeling", counted)
    assert run_census(7).class_count == 26
    assert calls < 3500
