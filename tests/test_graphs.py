"""Graph primitives: formats, local complementation, vertex partition."""

import pytest

from graphclif import (Graph, bar_graph, from_graph6, parse_edge_list,
                       to_graph6, vertex_partition)


def b4():
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4)])


def test_constructor_validates():
    with pytest.raises(ValueError):
        Graph([0b10, 0b00])  # asymmetric
    with pytest.raises(ValueError):
        Graph([0b01])  # self loop


def test_edge_list_round_trip():
    g = parse_edge_list("1-2,2-3,3-4,3-5")
    assert g.n == 5
    assert g == b4()
    text = ",".join(f"{u + 1}-{v + 1}" for u, v in g.edges())
    assert parse_edge_list(text) == g
    with pytest.raises(ValueError):
        parse_edge_list("1-2,junk")
    with pytest.raises(ValueError):
        parse_edge_list("1-1")


def test_graph6_round_trip():
    assert to_graph6(Graph.complete(2)) == "A_"
    for g in (b4(), Graph.cycle(6), Graph.star(7), Graph.complete(4),
              Graph.path(2)):
        assert from_graph6(to_graph6(g)) == g
    # vertex counts that straddle the 6-bit boundary
    for n in (1, 62):
        g = Graph.path(n) if n > 1 else Graph([0])
        assert from_graph6(to_graph6(g)) == g


def test_local_complement_involution_and_example():
    g = b4()
    assert g.local_complement(2).local_complement(2) == g
    # complementing the B4 center joins its three neighbors pairwise
    h = g.local_complement(2)
    assert h.has_edge(3, 4) and h.has_edge(1, 3) and h.has_edge(1, 4)


def test_derived_graphs_are_valid_and_check_their_arguments():
    # local_complement, relabel and add_vertex build their rows without
    # the constructor's checks, so they check what they are given
    g = b4()
    for h in (g.local_complement(2), g.relabel([4, 2, 0, 1, 3]),
              g.add_vertex(0b10001)):
        assert Graph(h.adj) == h
    added = set(g.add_vertex(0b10001).edges()) - set(g.edges())
    assert added == {(0, 5), (4, 5)}
    for bad in (lambda: g.local_complement(-1), lambda: g.local_complement(5),
                lambda: g.relabel([0, 0, 1, 2, 3]), lambda: g.relabel([0, 1]),
                lambda: g.add_vertex(1 << 5), lambda: g.add_vertex(-1),
                lambda: Graph.path(63).add_vertex(1)):
        with pytest.raises(ValueError):
            bad()


def test_short_cycles():
    assert Graph.complete(3).has_triangle()
    assert not Graph.cycle(4).has_triangle()
    assert Graph.cycle(4).has_four_cycle()
    assert not Graph.cycle(5).has_four_cycle()
    assert Graph.cycle(5).girth_exceeds_four()
    assert not b4().has_triangle() and not b4().has_four_cycle()


def test_vertex_partition_b4():
    part = vertex_partition(b4())
    assert part.v1 == 0b11001  # leaves 1, 4, 5 (1-based)
    assert part.v2 == 0b00110  # their neighbors 2, 3
    assert part.v3 == 0 and part.v4 == 0


def test_vertex_partition_k2_and_cycle():
    part = vertex_partition(Graph.complete(2))
    assert part.v1 == 0b11 and part.v2 == 0
    ring = vertex_partition(Graph.cycle(5))
    assert ring.v1 == 0 and ring.v2 == 0 and ring.v3 == 0
    assert ring.v4 == 0b11111


def test_partition_is_a_partition():
    import random
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(2, 9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        g = Graph.from_edges(n, edges)
        p = vertex_partition(g)
        full = (1 << n) - 1
        assert p.v1 | p.v2 | p.v3 | p.v4 == full
        assert p.v1 & p.v2 == 0 and (p.v1 | p.v2) & (p.v3 | p.v4) == 0
        assert p.v3 & p.v4 == 0


def test_bar_graph():
    residual, kept = bar_graph(b4())
    assert kept == (1, 2)
    assert residual is not None
    assert residual.n == 2 and residual.has_edge(0, 1)
    # deleting leaves of a star leaves a single vertex: degenerate
    none_residual, kept_star = bar_graph(Graph.star(4))
    assert none_residual is None and kept_star == (0,)
    ring, kept_ring = bar_graph(Graph.cycle(5))
    assert ring == Graph.cycle(5) and kept_ring == (0, 1, 2, 3, 4)
