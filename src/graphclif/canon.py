"""Canonical labeling and local-complementation orbits.

The labeling is the classic individualization-refinement search: compute
the coarsest equitable partition, branch on the first non-singleton cell,
and keep the lexicographically least packed adjacency over all discrete
leaves.  Leaves that reproduce an earlier key reveal automorphisms, whose
orbits prune sibling branches; that keeps highly symmetric graphs (for
instance complete graphs, which appear in every orbit containing a star)
at polynomially many leaves instead of n factorial.

Keys are plain integers packing the upper triangle of the relabeled
adjacency, so comparisons, set membership, and report sorting stay cheap.

An orbit under repeated local complementation is closed over canonical
keys.  Orbits can be huge, so closure honors a cap (argument, else the
GRAPHCLIF_ORBIT_CAP environment variable, else 10^7 members).
"""

from __future__ import annotations

import os

from .graphs import Graph

DEFAULT_ORBIT_CAP = 10**7
ORBIT_CAP_ENV = "GRAPHCLIF_ORBIT_CAP"


class OrbitCapExceeded(RuntimeError):
    """Raised when a local-complementation orbit outgrows the cap."""


def resolve_orbit_cap(cap: int | None = None) -> int:
    if cap is not None:
        return cap
    env = os.environ.get(ORBIT_CAP_ENV)
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"{ORBIT_CAP_ENV} must be an integer, got {env!r}") from exc
    return DEFAULT_ORBIT_CAP


def _refine(adj, cells):
    """Coarsest equitable refinement; cells are split in place, subcells
    ordered by neighbor count, so the outcome is isomorphism-invariant."""
    work = [sum(1 << v for v in c) for c in cells]
    while work:
        splitter = work.pop()
        i = 0
        while i < len(cells):
            cell = cells[i]
            if len(cell) > 1:
                buckets = {}
                for v in cell:
                    buckets.setdefault((adj[v] & splitter).bit_count(), []).append(v)
                if len(buckets) > 1:
                    subs = [buckets[k] for k in sorted(buckets)]
                    cells[i:i + 1] = subs
                    for sub in subs:
                        work.append(sum(1 << v for v in sub))
                    i += len(subs) - 1
            i += 1
    return cells


def _pack(adj, order, n):
    key = 0
    for i in range(n):
        ai = adj[order[i]]
        for j in range(i + 1, n):
            key = (key << 1) | ((ai >> order[j]) & 1)
    return key


def canonical_labeling(g: Graph):
    """Returns (key, order): order[position] = original vertex."""
    adj = g.adj
    n = g.n
    if n == 1:
        return 0, (0,)
    cells = _refine(adj, [list(range(n))])

    autos: list[tuple] = []  # discovered automorphism generators
    seen_autos = set()

    def record(order_a, order_b):
        gamma = [0] * n
        for x, y in zip(order_a, order_b):
            gamma[x] = y
        gamma = tuple(gamma)
        if gamma not in seen_autos and any(gamma[v] != v for v in range(n)):
            seen_autos.add(gamma)
            autos.append(gamma)

    state = {"best": None, "best_order": None, "first": None, "first_order": None}

    def descend(cells, path):
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                break
        else:
            order = [c[0] for c in cells]
            key = _pack(adj, order, n)
            if state["first"] is None:
                state["first"], state["first_order"] = key, order
            elif key == state["first"]:
                record(state["first_order"], order)
            if state["best"] is None or key < state["best"]:
                state["best"], state["best_order"] = key, order
            elif key == state["best"] and order != state["best_order"]:
                record(state["best_order"], order)
            return
        # Only automorphisms fixing every vertex individualized on the way
        # down may prune siblings here; orbits are rebuilt lazily because
        # deeper calls keep discovering new generators.
        tried = []
        for v in cell:
            if tried:
                fixing = [
                    gamma for gamma in autos
                    if all(gamma[p] == p for p in path)
                ]
                if fixing:
                    parent = list(range(n))

                    def find(a):
                        while parent[a] != a:
                            parent[a] = parent[parent[a]]
                            a = parent[a]
                        return a

                    for gamma in fixing:
                        for a in range(n):
                            ra, rb = find(a), find(gamma[a])
                            if ra != rb:
                                parent[ra] = rb
                    rv = find(v)
                    if any(find(u) == rv for u in tried):
                        continue
            tried.append(v)
            branch = (
                cells[:idx]
                + [[v], [u for u in cell if u != v]]
                + cells[idx + 1:]
            )
            descend(_refine(adj, branch), path + (v,))

    descend(cells, ())
    return state["best"], tuple(state["best_order"])


def canonical_form(g: Graph) -> int:
    return canonical_labeling(g)[0]


def canonical_graph(g: Graph) -> Graph:
    key, order = canonical_labeling(g)
    perm = [0] * g.n
    for pos, v in enumerate(order):
        perm[v] = pos
    return g.relabel(perm)


def wl_cell_index(g: Graph) -> tuple[int, ...]:
    """Equitable-partition cell index per vertex (no individualization).

    Vertices in the same cell may or may not be equivalent; vertices in
    different cells never are.  Cheap, and stable across isomorphs.
    Nothing in the package calls it; bench/tracing.py wraps it by name.
    """
    cells = _refine(g.adj, [list(range(g.n))])
    out = [0] * g.n
    for i, cell in enumerate(cells):
        for v in cell:
            out[v] = i
    return tuple(out)


def lc_orbit(g: Graph, cap: int | None = None) -> dict[int, Graph]:
    """Closure of g under local complementation, up to isomorphism.

    Maps canonical key -> canonically labeled member.  Complementing each
    vertex of a canonical representative reaches every orbit member.
    """
    cap = resolve_orbit_cap(cap)
    start = canonical_graph(g)
    orbit = {canonical_form(start): start}
    frontier = [start]
    while frontier:
        fresh = []
        for graph in frontier:
            for v in range(graph.n):
                if graph.adj[v].bit_count() < 2:
                    # complementing at degree <= 1 changes nothing
                    continue
                h = graph.local_complement(v)
                key, order = canonical_labeling(h)
                if key in orbit:
                    continue
                if len(orbit) >= cap:
                    raise OrbitCapExceeded(
                        f"orbit exceeds cap of {cap} members (raise {ORBIT_CAP_ENV})"
                    )
                perm = [0] * h.n
                for pos, u in enumerate(order):
                    perm[u] = pos
                member = h.relabel(perm)
                orbit[key] = member
                fresh.append(member)
        frontier = fresh
    return orbit


def lc_class_key(g: Graph, cap: int | None = None) -> int:
    """Least canonical key over the local-complementation orbit: a total
    invariant for single-qubit Clifford equivalence of graph states."""
    return min(lc_orbit(g, cap=cap))
