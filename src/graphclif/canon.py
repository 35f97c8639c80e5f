"""Canonical labeling and local-complementation orbits.

The labeling is the classic individualization-refinement search (McKay &
Piperno, arXiv:1301.1493): compute the coarsest equitable partition,
branch on the first non-singleton cell, and keep the lexicographically
least packed adjacency over all discrete leaves.  Cells are bitmasks of
vertices, and refinement follows one fixed split sequence, so the
ordered cells, and with them the leaves and the key, are
isomorphism-invariant.  Leaves that reproduce an earlier key reveal
automorphisms, whose orbits prune sibling branches; that keeps highly
symmetric graphs (for instance complete graphs, which appear in every
orbit containing a star) at polynomially many leaves instead of n
factorial.

Keys are plain integers packing the upper triangle of the relabeled
adjacency, so comparisons, set membership, and report sorting stay cheap.

An orbit under repeated local complementation is closed over canonical
keys, complementing one vertex per orbit of the automorphisms that the
labeling of each member found.  Local complementation is an involution
(Bouchet, Combinatorica 11, 1991), so each labeling also marks the
vertex of the member it reaches that leads back, and that vertex's
automorphism orbit is never complemented: each edge of the orbit graph
is labeled from one end only.  Orbits can be huge, so closure honors a
cap (argument, else the GRAPHCLIF_ORBIT_CAP environment variable, else
10^7 members).
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


def _refine(adj, cells, work):
    """Coarsest equitable refinement of a list of bitmask cells.

    work is a LIFO stack of splitters; each popped splitter scans the
    cells in order, and a cell that splits is replaced in place by its
    subcells in ascending neighbor-count order, each pushed in turn.
    That fixed split sequence makes the ordered outcome
    isomorphism-invariant.  Seeding work with every cell gives the
    coarsest equitable refinement; a splitter the cells are already
    equitable with may be left out, as it would split nothing.
    """
    n = len(adj)
    while work and len(cells) < n:
        splitter = work.pop()
        if splitter & (splitter - 1) == 0:
            # one vertex: no neighbors first, then the neighbors
            nbrs = adj[splitter.bit_length() - 1]
            out = []
            for cell in cells:
                inside = cell & nbrs
                if inside and inside != cell:
                    outside = cell ^ inside
                    out.append(outside)
                    out.append(inside)
                    work.append(outside)
                    work.append(inside)
                else:
                    out.append(cell)
            cells = out
            continue
        out = []
        for cell in cells:
            if cell & (cell - 1) == 0:
                out.append(cell)
                continue
            buckets = {}
            rest = cell
            while rest:
                low = rest & -rest
                k = (adj[low.bit_length() - 1] & splitter).bit_count()
                buckets[k] = buckets.get(k, 0) | low
                rest ^= low
            if len(buckets) == 1:
                out.append(cell)
                continue
            for k in sorted(buckets):
                sub = buckets[k]
                out.append(sub)
                work.append(sub)
        cells = out
    return cells


def _pack(adj, order, n):
    key = 0
    for i in range(n):
        ai = adj[order[i]]
        for j in range(i + 1, n):
            key = (key << 1) | ((ai >> order[j]) & 1)
    return key


def canonical_labeling(g: Graph):
    """Returns (key, order, generators): order[position] = original
    vertex, and generators are automorphisms of g found on the way, each
    a tuple gamma with gamma[v] the image of v."""
    adj = g.adj
    n = g.n
    if n == 1:
        return 0, (0,), ()
    autos: list[tuple] = []  # discovered automorphism generators
    seen_autos = set()
    identity = tuple(range(n))

    def record(order_a, order_b):
        gamma = [0] * n
        for x, y in zip(order_a, order_b):
            gamma[x] = y
        gamma = tuple(gamma)
        if gamma != identity and gamma not in seen_autos:
            seen_autos.add(gamma)
            autos.append(gamma)

    first = first_order = best = best_order = None

    def descend(cells, path):
        nonlocal first, first_order, best, best_order
        for idx, cell in enumerate(cells):
            if cell & (cell - 1):
                break
        else:
            order = [c.bit_length() - 1 for c in cells]
            key = _pack(adj, order, n)
            if first is None:
                first, first_order = key, order
            elif key == first:
                record(first_order, order)
            if best is None or key < best:
                best, best_order = key, order
            elif key == best and order != best_order:
                record(best_order, order)
            return
        # Only automorphisms fixing every vertex individualized on the way
        # down may prune siblings here; deeper calls keep discovering new
        # generators, so each sibling looks at the ones found since.
        fixing = []
        examined = 0
        tried = 0
        head, tail = cells[:idx], cells[idx + 1:]
        rest = cell
        while rest:
            low = rest & -rest
            rest ^= low
            if tried:
                if examined < len(autos):
                    fixing += [gamma for gamma in autos[examined:]
                               if all(gamma[p] == p for p in path)]
                    examined = len(autos)
                if fixing and _orbit(low.bit_length() - 1, fixing) & tried:
                    continue
            tried |= low
            # cells is equitable, so of the new cells only the two
            # halves of the individualized cell can split anything
            branch = head + [low, cell ^ low] + tail
            descend(_refine(adj, branch, [low, cell ^ low]),
                    path + (low.bit_length() - 1,))

    descend(_refine(adj, [(1 << n) - 1], [(1 << n) - 1]), ())
    return best, tuple(best_order), tuple(autos)


def canonical_form(g: Graph) -> int:
    return canonical_labeling(g)[0]


def _relabeled(g: Graph, order, gens=()):
    """g moved to the positions order gives, with its automorphisms
    carried along: (relabeled graph, generators on the new labels)."""
    perm = [0] * g.n
    for pos, v in enumerate(order):
        perm[v] = pos
    return (g.relabel(perm),
            [tuple(perm[gamma[v]] for v in order) for gamma in gens])


def canonical_graph(g: Graph) -> Graph:
    return _relabeled(g, canonical_labeling(g)[1])[0]


def wl_cell_index(g: Graph) -> tuple[int, ...]:
    """Equitable-partition cell index per vertex (no individualization).

    Vertices in the same cell may or may not be equivalent; vertices in
    different cells never are.  Cheap, and stable across isomorphs.
    Nothing in the package calls it; bench/tracing.py wraps it by name.
    """
    out = [0] * g.n
    unit = (1 << g.n) - 1
    for i, cell in enumerate(_refine(g.adj, [unit], [unit])):
        while cell:
            low = cell & -cell
            out[low.bit_length() - 1] = i
            cell ^= low
    return tuple(out)


def _orbit(v: int, gens) -> int:
    """Bitmask of the orbit of v under the group that gens generate."""
    orbit = 1 << v
    grow = [v]
    while grow:
        x = grow.pop()
        for gamma in gens:
            y = gamma[x]
            if not (orbit >> y) & 1:
                orbit |= 1 << y
                grow.append(y)
    return orbit


def _orbits(n: int, gens) -> list[int]:
    """Orbits of the group that gens generate, as bitmasks, by least
    vertex."""
    out = []
    seen = 0
    for v in range(n):
        if not (seen >> v) & 1:
            out.append(_orbit(v, gens))
            seen |= out[-1]
    return out


def lc_orbit(g: Graph, cap: int | None = None) -> dict[int, Graph]:
    """Closure of g under local complementation, up to isomorphism.

    Maps canonical key -> canonically labeled member.  Complementing each
    vertex of a canonical representative reaches every orbit member, and
    automorphic vertices give isomorphic complements, so only the least
    vertex of each orbit of the automorphisms found while labeling is
    complemented.  If h = graph.local_complement(v) labels to (key,
    order, _), complementing vertex order.index(v) of the member for key
    gives graph back; known[key] collects those vertices, and an orbit
    meeting them is skipped, as its complement is already a member.  The
    members, the order they are found in and the point where the cap
    raises are those of complementing every vertex.
    """
    cap = resolve_orbit_cap(cap)
    key, order, gens = canonical_labeling(g)
    start = _relabeled(g, order, gens)
    orbit = {key: start[0]}
    known = {key: 0}  # per member: vertices whose complement is a member
    frontier = [(key, *start)]
    while frontier:
        fresh = []
        for here, graph, gens in frontier:
            for cell in _orbits(graph.n, gens):
                v = (cell & -cell).bit_length() - 1
                # a known complement, or degree <= 1, which changes nothing
                if cell & known[here] or graph.adj[v].bit_count() < 2:
                    continue
                h = graph.local_complement(v)
                key, order, gens_h = canonical_labeling(h)
                # complementing v again, where order put it, leads back
                back = 1 << order.index(v)
                if key in orbit:
                    known[key] |= back
                    continue
                if len(orbit) >= cap:
                    raise OrbitCapExceeded(
                        f"orbit exceeds cap of {cap} members (raise {ORBIT_CAP_ENV})"
                    )
                member = _relabeled(h, order, gens_h)
                orbit[key] = member[0]
                known[key] = back
                fresh.append((key, *member))
        frontier = fresh
    return orbit


def lc_class_key(g: Graph, cap: int | None = None) -> int:
    """Least canonical key over the local-complementation orbit: a total
    invariant for single-qubit Clifford equivalence of graph states."""
    return min(lc_orbit(g, cap=cap))
