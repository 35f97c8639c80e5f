"""Enumeration-based structure oracles.

These walk every PauliOperator of a group, one Gray-code step at a time,
or of a subgroup found as a GF(2) kernel, or every support in the group's
span table.  The library answers the same questions with GF(2) spans,
graph form and subset transforms; the tests compare the two.  The
one-qubit Pauli and Clifford recognizers scan all six signed Paulis and
all 24 catalog actions, where the library projects onto the basis.
Equitable refinement here keeps cells as vertex lists and buckets every
cell in a dict, where the library splits bitmask cells; LC orbits here
complement every vertex of every member, where the library complements
one vertex per automorphism orbit.  The GHZ completion here assigns
catalog Cliffords depth first, where the library solves a linear system.
"""

import numpy as np

from graphclif import (CLIFFORD_CATALOG, Fact1Error, LocalCliffordOp,
                       PauliOperator, StabilizerGroup, canonical_form,
                       canonical_graph, parse_pauli, standard_generators)
from graphclif.gf2 import Echelon
from graphclif.graphs import Graph
from graphclif.stabilizer import mask_tables

_CHUNK_BITS = 20


def distance(group):
    """Least weight over all 2^k - 1 non-identity elements, in chunks:
    the table of the low generators against each high combination."""
    lo_bits = min(group.k, _CHUNK_BITS)
    x_lo, z_lo = mask_tables(group.generators[:lo_bits])
    x_hi, z_hi = mask_tables(group.generators[lo_bits:])
    best = 64
    for i in range(len(x_hi)):
        w = np.bitwise_count((x_lo ^ x_hi[i]) | (z_lo ^ z_hi[i]))
        if i == 0:
            w[0] = 64  # skip the identity
        best = min(best, int(w.min()))
    return best


def minimal_supports(group):
    """Supports with no smaller support inside, by (weight, mask): each
    support in that order is kept unless a kept one lies inside it."""
    order = sorted(group.support_counts(), key=lambda m: (m.bit_count(), m))
    kept = []
    for omega in order:
        if not any(mu & omega == mu for mu in kept):
            kept.append(omega)
    return tuple(kept)


def minimal_elements(group):
    """All elements whose support is minimal, in Gray-scan order."""
    wanted = set(minimal_supports(group))
    return [p for p in group.enumerate_elements() if p.support_mask in wanted]


def minimal_subgroup(group):
    """The subgroup generated by all minimal elements, greedily."""
    gens, basis = [], []  # basis: reduced (x, z) vectors, top bits distinct
    for p in minimal_elements(group):
        vec = p.x_bits | (p.z_bits << group.n)
        for b in basis:
            vec = min(vec, vec ^ b)
        if vec:
            basis = sorted(basis + [vec], reverse=True)
            gens.append(p)
    return StabilizerGroup(gens)


def weight_two_elements(group):
    """Elements of weight two, in Gray-scan order."""
    return [p for p in group.enumerate_elements() if p.weight() == 2]


def letters_per_qubit(group):
    """Which of X, Y, Z occur at each qubit across all group elements."""
    seen = [set() for _ in range(group.n)]
    for p in group.enumerate_elements():
        for j in range(group.n):
            if (p.support_mask >> j) & 1:
                seen[j].add(p.letter(j + 1))
    return tuple(frozenset(s) for s in seen)


def msc_check(group):
    """(passed, letters) of the minimal support condition."""
    letters = letters_per_qubit(minimal_subgroup(group))
    return all(s == frozenset("XYZ") for s in letters), letters


def s_equals_m(group):
    return minimal_subgroup(group).k == group.k


def is_ghz_class(g):
    """Canonical form equal to the star's or the complete graph's."""
    if g.n == 1:
        return True
    return canonical_form(g) in (canonical_form(Graph.star(g.n)),
                                 canonical_form(Graph.complete(g.n)))


def local_elements(group, omega_mask):
    """Elements supported inside omega_mask (identity included).

    The subset products vanishing outside omega form a subgroup, found as
    the kernel of the generators' restriction to the complement of omega.
    """
    outside = ((1 << group.n) - 1) & ~omega_mask
    echelon = Echelon()
    kernel_combos = []
    for i, g in enumerate(group.generators):
        vec = (g.x_bits & outside) | ((g.z_bits & outside) << group.n)
        if not echelon.add(vec, 1 << i):
            _, combo = echelon.reduce(vec, 1 << i)
            kernel_combos.append(combo)
    out = []
    for mask in range(1 << len(kernel_combos)):
        combo = 0
        for j, c in enumerate(kernel_combos):
            if (mask >> j) & 1:
                combo ^= c
        out.append(group.element_from_mask(combo))
    return out


SIGNED_PAULIS = tuple(parse_pauli(t) for t in ("X", "Y", "Z", "-X", "-Y", "-Z"))


def pauli_match(matrix, tol=1e-9):
    """The first of +X, +Y, +Z, -X, -Y, -Z that matrix is allclose to."""
    for cand in SIGNED_PAULIS:
        if np.allclose(matrix, cand.to_matrix(), atol=tol):
            return cand
    return None


def is_clifford(matrix, tol=1e-9):
    """The catalog element whose X and Z images the matrix reproduces."""
    x, _, z = (parse_pauli(t).to_matrix() for t in "XYZ")
    img_x = pauli_match(matrix @ x @ matrix.conj().T, tol)
    img_z = pauli_match(matrix @ z @ matrix.conj().T, tol)
    if img_x is None or img_z is None:
        return None
    for e in CLIFFORD_CATALOG:
        if e.img_x == img_x and e.img_z == img_z:
            return e
    return None


def refine(adj, cells):
    """Coarsest equitable refinement of vertex-list cells: a LIFO stack
    of splitters, each scanned against the cells in order, a split cell
    replaced in place by its buckets in ascending neighbor count."""
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


def lc_orbit(g):
    """Closure under local complementation at every vertex of every
    member: {canonical key: canonical member}, in the order found."""
    start = canonical_graph(g)
    orbit = {canonical_form(start): start}
    frontier = [start]
    while frontier:
        fresh = []
        for graph in frontier:
            for v in range(graph.n):
                h = graph.local_complement(v)
                key = canonical_form(h)
                if key not in orbit:
                    orbit[key] = canonical_graph(h)
                    fresh.append(orbit[key])
        frontier = fresh
    return orbit


def search_completion(g, s_prime, k_factors, unresolved):
    """Depth-first catalog assignment for the unresolved qubits.

    Pruning: the conjugated image of each source generator must agree,
    letter by letter on every already-determined qubit, with at least one
    target element.  Signs are settled by the exact check on full
    assignments.
    """
    n = g.n
    target = standard_generators(g)
    gens = s_prime.generators

    # letter code 2*x + z per (element, qubit)
    x, z = mask_tables(target.generators)
    qubits = np.arange(n, dtype=np.uint64)
    codes = (2 * ((x[:, None] >> qubits) & 1)
             + ((z[:, None] >> qubits) & 1)).astype(np.uint8)

    def image_code(gen, q, factor):
        w = PauliOperator(1, (gen.x_bits >> q) & 1, (gen.z_bits >> q) & 1, 0)
        img = factor.conjugate(w)
        return 2 * img.x_bits + img.z_bits

    masks = [np.ones(len(codes), dtype=bool) for _ in gens]
    for q in range(n):
        if k_factors[q] is None:
            continue
        for gi, gen in enumerate(gens):
            masks[gi] &= codes[:, q] == image_code(gen, q, k_factors[q])
    if not all(m.any() for m in masks):
        raise Fact1Error("inputs are not Fact-1 consistent: resolved qubits "
                         "rule out every completion")

    def dfs(depth, masks):
        if depth == len(unresolved):
            op = LocalCliffordOp(k_factors)
            return all(target.is_element(op.conjugate_pauli(p)) for p in gens)
        q = unresolved[depth]
        for cand in CLIFFORD_CATALOG:
            nxt = []
            ok = True
            for gi, gen in enumerate(gens):
                m = masks[gi] & (codes[:, q] == image_code(gen, q, cand))
                if not m.any():
                    ok = False
                    break
                nxt.append(m)
            if not ok:
                continue
            k_factors[q] = cand
            if dfs(depth + 1, nxt):
                return True
            k_factors[q] = None
        return False

    if not dfs(0, masks):
        raise Fact1Error("inputs are not Fact-1 consistent: "
                         "no catalog completion exists")
