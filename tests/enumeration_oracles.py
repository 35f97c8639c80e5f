"""Enumeration-based structure oracles.

These walk every PauliOperator of a group, one Gray-code step at a time,
or of a subgroup found as a GF(2) kernel.  The library answers the same
questions with GF(2) spans over its mask table; the tests compare the two.
"""

from graphclif import StabilizerGroup, canonical_form, minimal_supports
from graphclif.gf2 import Echelon
from graphclif.graphs import Graph


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
