"""Stabilizer groups and their support structure.

A group is held as a tuple of independent, pairwise-commuting, Hermitian
Pauli generators; independence over GF(2) rules out -I, so a valid group
of k generators has exactly 2^k distinct elements.  State groups have
k == n, but subgroups (for instance the one generated by all minimal
elements) are first-class citizens here.

All linear algebra goes through gf2.py.  An Echelon over the generators'
symplectic vectors decides membership, and element_from_mask turns a
generator mask into its element with the exact phase.  The phase-blind
bulk questions (support multiplicities, minimal supports) read
mask_tables, one gf2.span_table over the x masks and one over the z
masks: index i of both tables is the element picked by generator mask i.
distance on a state group needs no table: local Cliffords keep supports,
so it reduces the group to graph form, where the element over a vertex
set A weighs at least |A|, and scans vertex sets by size until that
bound meets the best weight found.  enumerate_elements still walks the
whole group one PauliOperator at a time, as a test oracle.

The minimal-support structure is linear algebra over those tables.  The
minimal supports come from a subset transform over the supports present,
the minimal subgroup M is spanned by an Echelon basis of the minimal
elements (made exact through element_from_mask), the letters of M at a
qubit are the nonzero span of the basis's (x, z) pairs there, and S = M
exactly when rank M = k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError
from .gf2 import Echelon, bit_column, span_table
from .pauli import PauliOperator, identity

FULL_PROFILE_LIMIT = 20  # full in-memory support tables up to 2^20 entries
DISTANCE_LEVEL_LIMIT = 1 << 22  # vertex sets of one size in a distance scan


def _symplectic_vec(p: PauliOperator) -> int:
    return p.x_bits | (p.z_bits << p.n)


def _check_table(bits: int, what: str) -> None:
    if bits > FULL_PROFILE_LIMIT:
        raise CapabilityError(
            f"{what} needs a table of 2^{bits} entries "
            f"(capped at 2^{FULL_PROFILE_LIMIT})")


def _graph_form(generators, n: int) -> list[tuple[int, int]]:
    """(x, z) rows of a graph form of a state group, phases dropped: after
    Hadamards on some qubits, row v has x = 1 << v.

    Vectors put x above z, so the rows of an Echelon with no x part come
    last.  Such a pure-Z row has a bit off the x pivots (else it would
    anticommute with a pivot row), and swapping x and z there, which is a
    Hadamard, grows the rank of the X block.
    """
    rows = [(g.x_bits << n) | g.z_bits for g in generators]
    while True:
        basis = Echelon()
        for r in rows:
            basis.add(r)
        rows = basis.rows
        if rows[-1] >> n:
            return [(1 << v, basis.reduce(1 << (n + v))[0]) for v in range(n)]
        pivots = sum(1 << (r.bit_length() - 1 - n) for r in rows if r >> n)
        free = rows[-1] & ~pivots
        swap = (free & -free) * ((1 << n) + 1)
        rows = [r ^ swap if (r & swap) not in (0, swap) else r for r in rows]


def mask_tables(paulis) -> tuple[np.ndarray, np.ndarray]:
    """x and z masks of every product of the paulis, indexed by the mask
    that selects the factors (phases dropped)."""
    return (span_table([p.x_bits for p in paulis]),
            span_table([p.z_bits for p in paulis]))


class StabilizerGroup:
    """Independent commuting Hermitian generators; 2^k elements, no -I."""

    __slots__ = ("n", "generators", "_echelon")

    def __init__(self, generators):
        generators = tuple(generators)
        if not generators:
            raise ValueError("need at least one generator")
        n = generators[0].n
        echelon = Echelon()
        for i, g in enumerate(generators):
            if g.n != n:
                raise ValueError("generators act on different qubit counts")
            if not g.is_hermitian():
                raise ValueError(f"generator {g} is not Hermitian")
            if not echelon.add(_symplectic_vec(g), 1 << i):
                raise ValueError(f"generator {g} is dependent on earlier ones")
            for h in generators[:i]:
                if not g.commutes(h):
                    raise ValueError(f"generators {g} and {h} anticommute")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "_echelon", echelon)

    def __setattr__(self, name, value):
        raise AttributeError("StabilizerGroup is immutable")

    @property
    def k(self) -> int:
        return len(self.generators)

    @property
    def order(self) -> int:
        return 1 << self.k

    def is_state_group(self) -> bool:
        return self.k == self.n

    # -- exact elements ----------------------------------------------------

    def element_from_mask(self, mask: int) -> PauliOperator:
        """Product of the generators selected by mask, ascending index."""
        out = identity(self.n)
        j = 0
        while mask >> j:
            if (mask >> j) & 1:
                out = out * self.generators[j]
            j += 1
        return out

    def enumerate_elements(self):
        """All 2^k elements, Gray-code order: one multiplication per step.
        A test oracle; the library reads the span tables instead.

        Commuting generators make the incremental product order-independent,
        so phases are exact.  The identity comes first.
        """
        cur = identity(self.n)
        yield cur
        for i in range(1, self.order):
            j = (i & -i).bit_length() - 1
            cur = cur * self.generators[j]
            yield cur

    def is_element(self, p: PauliOperator) -> bool:
        """Sign-exact membership: the phase must match, not just (x, z)."""
        if p.n != self.n:
            raise ValueError(f"{p.n}-qubit operator tested against a "
                             f"{self.n}-qubit group")
        residual, combo = self._echelon.reduce(_symplectic_vec(p))
        if residual != 0:
            return False
        return self.element_from_mask(combo) == p

    # -- vectorized mask tables ---------------------------------------------

    def distance(self) -> int:
        """Minimum weight over the 2^k - 1 non-identity elements.

        On a state group, the element over vertex set A of the graph form
        has support A | (XOR of the z rows over A), so weight >= |A|; the
        sets are scanned by size until the size reaches the best weight,
        at a cost that grows as C(n, distance - 1); a size with more than
        DISTANCE_LEVEL_LIMIT sets raises CapabilityError instead of
        filling memory.  Smaller groups scan their 2^k elements.
        """
        if not self.is_state_group():
            _check_table(self.k, "distance of a subgroup")
            x, z = mask_tables(self.generators)
            return int(np.bitwise_count((x | z)[1:]).min())
        rows = np.array(_graph_form(self.generators, self.n), dtype=np.uint64)
        # the sets of one size as (x, z) pairs, ordered by top vertex: the
        # first below[v] of them lie below v and extend by it
        level, below, best = rows, np.arange(self.n), self.n
        for size in range(1, self.n):
            best = min(best, int(np.bitwise_count(level[:, 0] | level[:, 1]).min()))
            if size + 1 >= best:
                break
            if math.comb(self.n, size + 1) > DISTANCE_LEVEL_LIMIT:
                raise CapabilityError(
                    f"distance scan needs C({self.n}, {size + 1}) vertex sets "
                    f"(capped at {DISTANCE_LEVEL_LIMIT})")
            blocks = [level[:b] ^ rows[v] for v, b in enumerate(below)]
            below = np.cumsum([0] + [len(b) for b in blocks[:-1]])
            level = np.concatenate(blocks)
        return best

    def support_counts(self) -> dict[int, int]:
        """A_omega: how many non-identity elements have each exact support."""
        _check_table(self.k, "the support table")
        x, z = mask_tables(self.generators)
        supports, counts = np.unique((x | z)[1:], return_counts=True)
        # Index 0 of the doubling table is the identity; masks repeat later
        # only for genuinely distinct elements sharing a support.
        out = {}
        for s, c in zip(supports.tolist(), counts.tolist()):
            out[s] = out.get(s, 0) + c
        out.pop(0, None)
        return out


def _minimal_table(group: StabilizerGroup):
    """(classes, support, minimal): qubit masks of the classes of qubits
    that the same elements touch, the support of every element as a mask
    over those classes (indexed by generator mask), and for every such
    mask whether it is a support with no present proper subset.

    An element touches qubit j unless its generator mask is orthogonal to
    both columns x_j and z_j, so their span fixes the class.  One
    superset-OR pass per class over the presence table of the supports
    marks those with a present support below them.
    """
    xs = [g.x_bits for g in group.generators]
    zs = [g.z_bits for g in group.generators]
    cols = [(bit_column(xs, j), bit_column(zs, j)) for j in range(group.n)]
    spans: dict[frozenset, int] = {}
    for j, (cx, cz) in enumerate(cols):
        span = frozenset((cx, cz, cx ^ cz)) - {0}
        if span:
            spans[span] = spans.get(span, 0) | 1 << j
    classes = list(spans.values())
    _check_table(max(group.k, len(classes)), "the support table")
    # a generator's x and z masks over the classes (read at each class's
    # first qubit, at most FULL_PROFILE_LIMIT bits) share one 64-bit word,
    # and OR-ing the halves of its span in place leaves the supports
    first_x, first_z = zip(*(cols[(c & -c).bit_length() - 1] for c in classes))
    words = span_table([bit_column(first_x, i) | bit_column(first_z, i) << 32
                        for i in range(group.k)])
    halves = words.view(np.uint32).reshape(-1, 2)
    support = np.bitwise_or(halves[:, 0], halves[:, 1], out=halves[:, 0])
    present = np.zeros(1 << len(classes), dtype=bool)
    present[support[1:]] = True
    above = np.zeros_like(present)
    for i in range(len(classes)):
        p, a = (t.reshape(-1, 2, 1 << i) for t in (present, above))
        a[:, 1] |= a[:, 0] | p[:, 0]
    return classes, support, present & ~above


def minimal_supports(group: StabilizerGroup) -> tuple[int, ...]:
    """Supports of non-identity elements with no proper sub-support present.

    Sorted by (weight, mask) so downstream reports are reproducible.
    """
    classes, _, minimal = _minimal_table(group)
    supports = [sum(c for i, c in enumerate(classes) if (mask >> i) & 1)
                for mask in np.flatnonzero(minimal).tolist()]
    return tuple(sorted(supports, key=lambda m: (m.bit_count(), m)))


def _minimal_masks(group: StabilizerGroup) -> np.ndarray:
    """Generator masks of the minimal elements, ascending."""
    _, support, minimal = _minimal_table(group)
    return np.flatnonzero(minimal[support])


def _minimal_basis(group: StabilizerGroup) -> tuple[int, ...]:
    """Generator masks of a basis of the minimal subgroup M."""
    basis = Echelon()
    for mask in _minimal_masks(group).tolist():
        if basis.add(mask) and basis.rank == group.k:
            break
    return basis.rows


def _minimal_generators(group: StabilizerGroup) -> list[PauliOperator]:
    """Independent generators of the minimal subgroup M, signs exact."""
    return [group.element_from_mask(mask) for mask in _minimal_basis(group)]


def minimal_elements(group: StabilizerGroup) -> list[PauliOperator]:
    """All elements whose support is minimal, by ascending generator mask."""
    return [group.element_from_mask(int(mask)) for mask in _minimal_masks(group)]


def minimal_subgroup(group: StabilizerGroup) -> StabilizerGroup:
    """The subgroup generated by all minimal elements (with their signs)."""
    gens = _minimal_generators(group)
    assert gens, "a nontrivial group always has minimal elements"
    return StabilizerGroup(gens)


@dataclass(frozen=True)
class MSCResult:
    passed: bool
    letters: tuple
    s_eq_m: bool


_ALL_LETTERS = frozenset("XYZ")


def _letters(gens, j: int) -> frozenset:
    """Letters at qubit j across the group the gens generate: the nonzero
    part of the span of their (x_j, z_j) pairs."""
    codes = {((g.x_bits >> j) & 1) | (((g.z_bits >> j) & 1) << 1)
             for g in gens}
    codes.discard(0)
    if len(codes) > 1:
        return _ALL_LETTERS
    return frozenset("IXZY"[c] for c in codes)


def msc_check(group: StabilizerGroup) -> MSCResult:
    """Minimal support condition: X, Y and Z all occur on every qubit
    within the subgroup M generated by the minimal elements.  Also
    reports S = M, which holds exactly when rank M = k."""
    gens = _minimal_generators(group)
    letters = tuple(_letters(gens, j) for j in range(group.n))
    return MSCResult(passed=all(s == _ALL_LETTERS for s in letters),
                     letters=letters, s_eq_m=len(gens) == group.k)


def s_equals_m(group: StabilizerGroup) -> bool:
    """Does the minimal-element subgroup already generate the whole group?"""
    return len(_minimal_basis(group)) == group.k


def is_even_code(group: StabilizerGroup) -> bool:
    """Do all elements have even weight?

    For commuting Paulis the overlap-with-different-letters count is even,
    so weight parity is additive and generators decide the whole group.
    """
    return all(g.weight() % 2 == 0 for g in group.generators)


def distance_upper_bound(n: int, even_code: bool = False) -> int:
    """Cap on stabilizer-state distance by qubit count.

    Even codes (possible only at even n): 2*floor(n/6)+2, attained at n=6.
    Otherwise 2*floor(n/6)+1 when n = 0 mod 6, +3 when n = 5 mod 6,
    and +2 for the remaining residues.
    """
    if n < 1:
        raise ValueError(f"no stabilizer state on {n} qubits")
    if even_code:
        return 2 * (n // 6) + 2
    r = n % 6
    if r == 0:
        return 2 * (n // 6) + 1
    if r == 5:
        return 2 * (n // 6) + 3
    return 2 * (n // 6) + 2
