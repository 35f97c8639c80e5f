"""Stabilizer groups and their support structure.

A group is held as a tuple of independent, pairwise-commuting, Hermitian
Pauli generators; independence over GF(2) rules out -I, so a valid group
of k generators has exactly 2^k distinct elements.  State groups have
k == n, but subgroups (for instance the one generated by all minimal
elements) are first-class citizens here.

All linear algebra goes through gf2.py.  An Echelon over the generators'
symplectic vectors decides membership, and element_from_mask turns a
generator mask into its element with the exact phase.  The phase-blind
bulk questions (distance, support multiplicities, minimal supports) read
mask_tables, one gf2.span_table over the x masks and one over the z
masks: index i of both tables is the element picked by generator mask i.
distance splits the generators and streams 2^high chunks of 2^low
elements, so order 2^31 scans stay in fixed memory.  enumerate_elements
still walks the whole group one PauliOperator at a time, as a test
oracle.

The minimal-support structure is linear algebra over those tables.  The
minimal elements are the indices whose support is minimal, the minimal
subgroup M is spanned by an Echelon basis of those indices (made exact
through element_from_mask), the letters of M at a qubit are the nonzero
span of the basis's (x, z) pairs there, and S = M exactly when
rank M = k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2 import Echelon, span_table
from .pauli import PauliOperator, identity

FULL_PROFILE_LIMIT = 20  # full in-memory support tables up to 2^20 elements
STREAM_LIMIT = 31  # distance-only scans up to 2^31 elements
_CHUNK_BITS = 20


def _symplectic_vec(p: PauliOperator) -> int:
    return p.x_bits | (p.z_bits << p.n)


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
        assert p.n == self.n
        residual, combo = self._echelon.reduce(_symplectic_vec(p))
        if residual != 0:
            return False
        return self.element_from_mask(combo) == p

    # -- vectorized mask tables ---------------------------------------------

    def distance(self) -> int:
        """Minimum weight over the 2^k - 1 non-identity elements."""
        k = self.k
        assert k <= STREAM_LIMIT, f"distance scan capped at 2^{STREAM_LIMIT}"
        lo_bits = min(k, _CHUNK_BITS)
        x_lo, z_lo = mask_tables(self.generators[:lo_bits])
        x_hi, z_hi = mask_tables(self.generators[lo_bits:])
        best = 64
        for i in range(len(x_hi)):
            w = np.bitwise_count((x_lo ^ x_hi[i]) | (z_lo ^ z_hi[i]))
            if i == 0:
                w[0] = 64  # skip the identity
            m = int(w.min())
            if m < best:
                best = m
                if best == 1:
                    break
        return best

    def support_counts(self) -> dict[int, int]:
        """A_omega: how many non-identity elements have each exact support."""
        assert self.k <= FULL_PROFILE_LIMIT, (
            f"full support table capped at 2^{FULL_PROFILE_LIMIT}"
        )
        x, z = mask_tables(self.generators)
        supports, counts = np.unique((x | z)[1:], return_counts=True)
        # Index 0 of the doubling table is the identity; masks repeat later
        # only for genuinely distinct elements sharing a support.
        out = {}
        for s, c in zip(supports.tolist(), counts.tolist()):
            out[s] = out.get(s, 0) + c
        out.pop(0, None)
        return out


def minimal_supports(group: StabilizerGroup) -> tuple[int, ...]:
    """Supports of non-identity elements with no proper sub-support present.

    Sorted by (weight, mask) so downstream reports are reproducible.
    """
    counts = group.support_counts()
    order = sorted(counts, key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    for omega in order:
        if any(mu & omega == mu for mu in kept):
            continue
        kept.append(omega)
    return tuple(kept)


@dataclass(frozen=True)
class SupportProfile:
    distance: int
    a_counts: dict
    minimal: tuple


def support_profile(group: StabilizerGroup) -> SupportProfile:
    counts = group.support_counts()
    minimal = minimal_supports(group)
    distance = min(m.bit_count() for m in counts)
    return SupportProfile(distance=distance, a_counts=counts, minimal=minimal)


def _minimal_masks(group: StabilizerGroup) -> np.ndarray:
    """Generator masks of the minimal elements, ascending: the table
    indices whose support a binary search finds among the minimal ones.

    The minimal supports are found first, so their own table is freed
    before this one is built and only one 2^k table is alive at a time.
    """
    minimal = minimal_supports(group)
    x, z = mask_tables(group.generators)
    x |= z
    del z
    table = np.sort(np.array(minimal, dtype=np.uint64))
    pos = np.searchsorted(table, x) % len(table)
    return np.flatnonzero(table[pos] == x)


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
    assert n >= 1
    if even_code:
        return 2 * (n // 6) + 2
    r = n % 6
    if r == 0:
        return 2 * (n // 6) + 1
    if r == 5:
        return 2 * (n // 6) + 3
    return 2 * (n // 6) + 2
