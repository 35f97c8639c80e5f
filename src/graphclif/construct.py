"""Turning a local-unitary equivalence into a local-Clifford one.

construct_lc takes a connected graph G, a stabilizer group S' and a
per-qubit unitary list U with (by assumption) U |psi'> = |psi_G>, and
produces catalog Cliffords K with K S' K^dag = S(|psi_G>), phases
included.  The procedure is partition-driven:

  * V3 and V4 vertices copy U_i, snapped to the catalog (they must be
    Clifford for genuine inputs).
  * Each V2 vertex and its attached leaves form a block.  The conjugated
    images b = U^dag Z U (center) and U^dag X U (leaves) are signed Paulis
    for genuine inputs.  The catalog conjugator F with F b F^dag = +Z is
    sign-exact, so the dressed center U F^dag satisfies
    (U F^dag)^dag Z (U F^dag) = F b F^dag = +Z: it commutes with Z and
    is diagonal, never antidiagonal.  The dressed leaves H U F^dag are
    diagonal for the same reason.  Their product over the block is the
    induced logical operation, a diagonal unitary that snaps to a
    catalog element; each leaf's factor is H o F.
  * Graphs whose orbit holds a star or complete graph can leave qubits
    unresolved (complete graphs have no leaf blocks at all).  With the
    other qubits fixed, LC equivalence is a linear system over GF(2) in
    their symplectic matrices (Bouchet, Combinatorica 11, 1991; Van den
    Nest, Dehaene & De Moor, quant-ph/0405023), which settles them.

Every returned result has already passed verify_lc; failures raise
instead of returning.

The leaf image uses X, not Z: a leaf w enters the block through the
weight-2 stabilizer element X_w Z_{v2}, so the factor of that element
on w is U_w^dag X_w U_w, and dressing with Hadamard afterwards puts it
on the diagonal.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import xor
from types import MappingProxyType

import numpy as np

from .cliffords import (CLIFFORD_CATALOG, IDENTITY_1Q, LocalCliffordOp,
                        clifford_by_name, conjugate_stabilizer,
                        find_clifford_conjugator, is_clifford, pauli_match)
from .errors import CapabilityError
from .gf2 import bit_column, solve
from .graphs import Graph, from_graph6, to_graph6, vertex_partition
from .graphstates import classify_theorem, standard_generators
from .pauli import PauliOperator, parse_pauli
from .stabilizer import StabilizerGroup, mask_tables
from .states import (DENSE_LIMIT, apply_local, equal_up_to_global_phase,
                     graph_state_vector, is_diagonal,
                     stabilizer_state_vector)

COMPLETION_POINTS = 1 << 16  # solutions tried; all of them up to dimension 16

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_H = clifford_by_name("H")

# Provenance entries are read-only and shared, so a result holds only
# references to them.
_COPIED = MappingProxyType({"rule": "copied"})
_LINEAR = MappingProxyType({"rule": "linear"})
_BLOCK = {(role, f.name): MappingProxyType({"rule": "block", "role": role,
                                            "f": f.name, "branch": "diagonal"})
          for role in ("center", "leaf") for f in CLIFFORD_CATALOG}

# The first catalog element per symplectic matrix, keyed by the nibble
# a | b << 1 | c << 2 | d << 3 where X maps to X^a Z^c and Z to X^b Z^d.
_BY_SYMPLECTIC = {f.img_x.x_bits | f.img_z.x_bits << 1 | f.img_x.z_bits << 2
                  | f.img_z.z_bits << 3: f for f in reversed(CLIFFORD_CATALOG)}


class Fact1Error(ValueError):
    """Inputs are not consistent with a genuine LU equivalence."""


class UnsupportedClassError(ValueError):
    """The graph falls outside the classes any theorem covers."""


@dataclass(frozen=True)
class LUInstance:
    graph: Graph
    s_prime: StabilizerGroup
    u: tuple
    trace: dict

    def to_json(self) -> str:
        return json.dumps({
            "graph": to_graph6(self.graph),
            "s_prime": [str(p) for p in self.s_prime.generators],
            "u": [_matrix_to_json(m) for m in self.u],
            "trace": self.trace,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LUInstance":
        """Parse to_json's format; a malformed document raises ValueError."""
        data = json.loads(text)
        try:
            return cls(
                graph=from_graph6(data["graph"]),
                s_prime=StabilizerGroup([parse_pauli(s) for s in data["s_prime"]]),
                u=tuple(_matrix_from_json(m) for m in data["u"]),
                trace=data.get("trace", {}),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed instance: {exc!r}") from exc


@dataclass(frozen=True)
class LCResult:
    k: LocalCliffordOp
    provenance: tuple
    verified: bool

    def to_json(self) -> str:
        return json.dumps({
            "k": [{"name": f.name, "matrix": _matrix_to_json(f.matrix)}
                  for f in self.k.factors],
            "provenance": [dict(p) for p in self.provenance],
            "verified": self.verified,
        }, sort_keys=True)


def _matrix_to_json(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(e.real), float(e.imag)] for e in row] for row in m]


def _matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _check_unitary(m: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2) or not np.allclose(m @ m.conj().T, np.eye(2), atol=tol):
        raise ValueError("each local factor must be a 2x2 unitary")
    return m


# -- instance generation -----------------------------------------------------


def _gray_rank(mask: int) -> int:
    """The step at which a Gray-code walk of generator masks reaches mask."""
    rank = 0
    while mask:
        rank ^= mask
        mask >>= 1
    return rank


def weight_two_elements(group: StabilizerGroup) -> list:
    """The weight-2 elements, in the order of a Gray-code walk of the group."""
    if group.n > 20:
        raise CapabilityError(
            f"the weight-2 scan tabulates the whole group (n <= 20, not {group.n})")
    x, z = mask_tables(group.generators)
    masks = np.flatnonzero(np.bitwise_count(x | z) == 2).tolist()
    return [group.element_from_mask(m) for m in sorted(masks, key=_gray_rank)]


def _rotation(p1: PauliOperator, theta: float) -> np.ndarray:
    """exp(i theta P) for a signed one-qubit Pauli P."""
    return np.cos(theta) * np.eye(2, dtype=complex) + 1j * np.sin(theta) * p1.to_matrix()


def _split_pair(e: PauliOperator, a: int, b: int) -> tuple:
    """Hermitian one-qubit factors alpha, beta with alpha (x) beta = e."""
    y_b = (e.x_bits >> b) & (e.z_bits >> b) & 1
    alpha = PauliOperator(1, (e.x_bits >> a) & 1, (e.z_bits >> a) & 1,
                          (e.phase_exp - y_b) % 4)
    beta = PauliOperator(1, (e.x_bits >> b) & 1, (e.z_bits >> b) & 1, y_b)
    if not (alpha.is_hermitian() and beta.is_hermitian()):
        raise ValueError(f"{e} does not split into Hermitian factors at {a}, {b}")
    return alpha, beta


def generate_instance(g: Graph, seed: int, num_phase_pairs: int = 1,
                      use_base_clifford: bool = True) -> LUInstance:
    """A seeded LU-equivalent pair: S' = C^dag S C and U = C o D.

    D stacks exp(i theta a) x exp(-i theta b) over randomly chosen
    weight-2 elements a x b of S'; each such factor fixes the state of
    S' for any angle, so U maps it to |psi_G> while the per-qubit
    factors are generally not Clifford.  Every instance is certified by
    comparing dense state vectors, so n is capped at DENSE_LIMIT.
    """
    if not g.is_connected():
        raise ValueError("instances are generated for connected graphs")
    n = g.n
    if n > DENSE_LIMIT:
        raise CapabilityError(f"the dense certificate is capped at {DENSE_LIMIT} qubits")
    rng = random.Random(seed)
    target = standard_generators(g)
    if use_base_clifford:
        base = LocalCliffordOp([rng.choice(CLIFFORD_CATALOG) for _ in range(n)])
    else:
        base = LocalCliffordOp.identity(n)
    s_prime = conjugate_stabilizer(base.inverse(), target)

    mats = [f.matrix.copy() for f in base.factors]
    trace = {"seed": seed, "base": base.names(), "pairs": []}
    pool = weight_two_elements(s_prime)
    if num_phase_pairs > 0 and not pool:
        trace["notice"] = "no weight-2 stabilizer elements; Clifford-only instance"
    elif num_phase_pairs > 0:
        for e in rng.choices(pool, k=num_phase_pairs):
            a, b = e.support()
            a, b = a - 1, b - 1
            theta = rng.uniform(0.0, 2.0 * np.pi)
            alpha, beta = _split_pair(e, a, b)
            mats[a] = mats[a] @ _rotation(alpha, theta)
            mats[b] = mats[b] @ _rotation(beta, -theta)
            trace["pairs"].append({"element": str(e), "theta": theta})

    inst = LUInstance(graph=g, s_prime=s_prime, u=tuple(mats), trace=trace)
    got = apply_local(inst.u, stabilizer_state_vector(s_prime))
    if not equal_up_to_global_phase(got, graph_state_vector(g), 1e-8):
        raise RuntimeError("instance failed its dense certificate")
    return inst


# -- verification ------------------------------------------------------------


def verify_lc(g: Graph, s_prime: StabilizerGroup, k: LocalCliffordOp,
              dense: bool = False, tol: float = 1e-8) -> bool:
    """Does K S' K^dag equal the graph's stabilizer group, signs included?"""
    if s_prime.n != g.n or k.n != g.n or not s_prime.is_state_group():
        return False
    target = standard_generators(g)
    conj = conjugate_stabilizer(k, s_prime)
    if not all(target.is_element(p) for p in conj.generators):
        return False
    if dense:
        if g.n > DENSE_LIMIT:
            raise CapabilityError(f"dense verification is capped at {DENSE_LIMIT} qubits")
        got = apply_local(k.matrices(), stabilizer_state_vector(s_prime))
        if not equal_up_to_global_phase(got, graph_state_vector(g), tol):
            return False
    return True


# -- the construction --------------------------------------------------------


def _image_pauli(u: np.ndarray, p: np.ndarray) -> PauliOperator | None:
    return pauli_match(u.conj().T @ p @ u)


def construct_lc(g: Graph, s_prime: StabilizerGroup, u) -> LCResult:
    n = g.n
    if s_prime.n != n or len(u) != n:
        raise ValueError("graph, stabilizer and local op sizes disagree")
    if not s_prime.is_state_group():
        raise ValueError("s_prime must have a full set of generators")
    u = [_check_unitary(m) for m in u]

    cls = classify_theorem(g)
    if cls.tag == "Open":
        raise UnsupportedClassError("unsupported graph class")
    ghz = cls.conditions["GHZ"]

    part = vertex_partition(g)
    k_factors: list = [None] * n
    prov: list = [None] * n

    def defer(i, why):
        if not ghz:
            raise Fact1Error(why)
        prov[i] = _LINEAR

    for i in range(n):
        if not ((part.v3 >> i) & 1 or (part.v4 >> i) & 1):
            continue
        snapped = is_clifford(u[i])
        if snapped is None:
            defer(i, "inputs are not Fact-1 consistent: "
                     f"non-Clifford factor at vertex {i + 1}")
        else:
            k_factors[i] = snapped
            prov[i] = _COPIED

    for v2 in range(n):
        if not (part.v2 >> v2) & 1:
            continue
        leaves = [w for w in range(n) if (part.v1 >> w) & 1 and g.has_edge(v2, w)]
        b_center = _image_pauli(u[v2], _Z)
        if b_center is None:
            raise Fact1Error("inputs are not Fact-1 consistent: "
                             f"center image at vertex {v2 + 1} is not a Pauli")
        f_center = find_clifford_conjugator(b_center)
        # F b F^dag = +Z, sign included, so the dressed center commutes
        # with Z; so does each dressed leaf.
        logical = u[v2] @ f_center.matrix.conj().T
        if not is_diagonal(logical):
            raise Fact1Error("inputs are not Fact-1 consistent: dressed center "
                             f"at vertex {v2 + 1} is not diagonal")
        f_leaf = {}
        for w in leaves:
            b = _image_pauli(u[w], _X)
            if b is None:
                raise Fact1Error("inputs are not Fact-1 consistent: "
                                 f"leaf image at vertex {w + 1} is not a Pauli")
            f_leaf[w] = find_clifford_conjugator(b)
            logical = logical @ (_H.matrix @ u[w] @ f_leaf[w].matrix.conj().T)

        snapped = is_clifford(logical)
        if snapped is None:
            defer(v2, "inputs are not Fact-1 consistent: block logical operation "
                      f"at vertex {v2 + 1} is not Clifford")
        else:
            k_factors[v2] = snapped.compose(f_center)
            prov[v2] = _BLOCK["center", f_center.name]
        for w in leaves:
            k_factors[w] = _H.compose(f_leaf[w])
            prov[w] = _BLOCK["leaf", f_leaf[w].name]

    for i in range(n):
        if prov[i] is None:
            # leaves with no V2 anchor (the two-vertex complete graph)
            defer(i, "inputs are not Fact-1 consistent: "
                     f"vertex {i + 1} has no assignment rule")

    unresolved = [i for i in range(n) if prov[i] is _LINEAR]
    if unresolved:
        _linear_completion(g, s_prime, k_factors, unresolved)

    k_op = LocalCliffordOp(k_factors)
    if not verify_lc(g, s_prime, k_op):
        raise Fact1Error("inputs are not Fact-1 consistent: "
                         "constructed operation failed verification")
    return LCResult(k=k_op, provenance=tuple(prov), verified=True)


def _linear_completion(g: Graph, s_prime: StabilizerGroup, k_factors, unresolved):
    """Fill k_factors on the unresolved qubits from GF(2) solves.

    Qubit q takes a symplectic matrix (a, b, c, d), mapping X^x Z^z to
    X^(ax + bz) Z^(cx + dz) up to sign.  A conjugated generator (x, z) is
    in the phase-blind span of S(G) iff z = Theta x, affine in those bits.
    Solutions are tried fewest kernel vectors first, and one is taken once
    every ad + bc = 1 and a Pauli from a second solve fixes every sign.
    """
    n, gens = g.n, s_prime.generators
    target = standard_generators(g)
    free = sum(1 << q for q in unresolved)
    fixed = LocalCliffordOp([f or IDENTITY_1Q for f in k_factors])
    # bit i*n + j is generator i at vertex j; xs * row copies row per block
    rhs = 0
    for i, img in enumerate(map(fixed.conjugate_pauli, gens)):
        x, z = img.x_bits & ~free, img.z_bits & ~free
        rhs |= (z ^ target.element_from_mask(x).z_bits) << (i * n)
    columns = []
    for q in unresolved:
        xs = sum(1 << (i * n) for i, p in enumerate(gens) if (p.x_bits >> q) & 1)
        zs = sum(1 << (i * n) for i, p in enumerate(gens) if (p.z_bits >> q) & 1)
        columns += [xs * g.adj[q], zs * g.adj[q], xs << q, zs << q]
    solution = solve(columns, rhs)
    kernel = solution[1] if solution else []
    points = (reduce(xor, combo, solution[0]) for r in range(len(kernel) + 1)
              for combo in combinations(kernel, r)) if solution else ()
    for _, point in zip(range(COMPLETION_POINTS), points):
        for t, q in enumerate(unresolved):
            k_factors[q] = _BY_SYMPLECTIC.get((point >> (4 * t)) & 15)
        if None in k_factors:
            continue
        images = list(map(LocalCliffordOp(k_factors).conjugate_pauli, gens))
        flips = sum((img != target.element_from_mask(img.x_bits)) << i
                    for i, img in enumerate(images))
        # X on qubit q flips the images with Z there, Z those with X there
        z_rows, x_rows = [p.z_bits for p in images], [p.x_bits for p in images]
        fix = solve([bit_column(rows, q) for q in unresolved
                     for rows in (z_rows, x_rows)], flips)
        if fix is not None:
            for t, q in enumerate(unresolved):
                pauli = clifford_by_name("IXZY"[(fix[0] >> (2 * t)) & 3])
                k_factors[q] = pauli.compose(k_factors[q])
            return
    if 1 << len(kernel) > COMPLETION_POINTS:
        raise CapabilityError(f"no completion in the first {COMPLETION_POINTS} "
                              f"points of a {len(kernel)}-dimensional solution space")
    raise Fact1Error("inputs are not Fact-1 consistent: "
                     "no local Clifford completion exists")
