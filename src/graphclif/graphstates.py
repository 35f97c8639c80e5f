"""Graph states: standard generators, reduction to graph form, and the
decision of which route guarantees that local-unitary equivalence can be
rewritten with local Cliffords.

The standard generator of vertex v is X_v Z_N(v).  Any full-rank
stabilizer group reduces to that shape by row multiplications (same
group) plus per-qubit H, S, and Pauli conjugations (tracked exactly as a
LocalCliffordOp), which realizes the usual fact that every stabilizer
state is a graph state up to local Cliffords.

classify_theorem scores a connected graph against the sufficient
conditions, in a fixed order: GHZ-type orbits (star or complete
representative), girth above four, the minimal support condition, and
the distance-two residual route (delete the degree-one vertices at once
and test the residual for the MSC).  Anything else stays open.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cliffords import LocalCliffordOp, clifford_by_name
from .graphs import Graph, bar_graph
from .pauli import PauliOperator
from .stabilizer import MSCResult, StabilizerGroup, msc_check


def standard_generators(g: Graph) -> StabilizerGroup:
    """R_v = X_v Z_N(v) for every vertex."""
    return StabilizerGroup(
        [PauliOperator(g.n, 1 << v, g.adj[v], 0) for v in range(g.n)]
    )


def _conjugate_rows(rows, n, qubit, name, op):
    gate = clifford_by_name(name)
    factors = list(op.factors)
    factors[qubit] = gate.compose(factors[qubit])
    single = LocalCliffordOp(
        [gate if j == qubit else clifford_by_name("I") for j in range(n)]
    )
    return [single.conjugate_pauli(r) for r in rows], LocalCliffordOp(factors)


def stabilizer_to_graph(s: StabilizerGroup) -> tuple[Graph, LocalCliffordOp]:
    """Graph g and local Clifford C with C s C^dag = standard_generators(g).

    Gaussian elimination over GF(2) on the X block; whenever the X rank is
    deficient there is a pure-Z row with support off the pivot columns
    (otherwise it would anticommute with some pivot row), and a Hadamard
    there strictly grows the rank.  S gates clear the diagonal, Pauli
    conjugations fix the signs.
    """
    if not s.is_state_group():
        raise ValueError("need n independent generators on n qubits")
    n = s.n
    rows = list(s.generators)
    op = LocalCliffordOp.identity(n)

    for _ in range(n + 1):
        # row-reduce the X block
        pivots = []
        r = 0
        for col in range(n):
            hit = next(
                (i for i in range(r, n) if (rows[i].x_bits >> col) & 1), None
            )
            if hit is None:
                continue
            rows[r], rows[hit] = rows[hit], rows[r]
            for i in range(n):
                if i != r and (rows[i].x_bits >> col) & 1:
                    rows[i] = rows[i] * rows[r]
            pivots.append(col)
            r += 1
        if r == n:
            break
        pivot_mask = sum(1 << c for c in pivots)
        free = rows[r].z_bits & ~pivot_mask
        assert free, "pure-Z row confined to pivot columns cannot commute"
        col = (free & -free).bit_length() - 1
        rows, op = _conjugate_rows(rows, n, col, "H", op)
    else:
        raise AssertionError("X block rank did not reach n")

    for i in range(n):
        if (rows[i].z_bits >> i) & 1:
            rows, op = _conjugate_rows(rows, n, i, "S", op)
    for i in range(n):
        if rows[i].phase_exp:
            assert rows[i].phase_exp == 2, "sign must be real at this point"
            rows, op = _conjugate_rows(rows, n, i, "Z", op)

    adj = [row.z_bits for row in rows]
    g = Graph(adj)
    for i, row in enumerate(rows):
        assert row == PauliOperator(n, 1 << i, adj[i], 0), "reduction failed"
    return g, op


def has_weight_two_element(g: Graph) -> bool:
    """Weight-2 stabilizer elements are exactly leaf generators and twin
    products: the X part of a product over A is A itself, so |A| <= 2,
    leaving R_v with deg(v) = 1 and R_u R_v with matching neighborhoods."""
    for v in range(g.n):
        if g.degree(v) == 1:
            return True
    for v in range(g.n):
        for u in range(v):
            both = (1 << u) | (1 << v)
            if (g.adj[u] ^ g.adj[v]) & ~both == 0:
                return True
    return False


def is_ghz_class(g: Graph) -> bool:
    """Does the orbit contain a star (equivalently a complete graph)?

    The star's orbit is exactly the complete graph plus the star centered
    at each vertex: complementing the center gives the complete graph,
    complementing any vertex of the complete graph gives the star centered
    there, and leaves change nothing.  So membership is a degree test:
    every vertex has degree n - 1, or one does and there are n - 1 edges.
    """
    n = g.n
    degrees = [g.degree(v) for v in range(n)]
    edges = sum(degrees) // 2
    complete = edges == n * (n - 1) // 2
    star = max(degrees) == n - 1 and edges == n - 1
    return complete or star


@dataclass(frozen=True)
class TheoremClassification:
    tag: str
    satisfied: tuple
    conditions: dict
    msc: MSCResult  # of g's own standard generators, for reports to reuse


def classify_theorem(g: Graph) -> TheoremClassification:
    """First satisfied route wins: GHZ, MainTheorem, MSC, Delta2BarMSC;
    otherwise Open."""
    if not g.is_connected():
        raise ValueError("classification is defined for connected graphs")
    msc = msc_check(standard_generators(g))
    conditions = {}
    conditions["GHZ"] = is_ghz_class(g)
    conditions["MainTheorem"] = g.girth_exceeds_four()
    conditions["MSC"] = msc.passed
    delta2 = has_weight_two_element(g)
    residual, _ = bar_graph(g)
    conditions["Delta2BarMSC"] = bool(
        delta2
        and residual is not None
        and msc_check(standard_generators(residual)).passed
    )
    satisfied = tuple(name for name, ok in conditions.items() if ok)
    tag = satisfied[0] if satisfied else "Open"
    return TheoremClassification(tag=tag, satisfied=satisfied,
                                 conditions=conditions, msc=msc)
