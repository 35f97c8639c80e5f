"""Reference computations the benchmark checks the program against.

Everything here is written from the definitions, without calling
graphclif, so a fault in the program cannot hide in its own check:

* graph states are given as adjacency rows (bit u of row v is edge uv);
  element A of the group (A a vertex subset) has X part A and Z part the
  XOR of the rows in A, so its support is A | Z;
* distance is the least support weight over every non-identity element;
* minimal supports come from a subset-sum (zeta) transform over all 2^n
  vertex subsets, and the minimal-support condition is a rank test per
  qubit: the span of the minimal elements reaches all of X, Y, Z at a
  qubit exactly when two different nonzero (x, z) pairs occur there;
* local-Clifford witnesses are checked on dense state vectors: the graph
  state is built from CZ phases and each conjugated generator is applied
  to it one qubit at a time;
* a graph-form reduction C S C^dag = S(G) is checked per qubit with 2x2
  matrices and the product rule of Pauli operators.

``self_check`` runs each oracle on cases known by hand.
"""

from __future__ import annotations

import numpy as np

_PAULI = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
}
_PAULI[(1, 1)] = _PAULI[(1, 0)] @ _PAULI[(0, 1)]  # X Z = -i Y


# -- graphs ---------------------------------------------------------------


def cycle_rows(n: int) -> list[int]:
    return [(1 << ((v + 1) % n)) | (1 << ((v - 1) % n)) for v in range(n)]


def path_rows(n: int) -> list[int]:
    rows = [0] * n
    for v in range(n - 1):
        rows[v] |= 1 << (v + 1)
        rows[v + 1] |= 1 << v
    return rows


def star_rows(n: int) -> list[int]:
    rows = [1] * n
    rows[0] = ((1 << n) - 1) & ~1
    return rows


def relabel(rows, perm) -> list[int]:
    """perm[old] = new vertex."""
    out = [0] * len(rows)
    for v, row in enumerate(rows):
        new = 0
        for u in range(len(rows)):
            if (row >> u) & 1:
                new |= 1 << perm[u]
        out[perm[v]] = new
    return out


def is_connected(rows) -> bool:
    seen = frontier = 1
    while frontier:
        reach = 0
        for v in range(len(rows)):
            if (frontier >> v) & 1:
                reach |= rows[v]
        frontier = reach & ~seen
        seen |= reach
    return seen == (1 << len(rows)) - 1


def girth_exceeds_four(rows) -> bool:
    """No triangle and no four-cycle: adjacent vertices share no
    neighbour, and no two vertices share two."""
    n = len(rows)
    for v in range(n):
        for u in range(v):
            common = (rows[u] & rows[v]).bit_count()
            if common >= 2 or (common and (rows[u] >> v) & 1):
                return False
    return True


def encode_graph6(rows) -> str:
    n = len(rows)
    bits = [(rows[u] >> v) & 1 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[i:i + 6])), 2))
                   for i in range(0, len(bits), 6))
    return chr(63 + n) + body


def decode_graph6(text: str) -> list[int]:
    n = ord(text[0]) - 63
    bits = []
    for c in text[1:]:
        bits.extend((ord(c) - 63) >> k & 1 for k in range(5, -1, -1))
    rows = [0] * n
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            i += 1
    return rows


# -- the group of a graph state -------------------------------------------


def group_table(rows) -> tuple[np.ndarray, np.ndarray]:
    """(x, z) masks of all 2^n elements, element A at index A."""
    x = np.arange(1 << len(rows), dtype=np.int64)
    z = np.zeros(1 << len(rows), dtype=np.int64)
    for v, row in enumerate(rows):
        z[(x >> v) & 1 == 1] ^= row
    return x, z


def brute_distance(rows) -> int:
    x, z = group_table(rows)
    return int(np.bitwise_count((x | z)[1:]).min())


def minimal_support_flags(support: np.ndarray, n: int) -> np.ndarray:
    """For each element, is its support minimal among non-identity
    supports?  present[S] marks supports; below[S] marks subsets of S
    that are supports; a support is minimal when below[S minus v] is
    false for every v in S."""
    size = 1 << n
    present = np.zeros(size, dtype=bool)
    present[support[1:]] = True
    below = present.copy()
    for v in range(n):
        hi = np.arange(size).reshape(-1, 2, 1 << v)
        below[hi[:, 1, :]] |= below[hi[:, 0, :]]
    proper = np.zeros(size, dtype=bool)
    for v in range(n):
        hi = np.arange(size).reshape(-1, 2, 1 << v)
        proper[hi[:, 1, :]] |= below[hi[:, 0, :]]
    flags = present[support] & ~proper[support]
    flags[0] = False
    return flags


def _gf2_rank(vectors) -> int:
    basis: list[int] = []
    for vec in vectors:
        for b in basis:
            vec = min(vec, vec ^ b)
        if vec:
            basis.append(vec)
            basis.sort(reverse=True)
    return len(basis)


def msc_oracle(rows) -> dict:
    """Distance, minimal-support condition, letters per qubit and S = M."""
    n = len(rows)
    x, z = group_table(rows)
    support = x | z
    minimal = minimal_support_flags(support, n)
    mx, mz = x[minimal], z[minimal]
    letters = []
    for j in range(n):
        codes = set(np.unique(((mx >> j) & 1) | (((mz >> j) & 1) << 1)).tolist())
        codes.discard(0)
        if len(codes) >= 2:
            letters.append("XYZ")
        else:
            letters.append("".join("?XZY"[c] for c in codes))
    vectors = set((mx | (mz << n)).tolist())
    return {
        "delta": int(np.bitwise_count(support[1:]).min()),
        "msc": all(s == "XYZ" for s in letters),
        "letters": letters,
        "s_eq_m": _gf2_rank(vectors) == n,
    }


# -- dense witnesses --------------------------------------------------------


def graph_state(rows) -> np.ndarray:
    """|G> = prod CZ_uv |+>^n as an n-axis tensor, axis j = qubit j."""
    n = len(rows)
    idx = np.arange(1 << n)
    bit = [(idx >> (n - 1 - j)) & 1 for j in range(n)]
    parity = np.zeros(1 << n, dtype=np.int64)
    for v in range(n):
        for u in range(v):
            if (rows[v] >> u) & 1:
                parity += bit[u] & bit[v]
    amps = (1.0 - 2.0 * (parity & 1)) / np.sqrt(2.0 ** n)
    return amps.astype(complex).reshape((2,) * n)


def stabilizes(rows, generators, k_mats, tol: float = 1e-8) -> bool:
    """Is K g K^dag |G> = |G> for every generator g = i^e X(x) Z(z)?"""
    n = len(rows)
    state = graph_state(rows)
    for g in generators:
        out = state * (1j ** g.phase_exp)
        for j in range(n):
            key = ((g.x_bits >> j) & 1, (g.z_bits >> j) & 1)
            if key == (0, 0):
                continue
            k = np.asarray(k_mats[j], dtype=complex)
            m = k @ _PAULI[key] @ k.conj().T
            out = np.moveaxis(np.tensordot(m, out, axes=([1], [j])), 0, j)
        if not np.allclose(out, state, atol=tol, rtol=0.0):
            return False
    return True


def _as_pauli(m: np.ndarray, tol: float = 1e-8):
    """(x, z, c) with m = c X^x Z^z, else None."""
    for (xb, zb), p in _PAULI.items():
        c = np.trace(p.conj().T @ m) / 2.0
        if abs(abs(c) - 1.0) < tol and np.allclose(m, c * p, atol=tol):
            return xb, zb, c
    return None


def reduces_to_graph(generators, rows, c_mats, tol: float = 1e-8) -> bool:
    """Does C g C^dag lie in S(G), sign included, for every generator g?

    The image of i^e X(x) Z(z) is found qubit by qubit as c_j X^a Z^b;
    the element of S(G) with X part a is the ascending product of the
    graph generators X_v Z_N(v) over v in a, whose sign follows from
    Z(p) X(q) = (-1)^{|p & q|} X(q) Z(p).
    """
    for g in generators:
        scale = 1j ** g.phase_exp
        a = b = 0
        for j in range(len(rows)):
            key = ((g.x_bits >> j) & 1, (g.z_bits >> j) & 1)
            c = np.asarray(c_mats[j], dtype=complex)
            hit = _as_pauli(c @ _PAULI[key] @ c.conj().T, tol)
            if hit is None:
                return False
            xb, zb, coef = hit
            a |= xb << j
            b |= zb << j
            scale *= coef
        ex = ez = 0
        sign = 1
        for v in range(len(rows)):
            if (a >> v) & 1:
                # (X(ex) Z(ez)) (X_v Z(row)) = (-1)^{|ez & v|} X(ex^v) Z(ez^row)
                if (ez >> v) & 1:
                    sign = -sign
                ex ^= 1 << v
                ez ^= rows[v]
        if ez != b or abs(scale - sign) > tol:
            return False
    return True


# -- hand-known cases -----------------------------------------------------


class _Gen:
    __slots__ = ("x_bits", "z_bits", "phase_exp")

    def __init__(self, x_bits, z_bits, phase_exp=0):
        self.x_bits, self.z_bits, self.phase_exp = x_bits, z_bits, phase_exp


def self_check() -> list[str]:
    """Problems found when the oracles run on cases known by hand."""
    problems = []
    c5, star5, p3 = cycle_rows(5), star_rows(5), path_rows(3)
    if brute_distance(c5) != 3:
        problems.append("oracle: C5 distance is not 3")
    if brute_distance(star5) != 2:
        problems.append("oracle: star distance is not 2")
    # C5: the generators Z X Z are minimal and give X and Z at every qubit;
    # star: every minimal element is X_l Z_c or X_l X_m, one letter a qubit.
    got = msc_oracle(c5)
    if not got["msc"] or got["delta"] != 3:
        problems.append("oracle: C5 should pass the MSC")
    got = msc_oracle(star5)
    if got["msc"] or got["letters"] != ["Z", "X", "X", "X", "X"]:
        problems.append("oracle: star should fail the MSC with Z | X X X X")
    if encode_graph6(p3) != "Bg" or decode_graph6("Bg") != p3:
        problems.append("oracle: graph6 of the 3-path is not Bg")
    if not girth_exceeds_four(cycle_rows(5)) or girth_exceeds_four(cycle_rows(4)):
        problems.append("oracle: girth test wrong on C5 or C4")
    # the graph generators stabilize |G> with K = I, not with K = X on the
    # centre of a 3-path (that flips the sign of both leaf generators)
    gens = [_Gen(1 << v, row) for v, row in enumerate(p3)]
    eye, x = _PAULI[(0, 0)], _PAULI[(1, 0)]
    if not stabilizes(p3, gens, [eye, eye, eye]):
        problems.append("oracle: graph generators do not stabilize |G>")
    if stabilizes(p3, gens, [eye, x, eye]):
        problems.append("oracle: X on a 3-path centre went unnoticed")
    if not reduces_to_graph(gens, p3, [eye, eye, eye]):
        problems.append("oracle: S(G) does not reduce to G under the identity")
    if reduces_to_graph(gens, p3, [eye, x, eye]):
        problems.append("oracle: a sign flip passed the graph-form check")
    return problems
