"""Simple graphs on up to 63 vertices as bitmask adjacency rows.

Row v is an integer whose bit u says whether {u, v} is an edge; rows stay
symmetric with a zero diagonal.  Vertices are 0-based internally and
1-based in every textual boundary (edge lists, reports).

Besides construction and the two interchange formats (graph6 and 1-based
edge lists), this module owns the purely combinatorial notions the rest
of the package leans on: local complementation, the degree-one vertex
partition (V1..V4), the residual graph obtained by deleting all
degree-one vertices at once, and short-cycle detection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapabilityError

MAX_VERTICES = 63


class Graph:
    """Immutable simple graph; adjacency as a tuple of bitmask rows."""

    __slots__ = ("n", "adj")

    def __init__(self, adj):
        adj = tuple(adj)
        n = len(adj)
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        for v, row in enumerate(adj):
            if not 0 <= row < (1 << n):
                raise ValueError("adjacency row exceeds vertex count")
            if (row >> v) & 1:
                raise ValueError("self-loops are not allowed")
        for v in range(n):
            for u in range(v):
                if ((adj[u] >> v) & 1) != ((adj[v] >> u) & 1):
                    raise ValueError("asymmetric adjacency")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

    @classmethod
    def _trusted(cls, rows) -> "Graph":
        """A graph from rows already known to be valid: no checks, and
        no call to __init__.  For rows derived from a valid graph."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", len(rows))
        object.__setattr__(g, "adj", tuple(rows))
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n and u != v):
                raise ValueError(f"bad edge ({u}, {v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(rows)

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError(f"a cycle needs at least 3 vertices, not {n}")
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def star(cls, n: int) -> "Graph":
        if n < 2:
            raise ValueError(f"a star needs at least 2 vertices, not {n}")
        return cls.from_edges(n, [(0, i) for i in range(1, n)])

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls([full & ~(1 << v) for v in range(n)])

    # -- basic structure ----------------------------------------------------

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            row = self.adj[v] >> (v + 1)
            u = v + 1
            while row:
                if row & 1:
                    out.append((v, u))
                row >>= 1
                u += 1
        return out

    def is_connected(self) -> bool:
        adj = self.adj
        full = (1 << self.n) - 1
        seen = 1
        while True:
            grow = seen
            rest = seen
            while rest:
                v = rest & -rest
                grow |= adj[v.bit_length() - 1]
                rest ^= v
            if grow == seen:
                return seen == full
            seen = grow

    # -- derived graphs ------------------------------------------------------

    def relabel(self, perm) -> "Graph":
        """perm[old] = new vertex id."""
        n = self.n
        if sorted(perm) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {perm!r}")
        rows = [0] * n
        for v, row in enumerate(self.adj):
            new_row = 0
            while row:
                low = row & -row
                new_row |= 1 << perm[low.bit_length() - 1]
                row ^= low
            rows[perm[v]] = new_row
        return Graph._trusted(rows)

    def add_vertex(self, nbr_mask: int) -> "Graph":
        n = self.n
        if n == MAX_VERTICES:
            raise ValueError(f"a graph holds at most {MAX_VERTICES} vertices")
        if not 0 <= nbr_mask < (1 << n):
            raise ValueError(f"neighbor mask {nbr_mask} outside 0..2^{n} - 1")
        rows = [row | (((nbr_mask >> v) & 1) << n) for v, row in enumerate(self.adj)]
        rows.append(nbr_mask)
        return Graph._trusted(rows)

    def induced_subgraph(self, vertices) -> "Graph":
        vertices = sorted(vertices)
        pos = {v: i for i, v in enumerate(vertices)}
        rows = []
        for v in vertices:
            row = 0
            for u in vertices:
                if (self.adj[v] >> u) & 1:
                    row |= 1 << pos[u]
            rows.append(row)
        return Graph(rows)

    def local_complement(self, v: int) -> "Graph":
        """Toggle all edges among the neighbors of v."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")
        nbrs = self.adj[v]
        rows = list(self.adj)
        rest = nbrs
        while rest:
            low = rest & -rest
            rows[low.bit_length() - 1] ^= nbrs ^ low
            rest ^= low
        return Graph._trusted(rows)

    # -- short cycles --------------------------------------------------------

    def has_triangle(self) -> bool:
        for u, v in self.edges():
            if self.adj[u] & self.adj[v]:
                return True
        return False

    def has_four_cycle(self) -> bool:
        for v in range(self.n):
            for u in range(v):
                common = self.adj[u] & self.adj[v]
                if common.bit_count() >= 2:
                    return True
        return False

    def girth_exceeds_four(self) -> bool:
        return not self.has_triangle() and not self.has_four_cycle()

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self):
        return hash(self.adj)

    def __repr__(self):
        return f"Graph({self.n}, {self.edges()})"


@dataclass(frozen=True)
class VertexPartition:
    """Disjoint split V1 | V2 | V3 | V4 of the vertex set (as bitmasks).

    V1 holds the degree-one vertices, V2 their neighbors, V3 the other
    vertices all of whose neighbors lie in V2, V4 the rest.  For the
    two-vertex complete graph V1 absorbs both endpoints and V2 is empty,
    keeping the four sets disjoint.
    """

    v1: int
    v2: int
    v3: int
    v4: int


def vertex_partition(g: Graph) -> VertexPartition:
    v1 = 0
    for v in range(g.n):
        if g.degree(v) == 1:
            v1 |= 1 << v
    v2 = 0
    v = 0
    while v1 >> v:
        if (v1 >> v) & 1:
            v2 |= g.adj[v]
        v += 1
    v2 &= ~v1
    v3 = 0
    for v in range(g.n):
        if (v1 >> v) & 1 or (v2 >> v) & 1:
            continue
        if g.adj[v] and g.adj[v] & ~v2 == 0:
            v3 |= 1 << v
    v4 = ((1 << g.n) - 1) & ~(v1 | v2 | v3)
    return VertexPartition(v1=v1, v2=v2, v3=v3, v4=v4)


def bar_graph(g: Graph) -> tuple[Graph | None, tuple[int, ...]]:
    """Delete every degree-one vertex, once, simultaneously.

    Returns (residual graph, kept original vertex ids); the graph is None
    when fewer than two vertices survive (the degenerate case).  For a
    connected input the residual is connected: no path between surviving
    vertices ever visits a degree-one vertex.
    """
    keep = [v for v in range(g.n) if g.degree(v) != 1]
    if len(keep) < 2:
        return None, tuple(keep)
    return g.induced_subgraph(keep), tuple(keep)


# -- interchange formats ------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse '1-2,2-3,...' with 1-based labels; n is the largest label."""
    pairs = []
    labels = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty edge entry")
        parts = chunk.split("-")
        if len(parts) != 2:
            raise ValueError(f"bad edge {chunk!r}, expected 'a-b'")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"bad vertex label in {chunk!r}") from exc
        if a < 1 or b < 1:
            raise ValueError(f"labels are 1-based, got {chunk!r}")
        if a == b:
            raise ValueError(f"self-loop {chunk!r}")
        pairs.append((a - 1, b - 1))
        labels.extend((a, b))
    n = max(labels)
    if n > MAX_VERTICES:
        raise ValueError(f"{n} vertices exceeds the {MAX_VERTICES}-vertex limit")
    return Graph.from_edges(n, pairs)


def to_graph6(g: Graph) -> str:
    """graph6 text for n <= 62: header byte n+63, then the upper triangle
    in column order, 6 bits per printable byte, zero padded."""
    n = g.n
    if n > 62:
        raise CapabilityError(f"graph6 output is capped at 62 vertices, not {n}")
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append((g.adj[u] >> v) & 1)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(n + 63)]
    for i in range(0, len(bits), 6):
        group = 0
        for b in bits[i:i + 6]:
            group = (group << 1) | b
        out.append(chr(group + 63))
    return "".join(out)


def from_graph6(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise ValueError("empty graph6 string")
    codes = [ord(c) - 63 for c in s]
    if any(c < 0 or c > 63 for c in codes):
        raise ValueError(f"invalid graph6 byte in {text!r}")
    n = codes[0]
    if n > 62:
        raise ValueError("multi-byte graph6 headers are not supported")
    if n < 1:
        raise ValueError("graph6 order must be at least 1")
    need = (n * (n - 1) // 2 + 5) // 6
    body = codes[1:]
    if len(body) != need:
        raise ValueError(f"graph6 body length {len(body)}, expected {need}")
    bits = []
    for c in body:
        for k in range(5, -1, -1):
            bits.append((c >> k) & 1)
    rows = [0] * n
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            i += 1
    return Graph(rows)
