"""Censuses of connected graphs under local complementation.

Generation is orderly: a graph on k+1 vertices is kept exactly when the
appended vertex sits in the canonical-deletion orbit, so each isomorphism
class arrives once.  Classification buckets the stream by lc_class_key
and analyzes one canonical representative per class, which keeps reports
byte-identical regardless of stream order or worker count.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from .canon import (OrbitCapExceeded, canonical_form, canonical_form_colored,
                    canonical_graph, lc_orbit, wl_cell_index)
from .construct import CapabilityError
from .graphs import Graph, from_graph6, to_graph6
from .graphstates import classify_theorem, standard_generators
from .stabilizer import distance_upper_bound, is_even_code

GENERATOR_MAX_N = 11


def _accept_key(h: Graph, new_v: int):
    """Colored canonical key of (h, new_v) if new_v is a canonical-deletion
    vertex, else None.

    Deletion candidates are the non-cut vertices; the canonical one
    minimizes (equitable cell index, rooted canonical form).  The argmin
    set is a single automorphism orbit, so acceptance is well defined.
    """
    n = h.n
    full = (1 << n) - 1
    wl = wl_cell_index(h)
    my_sig = wl[new_v]

    noncut = {new_v: True}

    def eligible(v):
        if v not in noncut:
            noncut[v] = h.is_connected_within(full & ~(1 << v))
        return noncut[v]

    # cheapest reject: some eligible vertex has a strictly smaller cell index
    for v in sorted(range(n), key=lambda u: wl[u]):
        if wl[v] >= my_sig:
            break
        if eligible(v):
            return None

    my_key = canonical_form_colored(h, new_v)
    for v in range(n):
        if v != new_v and wl[v] == my_sig and eligible(v):
            if canonical_form_colored(h, v) < my_key:
                return None
    return my_key


def _children(g: Graph, leaf_only: bool):
    """Accepted one-vertex extensions of g, deduplicated per parent."""
    k = g.n
    if leaf_only:
        subsets = (1 << v for v in range(k))
    else:
        subsets = range(1, 1 << k)
    seen = set()
    out = []
    for s in subsets:
        rows = [row | (((s >> v) & 1) << k) for v, row in enumerate(g.adj)]
        rows.append(s)
        h = Graph(rows)
        key = _accept_key(h, k)
        if key is not None and key not in seen:
            seen.add(key)
            out.append(h)
    return out


def _generate(n: int, leaf_only: bool):
    if not 1 <= n <= GENERATOR_MAX_N:
        raise CapabilityError(
            f"builtin generation capped at n={GENERATOR_MAX_N}")

    def rec(g):
        if g.n == n:
            yield g
            return
        for h in _children(g, leaf_only):
            yield from rec(h)

    return rec(Graph([0]))


def generate_connected_graphs(n: int):
    """One representative per isomorphism class of connected graphs."""
    return _generate(n, leaf_only=False)


def generate_trees(n: int):
    """One representative per isomorphism class of trees."""
    return _generate(n, leaf_only=True)


@dataclass
class CensusConfig:
    n: int
    jobs: int = 1
    orbit_cap: int | None = None

    def __post_init__(self):
        assert self.n >= 1 and self.jobs >= 1


@dataclass(frozen=True)
class ClassRecord:
    key: int
    rep_g6: str
    delta: int
    msc: bool
    s_eq_m: bool
    tag: str
    orbit_size: int
    capped: bool = False

    def as_dict(self) -> dict:
        return {
            "key": self.key, "rep_g6": self.rep_g6, "delta": self.delta,
            "msc": self.msc, "s_eq_m": self.s_eq_m, "tag": self.tag,
            "orbit_size": self.orbit_size, "capped": self.capped,
        }


@dataclass
class CensusReport:
    n: int
    graphs_seen: int
    records: tuple = field(default_factory=tuple)

    @property
    def class_count(self) -> int:
        return len(self.records)

    @property
    def totals_by_delta(self) -> dict:
        c = Counter(r.delta for r in self.records)
        return dict(sorted(c.items()))

    @property
    def totals_by_tag(self) -> dict:
        c = Counter(r.tag for r in self.records)
        return dict(sorted(c.items()))

    def to_json(self) -> str:
        doc = {
            "n": self.n,
            "graphs_seen": self.graphs_seen,
            "class_count": self.class_count,
            "classes": [r.as_dict() for r in self.records],
            "totals": {"by_delta": self.totals_by_delta,
                       "by_tag": self.totals_by_tag},
        }
        return json.dumps(doc, indent=2)

    def summary_table(self) -> str:
        lines = [f"n={self.n}: {self.graphs_seen} graphs, "
                 f"{self.class_count} LC classes"]
        lines.append(f"{'key':>12} {'rep':<14} {'delta':>5} {'msc':>5} "
                     f"{'s=m':>5} {'orbit':>6}  tag")
        for r in self.records:
            lines.append(f"{r.key:>12} {r.rep_g6:<14} {r.delta:>5} "
                         f"{str(r.msc):>5} {str(r.s_eq_m):>5} "
                         f"{r.orbit_size:>6}  {r.tag}")
        return "\n".join(lines)


def _bucket_stream(graphs, n: int, orbit_cap):
    """Map a graph stream to {class_key: (count, rep_g6, orbit_size, capped)}."""
    memo = {}
    counts = Counter()
    reps = {}
    seen = 0
    for g in graphs:
        assert g.n == n, "stream holds a graph of the wrong order"
        seen += 1
        k0 = canonical_form(g)
        ck = memo.get(k0)
        if ck is None:
            try:
                orbit = lc_orbit(g, cap=orbit_cap)
                ck = min(orbit)
                for mk in orbit:
                    memo[mk] = ck
                reps[ck] = (to_graph6(orbit[ck]), len(orbit), False)
            except OrbitCapExceeded:
                # flagged: provisional key, unknown orbit size
                ck = k0
                memo[k0] = ck
                reps[ck] = (to_graph6(canonical_graph(g)), 0, True)
        counts[ck] += 1
    return counts, reps, seen


def _worker(args):
    g6_lines, n, orbit_cap = args
    counts, reps, seen = _bucket_stream(
        (from_graph6(s) for s in g6_lines), n, orbit_cap)
    return dict(counts), reps, seen


def classify_lc_classes(graphs, config: CensusConfig) -> CensusReport:
    if config.jobs == 1:
        counts, reps, seen = _bucket_stream(graphs, config.n, config.orbit_cap)
    else:
        import multiprocessing as mp
        chunks = [[] for _ in range(config.jobs)]
        for i, g in enumerate(graphs):
            chunks[i % config.jobs].append(to_graph6(g))
        with mp.Pool(config.jobs) as pool:
            parts = pool.map(_worker, [(c, config.n, config.orbit_cap)
                                       for c in chunks])
        counts, reps, seen = Counter(), {}, 0
        for pc, pr, ps in parts:
            counts.update(pc)
            seen += ps
            for ck, rec in pr.items():
                if ck in reps:
                    assert reps[ck] == rec, "nondeterministic class record"
                reps[ck] = rec

    records = []
    for ck in sorted(reps):
        rep_g6, orbit_size, capped = reps[ck]
        rep = from_graph6(rep_g6)
        cls = classify_theorem(rep)
        records.append(ClassRecord(
            key=ck, rep_g6=rep_g6,
            delta=standard_generators(rep).distance(),
            msc=cls.msc.passed, s_eq_m=cls.msc.s_eq_m, tag=cls.tag,
            orbit_size=orbit_size, capped=capped))
    return CensusReport(n=config.n, graphs_seen=seen, records=tuple(records))


def run_census(n: int, jobs: int = 1, orbit_cap: int | None = None) -> CensusReport:
    """Full builtin census; checks the orbit sizes tile the whole stream."""
    config = CensusConfig(n=n, jobs=jobs, orbit_cap=orbit_cap)
    report = classify_lc_classes(generate_connected_graphs(n), config)
    if not any(r.capped for r in report.records):
        covered = sum(r.orbit_size for r in report.records)
        assert covered == report.graphs_seen, (
            "orbit closure does not tile the census stream")
    return report


# -- scanning ---------------------------------------------------------------

def beyond_msc(record: ClassRecord) -> bool:
    return record.delta > 2 and not record.msc


def msc_without_equality(record: ClassRecord) -> bool:
    return record.msc and not record.s_eq_m


def bound_violation(record: ClassRecord, n: int) -> bool:
    """delta above the applicable cap; evenness is class-invariant, so the
    representative decides it for the whole class."""
    even = is_even_code(standard_generators(from_graph6(record.rep_g6)))
    return record.delta > distance_upper_bound(n, even_code=even)


def scan(report: CensusReport, predicate) -> tuple:
    """Records matching a predicate(record) -> bool."""
    return tuple(r for r in report.records if predicate(r))
