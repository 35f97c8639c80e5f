"""Censuses of connected graphs under local complementation.

Every connected graph on n vertices is LC-equivalent to a representative
of an (n - 1)-vertex class with one vertex added (Danielsen & Parker,
arXiv:math/0504522): delete a non-cut vertex, carry what is left to the
representative by local complementations at old vertices, and those act
on the old vertices as they act on the smaller graph.  So run_census
closes the LC orbits of those extensions, level by level from the single
vertex, and analyzes the classes of the last level only.  Classification
buckets a stream by lc_class_key and analyzes one canonical
representative per class, which keeps reports byte-identical regardless
of stream order or worker count.

The graph generators extend every graph of the previous level by one
vertex too, and keep the first graph per canonical form; they hold one
whole level in memory.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace

from .canon import (OrbitCapExceeded, canonical_form, canonical_graph,
                    lc_orbit)
from .errors import CapabilityError
from .graphs import Graph, from_graph6, to_graph6
from .graphstates import classify_theorem, standard_generators
from .stabilizer import distance_upper_bound, is_even_code

GENERATOR_MAX_N = 11


def _check_order(n: int) -> None:
    if n < 1:
        raise ValueError(f"graph order must be at least 1, got {n}")
    if n > GENERATOR_MAX_N:
        raise CapabilityError(
            f"builtin generation capped at n={GENERATOR_MAX_N}")


def _generate(n: int, leaf_only: bool):
    _check_order(n)

    def levels():
        level = [Graph([0])]
        for k in range(1, n):
            masks = [1 << v for v in range(k)] if leaf_only else range(1, 1 << k)
            kept = {}
            for g in level:
                for s in masks:
                    h = g.add_vertex(s)
                    kept.setdefault(canonical_form(h), h)
            level = list(kept.values())
        yield from level

    return levels()


def generate_connected_graphs(n: int):
    """One representative per isomorphism class of connected graphs."""
    return _generate(n, leaf_only=False)


def generate_trees(n: int):
    """One representative per isomorphism class of trees."""
    return _generate(n, leaf_only=True)


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
    """Map a graph stream to ({class_key: (rep_g6, orbit_size, capped)},
    number of graphs seen)."""
    memo = {}
    reps = {}
    seen = 0
    for g in graphs:
        if g.n != n:
            raise ValueError(
                f"stream holds a graph on {g.n} vertices, expected {n}")
        seen += 1
        k0 = canonical_form(g)
        if k0 in memo:
            continue
        try:
            orbit = lc_orbit(g, cap=orbit_cap)
            ck = min(orbit)
            for mk in orbit:
                memo[mk] = ck
            reps[ck] = (to_graph6(orbit[ck]), len(orbit), False)
        except OrbitCapExceeded:
            # flagged: provisional key, unknown orbit size
            memo[k0] = k0
            reps[k0] = (to_graph6(canonical_graph(g)), 0, True)
    return reps, seen


def _worker(args):
    g6_lines, n, orbit_cap = args
    return _bucket_stream((from_graph6(s) for s in g6_lines), n, orbit_cap)


def _bucket(graphs, n: int, jobs: int, orbit_cap):
    """_bucket_stream over jobs workers taking the stream round-robin."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs == 1:
        return _bucket_stream(graphs, n, orbit_cap)
    import multiprocessing as mp
    chunks = [[] for _ in range(jobs)]
    for i, g in enumerate(graphs):
        chunks[i % jobs].append(to_graph6(g))
    with mp.Pool(jobs) as pool:
        parts = pool.map(_worker, [(c, n, orbit_cap) for c in chunks])
    reps, seen = {}, 0
    for pr, ps in parts:
        seen += ps
        for ck, rec in pr.items():
            if ck in reps:
                assert reps[ck] == rec, "nondeterministic class record"
            reps[ck] = rec
    return reps, seen


def classify_lc_classes(graphs, n: int, jobs: int = 1,
                        orbit_cap: int | None = None) -> CensusReport:
    """LC classes of a stream of connected graphs on n vertices; jobs
    workers take the stream round-robin."""
    if n < 1:
        raise ValueError(f"graph order must be at least 1, got {n}")
    reps, seen = _bucket(graphs, n, jobs, orbit_cap)
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
    return CensusReport(n=n, graphs_seen=seen, records=tuple(records))


def _extensions(reps: dict, k: int):
    """Every one-vertex extension of each k-vertex class representative,
    by class key."""
    for ck in sorted(reps):
        rep = from_graph6(reps[ck][0])
        for s in range(1, 1 << k):
            yield rep.add_vertex(s)


def run_census(n: int, jobs: int = 1, orbit_cap: int | None = None) -> CensusReport:
    """LC classes of all connected graphs on n vertices.

    Each level buckets the one-vertex extensions of the previous level's
    representatives; only the last level's classes are analyzed.
    graphs_seen is the sum of the orbit sizes: every connected graph
    once, unless an orbit hit the cap (a capped class counts 0).
    """
    _check_order(n)
    stream = [Graph([0])]
    for k in range(1, n):
        reps, _ = _bucket(stream, k, jobs, orbit_cap)
        stream = _extensions(reps, k)
    report = classify_lc_classes(stream, n, jobs, orbit_cap)
    return replace(report,
                   graphs_seen=sum(r.orbit_size for r in report.records))


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
