"""The four benchmark workloads.

A workload has three parts:

* ``setup(pkg, seed)`` builds the inputs from the seed;
* ``run_round(pkg, inputs, ops)`` makes one whole round of operations,
  each a call to a top-level public function made through ``ops``;
* ``check(inputs, outputs)`` compares the outputs of every round against
  the oracles and returns a list of problems (empty when correct).

Functions are looked up on the package at call time, never cached in the
inputs, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time

import oracles

# -- the operation log -----------------------------------------------------


class OpLog:
    """Counts and times the operations of a run.

    ``latencies`` holds the principal operations only: the call a user of
    that workload waits on (see README.md).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latencies: list[float] = []

    def call(self, fn, *args, principal: bool = True):
        """Run one operation; a raised exception counts it as failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # any fault of the program is a failed op
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        if principal:
            self.latencies.append(time.perf_counter() - t0)
        return out


# -- census8: run_census(8) ---------------------------------------------------

CENSUS_N = 8
CONNECTED_GRAPHS_8 = 11117  # OEIS A001349
LC_CLASSES_8 = 101  # Danielsen & Parker, arXiv:math/0504522


def census_setup(pkg, seed):
    return None


def census_round(pkg, inputs, ops):
    return ops.call(pkg.run_census, CENSUS_N, 1)


def census_check(inputs, outputs):
    problems = []
    for report in outputs:
        if report is None:
            continue
        if report.graphs_seen != CONNECTED_GRAPHS_8:
            problems.append(f"census8: {report.graphs_seen} graphs, "
                            f"want {CONNECTED_GRAPHS_8}")
        if report.class_count != LC_CLASSES_8:
            problems.append(f"census8: {report.class_count} classes, "
                            f"want {LC_CLASSES_8}")
        if sum(r.orbit_size for r in report.records) != report.graphs_seen:
            problems.append("census8: orbit sizes do not sum to the graphs seen")
        beyond = 0
        for rec in report.records:
            want = oracles.msc_oracle(oracles.decode_graph6(rec.rep_g6))
            if rec.delta != want["delta"]:
                problems.append(f"census8: {rec.rep_g6} delta {rec.delta}, "
                                f"brute force {want['delta']}")
            if (rec.msc, rec.s_eq_m) != (want["msc"], want["s_eq_m"]):
                problems.append(f"census8: {rec.rep_g6} MSC / S=M verdict "
                                "disagrees with the rank oracle")
            beyond += rec.delta > 2 and not rec.msc
        if beyond:
            problems.append(f"census8: {beyond} classes with delta > 2 fail "
                            "the MSC; the paper has none up to n = 8")
    return problems


# -- construct: construct_lc on a seeded LU-instance corpus -----------------

SEEDS_PER_GRAPH = 5


def construct_setup(pkg, seed):
    """The acceptance corpus (trees n <= 10, C5..C12, the 5-vertex
    example) with SEEDS_PER_GRAPH seeded instances per graph."""
    graphs = []
    for n in range(1, 11):
        graphs.extend(pkg.generate_trees(n))
    graphs.extend(pkg.Graph.cycle(k) for k in range(5, 13))
    graphs.append(pkg.Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4)]))
    rng = random.Random(f"construct:{seed}")
    return [pkg.generate_instance(g, seed=rng.randrange(1 << 31),
                                  num_phase_pairs=1 + j % 3,
                                  use_base_clifford=bool(j % 2))
            for g in graphs for j in range(SEEDS_PER_GRAPH)]


def construct_round(pkg, instances, ops):
    return [ops.call(pkg.construct_lc, inst.graph, inst.s_prime, inst.u)
            for inst in instances]


def construct_check(instances, outputs):
    problems = []
    for results in outputs:
        for inst, res in zip(instances, results):
            if res is None:
                continue
            mats = [f.matrix for f in res.k.factors]
            if not oracles.stabilizes(list(inst.graph.adj),
                                      inst.s_prime.generators, mats):
                problems.append("construct: witness for "
                                f"{oracles.encode_graph6(list(inst.graph.adj))} "
                                f"(seed {inst.trace['seed']}) fails the dense check")
    return problems


# -- analyze: the analyze subcommand at n = 16..18 ----------------------------


def _random_rows(n, p, min_degree, rng):
    while True:
        rows = [0] * n
        for v in range(n):
            for u in range(v):
                if rng.random() < p:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        if (oracles.is_connected(rows)
                and min(r.bit_count() for r in rows) >= min_degree):
            return rows


def analyze_graphs():
    """The fixed graphs, before the seed relabels them.  The random ones
    come from constant seeds so each run does the same work; at this
    commit two are tagged MSC, one Open and one Delta2BarMSC.  Most calls
    take 1 to 3 s, so the median latency falls among calls of like size."""
    return [
        oracles.cycle_rows(16),
        oracles.cycle_rows(17),
        oracles.cycle_rows(18),
        oracles.path_rows(16),
        oracles.path_rows(17),
        _random_rows(16, 0.3, 2, random.Random("analyze:16")),
        _random_rows(16, 0.2, 2, random.Random("analyze:16b")),
        _random_rows(17, 0.12, 1, random.Random("analyze:17")),
        _random_rows(17, 0.12, 1, random.Random("analyze:17b")),
    ]


def analyze_setup(pkg, seed):
    rng = random.Random(f"analyze:{seed}")
    out = []
    for rows in analyze_graphs():
        perm = list(range(len(rows)))
        rng.shuffle(perm)
        out.append(oracles.relabel(rows, perm))
    return out


def _cli_analyze(pkg, graph6):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pkg.cli.main(["analyze", "--graph6", graph6])
    if code != 0:
        raise RuntimeError(f"analyze exited with code {code}")
    return json.loads(buf.getvalue())["results"]


def analyze_round(pkg, graphs, ops):
    return [ops.call(_cli_analyze, pkg, oracles.encode_graph6(rows))
            for rows in graphs]


def analyze_check(graphs, outputs):
    problems = []
    want = [oracles.msc_oracle(rows) for rows in graphs]
    for results in outputs:
        for rows, ref, got in zip(graphs, want, results):
            if got is None:
                continue
            g6 = oracles.encode_graph6(rows)
            if got["graph6"] != g6:
                problems.append(f"analyze: echoed {got['graph6']} for {g6}")
            for key in ("delta", "msc", "letters", "s_eq_m"):
                if got[key] != ref[key]:
                    problems.append(f"analyze: {g6} {key} = {got[key]}, "
                                    f"oracle {ref[key]}")
            if (oracles.girth_exceeds_four(rows)
                    and got["tag"] not in ("MainTheorem", "GHZ")):
                problems.append(f"analyze: {g6} has girth > 4 but tag {got['tag']}")
    return problems


# -- rm5: the [[31, 1, 3]] punctured Reed-Muller states -----------------------

RM_M = 5
RM_N, RM_K = 31, 1
RM_DELTA = {"zero": 3, "plus": 4}  # the paper's values


def rm5_setup(pkg, seed):
    return None


def rm5_round(pkg, inputs, ops):
    css = ops.call(pkg.build_css, RM_M, principal=False)
    out = {"css": css, "twc": []}
    for choice in ("zero", "plus"):
        s = ops.call(pkg.logical_state_stabilizer, css, choice, principal=False)
        # a lambda, so that a failed set-up call counts this one as failed
        delta = ops.call(lambda: s.distance())
        reduced = ops.call(pkg.stabilizer_to_graph, s, principal=False)
        out[choice] = (s, delta, reduced)
    for m in range(3, RM_M + 1):
        out["twc"].append(ops.call(pkg.transversal_weight_check, m,
                                   principal=False))
    return out


def rm5_check(inputs, outputs):
    problems = []
    for out in outputs:
        css = out["css"]
        if css is not None and (css.n, css.k) != (RM_N, RM_K):
            problems.append(f"rm5: code has n, k = {css.n}, {css.k}")
        for choice, want in RM_DELTA.items():
            s, delta, reduced = out[choice]
            if delta is not None and delta != want:
                problems.append(f"rm5: {choice} distance {delta}, want {want}")
            if s is not None and reduced is not None:
                g, c = reduced
                if not oracles.reduces_to_graph(
                        s.generators, list(g.adj), [f.matrix for f in c.factors]):
                    problems.append(f"rm5: {choice} graph form fails the check")
        if any(ok is not True for ok in out["twc"] if ok is not None):
            problems.append("rm5: transversal weight check does not hold")
    return problems


WORKLOADS = {
    "census8": (census_setup, census_round, census_check),
    "construct": (construct_setup, construct_round, construct_check),
    "analyze": (analyze_setup, analyze_round, analyze_check),
    "rm5": (rm5_setup, rm5_round, rm5_check),
}
