"""Command-line frontend.

Subcommands: analyze, census, rm, construct-lc, gen-instance, verify.
Machine output is a JSON envelope on stdout; human summaries go to
stderr.  Exit codes are a stable contract:

    0  success / verdict true
    1  verdict false
    2  input parse error, or input the library rejects with ValueError
    3  capability limit (size, orbit cap)
    4  local-unitary inconsistency while constructing
    5  unsupported graph class

GRAPHCLIF_ORBIT_CAP overrides the orbit-size cap used by class keys.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import __version__
from .canon import OrbitCapExceeded
from .census import (beyond_msc, bound_violation, classify_lc_classes,
                     msc_without_equality, run_census, scan)
from .cliffords import LocalCliffordOp, clifford_by_name
from .construct import (CapabilityError, Fact1Error, LUInstance,
                        UnsupportedClassError, construct_lc,
                        generate_instance, verify_lc)
from .graphs import (Graph, from_graph6, parse_edge_list, to_graph6,
                     vertex_partition)
from .graphstates import (classify_theorem, stabilizer_to_graph,
                          standard_generators)
from .rmcodes import (build_css, css_distance, logical_state_stabilizer,
                      punctured_rm1, transversal_weight_check)
from .stabilizer import FULL_PROFILE_LIMIT, is_even_code, msc_check

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_PARSE = 2
EXIT_CAPABILITY = 3
EXIT_FACT1 = 4
EXIT_UNSUPPORTED = 5

SCHEMA = 1


class ParseFailure(ValueError):
    pass


def _envelope(command: str, inputs: dict, results: dict, t0: float) -> str:
    doc = {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "inputs": inputs,
        "results": results,
        "timing_s": round(time.monotonic() - t0, 3),
    }
    return json.dumps(doc, indent=2)


def _parse_graph(args) -> tuple[Graph, dict]:
    try:
        if args.graph6 is not None:
            return from_graph6(args.graph6), {"graph6": args.graph6}
        return parse_edge_list(args.edges), {"edges": args.edges}
    except (ValueError, IndexError) as exc:
        raise ParseFailure(f"bad graph input: {exc}") from exc


def _mask_vertices(mask: int) -> list:
    return [v + 1 for v in range(mask.bit_length()) if (mask >> v) & 1]


def cmd_analyze(args) -> int:
    t0 = time.monotonic()
    g, echoed = _parse_graph(args)
    if g.n > FULL_PROFILE_LIMIT:
        raise CapabilityError(
            f"analyze needs the full support profile (n <= {FULL_PROFILE_LIMIT})")
    s = standard_generators(g)
    part = vertex_partition(g)
    cls = classify_theorem(g)
    results = {
        "n": g.n,
        "graph6": to_graph6(g),
        "delta": s.distance(),
        "partition": {
            "V1": _mask_vertices(part.v1), "V2": _mask_vertices(part.v2),
            "V3": _mask_vertices(part.v3), "V4": _mask_vertices(part.v4),
        },
        "has_triangle": g.has_triangle(),
        "has_four_cycle": g.has_four_cycle(),
        "msc": cls.msc.passed,
        "letters": ["".join(sorted(lset)) for lset in cls.msc.letters],
        "s_eq_m": cls.msc.s_eq_m,
        "even_code": is_even_code(s),
        "tag": cls.tag,
        "satisfied": list(cls.satisfied),
    }
    print(_envelope("analyze", echoed, results, t0))
    return EXIT_OK


_FILTERS = {
    "beyond-msc": lambda n: beyond_msc,
    "msc-sne-m": lambda n: msc_without_equality,
    "bound-violation": lambda n: (lambda r: bound_violation(r, n)),
}


def cmd_census(args) -> int:
    t0 = time.monotonic()
    inputs = {"jobs": args.jobs}
    if args.infile:
        inputs["in"] = args.infile
        try:
            with open(args.infile) as f:
                graphs = [from_graph6(line.strip()) for line in f
                          if line.strip()]
        except (OSError, ValueError) as exc:
            raise ParseFailure(f"bad graph6 input: {exc}") from exc
        if not graphs:
            raise ParseFailure("empty graph6 stream")
        n = graphs[0].n
        for i, g in enumerate(graphs, 1):
            if g.n != n:
                raise ParseFailure(
                    f"graph {i} has {g.n} vertices, the first has {n}")
            if not g.is_connected():
                raise ParseFailure(f"graph {i} is not connected")
        report = classify_lc_classes(iter(graphs), n, args.jobs)
    else:
        n = args.n
        inputs["n"] = n
        report = run_census(n, jobs=args.jobs)

    results = json.loads(report.to_json())
    if args.filter:
        pred = _FILTERS[args.filter](n)
        results["filtered"] = {
            "predicate": args.filter,
            "records": [r.as_dict() for r in scan(report, pred)],
        }
        inputs["filter"] = args.filter
    out = _envelope("census", inputs, results, t0)
    if args.out:
        with open(args.out, "w") as f:
            f.write(out + "\n")
    else:
        print(out)
    print(report.summary_table(), file=sys.stderr)
    return EXIT_OK


def cmd_rm(args) -> int:
    t0 = time.monotonic()
    m = args.m
    c1 = punctured_rm1(m)
    c2 = c1.even_subcode()
    css = build_css(m)
    state = logical_state_stabilizer(css, args.state)

    msc = letters = None
    if state.n <= FULL_PROFILE_LIMIT:
        res = msc_check(state)
        msc = res.passed
        letters = ["".join(sorted(lset)) for lset in res.letters]
    g, _ = stabilizer_to_graph(state)

    results = {
        "m": m,
        "classical": {
            "c1": list(c1.parameters()),
            "c2": list(c2.parameters()),
            "hamming_dual": list(c2.dual().parameters()),
        },
        "css": {
            "n": css.n, "k": css.k,
            "x_rows": len(css.x_rows), "z_rows": len(css.z_rows),
            "distance": css_distance(css) if css.n <= 15 else None,
        },
        "state": {
            "choice": args.state,
            "delta": state.distance(),
            "msc": msc,
            "letters": letters,
            "graph6": to_graph6(g),
        },
        "transversal_weight_check": transversal_weight_check(m),
    }
    print(_envelope("rm", {"m": m, "state": args.state}, results, t0))
    return EXIT_OK


def cmd_gen_instance(args) -> int:
    t0 = time.monotonic()
    g, echoed = _parse_graph(args)
    echoed.update({"seed": args.seed, "pairs": args.pairs})
    inst = generate_instance(g, seed=args.seed, num_phase_pairs=args.pairs)
    doc = json.loads(inst.to_json())
    if args.out:
        with open(args.out, "w") as f:
            f.write(inst.to_json() + "\n")
        results = {"written": args.out, "trace": doc["trace"]}
    else:
        results = {"instance": doc}
    print(_envelope("gen-instance", echoed, results, t0))
    return EXIT_OK


def _load_instance(path: str) -> LUInstance:
    try:
        with open(path) as f:
            return LUInstance.from_json(f.read())
    except (OSError, ValueError) as exc:
        raise ParseFailure(f"bad instance file: {exc}") from exc


def cmd_construct_lc(args) -> int:
    t0 = time.monotonic()
    inst = _load_instance(args.instance)
    result = construct_lc(inst.graph, inst.s_prime, inst.u,
                          fallback_cap=args.cap)
    if args.out:
        with open(args.out, "w") as f:
            f.write(result.to_json() + "\n")
    results = {
        "k_names": list(result.k.names()),
        "provenance": [dict(p) for p in result.provenance],
        "verified": result.verified,
    }
    print(_envelope("construct-lc", {"instance": args.instance}, results, t0))
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    inst = _load_instance(args.instance)
    try:
        with open(args.result) as f:
            doc = json.loads(f.read())
        names = [entry["name"] for entry in doc["k"]]
        k = LocalCliffordOp(tuple(clifford_by_name(x) for x in names))
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ParseFailure(f"bad result file: {exc}") from exc
    if len(names) != inst.graph.n:
        raise ParseFailure("result qubit count does not match instance")
    ok = verify_lc(inst.graph, inst.s_prime, k, dense=args.dense)
    results = {"verified": ok, "k_names": names}
    print(_envelope("verify", {"instance": args.instance,
                               "result": args.result}, results, t0))
    return EXIT_OK if ok else EXIT_FALSE


def _add_graph_flags(p):
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--graph6", help="graph6 text")
    grp.add_argument("--edges", help="1-based edge list, e.g. 1-2,2-3")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="graphclif",
        description="Graph-state structure, LC censuses, Reed-Muller codes, "
                    "and local-Clifford reconstruction.",
        epilog="GRAPHCLIF_ORBIT_CAP caps orbit enumeration (default 10^7).")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="structure report for one graph")
    _add_graph_flags(pa)
    pa.set_defaults(func=cmd_analyze)

    pc = sub.add_parser("census", help="LC-class census")
    src = pc.add_mutually_exclusive_group(required=True)
    src.add_argument("--n", type=int, help="generate all connected graphs")
    src.add_argument("--in", dest="infile", help="graph6 lines, one per graph")
    pc.add_argument("--jobs", type=int, default=1)
    pc.add_argument("--out", help="write the JSON envelope here")
    pc.add_argument("--filter", choices=sorted(_FILTERS))
    pc.set_defaults(func=cmd_census)

    pr = sub.add_parser("rm", help="punctured Reed-Muller CSS report")
    pr.add_argument("--m", type=int, required=True, choices=(3, 4, 5))
    pr.add_argument("--state", required=True, choices=("zero", "plus"))
    pr.set_defaults(func=cmd_rm)

    pg = sub.add_parser("gen-instance",
                        help="sample a local-unitary equivalence instance")
    _add_graph_flags(pg)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--pairs", type=int, default=1,
                    help="non-Clifford phase pairs to fold in")
    pg.add_argument("--out", help="write raw instance JSON here")
    pg.set_defaults(func=cmd_gen_instance)

    pl = sub.add_parser("construct-lc",
                        help="rebuild a local-Clifford witness from an instance")
    pl.add_argument("--instance", required=True)
    pl.add_argument("--cap", type=int, default=8,
                    help="search fallback cap on unresolved qubits")
    pl.add_argument("--out", help="write raw result JSON here")
    pl.set_defaults(func=cmd_construct_lc)

    pv = sub.add_parser("verify", help="check a witness against an instance")
    pv.add_argument("--instance", required=True)
    pv.add_argument("--result", required=True)
    pv.add_argument("--dense", action="store_true",
                    help="also compare dense state vectors (n <= 12)")
    pv.set_defaults(func=cmd_verify)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first main call and kept for later ones."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CapabilityError, OrbitCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except Fact1Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FACT1
    except UnsupportedClassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ValueError as exc:
        # after its subclasses Fact1Error and UnsupportedClassError;
        # ParseFailure is one too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
