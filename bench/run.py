"""graphclif benchmark: one command, four workloads, untraced or traced.

    python3 bench/run.py --workload construct --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; the package is imported from ./src.  One
run sets up SETUP_REPEATS times (a fresh import of the package plus the
workload's inputs), then makes whole rounds of operations, one client
calling sequentially, as long as the next round is expected to end
within --seconds (always at least one), then checks every output against
the oracles in oracles.py.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 makes one untraced
round, then sets up again under the tracer and makes one traced round,
and reports the per-layer metrics of the traced round plus the tracing
overhead.  Results and span dumps go to bench/out/.  ``--workload all``
runs each workload in its own child process, one after another.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3

sys.path.insert(0, str(BENCH_DIR))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms"}


def fresh_import():
    """Import graphclif (and its CLI) from scratch; returns (package, s)."""
    for name in [m for m in sys.modules
                 if m == "graphclif" or m.startswith("graphclif.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    pkg = importlib.import_module("graphclif")
    importlib.import_module("graphclif.cli")
    elapsed = time.perf_counter() - t0
    if Path(pkg.__file__).resolve().parent != SRC / "graphclif":
        raise SystemExit(f"graphclif was imported from {pkg.__file__}, "
                         f"not from {SRC}")
    return pkg, elapsed


def run_rounds(run_round, pkg, inputs, ops, seconds):
    """Whole rounds while the next one should end within seconds."""
    walls, outputs = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outputs.append(run_round(pkg, inputs, ops))
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + walls[-1] > seconds:
            return walls, outputs


def untraced(name, seed, seconds):
    setup, run_round, check = workloads.WORKLOADS[name]
    setups = []
    for _ in range(SETUP_REPEATS):
        pkg, import_s = fresh_import()
        t0 = time.perf_counter()
        inputs = setup(pkg, seed)
        setups.append(import_s + time.perf_counter() - t0)
    ops = workloads.OpLog()
    walls, outputs = run_rounds(run_round, pkg, inputs, ops, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_mb,
        "op_p50_ms": 1000.0 * statistics.median(ops.latencies or [0.0]),
    }
    return ops, check(inputs, outputs), {k: (v, UNITS[k]) for k, v in metrics.items()}


def traced(name, seed):
    setup, run_round, check = workloads.WORKLOADS[name]
    ops = workloads.OpLog()
    # both rounds follow a fresh import and set-up, so each starts with
    # the program's caches empty
    pkg, _ = fresh_import()
    inputs = setup(pkg, seed)
    t0 = time.perf_counter()
    outputs = [run_round(pkg, inputs, ops)]
    plain_s = time.perf_counter() - t0
    problems = check(inputs, outputs)

    pkg, _ = fresh_import()
    tracer = tracing.Tracer()
    tracer.install()
    inputs = setup(pkg, seed)
    setup_end = tracer.span_count
    tracer.counters.clear()
    t0 = time.perf_counter()
    outputs = [run_round(pkg, inputs, ops)]
    traced_s = time.perf_counter() - t0
    tracer.uninstall()
    problems += check(inputs, outputs)

    # instances are generated during set-up only
    setup_layers = tracer.layer_totals(0, setup_end)
    layers = tracer.layer_totals(setup_end)
    metrics = {}
    for span in tracing.SPANS:
        source = setup_layers if span == "construct.generate_instance" else layers
        calls, self_s, _ = source.get(span, (0, 0.0, 0.0))
        metrics[span + ".calls"] = (calls, "count")
        metrics[span + ".self_s"] = (self_s, "s")
    for key in tracing.COUNTS:
        metrics[key] = (tracer.counters[key], "count")

    def total(span):
        return layers.get(span, (0, 0.0, 0.0))[2]

    graphs = tracer.counters["census.generate.graphs"]
    orbits = layers.get("canon.lc_orbit", (0,))[0]
    metrics["census.orbit_memo_hit_ratio"] = (
        1.0 - orbits / graphs if graphs else 0.0, "ratio")
    # the per-class phase: the classification minus its bucketing child
    metrics["census.class_analysis.total_s"] = (
        total("census.class_analysis") - total("census.bucket_stream"), "s")
    elements = tracer.counters["stabilizer.distance.group_elements"]
    metrics["stabilizer.distance.elements_per_s"] = (
        elements / total("stabilizer.distance")
        if total("stabilizer.distance") else 0.0, "1/s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.spans"] = (tracer.span_count - setup_end, "count")

    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{name}-seed{seed}.npz")
    return ops, problems, metrics


def report(name, seed, seconds, trace):
    problems = oracles.self_check()
    if trace:
        ops, found, metrics = traced(name, seed)
    else:
        ops, found, metrics = untraced(name, seed, seconds)
    problems += found
    for line in problems[:20] + ops.errors[:20]:
        print(line, file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{name} {key:<44} {value:>16.6f} {unit}")
    print(f"{name} attempted {ops.attempted} failed {ops.failed} "
          f"correct {not problems}")
    result = {
        "correct": not problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own process, so peak memory is its own."""
    summary = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "graphclif" / "__init__.py").is_file():
        raise SystemExit(f"no graphclif sources under {SRC}; run from a "
                         "checkout of the repository")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        run_all(args)
    else:
        report(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
