"""Layer tracing from outside the program.

The tracer replaces public functions of the graphclif modules with timing
wrappers.  A function is replaced at every module attribute that refers
to it (its home module, the package namespace and every module that
imported it by name), so calls the program makes internally are caught
too: wrapping ``canon.canonical_labeling`` also times the calls made by
``canonical_form``, ``canonical_graph`` and ``lc_orbit``.  Methods are
wrapped on their class, which every caller shares.

Each wrapped call records one span (name, start, end, parent) in flat
arrays held in memory; ``dump`` writes them out once the run ends.  A
span's self time is its duration minus the durations of its direct
children.  A few wrappers also count work as it passes through: orbit
members returned, group elements streamed, graphs generated, and the
rule that settled each qubit of a ``construct_lc`` result.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, function, span name): plain functions, replaced at every
# module attribute of the package that refers to them.
FUNCTIONS = [
    ("graphclif.canon", "canonical_labeling", "canon.canonical_labeling"),
    ("graphclif.canon", "wl_cell_index", "canon.wl_cell_index"),
    ("graphclif.canon", "lc_orbit", "canon.lc_orbit"),
    ("graphclif.census", "run_census", "census.run_census"),
    ("graphclif.census", "_bucket_stream", "census.bucket_stream"),
    # the classification minus its bucket_stream child is the per-class
    # analysis loop
    ("graphclif.census", "classify_lc_classes", "census.class_analysis"),
    ("graphclif.stabilizer", "msc_check", "stabilizer.msc_check"),
    ("graphclif.stabilizer", "s_equals_m", "stabilizer.s_equals_m"),
    ("graphclif.stabilizer", "minimal_subgroup", "stabilizer.minimal_subgroup"),
    ("graphclif.cliffords", "pauli_match", "cliffords.pauli_match"),
    ("graphclif.cliffords", "is_clifford", "cliffords.is_clifford"),
    ("graphclif.cliffords", "conjugate_stabilizer", "cliffords.conjugate_stabilizer"),
    ("graphclif.graphstates", "classify_theorem", "graphstates.classify_theorem"),
    ("graphclif.graphstates", "is_ghz_class", "graphstates.is_ghz_class"),
    ("graphclif.graphstates", "stabilizer_to_graph", "graphstates.stabilizer_to_graph"),
    ("graphclif.construct", "construct_lc", "construct.construct_lc"),
    ("graphclif.construct", "verify_lc", "construct.verify_lc"),
    ("graphclif.construct", "generate_instance", "construct.generate_instance"),
    ("graphclif.rmcodes", "build_css", "rmcodes.build_css"),
    ("graphclif.rmcodes", "transversal_weight_check", "rmcodes.transversal_weight_check"),
    ("graphclif.cli", "main", "cli.main"),
]

# (module, class, method, span name)
METHODS = [
    ("graphclif.graphs", "Graph", "__init__", "graphs.Graph"),
    ("graphclif.graphs", "Graph", "local_complement", "graphs.local_complement"),
    ("graphclif.stabilizer", "StabilizerGroup", "__init__", "stabilizer.StabilizerGroup"),
    ("graphclif.stabilizer", "StabilizerGroup", "distance", "stabilizer.distance"),
    ("graphclif.stabilizer", "StabilizerGroup", "support_counts", "stabilizer.support_counts"),
]

# Generators are not spans (their time interleaves with the consumer's);
# the orderly graph generators get one span per graph produced instead.
GENERATE_SPAN = "census.generate"
GENERATORS = [
    ("graphclif.census", "generate_connected_graphs"),
    ("graphclif.census", "generate_trees"),
]

SPANS = ([span for _, _, span in FUNCTIONS]
         + [span for _, _, _, span in METHODS] + [GENERATE_SPAN])

# counts taken by the wrappers as work passes through
COUNTS = [
    "canon.lc_orbit.members",
    "census.generate.graphs",
    "stabilizer.enumerate_elements.calls",
    "stabilizer.enumerate_elements.elements",
    "stabilizer.distance.group_elements",
    "construct.route.copied",
    "construct.route.block",
    "construct.route.search",
]


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def _timed(self, fn, name: str, after=None):
        """fn wrapped so each call records a span; after(result) may count."""
        name_id = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _generate_spans(self, gen_fn):
        """A graph generator whose every next() is a census.generate span."""
        counters = self.counters

        def spans(inner):
            step = self._timed(inner.__next__, GENERATE_SPAN)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                counters["census.generate.graphs"] += 1
                yield item

        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            return spans(gen_fn(*args, **kwargs))

        return wrapper

    def _counting_elements(self, gen_fn):
        counters = self.counters

        def counted(inner):
            seen = 0
            try:
                for item in inner:
                    seen += 1
                    yield item
            finally:
                counters["stabilizer.enumerate_elements.elements"] += seen

        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            counters["stabilizer.enumerate_elements.calls"] += 1
            return counted(gen_fn(*args, **kwargs))

        return wrapper

    # -- per-function counters ----------------------------------------------

    def _count_orbit(self, args, orbit):
        self.counters["canon.lc_orbit.members"] += len(orbit)

    def _count_elements(self, args, _result):
        self.counters["stabilizer.distance.group_elements"] += 1 << args[0].k

    def _count_routes(self, args, result):
        for entry in result.provenance:
            self.counters["construct.route." + entry["rule"]] += 1

    # -- installing -------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _replace_everywhere(self, original, replacement):
        """Point every package module attribute that holds original at
        replacement."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "graphclif" and not mod_name.startswith("graphclif."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def install(self):
        """Wrap every traced function of the package imported now."""
        after = {
            "canon.lc_orbit": self._count_orbit,
            "stabilizer.distance": self._count_elements,
            "construct.construct_lc": self._count_routes,
        }
        for mod_name, fn_name, span in FUNCTIONS:
            original = getattr(sys.modules[mod_name], fn_name)
            self._replace_everywhere(
                original, self._timed(original, span, after.get(span)))
        for mod_name, fn_name in GENERATORS:
            original = getattr(sys.modules[mod_name], fn_name)
            self._replace_everywhere(original, self._generate_spans(original))
        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._patch(cls, meth,
                        self._timed(cls.__dict__[meth], span, after.get(span)))
        cls = sys.modules["graphclif.stabilizer"].StabilizerGroup
        self._patch(cls, "enumerate_elements",
                    self._counting_elements(cls.__dict__["enumerate_elements"]))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading ---------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.name)

    def layer_totals(self, lo: int = 0, hi: int | None = None) -> dict:
        """{span name: (calls, self_s, total_s)} over spans lo..hi-1."""
        if hi is None:
            hi = len(self.name)
        names = np.array(self.name, dtype=np.int32)
        parents = np.array(self.parent, dtype=np.int32)
        dur = (np.array(self.end, dtype=np.float64)
               - np.array(self.start, dtype=np.float64))
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time
        k = len(self.span_names)
        sl = slice(lo, hi)
        calls = np.bincount(names[sl], minlength=k)
        self_s = np.bincount(names[sl], weights=self_time[sl], minlength=k)
        total_s = np.bincount(names[sl], weights=dur[sl], minlength=k)
        return {name: (int(calls[i]), float(self_s[i]), float(total_s[i]))
                for i, name in enumerate(self.span_names)}

    def dump(self, path):
        """Write every span as flat arrays plus the name table."""
        np.savez(path,
                 span_names=np.array(self.span_names),
                 name=np.array(self.name, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int32),
                 start=np.array(self.start, dtype=np.float64),
                 end=np.array(self.end, dtype=np.float64))
