"""The names the benchmark drives and traces must exist in the package.

bench/ reaches into graphclif by name: the tracer wraps functions and
methods listed in bench/tracing.py, and the workloads call attributes of
the imported package.  A rename or a deleted function would break the
benchmark without failing any other test.  bench/ is only read here, as
source text, so nothing is imported from it or written under it.
"""

import ast
import importlib
import inspect
from pathlib import Path

import graphclif

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _literal(path, name):
    """The literal value assigned to a module-level name in a source file."""
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def _package_chains(path):
    """Dotted attribute chains read off the workloads' `pkg` argument."""
    chains = set()
    for node in ast.walk(ast.parse(path.read_text())):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "pkg":
            chains.add(tuple(reversed(parts)))
    return chains


def _resolve(obj, names):
    for name in names:
        obj = getattr(obj, name)
    return obj


def test_traced_names_resolve():
    tracing = BENCH / "tracing.py"
    functions = _literal(tracing, "FUNCTIONS")
    methods = _literal(tracing, "METHODS")
    generators = _literal(tracing, "GENERATORS")
    assert functions and methods and generators
    for module, name, _ in functions:
        assert callable(getattr(importlib.import_module(module), name)), name
    for module, cls, method, _ in methods:
        owner = getattr(importlib.import_module(module), cls)
        assert callable(getattr(owner, method)), f"{cls}.{method}"
    for module, name in generators:
        assert callable(getattr(importlib.import_module(module), name)), name
    # the tracer counts streamed elements by patching this method in place
    group = importlib.import_module("graphclif.stabilizer").StabilizerGroup
    assert inspect.isgeneratorfunction(group.__dict__["enumerate_elements"])


def test_workload_calls_resolve():
    chains = _package_chains(BENCH / "workloads.py")
    assert ("run_census",) in chains and ("cli", "main") in chains
    for chain in chains:
        assert _resolve(graphclif, chain) is not None, ".".join(chain)
    # the workloads pass these arguments by position and keyword
    inspect.signature(graphclif.run_census).bind(8, 1)
    inspect.signature(graphclif.generate_instance).bind(
        graphclif.Graph.cycle(5), seed=1, num_phase_pairs=2,
        use_base_clifford=True)


def test_package_exports_resolve():
    missing = [name for name in graphclif.__all__
               if not hasattr(graphclif, name)]
    assert missing == []
