"""Stabilizer-group analysis against hand-checked small cases.

A4 is the 3-vertex path (vertex 2 in the middle), B4 the 5-vertex spider
with legs 1-2, 2-3, 3-4, 3-5.  Their minimal structure is small enough
to enumerate by hand, which pins the oracles here.
"""

import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import graphclif
from enumeration_oracles import local_elements
from graphclif import (FULL_PROFILE_LIMIT, CapabilityError, StabilizerGroup,
                       distance_upper_bound, is_even_code, minimal_elements,
                       minimal_subgroup, minimal_supports, msc_check,
                       parse_pauli, s_equals_m)
from graphclif.graphs import Graph
from graphclif.graphstates import standard_generators
from graphclif.stabilizer import DISTANCE_LEVEL_LIMIT


def a4_group():
    return StabilizerGroup([parse_pauli(s) for s in ("XZI", "ZXZ", "IZX")])


def test_group_invariants():
    s = a4_group()
    assert s.n == 3 and s.k == 3 and s.order == 8
    assert s.is_state_group()
    with pytest.raises(ValueError, match="dependent"):
        StabilizerGroup([parse_pauli("XX"), parse_pauli("ZZ"),
                         parse_pauli("-YY")])  # product is -I
    with pytest.raises(ValueError, match="anticommute"):
        StabilizerGroup([parse_pauli("XI"), parse_pauli("ZI")])
    with pytest.raises(ValueError, match="Hermitian"):
        StabilizerGroup([parse_pauli("iXI")])
    with pytest.raises(ValueError):
        StabilizerGroup([])


def test_is_element_checks_sign():
    s = a4_group()
    assert s.is_element(parse_pauli("ZXZ"))
    assert s.is_element(parse_pauli("XIX"))  # XZI * IZX
    assert not s.is_element(parse_pauli("-XZI"))
    assert not s.is_element(parse_pauli("ZZZ"))
    assert s.is_element(parse_pauli("III"))


def test_a4_minimal_structure():
    s = a4_group()
    assert s.distance() == 2
    assert minimal_supports(s) == (0b011, 0b101, 0b110)
    counts = s.support_counts()
    assert all(counts[m] == 1 for m in minimal_supports(s))
    mins = {str(p) for p in minimal_elements(s)}
    assert mins == {"+XZI", "+XIX", "+IZX"}
    # letters X/Z/X only: the GHZ-3 class fails the MSC
    res = msc_check(s)
    assert not res.passed
    assert res.letters == (frozenset("X"), frozenset("Z"), frozenset("X"))
    assert not s_equals_m(s)
    assert minimal_subgroup(s).k == 2


def test_local_elements_b4():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
    s = standard_generators(g)
    # legs 4,5 share the center: one weight-2 element lives on {4,5}
    omega = 0b11000
    got = local_elements(s, omega)
    nontrivial = [p for p in got if not p.is_identity()]
    assert len(nontrivial) == 1
    assert nontrivial[0].support_mask == omega
    assert local_elements(s, 0) == [s.element_from_mask(0)]
    assert len(local_elements(s, 0b11111)) == 32


def test_distance_small_families():
    assert standard_generators(Graph.complete(2)).distance() == 2
    assert standard_generators(Graph.star(4)).distance() == 2
    assert standard_generators(Graph.cycle(5)).distance() == 3
    assert standard_generators(Graph.cycle(6)).distance() == 3
    assert standard_generators(Graph.path(6)).distance() == 2


def test_distance_matches_explicit_products():
    # cross-check the graph-form scan against explicit multiplication
    g = Graph.cycle(7)
    s = standard_generators(g)
    weights = []
    for mask in range(1, 1 << 7):
        weights.append(s.element_from_mask(mask).weight())
    assert s.distance() == min(weights)


def test_even_code_detection():
    # all degrees odd <=> every standard generator has even weight
    hexa = Graph.from_edges(6, [(0, 1), (0, 2), (0, 5), (1, 3), (1, 5),
                                (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)])
    s = standard_generators(hexa)
    assert is_even_code(s)
    assert s.distance() == 4
    assert not is_even_code(standard_generators(Graph.path(4)))


def test_distance_upper_bound_values():
    assert [distance_upper_bound(n) for n in range(2, 13)] == \
        [2, 2, 2, 3, 3, 4, 4, 4, 4, 5, 5]
    assert distance_upper_bound(6, even_code=True) == 4
    assert distance_upper_bound(12, even_code=True) == 6


def test_support_counts_match_enumeration():
    g = Graph.cycle(5)
    s = standard_generators(g)
    direct = {}
    for mask in range(1, 1 << 5):
        p = s.element_from_mask(mask)
        direct[p.support_mask] = direct.get(p.support_mask, 0) + 1
    assert s.support_counts() == direct


def test_table_caps_raise_capability_error():
    # a subgroup past FULL_PROFILE_LIMIT generators has no graph form to
    # scan, and no table is built before the check
    gens = standard_generators(Graph.path(FULL_PROFILE_LIMIT + 3)).generators
    wide = StabilizerGroup(gens[:FULL_PROFILE_LIMIT + 1])
    for ask in (wide.distance, wide.support_counts, lambda: msc_check(wide)):
        with pytest.raises(CapabilityError):
            ask()
    assert StabilizerGroup(gens[:3]).distance() == 2


def test_distance_scan_refuses_a_level_past_the_cap():
    # a dense 48-vertex graph has distance above 6, so the scan reaches
    # the C(48, 6) vertex sets of size 6 and must refuse them before
    # building them, not fill memory
    rng = random.Random(5)
    n = 48
    g = Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                             if rng.random() < 0.5])
    assert math.comb(n, 6) > DISTANCE_LEVEL_LIMIT >= math.comb(31, 6)
    start = time.process_time()
    with pytest.raises(CapabilityError, match="distance scan"):
        standard_generators(g).distance()
    assert time.process_time() - start < 1.0


_OPTIMIZED_SCRIPT = """
import contextlib, io, sys
import numpy as np
from graphclif import (CLIFFORD_CATALOG, CapabilityError, Graph,
                       LocalCliffordOp, PauliOperator, StabilizerGroup,
                       apply_local, apply_pauli, build_css, construct_lc,
                       css_distance, find_clifford_conjugator,
                       generate_instance, graph_state_vector, parse_pauli,
                       stabilizer_state_vector, standard_generators,
                       to_graph6, weight_two_elements)
from graphclif.cli import main
from graphclif.construct import _split_pair

inst = generate_instance(Graph.cycle(5), seed=3)
s = inst.s_prime
assert __debug__ is False
if not s.is_element(s.generators[0]):
    sys.exit("a generator is not an element")
construct_lc(inst.graph, s, inst.u)
with open(sys.argv[1], "w") as f:
    f.write(inst.to_json())
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["construct-lc", "--instance", sys.argv[1]])
if code != 0:
    sys.exit(f"construct-lc exited {code}")
path13 = ",".join(f"{i}-{i + 1}" for i in range(1, 13))
for edges, want in (("1-2,3-4", 2), (path13, 3)):
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(["gen-instance", "--edges", edges])
    if code != want:
        sys.exit(f"gen-instance --edges {edges} exited {code}, not {want}")
try:
    StabilizerGroup([parse_pauli("XX"), parse_pauli("ZZ"), parse_pauli("-YY")])
except ValueError:
    pass
else:
    sys.exit("a dependent generator set was accepted")
for build in (lambda: Graph([3, 0]), lambda: Graph.from_edges(2, [(0, 0)]),
              lambda: PauliOperator(2, 8, 0)):
    try:
        bad = build()
    except ValueError:
        pass
    else:
        sys.exit(f"{bad!r} was accepted")
for build in (lambda: to_graph6(Graph.path(63)), lambda: Graph.cycle(2),
              lambda: PauliOperator(2, 1, 0) * PauliOperator(3, 1, 0),
              lambda: Graph.path(3).local_complement(-1),
              lambda: weight_two_elements(standard_generators(Graph.path(21))),
              lambda: _split_pair(PauliOperator(2, 3, 0, 1), 0, 1),
              lambda: CLIFFORD_CATALOG[0].conjugate(parse_pauli("XX")),
              lambda: css_distance(build_css(5)),
              lambda: LocalCliffordOp(["H"]),
              lambda: LocalCliffordOp.identity(2).compose(
                  LocalCliffordOp.identity(3)),
              lambda: LocalCliffordOp.identity(2).conjugate_pauli(
                  parse_pauli("X")),
              lambda: find_clifford_conjugator(parse_pauli("XX")),
              lambda: find_clifford_conjugator(parse_pauli("I")),
              lambda: parse_pauli("XX").letter(3),
              lambda: PauliOperator(13, 1, 0).to_matrix(),
              lambda: graph_state_vector(Graph.path(13)),
              lambda: stabilizer_state_vector(
                  standard_generators(Graph.path(13))),
              lambda: stabilizer_state_vector(
                  StabilizerGroup([parse_pauli("XX")])),
              lambda: apply_pauli(parse_pauli("XX"), np.ones(8)),
              lambda: apply_local([np.eye(2)] * 2, np.ones(8))):
    try:
        bad = build()
    except (TypeError, ValueError, CapabilityError):
        pass
    else:
        sys.exit(f"{bad!r} was returned")
"""


def test_membership_survives_python_O(tmp_path):
    # the generator checks must not live inside asserts, or -O leaves the
    # membership solver empty; gen-instance's graph checks, the Graph
    # and PauliOperator constructors, to_graph6's size cap, the minimum
    # cycle length, the qubit-count check of a product, the vertex range
    # of a local complement, the size caps of the weight-2 scan and of
    # css_distance, the Hermitian split of a weight-2 element, the
    # one-qubit check of a Clifford conjugation, the factor and qubit-count
    # checks of a LocalCliffordOp, the conjugator's argument check, a
    # Pauli letter's range, and the size, shape and state-group checks of
    # the dense layer likewise
    src = Path(graphclif.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT,
         str(tmp_path / "instance.json")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
