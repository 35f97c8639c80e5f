"""Punctured Reed-Muller family: classical parameters, CSS invariants,
logical states, and the weight-divisibility certificate."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphclif
from graphclif import (BinaryCode, apply_pauli, build_css, css_distance,
                       is_even_code, logical_state_stabilizer,
                       minimal_supports, msc_check, punctured_rm1, rm1,
                       stabilizer_to_graph, standard_generators,
                       transversal_weight_check)


def test_rm1_parameters():
    assert rm1(3).parameters() == (8, 4, 4)
    assert rm1(4).parameters() == (16, 5, 8)
    assert punctured_rm1(3).parameters() == (7, 4, 3)
    assert punctured_rm1(4).parameters() == (15, 5, 7)
    assert punctured_rm1(5).parameters() == (31, 6, 15)


def test_even_subcode_and_duals():
    c1 = punctured_rm1(4)
    c2 = c1.even_subcode()
    assert c2.parameters() == (15, 4, 8)
    assert all(int(w) % 2 == 0 for w in c2.weights())
    assert c2.dual().parameters() == (15, 11, 3)  # binary Hamming
    assert c1.dual().parameters() == (15, 10, 4)
    # dual is an orthogonality certificate, both ways
    for r in c1.rows:
        for d in c1.dual().rows:
            assert (r & d).bit_count() % 2 == 0


def test_dual_dimension_and_double_dual():
    for m in (3, 4):
        c = punctured_rm1(m)
        assert c.dual().k == c.length - c.k
        dd = c.dual().dual()
        assert sorted(dd.codewords().tolist()) == sorted(c.codewords().tolist())


def _tabulated_distance(code):
    w = code.weights()
    w[0] = code.length + 1
    return int(w.min())


def test_min_distance_matches_tabulation():
    # codes with more rows than their dual take the MacWilliams path
    codes = []
    for m in (3, 4):
        for c in (rm1(m), punctured_rm1(m), punctured_rm1(m).even_subcode()):
            codes += [c, c.dual()]
    assert any(c.k > c.length - c.k for c in codes)
    for c in codes:
        assert c.min_distance() == _tabulated_distance(c), c.rows
    assert BinaryCode(5, [1, 2, 4, 8, 16]).min_distance() == 1


_HAMMING_31_SCRIPT = """
import resource
from graphclif import punctured_rm1
params = punctured_rm1(5).even_subcode().dual().parameters()
assert params == (31, 26, 3), params
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)
"""


def test_hamming_31_distance_stays_small():
    # tabulating all 2^26 words of the [31, 26] code peaked near 1 GB
    src = Path(graphclif.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _HAMMING_31_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 200  # peak RSS in MB


def test_contains_matches_enumeration():
    c = punctured_rm1(3)
    words = set(int(w) for w in c.codewords())
    for w in range(1 << 7):
        assert c.contains(w) == (w in words)


def test_binary_code_rejects_dependent_rows():
    with pytest.raises(ValueError):
        BinaryCode(4, [0b0011, 0b0101, 0b0110])


def test_css_invariants():
    for m in (3, 4, 5):
        css = build_css(m)
        assert css.n == (1 << m) - 1
        assert css.k == 1
        assert len(css.x_rows) == m
        assert len(css.z_rows) == (1 << m) - 2 - m
        for x in css.x_rows:
            for z in css.z_rows:
                assert (x & z).bit_count() % 2 == 0
        assert (css.logical_x & css.logical_z).bit_count() % 2 == 1
        assert bin(css.logical_x).count("1") == (1 << (m - 1)) - 1


def test_css_distance_m3_m4():
    assert css_distance(build_css(3)) == 3
    assert css_distance(build_css(4)) == 3


def test_logical_states_m4():
    css = build_css(4)
    zero = logical_state_stabilizer(css, "zero")
    plus = logical_state_stabilizer(css, "plus")
    assert zero.k == 15 and plus.k == 15
    assert zero.distance() == 3
    assert plus.distance() == 4
    for state in (zero, plus):
        res = msc_check(state)
        assert not res.passed
        assert all(lset == frozenset("Z") for lset in res.letters)


def test_logical_states_m3_are_msc():
    # the m=3 instance sits inside the MSC: both states pass
    css = build_css(3)
    for choice in ("zero", "plus"):
        s = logical_state_stabilizer(css, choice)
        assert s.distance() == 3
        assert msc_check(s).passed


def test_zero_state_dense_fixed_point_m3():
    css = build_css(3)
    s = logical_state_stabilizer(css, "zero")
    c2 = BinaryCode(7, css.x_rows)
    vec = np.zeros(128, dtype=complex)
    for w in c2.codewords():
        # codeword bit i is qubit i; qubit 0 is the most significant axis
        idx = 0
        for i in range(7):
            if (int(w) >> i) & 1:
                idx |= 1 << (6 - i)
        vec[idx] = 1.0
    vec /= np.linalg.norm(vec)
    for p in s.generators:
        assert np.allclose(apply_pauli(p, vec), vec, atol=1e-12)


def test_zero_state_membership_m4():
    # stabilizer-level check at m=4: Z rows lie in the dual of C2 extended
    # by the all-ones vector, and X rows stay inside C2
    css = build_css(4)
    c2 = BinaryCode(15, css.x_rows)
    dual2 = c2.dual()
    for z in css.z_rows:
        assert dual2.contains(z)
    assert dual2.contains(css.logical_z)
    for x in css.x_rows:
        assert c2.contains(x)


def test_transversal_weight_check():
    for m in (3, 4, 5):
        assert transversal_weight_check(m)


def test_graph_pipeline_preserves_profile_m3():
    css = build_css(3)
    for choice in ("zero", "plus"):
        s = logical_state_stabilizer(css, choice)
        g, _ = stabilizer_to_graph(s)
        t = standard_generators(g)
        assert s.distance() == t.distance()
        assert (sorted(s.support_counts().values())
                == sorted(t.support_counts().values()))
        assert minimal_supports(s) == minimal_supports(t)
        assert msc_check(s).passed == msc_check(t).passed


def test_graph_pipeline_preserves_delta_m4():
    css = build_css(4)
    for choice, want in (("zero", 3), ("plus", 4)):
        s = logical_state_stabilizer(css, choice)
        g, _ = stabilizer_to_graph(s)
        assert standard_generators(g).distance() == want


def test_even_code_flags():
    css = build_css(4)
    plus = logical_state_stabilizer(css, "plus")
    zero = logical_state_stabilizer(css, "zero")
    # odd-weight logical X (weight 7) sits in the plus group
    assert not is_even_code(plus)
    assert not is_even_code(zero)  # Z^n has weight 15


def test_rm1_rejects_m_outside_3_to_5():
    # rm1(6) would need length 64, past the 63-bit cap of BinaryCode
    for m in (2, 6):
        with pytest.raises(ValueError, match="3..5"):
            rm1(m)
