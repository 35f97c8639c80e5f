"""End-to-end acceptance gate.

One test per numbered criterion; each checks exact values at the stated
tolerance and prints a single PASS line on success.  Criterion 2 is a
long full-scale run and carries the stretch marker (deselected by
default; run with -m stretch).
"""

import time
from collections import Counter

import numpy as np
import pytest

from graphclif import (Graph, PauliOperator, apply_pauli, beyond_msc,
                       build_css, construct_lc, css_distance,
                       generate_instance, generate_trees, graph_state_vector,
                       logical_state_stabilizer, msc_check,
                       msc_without_equality, punctured_rm1, run_census, scan,
                       standard_generators, transversal_weight_check,
                       verify_lc)


@pytest.fixture(scope="session")
def census9():
    t0 = time.monotonic()
    report = run_census(9)
    return report, time.monotonic() - t0


def test_criterion_1_census_n9(census9):
    report, elapsed = census9
    assert report.class_count == 440
    beyond = scan(report, beyond_msc)
    assert len(beyond) == 3
    assert all(r.delta == 3 for r in beyond)
    assert elapsed <= 3600.0
    print(f"criterion 1 [census n=9: 440 classes, 3 beyond-MSC, all delta=3, "
          f"{elapsed:.0f}s]: PASS")


@pytest.mark.stretch
def test_criterion_2_census_n10():
    t0 = time.monotonic()
    report = run_census(10)
    elapsed = time.monotonic() - t0
    assert report.class_count == 3132
    beyond = scan(report, beyond_msc)
    assert len(beyond) == 9
    assert Counter(r.delta for r in beyond) == {3: 8, 4: 1}
    assert elapsed <= 12 * 3600.0
    print(f"criterion 2 [census n=10: 3132 classes, 9 beyond-MSC (8+1), "
          f"{elapsed:.0f}s]: PASS")


def test_criterion_3_small_censuses(censuses_to_8, census9):
    for n, report in censuses_to_8.items():
        assert scan(report, beyond_msc) == (), f"beyond-MSC class at n={n}"
        expect = 2 if n == 8 else 0
        assert len(scan(report, msc_without_equality)) == expect
    report9, _ = census9
    assert scan(report9, msc_without_equality) == ()
    print("criterion 3 [n=2..8 zero beyond-MSC; MSC-with-S!=M: 2 at n=8, "
          "0 at n=9]: PASS")


def test_criterion_4_reed_muller_m4():
    c1 = punctured_rm1(4)
    c2 = c1.even_subcode()
    assert c1.parameters() == (15, 5, 7)
    assert c2.parameters() == (15, 4, 8)
    assert c2.dual().parameters() == (15, 11, 3)
    css = build_css(4)
    assert (css.n, css.k, css_distance(css)) == (15, 1, 3)
    for choice, delta in (("zero", 3), ("plus", 4)):
        s = logical_state_stabilizer(css, choice)
        assert s.distance() == delta
        res = msc_check(s)
        assert not res.passed
        assert all(lset == frozenset("Z") for lset in res.letters)
    print("criterion 4 [RM m=4: [15,5,7]/[15,4,8]/[15,11,3], [[15,1,3]], "
          "delta 3/4, MSC false with letters {Z}]: PASS")


def test_criterion_5_reed_muller_m5():
    css = build_css(5)
    t0 = time.monotonic()
    for choice, delta in (("zero", 3), ("plus", 4)):
        s = logical_state_stabilizer(css, choice)
        assert s.distance() == delta
    elapsed = time.monotonic() - t0
    assert elapsed <= 10.0
    for m in (3, 4, 5):
        assert transversal_weight_check(m)
    print(f"criterion 5 [RM m=5: delta 3/4 in {elapsed:.3f}s, "
          f"transversal weights m=3,4,5]: PASS")


def _corpus():
    graphs = []
    for n in range(1, 11):
        graphs.extend(generate_trees(n))
    graphs.extend(Graph.cycle(k) for k in range(5, 13))
    graphs.append(Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4)]))
    return graphs


def test_criterion_6_construct_lc_corpus():
    runs = 0
    for g in _corpus():
        for seed in range(100):
            inst = generate_instance(g, seed=seed,
                                     num_phase_pairs=1 + seed % 3,
                                     use_base_clifford=bool(seed % 2))
            result = construct_lc(inst.graph, inst.s_prime, inst.u)
            assert result.verified
            assert verify_lc(inst.graph, inst.s_prime, result.k,
                             dense=g.n <= 12, tol=1e-8)
            runs += 1
    assert runs == 21000
    print(f"criterion 6 [CONSTRUCT-LC corpus: {runs} instances, "
          f"100% verified, dense @1e-8]: PASS")


def test_criterion_7_property_suites(censuses_to_8):
    import test_properties as props
    props.test_support_multiplicities_on_minimal_supports()
    props.test_distance_two_blocks_msc()
    props.test_local_element_uniqueness()
    props.test_girth_five_support_closure()
    props.test_lc_invariance_of_profile()
    props.test_complementation_involution_and_key()
    props.test_distance_bound_on_census(censuses_to_8)
    props.test_clifford_angle_logicals()
    print("criterion 7 [8 property suites x 1000 seeded cases]: PASS")


def test_criterion_8_dense_cross_validation():
    for n in (1, 2, 3):
        phases = range(4) if n <= 2 else (0,)
        ops = [PauliOperator(n, x, z, e)
               for x in range(1 << n) for z in range(1 << n) for e in phases]
        dense = [op.to_matrix() for op in ops]
        for p, dp in zip(ops, dense):
            # (i^e X Z)^dag = i^-e (-1)^|x&z| X Z
            dag = PauliOperator(n, p.x_bits, p.z_bits,
                                2 * (p.x_bits & p.z_bits).bit_count()
                                - p.phase_exp)
            assert np.allclose(dag.to_matrix(), dp.conj().T, atol=1e-12)
            assert p.is_hermitian() == np.allclose(dp, dp.conj().T,
                                                   atol=1e-12)
        for i, p in enumerate(ops):
            for j, q in enumerate(ops):
                assert np.allclose((p * q).to_matrix(), dense[i] @ dense[j],
                                   atol=1e-12)
                flat = np.allclose(dense[i] @ dense[j], dense[j] @ dense[i],
                                   atol=1e-12)
                assert p.commutes(q) == flat

    import test_properties as props
    rng = np.random.default_rng(41)
    for _ in range(50):
        g = props._random_connected(rng, 2, 8)
        vec = graph_state_vector(g)
        for p in standard_generators(g).generators:
            assert np.allclose(apply_pauli(p, vec), vec, atol=1e-9)
    print("criterion 8 [Pauli dense cross-validation n<=3 @1e-12; "
          "generator fixed points n<=8 @1e-9]: PASS")
