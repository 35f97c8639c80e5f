"""From a local-unitary equivalence to a local-Clifford one.

We sample an instance: a stabilizer group S' plus per-qubit unitaries U
with U |psi'> = |G>, where the factors are deliberately non-Clifford
(conjugated phase rotations).  The converter reads off leaf/axil images,
fills the bar graph, and returns catalog Cliffords K with K S' K* = S.
Verification is sign-exact on generators, then dense on state vectors.
"""

import numpy as np

from graphclif import (Fact1Error, Graph, UnsupportedClassError,
                       construct_lc, generate_instance, verify_lc)

B4 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4)])


def walkthrough(title, g, seed=11, pairs=2):
    print(f"== {title}")
    inst = generate_instance(g, seed=seed, num_phase_pairs=pairs)
    print(f"   S' generators: {[str(p) for p in inst.s_prime.generators]}")
    angles = [round(p['theta'], 3) for p in inst.trace['pairs']]
    print(f"   non-Clifford phase pairs folded into U: {angles}")

    result = construct_lc(inst.graph, inst.s_prime, inst.u)
    print(f"   K = {list(result.k.names())}")
    print(f"   provenance: {[dict(p) for p in result.provenance]}")
    ok = verify_lc(inst.graph, inst.s_prime, result.k, dense=True)
    print(f"   sign-exact + dense verification: {ok}")
    print()


def main():
    walkthrough("B4 (main-theorem route)", B4)
    walkthrough("C6 (no weight-2 elements: Clifford-only instance)",
                Graph.cycle(6), seed=3)
    walkthrough("K4 (GHZ route with bounded search fallback)",
                Graph.complete(4), seed=5)

    print("== C4 (open class: conversion is not attempted)")
    inst = generate_instance(Graph.cycle(4), seed=1)
    try:
        construct_lc(inst.graph, inst.s_prime, inst.u)
    except UnsupportedClassError as exc:
        print(f"   UnsupportedClassError: {exc}")
    print()

    print("== tampered instance (a bare T gate is not a stabilizer image)")
    inst = generate_instance(Graph.cycle(5), seed=3)
    u = list(inst.u)
    u[2] = np.diag([1.0, np.exp(1j * np.pi / 4)])
    try:
        construct_lc(inst.graph, inst.s_prime, u)
    except Fact1Error as exc:
        print(f"   Fact1Error: {exc}")


if __name__ == "__main__":
    main()
