"""Seeded fuzz of the command line.

Valid graph6 strings, edge lists, instance JSON and result JSON are
mutated (truncations, byte flips, wrong sizes, wrong types) and fed to
analyze, gen-instance, construct-lc and verify through cli.main in the
same process.  Every call must return an exit code of the contract,
0..5, and raise nothing.
"""

import contextlib
import copy
import io
import json
import random

import pytest

from graphclif import Graph, construct_lc, generate_instance, to_graph6
from graphclif.cli import main

CASES = 300
GRAPHS = [Graph.path(4), Graph.cycle(5), Graph.star(4), Graph.complete(3),
          Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4)])]
ODD_VALUES = [None, True, 0, -1, 7, 1e308, float("nan"), "", "XZ", "H", "?",
              [], [[]], [0], {}, {"k": []}, [[[1.0, 0.0]]]]


def _mutate_text(rng, text):
    kind = rng.randrange(4)
    i = rng.randrange(len(text) + 1)
    if kind == 0:
        return text[:i]
    if kind == 1 and i < len(text):
        return text[:i] + chr(ord(text[i]) ^ (1 << rng.randrange(7))) + text[i + 1:]
    if kind == 2:
        return text[:i] + rng.choice("-,0123456789?@~ {}[]\"") + text[i:]
    return text[:i] + text[i + rng.randrange(1, 4):]


def _mutate_bytes(rng, data):
    data = bytearray(data)
    if rng.random() < 0.5:
        return bytes(data[:rng.randrange(len(data))])
    for _ in range(rng.randint(1, 3)):
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    return bytes(data)


def _containers(doc):
    """Every (container, key) slot inside a parsed JSON document."""
    slots = []
    stack = [doc]
    while stack:
        node = stack.pop()
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in keys:
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return slots


def _mutate_doc(rng, doc):
    """Wrong types, wrong sizes, swapped entries or missing keys
    somewhere in doc."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        node, key = rng.choice(_containers(doc))
        value = node[key]
        kind = rng.randrange(4)
        if kind == 0:
            node[key] = copy.deepcopy(rng.choice(ODD_VALUES))
        elif kind == 1 and isinstance(value, list) and value:
            if rng.random() < 0.5:
                value.pop(rng.randrange(len(value)))
            else:
                value.append(copy.deepcopy(rng.choice(value)))
        elif kind == 2 and isinstance(value, list) and len(value) > 1:
            i, j = rng.sample(range(len(value)), 2)
            value[i], value[j] = value[j], value[i]
        elif isinstance(node, dict):
            del node[key]
    return doc


def _edge_text(rng):
    n = rng.randint(2, 8)
    edges = {tuple(sorted(rng.sample(range(1, n + 1), 2)))
             for _ in range(rng.randint(1, 2 * n))}
    return ",".join(f"{a}-{b}" for a, b in sorted(edges))


@pytest.fixture(scope="module")
def corpus():
    """Valid instance and result documents to mutate; the complete graphs
    leave qubits to the GHZ completion."""
    out = []
    for seed, g in enumerate(GRAPHS):
        inst = generate_instance(g, seed=seed, num_phase_pairs=2)
        res = construct_lc(inst.graph, inst.s_prime, inst.u)
        out.append((inst.to_json(), res.to_json()))
    for g in (Graph.complete(4), Graph.complete(5)):
        inst = generate_instance(g, seed=1, num_phase_pairs=4)
        res = construct_lc(inst.graph, inst.s_prime, inst.u)
        assert {"rule": "linear"} in res.provenance
        out.append((inst.to_json(), res.to_json()))
    return out


def _cases(corpus, tmp_path):
    rng = random.Random(8)
    for i in range(CASES):
        inst_text, res_text = rng.choice(corpus)
        inst_path = tmp_path / f"inst{i}.json"
        res_path = tmp_path / f"res{i}.json"
        inst_path.write_text(inst_text)
        res_path.write_text(res_text)
        kind = rng.randrange(4)
        if kind == 0:
            g6 = to_graph6(rng.choice(GRAPHS + [Graph.path(13), Graph.path(21)]))
            if rng.random() < 0.8:
                g6 = _mutate_text(rng, g6)
            command = rng.choice(["analyze", "gen-instance"])
            yield [command, f"--graph6={g6}"]
        elif kind == 1:
            edges = _edge_text(rng)
            if rng.random() < 0.8:
                edges = _mutate_text(rng, edges)
            command = rng.choice(["analyze", "gen-instance"])
            yield [command, f"--edges={edges}", *(
                ["--seed", str(i), "--pairs", str(rng.randint(-1, 3))]
                if command == "gen-instance" else [])]
        else:
            target, text = ((inst_path, inst_text) if kind == 2
                            else (res_path, res_text))
            if rng.random() < 0.5:
                target.write_bytes(_mutate_bytes(rng, text.encode()))
            else:
                target.write_text(json.dumps(_mutate_doc(rng, json.loads(text))))
            if kind == 2 and rng.random() < 0.5:
                yield ["construct-lc", "--instance", str(inst_path)]
            else:
                yield ["verify", "--instance", str(inst_path),
                       "--result", str(res_path),
                       *(["--dense"] if rng.random() < 0.5 else [])]


def test_cli_fuzz_exits_by_contract(corpus, tmp_path):
    codes = []
    for argv in _cases(corpus, tmp_path):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in range(6), argv
        codes.append(code)
    assert len(codes) == CASES
    # the mutations reach both valid and rejected inputs
    assert {0, 2} <= set(codes)
