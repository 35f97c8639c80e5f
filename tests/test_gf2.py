"""gf2.solve against brute force over every assignment of small systems."""

import random

from graphclif.gf2 import solve


def _apply(columns, x):
    out = 0
    for j, col in enumerate(columns):
        if (x >> j) & 1:
            out ^= col
    return out


def _span(vectors):
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return span


def test_solve_matches_brute_force():
    rng = random.Random(11)
    for _ in range(400):
        m = rng.randint(0, 8)
        rows = rng.randint(1, 8)
        columns = [rng.getrandbits(rows) for _ in range(m)]
        target = rng.getrandbits(rows)
        if rng.random() < 0.5 and m:
            target = _apply(columns, rng.getrandbits(m))
        want = {x for x in range(1 << m) if _apply(columns, x) == target}
        got = solve(columns, target)
        if not want:
            assert got is None
            continue
        particular, kernel = got
        assert len(_span(kernel)) == 1 << len(kernel)  # independent
        assert {particular ^ k for k in _span(kernel)} == want
        # each kernel vector sets one column the later columns span
        lows = [(k & -k).bit_length() - 1 for k in kernel]
        assert lows == sorted(set(lows))
