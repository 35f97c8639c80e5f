"""Graph generation and LC-class census: counts against brute force, the
extension census against the full stream, determinism across worker
counts, scan predicates, and cap handling."""

import hashlib
import json
from itertools import combinations

import pytest

import graphclif.census as census
from graphclif import (CapabilityError, Graph, beyond_msc, bound_violation,
                       canonical_form, classify_lc_classes, from_graph6,
                       generate_connected_graphs, generate_trees,
                       msc_without_equality, run_census, scan)

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23,
               9: 47, 10: 106, 11: 235}
CLASS_COUNTS = {2: 1, 3: 1, 4: 2, 5: 4, 6: 11, 7: 26}
# sha256 of run_census(n).to_json(): every canonical key, representative
# and analysis, pinned as the list-cell labeling without automorphism
# pruning produced them
CENSUS_SHA256 = {
    1: "eaf1bfa790895e98773217990b8e2a3c3b2cb42ae34a4543d95c6d24f3c597cb",
    2: "0450dba59e8c31fb2346f94d4f535d5c9493ba4c095db7a47e9481e29d515d50",
    3: "75e1622d0beea9d20183f807ab7d9911a5078852bbcaaa9281abaef27baed917",
    4: "e0e64a9a023220c8f676bc448a630ab0a649ee8e07cdd86d43f624c72279cc31",
    5: "0d5b1b7319411479d7514b853741d81747360565afcbc7d6d0208199a0b86ebb",
    6: "20409292a4a54784e260bed96ccc0d5ad355f0c0bedc4228b32372fb18cec0c5",
    7: "ca9ca3990b049a4e7cd2e6b1e0adebf3161d4ad818482268e7504efc00cba363",
    8: "f542766c420c57b7f2d4e27d858d84e5c688bab75c59c2f8763d9eec0a40d029",
}


def _all_labeled_connected(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for i, (a, b) in enumerate(pairs):
            if (mask >> i) & 1:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
        g = Graph(adj)
        if g.is_connected():
            yield g


def test_generator_matches_bruteforce():
    for n in (2, 3, 4, 5):
        keys = {canonical_form(g) for g in _all_labeled_connected(n)}
        gen = list(generate_connected_graphs(n))
        assert len(gen) == len(keys) == CONNECTED_COUNTS[n]
        assert {canonical_form(g) for g in gen} == keys


def test_generator_emits_each_class_once():
    for n in CONNECTED_COUNTS:
        seen = set()
        count = 0
        for g in generate_connected_graphs(n):
            assert g.is_connected()
            k = canonical_form(g)
            assert k not in seen, "duplicate isomorphism class"
            seen.add(k)
            count += 1
        assert count == CONNECTED_COUNTS[n]


def test_tree_counts():
    for n, want in TREE_COUNTS.items():
        got = 0
        for g in generate_trees(n):
            assert g.is_connected() and len(g.edges()) == n - 1
            got += 1
        assert got == want


def test_class_counts_small():
    for n, want in CLASS_COUNTS.items():
        report = run_census(n)
        assert report.class_count == want
        assert report.graphs_seen == CONNECTED_COUNTS[n]
        assert sum(r.orbit_size for r in report.records) == report.graphs_seen


def test_census_json_pinned(censuses_to_8):
    reports = {1: run_census(1), **censuses_to_8}
    got = {n: hashlib.sha256(r.to_json().encode()).hexdigest()
           for n, r in reports.items()}
    assert got == CENSUS_SHA256


def test_only_last_level_is_analyzed(monkeypatch):
    calls = []

    def counted(g):
        calls.append(g.n)
        return classify(g)

    classify = census.classify_theorem
    monkeypatch.setattr(census, "classify_theorem", counted)
    report = run_census(6)
    assert len(calls) == report.class_count == 11
    assert set(calls) == {6}


def test_extension_census_matches_full_stream():
    # the census classifies one-vertex extensions of the class
    # representatives; classifying every connected graph must agree
    for n in range(2, 8):
        full = classify_lc_classes(generate_connected_graphs(n), n)
        assert run_census(n).to_json() == full.to_json()


def test_jobs_determinism():
    lone = run_census(6, jobs=1)
    pair = run_census(6, jobs=2)
    assert lone.to_json() == pair.to_json()


def test_records_sorted_by_key():
    report = run_census(5)
    keys = [r.key for r in report.records]
    assert keys == sorted(keys)
    for r in report.records:
        # the representative realizes its own class key
        assert canonical_form(from_graph6(r.rep_g6)) == r.key


def test_scan_predicates_small_n():
    for n in (5, 6):
        report = run_census(n)
        assert scan(report, beyond_msc) == ()
        assert scan(report, msc_without_equality) == ()
        assert scan(report, lambda r: bound_violation(r, n)) == ()


def test_hexacode_class_present_at_n6():
    # the unique delta-4 class at n=6 is even, so the even-case cap applies
    report = run_census(6)
    best = max(r.delta for r in report.records)
    assert best == 4
    assert report.totals_by_delta[4] == 1


def test_duplicate_stream_collapses_at_class_layer():
    c5 = Graph.cycle(5)
    relabeled = c5.relabel((2, 0, 3, 1, 4))
    graphs = [c5, relabeled, Graph.star(5)]
    report = classify_lc_classes(graphs, 5)
    assert report.graphs_seen == 3
    assert report.class_count == 2


def test_orbit_cap_flags_but_continues():
    report = run_census(5, orbit_cap=1)
    assert any(r.capped for r in report.records)
    for r in report.records:
        if r.capped:
            assert r.orbit_size == 0
    doc = json.loads(report.to_json())
    assert any(c["capped"] for c in doc["classes"])


def test_report_json_schema():
    report = run_census(4)
    doc = json.loads(report.to_json())
    assert set(doc) == {"n", "graphs_seen", "class_count", "classes", "totals"}
    assert doc["class_count"] == len(doc["classes"]) == 2
    for c in doc["classes"]:
        assert set(c) == {"key", "rep_g6", "delta", "msc", "s_eq_m",
                          "tag", "orbit_size", "capped"}
    assert set(doc["totals"]) == {"by_delta", "by_tag"}
    assert sum(c["orbit_size"] for c in doc["classes"]) == doc["graphs_seen"]


def test_summary_table_mentions_each_class():
    report = run_census(4)
    table = report.summary_table()
    for r in report.records:
        assert r.rep_g6 in table


def test_wrong_order_stream_asserts():
    with pytest.raises(ValueError):
        classify_lc_classes([Graph.star(4)], 5)


def test_bad_counts_raise_value_error():
    with pytest.raises(ValueError):
        classify_lc_classes([Graph.star(4)], 0)
    with pytest.raises(ValueError):
        classify_lc_classes([Graph.star(4)], 4, jobs=0)
    for make in (generate_connected_graphs, generate_trees, run_census):
        with pytest.raises(ValueError):
            make(0)


def test_generator_cap_is_a_capability_error():
    # raised at call time, before any level is built
    for make in (generate_connected_graphs, generate_trees, run_census):
        with pytest.raises(CapabilityError):
            make(12)
