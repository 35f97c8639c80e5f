"""Command-line surface: envelope schema, subcommand results, and the
exit-code contract (0 ok, 1 false verdict, 2 parse, 3 capability,
4 non-unitary factor, 5 unsupported class)."""

import json
import shutil
import subprocess

import numpy as np
import pytest

from graphclif import Graph, LUInstance, standard_generators, to_graph6
from graphclif import cli
from graphclif.cli import build_parser, main

B4_EDGES = "1-2,2-3,3-4,3-5"


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def envelope(out):
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert set(doc) == {"schema", "version", "command", "inputs",
                        "results", "timing_s"}
    return doc


def test_analyze_b4(capsys):
    code, out, _ = run(capsys, ["analyze", "--edges", B4_EDGES])
    assert code == 0
    doc = envelope(out)
    assert doc["command"] == "analyze"
    r = doc["results"]
    assert r["n"] == 5
    assert r["delta"] == 2
    assert r["partition"]["V1"] == [1, 4, 5]
    assert r["partition"]["V2"] == [2, 3]
    assert r["partition"]["V3"] == [] and r["partition"]["V4"] == []
    assert r["msc"] is False
    assert r["tag"] == "MainTheorem"
    assert "Delta2BarMSC" in r["satisfied"]
    assert not r["even_code"]


def test_parser_built_once(capsys, monkeypatch):
    built = []

    def counted():
        built.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    try:
        outs = [run(capsys, ["analyze", "--edges", B4_EDGES])
                for _ in range(2)]
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    (code_a, out_a, err_a), (code_b, out_b, err_b) = outs
    assert code_a == code_b == 0 and err_a == err_b
    assert envelope(out_a)["results"] == envelope(out_b)["results"]


def test_analyze_graph6_matches_edges(capsys):
    g6 = to_graph6(Graph.cycle(5))
    code_a, out_a, _ = run(capsys, ["analyze", "--graph6", g6])
    code_b, out_b, _ = run(capsys, ["analyze", "--edges", "1-2,2-3,3-4,4-5,5-1"])
    assert code_a == code_b == 0
    ra = envelope(out_a)["results"]
    rb = envelope(out_b)["results"]
    assert ra == rb
    assert ra["graph6"] == g6
    assert ra["delta"] == 3


def test_bad_graph6_exits_2(capsys):
    code, _, err = run(capsys, ["analyze", "--graph6", "!!!"])
    assert code == 2
    assert "error:" in err


def test_bad_edges_exits_2(capsys):
    code, _, err = run(capsys, ["analyze", "--edges", "1-1,2-"])
    assert code == 2
    assert "error:" in err


def test_analyze_over_profile_limit_exits_3(capsys):
    g6 = to_graph6(Graph.path(21))
    code, _, err = run(capsys, ["analyze", "--graph6", g6])
    assert code == 3
    assert "error:" in err


def test_mutually_exclusive_inputs_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--graph6", "A_", "--edges", "1-2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_census_generated(capsys):
    code, out, err = run(capsys, ["census", "--n", "4"])
    assert code == 0
    doc = envelope(out)
    assert doc["results"]["class_count"] == 2
    assert doc["results"]["graphs_seen"] == 6
    assert "LC classes" in err


def test_census_file_input_with_duplicates(capsys, tmp_path):
    c5 = Graph.cycle(5)
    lines = [to_graph6(c5), to_graph6(c5.relabel((2, 0, 3, 1, 4))),
             to_graph6(Graph.star(5))]
    path = tmp_path / "graphs.g6"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, ["census", "--in", str(path)])
    assert code == 0
    r = envelope(out)["results"]
    assert r["graphs_seen"] == 3
    assert r["class_count"] == 2


def test_census_empty_file_exits_2(capsys, tmp_path):
    path = tmp_path / "empty.g6"
    path.write_text("\n")
    code, _, err = run(capsys, ["census", "--in", str(path)])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["census", "--n", "4", "--jobs", "0"],
    ["census", "--n", "4", "--jobs", "-2"],
    ["census", "--n", "0"],
])
def test_census_bad_counts_exit_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("graphs", [
    [Graph.cycle(5), Graph.cycle(6)],  # mixed order
    [Graph.cycle(5), Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])],
])
def test_census_bad_stream_exits_2(capsys, tmp_path, graphs):
    path = tmp_path / "graphs.g6"
    path.write_text("\n".join(to_graph6(g) for g in graphs) + "\n")
    code, out, err = run(capsys, ["census", "--in", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_census_over_generator_cap_exits_3(capsys):
    code, _, err = run(capsys, ["census", "--n", "12"])
    assert code == 3
    assert "error:" in err


def test_census_filter(capsys):
    code, out, _ = run(capsys, ["census", "--n", "6",
                                "--filter", "bound-violation"])
    assert code == 0
    r = envelope(out)["results"]
    assert r["filtered"]["predicate"] == "bound-violation"
    assert r["filtered"]["records"] == []


def test_census_out_file(capsys, tmp_path):
    path = tmp_path / "census.json"
    code, out, err = run(capsys, ["census", "--n", "4", "--out", str(path)])
    assert code == 0
    assert out == ""
    assert "LC classes" in err
    doc = envelope(path.read_text())
    assert doc["results"]["class_count"] == 2


def test_rm_m3_plus(capsys):
    code, out, _ = run(capsys, ["rm", "--m", "3", "--state", "plus"])
    assert code == 0
    r = envelope(out)["results"]
    assert r["classical"]["c1"] == [7, 4, 3]
    assert r["classical"]["c2"] == [7, 3, 4]
    assert r["classical"]["hamming_dual"] == [7, 4, 3]
    assert r["css"] == {"n": 7, "k": 1, "x_rows": 3, "z_rows": 3,
                        "distance": 3}
    assert r["state"]["delta"] == 3
    assert r["state"]["msc"] is True
    assert r["transversal_weight_check"] is True


def test_rm_m6_is_not_offered(capsys):
    # rm1(6) has length 64, past the 63-bit cap of BinaryCode
    with pytest.raises(SystemExit) as exc:
        main(["rm", "--m", "6", "--state", "zero"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "Traceback" not in err


def test_rm_m4_zero(capsys):
    code, out, _ = run(capsys, ["rm", "--m", "4", "--state", "zero"])
    assert code == 0
    r = envelope(out)["results"]
    assert r["classical"]["c1"] == [15, 5, 7]
    assert r["classical"]["c2"] == [15, 4, 8]
    assert r["classical"]["hamming_dual"] == [15, 11, 3]
    assert r["css"]["distance"] == 3
    assert r["state"]["delta"] == 3
    assert r["state"]["msc"] is False
    assert all(s == "Z" for s in r["state"]["letters"])


def test_rm_m5_plus_and_zero(capsys):
    for choice, delta in (("plus", 4), ("zero", 3)):
        code, out, _ = run(capsys, ["rm", "--m", "5", "--state", choice])
        assert code == 0
        r = envelope(out)["results"]
        assert r["css"]["n"] == 31 and r["css"]["distance"] is None
        assert r["state"]["delta"] == delta
        assert r["state"]["msc"] is None and r["state"]["letters"] is None


def test_gen_construct_verify_pipeline(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    res = tmp_path / "res.json"
    code, out, _ = run(capsys, ["gen-instance", "--edges", B4_EDGES,
                                "--seed", "7", "--pairs", "2",
                                "--out", str(inst)])
    assert code == 0
    assert envelope(out)["results"]["written"] == str(inst)

    code, out, _ = run(capsys, ["construct-lc", "--instance", str(inst),
                                "--out", str(res)])
    assert code == 0
    r = envelope(out)["results"]
    assert r["verified"] is True
    assert len(r["k_names"]) == 5

    code, out, _ = run(capsys, ["verify", "--instance", str(inst),
                                "--result", str(res), "--dense"])
    assert code == 0
    assert envelope(out)["results"]["verified"] is True


def test_identity_witness_exits_1(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    run(capsys, ["gen-instance", "--edges", B4_EDGES, "--seed", "7",
                 "--pairs", "2", "--out", str(inst)])
    res = tmp_path / "res.json"
    res.write_text(json.dumps({"k": [{"name": "I"} for _ in range(5)]}))
    code, out, _ = run(capsys, ["verify", "--instance", str(inst),
                                "--result", str(res)])
    assert code == 1
    assert envelope(out)["results"]["verified"] is False


def test_wrong_length_witness_exits_2(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    run(capsys, ["gen-instance", "--edges", B4_EDGES, "--seed", "1",
                 "--out", str(inst)])
    res = tmp_path / "res.json"
    res.write_text(json.dumps({"k": [{"name": "I"}]}))
    code, _, err = run(capsys, ["verify", "--instance", str(inst),
                                "--result", str(res)])
    assert code == 2
    assert "error:" in err


def test_tampered_instance_exits_4(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    run(capsys, ["gen-instance", "--edges", "1-2,2-3,3-4,4-5,5-1",
                 "--seed", "3", "--out", str(inst)])
    doc = json.loads(inst.read_text())
    c = np.cos(np.pi / 4)
    doc["u"][2] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [c, c]]]
    inst.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["construct-lc", "--instance", str(inst)])
    assert code == 4
    assert "error:" in err


def _one_error_line(err):
    return err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv, want", [
    (["analyze", "--edges", "1-2,3-4"], 2),  # disconnected
    (["gen-instance", "--edges", "1-2,3-4"], 2),
    (["gen-instance", "--graph6", to_graph6(Graph.path(13))], 3),
])
def test_gen_and_analyze_bad_graphs(capsys, argv, want):
    code, out, err = run(capsys, argv)
    assert code == want
    assert out == "" and _one_error_line(err)


def _non_unitary(doc):
    doc["u"][0] = [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


def _factor_short(doc):
    doc["u"].pop()


def _generator_short(doc):
    doc["s_prime"].pop()


@pytest.mark.parametrize("tamper", [_non_unitary, _factor_short,
                                    _generator_short])
def test_malformed_instance_exits_2(capsys, tmp_path, tamper):
    inst = tmp_path / "inst.json"
    run(capsys, ["gen-instance", "--edges", B4_EDGES, "--seed", "7",
                 "--out", str(inst)])
    doc = json.loads(inst.read_text())
    tamper(doc)
    inst.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["construct-lc", "--instance", str(inst)])
    assert code == 2
    assert out == "" and _one_error_line(err)


def test_dense_verify_past_cap_exits_3(capsys, tmp_path):
    g = Graph.path(13)
    inst = tmp_path / "inst.json"
    inst.write_text(LUInstance(graph=g, s_prime=standard_generators(g),
                               u=(np.eye(2),) * 13, trace={}).to_json())
    res = tmp_path / "res.json"
    res.write_text(json.dumps({"k": [{"name": "I"}] * 13}))
    code, out, err = run(capsys, ["verify", "--instance", str(inst),
                                  "--result", str(res), "--dense"])
    assert code == 3
    assert out == "" and _one_error_line(err)


def test_unsupported_class_exits_5(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    code, _, _ = run(capsys, ["gen-instance", "--edges", "1-2,2-3,3-4,4-1",
                              "--seed", "0", "--out", str(inst)])
    assert code == 0
    code, _, err = run(capsys, ["construct-lc", "--instance", str(inst)])
    assert code == 5
    assert "error:" in err


def test_console_script_installed():
    exe = shutil.which("graphclif")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()
