import json

import pytest

import pinnet.harness
from pinnet.cli import main
from pinnet.errors import DivergenceError
from pinnet.scenarios import get_scenario


def test_topology_star_round_trip(tmp_path, capsys):
    out = tmp_path / "star.txt"
    assert main(["topology", "star", "--n", "9", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N 9"
    assert len(lines) == 9
    assert main(["topology", "star", "--n", "9"]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_topology_cluster_and_ba(tmp_path):
    out = tmp_path / "c.txt"
    assert main(["topology", "cluster", "--branches", "2,3,4", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "N 12"
    out2 = tmp_path / "ba.txt"
    assert main([
        "topology", "ba", "--n", "20", "--m0", "3", "--m", "2", "--seed", "42",
        "--out", str(out2),
    ]) == 0
    assert len(out2.read_text().splitlines()) == 1 + 37


def test_spectrum_output(tmp_path, capsys):
    edges = tmp_path / "star.txt"
    main(["topology", "star", "--n", "9", "--out", str(edges)])
    assert main(["spectrum", "--edges", str(edges)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "index,eigenvalue"
    values = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert values[0] == pytest.approx(0.0, abs=1e-9)
    assert values[-1] == pytest.approx(-9.0, abs=1e-9)


def test_pin_then_controlled_spectrum(tmp_path, capsys):
    edges = tmp_path / "star.txt"
    plan = tmp_path / "plan.json"
    main(["topology", "star", "--n", "9", "--out", str(edges)])
    assert main([
        "pin", "--edges", str(edges), "--strategy", "smallest", "--count", "8",
        "--gain", "1.5", "--c", "10", "--plan-out", str(plan),
    ]) == 0
    capsys.readouterr()
    assert main(["spectrum", "--edges", str(edges), "--plan", str(plan)]) == 0
    lines = capsys.readouterr().out.splitlines()
    top = float(lines[1].split(",")[1])
    assert top < -1.0


def test_spectrum_plan_size_mismatch_names_both_files(tmp_path, capsys):
    edges, plan = tmp_path / "star.txt", tmp_path / "plan.json"
    main(["topology", "star", "--n", "3", "--out", str(edges)])
    plan.write_text(json.dumps({"n": 5, "c": 1.0, "pins": [{"node": 4, "gain": 2.0}]}))
    assert main(["spectrum", "--edges", str(edges), "--plan", str(plan)]) == 2
    err = capsys.readouterr().err
    assert f"{plan}: plan on 5 nodes does not match {edges} on 3 nodes" in err


def test_pin_explicit(tmp_path):
    edges = tmp_path / "star.txt"
    plan = tmp_path / "plan.json"
    main(["topology", "star", "--n", "5", "--out", str(edges)])
    assert main([
        "pin", "--edges", str(edges), "--explicit", "0:300,2:1.5",
        "--c", "7", "--plan-out", str(plan),
    ]) == 0
    data = json.loads(plan.read_text())
    assert data["c"] == 7.0
    assert {p["node"]: p["gain"] for p in data["pins"]} == {0: 300.0, 2: 1.5}


def test_simulate_shipped_with_overrides(tmp_path):
    code = main([
        "simulate", "fig2b", "--out", str(tmp_path),
        "--h", "1e-3", "--T", "0.5",
    ])
    assert code == 0
    assert (tmp_path / "fig2b.csv").exists()
    meta = json.loads((tmp_path / "fig2b.meta.json").read_text())
    assert meta["scenario"]["sim"]["T"] == 0.5


def test_simulate_scenario_file(tmp_path):
    scenario = {
        "name": "toy",
        "topology": {"kind": "star", "n": 5},
        "plan": {"kind": "by_degree", "strategy": "smallest", "count": 4,
                 "gain": 2.0, "c": 5.0},
        "sim": {"h": 1e-3, "T": 0.5, "tol": 0.01, "init_seed": 3},
        "expected_cf": 40.0,
    }
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(scenario))
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "toy.csv").exists()


def test_simulate_reads_pin_file_plan_form(tmp_path):
    # the plan block may be the exact document written by the pin command
    edges = tmp_path / "star.txt"
    plan = tmp_path / "plan.json"
    main(["topology", "star", "--n", "5", "--out", str(edges)])
    main([
        "pin", "--edges", str(edges), "--strategy", "smallest", "--count", "4",
        "--gain", "2.0", "--c", "5", "--plan-out", str(plan),
    ])
    scenario = {
        "name": "from-pin-file",
        "topology": {"kind": "star", "n": 5},
        "plan": json.loads(plan.read_text()),
        "sim": {"h": 1e-3, "T": 0.2, "init_seed": 1},
        "expected_cf": 40.0,
    }
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(scenario))
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 0


def test_simulate_plan_size_mismatch_exits_2(tmp_path, capsys):
    scenario = {
        "name": "mismatch",
        "topology": {"kind": "star", "n": 5},
        "plan": {"n": 9, "c": 1.0, "pins": []},
        "sim": {"h": 1e-3, "T": 0.2},
    }
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(scenario))
    assert main(["simulate", str(path)]) == 2
    assert "5" in capsys.readouterr().err


def test_missing_scenario_file_exits_2(capsys):
    assert main(["simulate", "nonexistent.json"]) == 2


def test_bad_explicit_pin_format_exits_2(tmp_path, capsys):
    edges = tmp_path / "star.txt"
    main(["topology", "star", "--n", "5", "--out", str(edges)])
    code = main([
        "pin", "--edges", str(edges), "--explicit", "0=5",
        "--plan-out", str(tmp_path / "p.json"),
    ])
    assert code == 2


def test_pin_explicit_duplicate_node_exits_2(tmp_path, capsys):
    edges = tmp_path / "star.txt"
    plan = tmp_path / "p.json"
    main(["topology", "star", "--n", "3", "--out", str(edges)])
    code = main(["pin", "--edges", str(edges), "--explicit", "0:5,0:6", "--plan-out", str(plan)])
    assert code == 2
    assert "error: --explicit pins node 0 twice" in capsys.readouterr().err
    assert not plan.exists()


def test_explicit_plan_gains_naming_one_node_twice_exit_2(tmp_path, capsys):
    # "1" and "01" are two JSON keys but one node index.
    scenario = get_scenario("fig2b").to_dict()
    scenario["plan"] = {"kind": "explicit", "c": 10.0, "gains": {"1": 2.0, "01": 3.0}}
    path = tmp_path / "dup_gains.json"
    path.write_text(json.dumps(scenario))
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {path}: plan.gains: node 1 is pinned twice" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scenario_file_with_duplicate_key_exits_2(tmp_path, capsys):
    scenario = get_scenario("fig2b").to_dict()
    text = json.dumps(scenario).replace('"T": 5.0', '"T": 5.0, "T": 0.01')
    assert '"T": 0.01' in text
    path = tmp_path / "dup_key.json"
    path.write_text(text)
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {path}: duplicate key 'T'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "fig2b", "--vary", "c", "--values", "1,x"],
    ["topology", "cluster", "--branches", "2,x"],
    ["topology", "cluster", "--branches", ""],
], ids=["values", "branches", "branches-empty"])
def test_bad_comma_list_exit_2(argv, capsys):
    assert main(argv) == 2
    assert f"error: {argv[-2]} expects comma-separated" in capsys.readouterr().err


def test_simulate_unknown_name_exits_2(capsys):
    assert main(["simulate", "fig99"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_simulate_cf_mismatch_exits_2(tmp_path, capsys):
    scenario = get_scenario("fig2a").to_dict()
    scenario["expected_cf"] = 1.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    assert main(["simulate", str(path)]) == 2
    assert "does not match expected" in capsys.readouterr().err


def test_compare_two_scenarios(tmp_path, capsys):
    spec = {"scenarios": ["fig2a", "fig2b"]}
    path = tmp_path / "cmp.json"
    path.write_text(json.dumps(spec))
    code = main([
        "compare", str(path), "--out", str(tmp_path / "out"),
        "--h", "5e-4", "--T", "0.5",
    ])
    assert code == 0
    table = capsys.readouterr().out
    assert "fig2a" in table and "fig2b" in table
    assert (tmp_path / "out" / "comparison.csv").exists()


def test_compare_mixed_topology_exits_2(tmp_path, capsys):
    path = tmp_path / "cmp.json"
    path.write_text(json.dumps({"scenarios": ["fig2a", "fig5a"]}))
    assert main(["compare", str(path)]) == 2


def test_sweep_cli(tmp_path, capsys):
    code = main([
        "sweep", "fig2b", "--vary", "c", "--values", "1,2",
        "--out", str(tmp_path), "--h", "1e-3", "--T", "0.2",
    ])
    assert code == 0
    assert (tmp_path / "sweep.csv").exists()


def test_sweep_full_writes_per_node_states(tmp_path, capsys):
    code = main([
        "sweep", "fig2b", "--vary", "epsilon", "--values", "1.5,3",
        "--T", "0.2", "--full", "--out", str(tmp_path),
    ])
    assert code == 0
    for name in ("fig2b+epsilon00=1.5", "fig2b+epsilon01=3"):
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert lines[0] == "t,node,x1,x2,x3"
        assert len(lines) == 1 + 9 * (2000 // 5 + 1)


@pytest.mark.parametrize("flag,value,field", [
    ("--h", "nan", "sim.h"),
    ("--h", "inf", "sim.h"),
    ("--h", "-1e-3", "sim.h"),
    ("--T", "inf", "sim.T"),
    ("--T", "nan", "sim.T"),
    ("--tol", "0", "sim.tol"),
    ("--tol", "nan", "sim.tol"),
])
def test_non_finite_step_parameters_exit_2(flag, value, field, capsys):
    assert main(["simulate", "fig2b", f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert f"{field} must be finite and > 0" in err


@pytest.mark.parametrize("T", ["0.00126", "0.0035"])
def test_horizon_off_the_record_grid_exits_2(T, tmp_path, capsys):
    # fig7 steps h = 5e-4 and records every 5th step: 0.00126 is no whole
    # number of steps, 0.0035 is 7 steps, not a whole number of records.
    assert main(["simulate", "fig7", "--T", T, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"T={T}" in err and "h=0.0005" in err and "record_every=5" in err
    assert not list(tmp_path.iterdir())


def test_negative_seed_exits_2(capsys):
    assert main(["simulate", "fig2b", "--seed=-1"]) == 2
    assert "sim.init_seed must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value", [
    pytest.param("sim", "init_seed", -1, id="-1"),
    pytest.param("sim", "init_seed", 1.5, id="1.5"),
    ("topology", "n", "abc"),
    ("topology", "n", 9.0),
    ("sim", "record_every", 2.5),
    ("sim", "h", True),
    ("sim", "T", "5"),
    ("plan", "count", False),
    ("plan", "gain", "1.5"),
])
def test_scenario_file_bad_field_exits_2(section, key, value, tmp_path, capsys):
    scenario = get_scenario("fig2b").to_dict()
    scenario[section][key] = value
    path = tmp_path / "bad_field.json"
    path.write_text(json.dumps(scenario))
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_scenario_file_error_names_the_file(command, tmp_path, capsys):
    scenario = get_scenario("fig2b").to_dict()
    scenario["topology"]["n"] = "abc"
    path = tmp_path / "bad_sc.json"
    path.write_text(json.dumps(scenario))
    comparison = tmp_path / "comparison.json"
    comparison.write_text(json.dumps({"scenarios": [str(path), "fig2a"]}))
    target = path if command == "simulate" else comparison
    assert main([command, str(target), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {path}: topology.n must be an integer, got 'abc'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option,text,where", [
    ("--edges", "N 3\n1\n", "edges:2"),
    ("--edges", "N 3\n0 1 2\n", "edges:2"),
    ("--edges", "N x\n0 1\n", "edges:1"),
    ("--plan", '{"n": 3, "c": 1.0}', "plan: pins is missing"),
    ("--plan", '{"n": 3, "c": 1.0, "pins": [{"node": "a", "gain": 1.0}]}', "plan: pins[0].node"),
    ("--plan", '{"n": 3, "c": 1.0, "pins": [{"node": 1, "gain": 1.0}, {"node": 1, "gain": 2.0}]}',
     "plan: pins[1]: node 1 is pinned twice"),
    ("--edges", b"N 3\n0 1\xff\n", "edges: not UTF-8 text"),
    ("--plan", "not json", "plan: not JSON"),
    ("simulate", b"\xff\xfe{}", "scenario.json: not UTF-8 text"),
    ("compare", '{"scenarios": ["fig2a", "fig2b"]', "comparison.json: not JSON"),
])
def test_malformed_input_file_exits_2(option, text, where, tmp_path, capsys):
    files = {
        "--edges": tmp_path / "edges", "--plan": tmp_path / "plan",
        "simulate": tmp_path / "scenario.json", "compare": tmp_path / "comparison.json",
    }
    main(["topology", "star", "--n", "3", "--out", str(files["--edges"])])
    files[option].write_bytes(text if isinstance(text, bytes) else text.encode())
    if option.startswith("--"):
        argv = ["spectrum", "--edges", str(files["--edges"]), "--plan", str(files["--plan"])]
    else:
        argv = [option, str(files[option])]
    assert main(argv) == 2
    assert f"{tmp_path}/{where}" in capsys.readouterr().err


@pytest.mark.parametrize("doc,message", [
    ({}, "scenarios is missing"),
    ({"scenarios": "fig2a"}, "scenarios must be a list"),
    (3, "comparison document must be a list"),
])
def test_compare_without_scenario_list_exits_2(doc, message, tmp_path, capsys):
    path = tmp_path / "comparison.json"
    path.write_text(json.dumps(doc))
    assert main(["compare", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_topology_negative_seed_exits_2(tmp_path, capsys):
    out = tmp_path / "ba.txt"
    argv = ["topology", "ba", "--n", "20", "--m0", "3", "--m", "3", "--seed=-1", "--out", str(out)]
    assert main(argv) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


def test_reproduce_cf_only(tmp_path, capsys):
    assert main(["reproduce", "fig9", "--cf-only", "--out", str(tmp_path)]) == 0
    table = capsys.readouterr().out
    for name in ("fig9a", "fig9b", "fig9c"):
        assert name in table
    report = (tmp_path / "fig9.report.csv").read_text()
    assert report.count(",660,") == 3
    assert (tmp_path / "fig9a.meta.json").exists()


def test_reproduce_unknown_family_exits_2(capsys):
    assert main(["reproduce", "fig4"]) == 2


def test_divergence_maps_to_exit_3(tmp_path, monkeypatch, capsys):
    def explode(sys, plans, *args, **kwargs):
        return [DivergenceError(0.25) for _ in plans]

    monkeypatch.setattr(pinnet.harness, "integrate_batch", explode)
    code = main(["simulate", "fig2b", "--h", "1e-3", "--T", "0.5"])
    assert code == 3
    assert "diverged" in capsys.readouterr().out
