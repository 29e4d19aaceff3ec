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


def test_simulate_again_beside_its_output_directory(tmp_path, monkeypatch, capsys):
    # The first run makes the directory fig2a; the second read it as a scenario file.
    monkeypatch.chdir(tmp_path)
    for _ in range(2):
        assert main(["simulate", "fig2a", "--out", "fig2a", "--T", "0.01"]) == 0
        assert capsys.readouterr().err == ""
    meta = json.loads((tmp_path / "fig2a" / "fig2a.meta.json").read_text())
    assert meta["scenario"]["name"] == "fig2a"


def test_missing_scenario_file_exits_2(capsys):
    assert main(["simulate", "nonexistent.json"]) == 2


def test_bad_explicit_pin_format_exits_2(tmp_path, capsys):
    edges, plan = tmp_path / "star.txt", tmp_path / "p.json"
    main(["topology", "star", "--n", "5", "--out", str(edges)])
    # An empty list is refused too, not taken as no --explicit at all.
    for explicit in ("0=5", ""):
        code = main(["pin", "--edges", str(edges), "--explicit", explicit, "--plan-out", str(plan)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"--explicit expects node:gain,... pairs, got {explicit!r}" in err
        assert not plan.exists()


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


@pytest.mark.parametrize("where,edit", [
    ("sim.record_evry", lambda d: d["sim"].update(record_evry=1)),
    ("topology.seed", lambda d: d["topology"].update(seed=7)),
    ("plan.gains", lambda d: d["plan"].update(gains={"0": 2.0})),
    ("scenario.notes", lambda d: d.update(notes="hub pinning")),
    ("plan.kind", lambda d: d.update(plan={"kind": "none", "c": 10.0, "pins": []})),
    ("plan.pins[0].weight",
     lambda d: d.update(plan={"c": 10.0, "pins": [{"node": 0, "gain": 3.0, "weight": 1}]})),
])
def test_scenario_file_with_unread_key_exits_2(where, edit, tmp_path, capsys):
    # A key no reader takes, a misspelt one above all, was ignored: a run with
    # "record_evry": 1 recorded every fifth step and exited 0.
    scenario = get_scenario("fig2b").to_dict()
    edit(scenario)
    path = tmp_path / "extra_key.json"
    path.write_text(json.dumps(scenario))
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {path}: {where} is not a known key" in capsys.readouterr().err
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


@pytest.mark.parametrize("vary", ["c", "epsilon"])
def test_sweep_non_finite_value_exits_2_naming_it(vary, tmp_path, capsys):
    # nan <= 0 is false: the value must be refused as such, not as a bad gain.
    argv = ["sweep", "fig2b", "--vary", vary, "--values", "1,nan", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "sweep value at position 1 must be finite and positive, got nan" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_gain_whose_cost_overflows_exits_2_naming_it(tmp_path, capsys):
    # Each gain is finite, but c * sum(gains) is not a float.
    argv = ["sweep", "fig2b", "--vary", "epsilon", "--values", "1e308", "--T", "0.01",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: fig2b+epsilon00=1e+308: cost c * sum(gains) overflows")
    assert not (tmp_path / "out").exists()


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
    assert (f"error: {path}: scenario 'fig5a' uses a different topology than 'fig2a'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("names", [[], ["fig2a"]])
def test_compare_needs_two_scenarios_exits_2(names, tmp_path, capsys):
    path = tmp_path / "cmp.json"
    path.write_text(json.dumps({"scenarios": names}))
    assert main(["compare", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {path}: comparison needs at least two scenarios" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_compare_repeated_name_exits_2_writing_nothing(tmp_path, capsys):
    twin = get_scenario("fig2b").to_dict()
    twin["name"] = "fig2a"
    path = tmp_path / "cmp.json"
    path.write_text(json.dumps({"scenarios": ["fig2a", twin]}))
    assert main(["compare", str(path), "--out", str(tmp_path / "out"), "--T", "0.1"]) == 2
    assert "error: scenario name 'fig2a' is used twice" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_compare_scenario_named_as_the_report_exits_2_writing_nothing(tmp_path, capsys):
    # Its time series comparison.csv was overwritten by the report, and the run exited 0.
    clash = dict(get_scenario("fig2b").to_dict(), name="comparison")
    path = tmp_path / "cmp.json"
    path.write_text(json.dumps({"scenarios": ["fig2a", clash]}))
    assert main(["compare", str(path), "--out", str(tmp_path / "out"), "--T", "0.01"]) == 2
    assert capsys.readouterr().err == (
        "error: scenario 'comparison' would overwrite the report comparison.csv\n")
    assert not (tmp_path / "out").exists()


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
    assert f"error: {field} must be finite and positive, got {float(value)!r}" in err


@pytest.mark.parametrize("T", ["0.00126", "0.0035"])
def test_horizon_off_the_record_grid_exits_2(T, tmp_path, capsys):
    # fig7 steps h = 5e-4 and records every 5th step: 0.00126 is no whole
    # number of steps, 0.0035 is 7 steps, not a whole number of records.
    assert main(["simulate", "fig7", "--T", T, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error: fig7: horizon T=" in err
    assert f"T={T}" in err and "h=0.0005" in err and "record_every=5" in err
    assert not list(tmp_path.iterdir())


def test_cf_only_run_refuses_no_horizon(tmp_path, capsys):
    # Analysis alone never integrates: a horizon off the record grid is no fault.
    assert main(["reproduce", "fig2", "--cf-only", "--T", "0.00126", "--out", str(tmp_path)]) == 0
    assert ",not-simulated" in (tmp_path / "fig2.report.csv").read_text()


def test_step_count_that_overflows_exits_2(tmp_path, capsys):
    # T / h is 8e321, past the largest float: no step count exists.
    out = tmp_path / "out"
    assert main(["simulate", "fig3b", "--h", "5e-324", "--T", "0.004", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: fig3b: T=0.004 / h=5e-324 overflows" in err
    assert not out.exists()


# numpy refuses both record arrays without allocating: 2e18 float64 records
# exceed its largest array size, and 2**64 / 1e-4 steps its largest dimension.
@pytest.mark.parametrize("T,records", [(1e15, 2 * 10**18 + 1), (2**64, None)],
                         ids=["too-big", "too-many"])
@pytest.mark.parametrize("full", [False, True], ids=["summary", "full"])
def test_horizon_whose_records_cannot_be_allocated_exits_2(T, records, full, tmp_path, capsys):
    d = get_scenario("fig2a").to_dict()
    d["sim"]["T"] = T
    path, out = tmp_path / "long.json", tmp_path / "out"
    path.write_text(json.dumps(d))
    assert main(["simulate", str(path), "--out", str(out)] + ["--full"] * full) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: fig2a: horizon T=")
    assert f"horizon T={float(T)!r} at h=0.0001 and record_every=5 needs" in err
    if records is not None:
        assert f"needs {records} records" in err
    assert not out.exists()


def test_record_refusal_names_its_group(tmp_path, capsys):
    # fig6a and fig6b share h = 1e-3: numpy refuses their (2e18 + 1, 3) error
    # array without allocating it.
    out = tmp_path / "out"
    assert main(["reproduce", "fig6", "--T", "1e16", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: fig6a, fig6b: horizon T=1e+16 at h=0.001")
    assert not out.exists()


def test_guard_refusal_names_its_sweep_member(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["sweep", "fig8b", "--vary", "c", "--values", "6,1000", "--T", "0.01"]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: fig8b+c01=1000: step h=0.0005 exceeds the stability guard "
        "2.5/24149.2 = 0.000104\n"
    )
    assert not out.exists()


def test_spectrum_of_an_edge_list_too_large_for_a_dense_matrix_exits_2(tmp_path, capsys):
    # No N x N matrix of 2**40 nodes can be held: numpy refuses it at once.
    edges = tmp_path / "huge.edges"
    edges.write_text(f"N {2**40}\n0 1\n")
    assert main(["spectrum", "--edges", str(edges)]) == 2
    captured = capsys.readouterr()
    assert f"error: {edges}: N {2**40} is too large" in captured.err
    assert captured.out == ""


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
    # An unknown strategy was first refused in degree_order, naming no field.
    ("plan", "strategy", "biggest"),
    # float() of an integer beyond the float range raised OverflowError.
    pytest.param("sim", "tol", 10**400, id="tol-10**400"),
])
def test_scenario_file_bad_field_exits_2(section, key, value, tmp_path, capsys):
    scenario = get_scenario("fig2b").to_dict()
    scenario[section][key] = value
    path = tmp_path / "bad_field.json"
    path.write_text(json.dumps(scenario))
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value", [("largest", -1), ("largest", 25), ("smallest", 21)])
def test_mixed_plan_count_outside_the_graph_exits_2(key, value, tmp_path, capsys):
    # The counts sliced the degree order unchecked: largest -1 pinned 19 of
    # fig9b's 20 nodes and largest 25 all of them, each exiting 0.
    scenario = get_scenario("fig9b").to_dict()
    scenario["plan"][key] = value
    del scenario["expected_cf"]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(scenario))
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"error: fig9b: plan.{key} {value} outside 0..20" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _edited(name: str, edit) -> dict:
    """Shipped scenario `name` as a document, without its expected cost, after `edit`."""
    scenario = get_scenario(name).to_dict()
    del scenario["expected_cf"]
    edit(scenario)
    return scenario


@pytest.mark.parametrize("name,edit,message", [
    ("fig9b", lambda d: d["plan"].update(largest=10, smallest=11),
     "mixed plan: largest and smallest sets overlap"),
    ("fig7", lambda d: d["plan"].update(count=99), "count 99 outside 1..20"),
    ("fig7", lambda d: d.update(plan={"kind": "explicit", "c": 6.0, "gains": {"25": 1.0}}),
     "node index 25 outside 0..19"),
    ("fig7", lambda d: d.update(plan={"n": 9, "c": 6.0, "pins": []}),
     "plan is for 9 nodes but the topology has 20"),
    ("fig7", lambda d: d["topology"].update(m=5),
     "need 1 <= m <= m0 < n_nodes, got m=5, m0=3, n_nodes=20"),
    ("fig5a", lambda d: d["topology"].update(branch_sizes=[3, 2]),
     "branch sizes must be ascending, got (3, 2)"),
    ("fig7", lambda d: d["plan"].update(gain=1e308),
     "cost c * sum(gains) overflows: c = 6.0, gains up to 1e+308 on 11 pinned nodes"),
], ids=["mixed-overlap", "count", "explicit-node", "pins-n", "ba-m",
        "cluster-order", "cost-overflow"])
def test_scenario_refused_against_its_graph_names_the_scenario(name, edit, message, tmp_path,
                                                               capsys):
    # A document that reads well but does not fit its graph was refused
    # without naming the scenario: only the cost overflow named it.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_edited(name, edit)))
    assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {name}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_compare_entry_refused_against_its_graph_names_it(tmp_path, capsys):
    bad = _edited("fig9b", lambda d: d["plan"].update(largest=-1))
    path = tmp_path / "cmp.json"
    path.write_text(json.dumps({"scenarios": [get_scenario("fig9a").to_dict(), bad]}))
    assert main(["compare", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: fig9b: plan.largest -1 outside 0..20\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["../escaped", "a/b", ""], ids=["parent", "subdir", "empty"])
def test_scenario_name_that_is_no_file_name_exits_2(name, tmp_path, capsys):
    # The name is the artifacts' stem: "../escaped" wrote beside --out and
    # exited 0, "a/b" made --out and then failed, "" wrote hidden files.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(dict(get_scenario("fig2b").to_dict(), name=name)))
    assert main(["simulate", str(path), "--out", str(tmp_path / "out"), "--T", "0.01"]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: scenario.name must be a file name, without '/', '\\' or NUL, "
        f"got {name!r}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


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
    # A comparison names its own file and the entry before the scenario file.
    entry = "" if command == "simulate" else f"{comparison}: scenarios[0]: "
    assert (f"error: {entry}{path}: topology.n must be an integer, got 'abc'"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("entry,message", [
    ({"name": "x"}, "scenario.topology is missing"),
    (5, "an entry that is not an object must be a string, got 5"),
    (None, "an entry that is not an object must be a string, got None"),
    ("fig99", "unknown scenario 'fig99'"),
    ("no_such_file.json", "[Errno 2] No such file or directory: 'no_such_file.json'"),
])
def test_compare_bad_entry_names_the_file_and_position(entry, message, tmp_path, capsys):
    path = tmp_path / "comparison.json"
    path.write_text(json.dumps({"scenarios": ["fig2a", entry]}))
    assert main(["compare", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {path}: scenarios[1]: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option,text,where", [
    ("--edges", "N 3\n1\n", "edges:2"),
    ("--edges", "N 3\n0 1 2\n", "edges:2"),
    ("--edges", "N x\n0 1\n", "edges:1"),
    ("--edges", "N 3\n0 1\n0 1\n1 0\n", "edges:3: edge 0 1 repeats the edge on line 2"),
    ("--edges", "N 3\n0 1\n1 2\n1 0\n", "edges:4: edge 1 0 repeats the edge on line 2"),
    ("--edges", "N 4\n0 1\n\n2 2\n", "edges:4: self-loop at node 2"),
    ("--edges", "N 4\n0 1\n1 7\n", "edges:3: edge (1,7) outside 0..3"),
    ("--edges", "N 4\n-1 2\n", "edges:2: edge (-1,2) outside 0..3"),
    ("--edges", "N 0\n", "edges:1: graph needs at least one node, got 0"),
    ("--plan", '{"n": 3, "c": 1.0}', "plan: pins is missing"),
    ("--plan", '{"n": 3, "c": 1.0, "pins": [{"node": "a", "gain": 1.0}]}', "plan: pins[0].node"),
    ("--plan", '{"n": 3, "c": 1.0, "pins": [{"node": 1, "gain": 1.0}, {"node": 1, "gain": 2.0}]}',
     "plan: pins[1]: node 1 is pinned twice"),
    ("--plan", '{"n": 3, "c": 1.0, "pins": [], "note": "hubs"}', "plan: note is not a known key"),
    ("--edges", b"N 3\n0 1\xff\n", "edges: not UTF-8 text"),
    ("--plan", "not json", "plan: not JSON"),
    ("simulate", b"\xff\xfe{}", "scenario.json: not UTF-8 text"),
    ("compare", '{"scenarios": ["fig2a", "fig2b"]', "comparison.json: not JSON"),
    # json.loads hands the literal to int(), whose plain ValueError escaped.
    pytest.param("simulate", '{"name": ' + "9" * 5000 + "}",
                 "scenario.json: an integer has more than 4300 digits", id="integer-5000-digits"),
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
    assert f"error: {path}: {message}" in capsys.readouterr().err


def test_compare_unknown_key_exits_2(tmp_path, capsys):
    path = tmp_path / "comparison.json"
    path.write_text(json.dumps({"scenarios": ["fig2a", "fig2b"], "scenarois": ["fig3a"]}))
    assert main(["compare", str(path), "--out", str(tmp_path / "out"), "--T", "0.01"]) == 2
    assert (f"error: {path}: scenarois is not a known key (expected one of scenarios)"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


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
