import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutated
from pinnet.errors import ComparisonDefinitionError, PinnetError, ScenarioDefinitionError
from pinnet.harness import (
    ComparisonReport,
    initial_state,
    run_comparison,
    run_scenarios,
    sweep,
)
from pinnet.scenarios import (
    FAMILIES, SCENARIOS, PlanSpec, Scenario, SimParams, TopologySpec, get_scenario,
)

EXPECTED_CFS = {
    "fig2a": 3000.0, "fig2b": 120.0,
    "fig3a": 3500.0, "fig3b": 84.0,
    "fig5a": 9000.0, "fig5b": 225.0,
    "fig6a": 0.0, "fig6b": 0.0, "fig6c": 9000.0, "fig6d": 18000.0,
    "fig7": 330.0,
    "fig8a": 12000.0, "fig8b": 528.0,
    "fig9a": 660.0, "fig9b": 660.0, "fig9c": 660.0,
}


counts = st.integers(1, 30)
positive = st.floats(min_value=1e-6, max_value=1e6)
topology_specs = st.one_of(
    st.builds(TopologySpec, st.just("star"), n=counts),
    st.builds(TopologySpec, st.just("cluster"), branch_sizes=st.lists(counts, min_size=1).map(
        lambda sizes: tuple(sorted(sizes)))),
    st.builds(TopologySpec, st.just("ba"), n=counts, m0=counts, m=counts, seed=st.integers(0)),
)
plan_specs = st.one_of(
    st.builds(PlanSpec, st.just("none"), positive),
    st.builds(PlanSpec, st.just("by_degree"), positive, strategy=st.sampled_from(
        ["largest", "smallest"]), count=counts, gain=positive),
    st.builds(PlanSpec, st.just("mixed"), positive, largest=counts, smallest=counts, gain=positive),
    st.builds(PlanSpec, st.just("explicit"), positive, gains=st.dictionaries(counts, positive),
              n=st.none() | counts),
)
scenarios = st.builds(
    Scenario, st.text(min_size=1), topology_specs, plan_specs,
    st.builds(SimParams, h=positive, T=positive, tol=positive, init_seed=st.integers(0),
              record_every=counts),
    expected_cf=st.none() | positive,
)

# Valid scenario documents for the fuzz test to break: every topology kind and
# every plan form, the plan file written by `pinnet pin` included.
_STAR = get_scenario("fig2a").to_dict()
FUZZ_BASES = [
    _STAR,
    dict(_STAR, plan={"n": 9, "c": 10.0, "pins": [{"node": 0, "gain": 300.0}]}),
    dict(_STAR, plan={"kind": "explicit", "c": 10.0, "gains": {"0": 300.0}}),
    get_scenario("fig5b").to_dict(),
    get_scenario("fig6a").to_dict(),
    get_scenario("fig9b").to_dict(),
]


def quick(scenario: Scenario, h=1e-3, T=0.5) -> Scenario:
    """Shrink a scenario's horizon for fast sanity runs."""
    return dataclasses.replace(scenario, sim=dataclasses.replace(scenario.sim, h=h, T=T))


class TestScenarioRegistry:
    def test_all_families_cover_registry(self):
        assert sorted(n for f in FAMILIES.values() for n in f) == sorted(SCENARIOS)

    def test_shipped_costs(self):
        for name, cf in EXPECTED_CFS.items():
            row = run_scenarios([get_scenario(name)], simulate=False)[0]
            assert row.cf == cf, name

    def test_unknown_scenario(self):
        with pytest.raises(ScenarioDefinitionError):
            get_scenario("fig99")

    def test_scenario_json_round_trip(self):
        for scenario in SCENARIOS.values():
            assert Scenario.from_dict(json.loads(json.dumps(scenario.to_dict()))) == scenario

    @settings(max_examples=100, deadline=None)
    @given(scenario=scenarios)
    def test_generated_scenario_json_round_trip(self, scenario):
        assert Scenario.from_dict(json.loads(json.dumps(scenario.to_dict()))) == scenario

    @settings(max_examples=150, deadline=None)
    @given(doc=st.sampled_from(FUZZ_BASES).flatmap(mutated))
    def test_malformed_scenario_raises_pinnet_error(self, doc):
        try:
            scenario = Scenario.from_dict(doc)
            scenario.plan.build(scenario.topology.build())
        except PinnetError:
            pass

    @pytest.mark.parametrize("field,value", [
        ("h", float("nan")), ("h", float("inf")), ("h", 0.0),
        ("T", float("inf")), ("T", -1.0), ("tol", float("nan")), ("tol", 0.0),
        ("record_every", 0), ("init_seed", -1), ("init_seed", 1.5), ("init_seed", True),
    ])
    def test_sim_params_refuse_bad_values(self, field, value):
        sim = get_scenario("fig2a").sim
        with pytest.raises(ScenarioDefinitionError, match=f"sim.{field} must be"):
            dataclasses.replace(sim, **{field: value})

    def test_scenario_file_with_non_finite_step(self):
        d = get_scenario("fig2a").to_dict()
        d["sim"]["h"] = "nan"
        with pytest.raises(ScenarioDefinitionError, match="sim.h"):
            Scenario.from_dict(d)

    def test_cf_mismatch_fails_loudly(self):
        bad = dataclasses.replace(get_scenario("fig2a"), expected_cf=1234.0)
        with pytest.raises(ScenarioDefinitionError):
            run_scenarios([bad], simulate=False)

    def test_ba_family_mixed_plan_nodes(self):
        # fig9b pins the three hubs plus the two lowest-degree nodes, tie-broken
        # by index; the shipped instance has its two smallest nodes at degree 3
        from pinnet.topology import degrees

        scenario = get_scenario("fig9b")
        g = scenario.topology.build()
        plan = scenario.plan.build(g)
        deg = degrees(g)
        pinned = plan.pinned_nodes
        assert len(pinned) == 5
        hub_degrees = sorted((deg[i] for i in pinned), reverse=True)[:3]
        assert hub_degrees == [15, 13, 10]
        small = sorted(pinned, key=lambda i: deg[i])[:2]
        assert [deg[i] for i in small] == [3, 3]


class TestInitialState:
    def test_within_unit_distance(self):
        target = np.array([1.0, -2.0, 3.0])
        X0 = initial_state(target, 50, seed=4)
        assert np.all(np.linalg.norm(X0 - target, axis=1) <= 1.0)

    def test_deterministic(self):
        target = np.zeros(3)
        assert np.array_equal(initial_state(target, 10, 7), initial_state(target, 10, 7))
        assert not np.array_equal(initial_state(target, 10, 7), initial_state(target, 10, 8))


class TestRunScenario:
    def test_artifacts_and_reproducibility(self, tmp_path):
        scenario = quick(get_scenario("fig2b"))
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        row_a = run_scenarios([scenario], out_dir=dir_a)[0]
        row_b = run_scenarios([scenario], out_dir=dir_b)[0]
        assert row_a == row_b
        csv_a = (dir_a / "fig2b.csv").read_bytes()
        assert csv_a == (dir_b / "fig2b.csv").read_bytes()
        meta_a = (dir_a / "fig2b.meta.json").read_bytes()
        assert meta_a == (dir_b / "fig2b.meta.json").read_bytes()
        meta = json.loads(meta_a)
        assert meta["cf"] == 120.0
        assert meta["rng_algorithm"] == "PCG64"
        assert meta["scenario"]["sim"]["h"] == 1e-3
        assert {"lambda_max_controlled", "sigma_star", "sync_time", "outcome"} <= meta.keys()

    def test_csv_format(self, tmp_path):
        scenario = quick(get_scenario("fig2b"), T=0.05)
        run_scenarios([scenario], out_dir=tmp_path)
        lines = (tmp_path / "fig2b.csv").read_text().splitlines()
        assert lines[0] == "t,E"
        t, e = lines[1].split(",")
        assert float(t) == 0.0 and float(e) > 0.0

    def test_full_states_csv(self, tmp_path):
        scenario = quick(get_scenario("fig2b"), T=0.05)
        run_scenarios([scenario], out_dir=tmp_path, full_states=True)
        lines = (tmp_path / "fig2b.csv").read_text().splitlines()
        assert lines[0] == "t,node,x1,x2,x3"
        assert len(lines) == 1 + 9 * ((0.05 / 1e-3) / 5 + 1)

    def test_not_simulated_row(self):
        row = run_scenarios([get_scenario("fig6d")], simulate=False)[0]
        assert row.outcome == "not-simulated"
        assert row.sync_time is None
        assert row.cf == 18000.0


class TestRunComparison:
    def test_needs_two(self):
        with pytest.raises(ComparisonDefinitionError):
            run_comparison([get_scenario("fig2a")], simulate=False)

    def test_rejects_mixed_topologies(self):
        with pytest.raises(ComparisonDefinitionError):
            run_comparison(
                [get_scenario("fig2a"), get_scenario("fig5a")], simulate=False
            )

    def test_rows_sorted_and_written(self, tmp_path):
        report = run_comparison(
            [get_scenario("fig2b"), get_scenario("fig2a")],
            out_dir=tmp_path,
            simulate=False,
        )
        assert [r.name for r in report.rows] == ["fig2a", "fig2b"]
        csv_text = (tmp_path / "comparison.csv").read_text()
        assert csv_text.splitlines()[0] == "name,cf,pinned,lambda_max,sigma_star,sync_time,outcome"
        assert "fig2a,3000," in csv_text
        table = (tmp_path / "comparison.txt").read_text()
        assert "fig2b" in table and "not-simulated" in table

    def test_order_independent_content(self):
        a = run_comparison([get_scenario("fig2a"), get_scenario("fig2b")], simulate=False)
        b = run_comparison([get_scenario("fig2b"), get_scenario("fig2a")], simulate=False)
        assert a == b


class TestSweep:
    def test_epsilon_sweep_margin_check(self):
        base = get_scenario("fig2b")
        report = sweep(base, "epsilon", [0.5, 1.2, 3.0], simulate=False)
        lam = {r.name: r.lambda_max_controlled for r in report.rows}
        names = sorted(lam)
        # 8/7 ~ 1.1429 separates the star margin: 1.2 and 3.0 clear it, 0.5 does not
        assert lam[names[0]] > -1.0
        assert lam[names[1]] < -1.0
        assert lam[names[2]] < -1.0

    def test_c_sweep_scales_cf_linearly(self):
        base = get_scenario("fig2b")
        report = sweep(base, "c", [1.0, 2.0, 4.0], simulate=False)
        cfs = [r.cf for r in sorted(report.rows, key=lambda r: r.name)]
        assert cfs == [12.0, 24.0, 48.0]

    def test_fig6_style_epsilon_sweep(self):
        base = get_scenario("fig6c")
        report = sweep(base, "epsilon", [500.0, 1000.0], simulate=False)
        cfs = [r.cf for r in sorted(report.rows, key=lambda r: r.name)]
        assert cfs == [9000.0, 18000.0]

    def test_rejects_bad_values(self):
        base = get_scenario("fig2b")
        with pytest.raises(ScenarioDefinitionError):
            sweep(base, "epsilon", [], simulate=False)
        with pytest.raises(ScenarioDefinitionError):
            sweep(base, "epsilon", [1.0, -2.0], simulate=False)
        with pytest.raises(ScenarioDefinitionError):
            sweep(base, "h", [1.0], simulate=False)

    def test_zero_gain_plan_cannot_sweep_epsilon(self):
        with pytest.raises(ScenarioDefinitionError):
            sweep(get_scenario("fig6a"), "epsilon", [1.0], simulate=False)

    def test_writes_artifacts(self, tmp_path):
        sweep(get_scenario("fig2b"), "c", [1.0, 2.0], out_dir=tmp_path, simulate=False)
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "sweep.txt").exists()


class TestBaComparison:
    def test_small_degree_pinning_beats_hubs(self):
        # the shipped scale-free instance: eleven small nodes at CF 330
        # synchronize sooner than three hubs at CF 9000
        report = run_comparison([get_scenario("fig6c"), get_scenario("fig7")])
        rows = {r.name: r for r in report.rows}
        assert rows["fig7"].cf == 330.0 and rows["fig6c"].cf == 9000.0
        assert rows["fig7"].outcome == "synchronized"
        assert rows["fig7"].sync_time < rows["fig6c"].sync_time


class TestReportFormatting:
    def test_cf_printed_exactly(self):
        row = run_scenarios([get_scenario("fig2a")], simulate=False)[0]
        text = ComparisonReport((row,)).to_csv_text()
        assert ",3000," in text

    def test_fractional_cf_keeps_full_precision(self):
        base = get_scenario("fig2b")
        report = sweep(base, "c", [0.3], simulate=False)
        assert repr(0.3 * 12.0) in report.to_csv_text()
