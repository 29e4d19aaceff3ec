import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinnet.harness
from conftest import mutated
from pinnet.dynamics import integrate_batch, sync_time
from pinnet.errors import DivergenceError, PinnetError, ScenarioDefinitionError
from pinnet.harness import (
    ComparisonReport,
    build_system,
    initial_state,
    run_scenarios,
    sweep,
    write_report,
)
from pinnet.scenarios import (
    FAMILIES, SCENARIOS, PlanSpec, Scenario, SimParams, TopologySpec, get_scenario,
)
from shipped_rows import SHIPPED_ROWS, TOL

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
scenarios = st.builds(  # a name is a file stem and a CSV field: printable, no separator or comma
    Scenario, st.text(st.characters(exclude_characters="/\\,").filter(str.isprintable), min_size=1),
    topology_specs, plan_specs,
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

    def test_every_plan_form_loads(self):
        # Each key of these forms is read, so none is refused as unknown.
        for doc in FUZZ_BASES:
            Scenario.from_dict(doc)

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

    @pytest.mark.parametrize("plan,message", [
        ({"kind": "explicit", "c": 1.0, "gains": {"x": 1.0}},
         "plan.gains key 'x' is not a node index"),
        ({"kind": "mixed", "c": 1.0, "largest": 1, "smallest": 9, "gain": 1.0},
         "mixed plan: largest and smallest sets overlap"),
        ({"kind": "mixed", "c": 1.0, "largest": -1, "smallest": 0, "gain": 1.0},
         "plan.largest -1 outside 0..9"),
        ({"kind": "mixed", "c": 1.0, "largest": 0, "smallest": 10, "gain": 1.0},
         "plan.smallest 10 outside 0..9"),
        # Refused when the document is read, not first in degree_order.
        ({"kind": "by_degree", "c": 1.0, "strategy": "biggest", "count": 1, "gain": 1.0},
         "plan.strategy must be largest or smallest, got 'biggest'"),
    ], ids=["explicit-key", "mixed-overlap", "mixed-largest-negative", "mixed-smallest-over-n",
            "by-degree-strategy"])
    def test_plan_recipe_refused(self, plan, message):
        d = get_scenario("fig2b").to_dict()
        d["plan"] = plan
        with pytest.raises(ScenarioDefinitionError, match=f"^{re.escape(message)}$"):
            scenario = Scenario.from_dict(d)
            scenario.plan.build(scenario.topology.build())

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

    @pytest.mark.parametrize("names,distinct", [
        (["fig8b"] * 12, 1), (["fig2a", "fig2b", "fig5a"], 2),
    ])
    def test_each_topology_is_built_once(self, names, distinct, monkeypatch):
        calls = {"build": 0, "mode_threshold": 0}
        build, threshold = TopologySpec.build, pinnet.harness.mode_threshold

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(TopologySpec, "build", counted("build", build))
        monkeypatch.setattr(pinnet.harness, "mode_threshold", counted("mode_threshold", threshold))
        scenarios = [
            dataclasses.replace(get_scenario(name), name=f"{name}.{i}")
            for i, name in enumerate(names)
        ]
        rows = run_scenarios(scenarios, simulate=False)
        assert calls == {"build": distinct, "mode_threshold": distinct}
        assert [r.cf for r in rows] == [EXPECTED_CFS[name] for name in names]


class TestComparisonReport:
    # A comparison's refusals (fewer than two scenarios, mixed topologies)
    # are checks on its input file, tested through the CLI in test_cli.py.
    def test_rows_sorted_and_written(self, tmp_path):
        rows = run_scenarios(
            [get_scenario("fig2b"), get_scenario("fig2a")], tmp_path, simulate=False
        )
        report = write_report(rows, tmp_path, "comparison")
        assert [r.name for r in report.rows] == ["fig2a", "fig2b"]
        csv_text = (tmp_path / "comparison.csv").read_text()
        assert csv_text.splitlines()[0] == "name,cf,pinned,lambda_max,sigma_star,sync_time,outcome"
        assert "fig2a,3000," in csv_text
        table = (tmp_path / "comparison.txt").read_text()
        assert "fig2b" in table and "not-simulated" in table

    def test_order_independent_content(self):
        def report(names):
            rows = run_scenarios([get_scenario(n) for n in names], simulate=False)
            return write_report(rows, None, "comparison")

        assert report(["fig2a", "fig2b"]) == report(["fig2b", "fig2a"])

    def test_refuses_a_repeated_name_before_building(self, tmp_path, monkeypatch):
        # Two runs named alike would write one fig2a.csv and one fig2a.meta.json,
        # the second overwriting the first, and two fig2a rows in input order.
        monkeypatch.setattr(TopologySpec, "build", lambda spec: pytest.fail("built"))
        twin = dataclasses.replace(get_scenario("fig2b"), name="fig2a")
        with pytest.raises(ScenarioDefinitionError, match="'fig2a' is used twice"):
            run_scenarios([get_scenario("fig2a"), twin], tmp_path)
        assert not any(tmp_path.iterdir())


class TestSweep:
    def test_epsilon_sweep_margin_check(self):
        base = get_scenario("fig2b")
        rows = run_scenarios(sweep(base, "epsilon", [0.5, 1.2, 3.0]), simulate=False)
        lam = {r.name: r.lambda_max_controlled for r in rows}
        names = sorted(lam)
        # 8/7 ~ 1.1429 separates the star margin: 1.2 and 3.0 clear it, 0.5 does not
        assert lam[names[0]] > -1.0
        assert lam[names[1]] < -1.0
        assert lam[names[2]] < -1.0

    def test_c_sweep_scales_cf_linearly(self):
        base = get_scenario("fig2b")
        rows = run_scenarios(sweep(base, "c", [1.0, 2.0, 4.0]), simulate=False)
        cfs = [r.cf for r in sorted(rows, key=lambda r: r.name)]
        assert cfs == [12.0, 24.0, 48.0]

    def test_epsilon_sweep_on_explicit_plan_sets_every_gain(self):
        plan = PlanSpec("explicit", 2.0, gains={1: 1.0, 4: 3.0})
        base = dataclasses.replace(get_scenario("fig2b"), plan=plan, expected_cf=None)
        derived = sweep(base, "epsilon", [1.5, 6.0])
        assert [s.plan.gains for s in derived] == [{1: 1.5, 4: 1.5}, {1: 6.0, 4: 6.0}]
        rows = run_scenarios(derived, simulate=False)
        assert [r.cf for r in sorted(rows, key=lambda r: r.name)] == [6.0, 24.0]

    def test_fig6_style_epsilon_sweep(self):
        base = get_scenario("fig6c")
        rows = run_scenarios(sweep(base, "epsilon", [500.0, 1000.0]), simulate=False)
        cfs = [r.cf for r in sorted(rows, key=lambda r: r.name)]
        assert cfs == [9000.0, 18000.0]

    def test_rejects_bad_values(self):
        base = get_scenario("fig2b")
        with pytest.raises(ScenarioDefinitionError):
            sweep(base, "epsilon", [])
        with pytest.raises(ScenarioDefinitionError):
            sweep(base, "epsilon", [1.0, -2.0])
        with pytest.raises(ScenarioDefinitionError):
            sweep(base, "h", [1.0])

    @pytest.mark.parametrize("bad", [math.nan, -math.nan, math.inf, -math.inf, 0.0])
    def test_refuses_a_non_finite_or_nonpositive_value_naming_it(self, bad):
        with pytest.raises(ScenarioDefinitionError,
                           match=rf"^sweep value at position 1 must be finite and positive, got {bad!r}$"):
            sweep(get_scenario("fig2b"), "epsilon", [1.0, bad, 2.0])

    def test_zero_gain_plan_cannot_sweep_epsilon(self):
        with pytest.raises(ScenarioDefinitionError):
            sweep(get_scenario("fig6a"), "epsilon", [1.0])

    def test_writes_artifacts(self, tmp_path):
        derived = sweep(get_scenario("fig2b"), "c", [1.0, 2.0])
        write_report(run_scenarios(derived, tmp_path, simulate=False), tmp_path, "sweep")
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "sweep.txt").exists()


def test_shipped_rows_match_the_committed_table(shipped_rows):
    mismatches = []
    for name, (cf, pinned, lam, sigma, sync, outcome) in SHIPPED_ROWS.items():
        row = shipped_rows[name]
        if not (row.cf == cf and row.pinned_count == pinned
                and abs(row.lambda_max_controlled - lam) <= TOL
                and abs(row.sigma_star - sigma) <= TOL
                and row.sync_time == sync and row.outcome == outcome):
            mismatches.append(f"{name}: {row} != {SHIPPED_ROWS[name]}")
    assert sorted(shipped_rows) == sorted(SHIPPED_ROWS)
    assert not mismatches, "\n".join(mismatches)


# The shipped scenarios whose sync times are nearest to moving: the least
# distance of their error E to tol on the record grid is only 8.4 (fig5a) and
# 7.7 (fig8a) times the largest change in E that halving h makes.
KNIFE_EDGE = ("fig5a", "fig8a")


def _moved(name, label, got, row):
    """A line naming scenario `name` if its (outcome, sync time) `got` differs from `row`'s."""
    want = (row.outcome, row.sync_time)
    return [] if got == want else [f"{name} ({label}): {got} != shipped {want}"]


def test_halved_step_on_the_same_record_grid_moves_no_sync_time(shipped_rows):
    # Truncation: at h/2, every second step recorded, each time on the grid
    # is the shipped one, and the outcome and sync time must be too.
    halved = [dataclasses.replace(s, sim=dataclasses.replace(
        s.sim, h=s.sim.h / 2, record_every=2 * s.sim.record_every))
        for s in map(get_scenario, KNIFE_EDGE)]
    moved = [line for row in run_scenarios(halved) for line in _moved(
        row.name, "h/2", (row.outcome, row.sync_time), shipped_rows[row.name])]
    assert not moved, "\n".join(moved)


def test_one_ulp_nudge_of_the_start_moves_no_sync_time(shipped_rows):
    # Roundoff: the shipped start and the start one ulp above it, as one
    # two-member batch, both give the shipped outcome and sync time.
    moved = []
    for s in map(get_scenario, KNIFE_EDGE):
        g = s.topology.build()
        sys, plan = build_system(g), s.plan.build(g)
        X0 = initial_state(sys.target, sys.n_nodes, s.sim.init_seed)
        batch = integrate_batch(sys, [plan, plan], np.array([X0, np.nextafter(X0, np.inf)]),
                                s.sim.h, s.sim.T, s.sim.record_every)
        for label, result in zip(("shipped start", "nudged start"), batch):
            at = None if isinstance(result, DivergenceError) else sync_time(result, s.sim.tol)
            outcome = ("diverged" if isinstance(result, DivergenceError) else
                       "not-synchronized" if at is None else "synchronized")
            moved += _moved(s.name, label, (outcome, at), shipped_rows[s.name])
    assert not moved, "\n".join(moved)


class TestBaComparison:
    def test_small_degree_pinning_beats_hubs(self, shipped_rows):
        # the shipped scale-free instance: eleven small nodes at CF 330
        # synchronize sooner than three hubs at CF 9000
        rows = shipped_rows
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
        rows = run_scenarios(sweep(base, "c", [0.3]), simulate=False)
        assert repr(0.3 * 12.0) in ComparisonReport(tuple(rows)).to_csv_text()
