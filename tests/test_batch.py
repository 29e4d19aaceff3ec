"""Batched integration: every member of a batch equals its solo run, bit for bit."""

import dataclasses

import numpy as np
import pytest

import pinnet.dynamics
import pinnet.harness
from pinnet.cli import main
from dynamics_oracle import field_at, integrate_one, linear_field, sync_error
from pinnet.dynamics import NetworkSystem, NodeDynamics, _pad, _rhs, integrate_batch
from pinnet.errors import ContractViolationError, DivergenceError
from pinnet.harness import build_system, initial_state, run_scenarios, sweep, write_report
from pinnet.pinning import PinningPlan
from pinnet.scenarios import get_scenario
from pinnet.topology import barabasi_albert, coupling_matrix

# The seed-0 gains of the benchmark's sweep_ba workload and their sync times.
SWEEP_GAINS = (0.5, 1.0, 1.5, 2.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0, 30.0, 50.0)
SWEEP_SYNC = (
    None, None, None, None, 1.735, 1.4000000000000001, 1.2375, 1.21, 1.1525, 1.1375,
    1.2225, 1.3125,
)


def scenario_system(name):
    """A shipped scenario's network and its plan, both resolved on its graph."""
    scenario = get_scenario(name)
    g = scenario.topology.build()
    return build_system(g), scenario.plan.build(g)


def derived_epsilon(base, i, gain):
    """The scenario sweep() derives for position i and gain."""
    plan = dataclasses.replace(base.plan, gain=float(gain))
    return dataclasses.replace(
        base, name=f"{base.name}+epsilon{i:02d}={gain:g}", plan=plan, expected_cf=None
    )


@pytest.fixture(scope="module")
def fig8b_sweep(tmp_path_factory):
    """The fig8b gain sweep at T = 2, batched and one member at a time.

    Both runs go through the harness; the integrator it calls is wrapped so
    the tests can compare the in-memory results, not only the artifacts.
    Each solo run is a batch of one, captured as its single result.
    """
    base = get_scenario("fig8b")
    base = dataclasses.replace(base, sim=dataclasses.replace(base.sim, T=2.0))
    batched_dir = tmp_path_factory.mktemp("batched")
    solo_dir = tmp_path_factory.mktemp("solo")
    captured = {"batch": [], "solo": []}
    integrate = pinnet.harness.integrate_batch

    def capture(kind):
        def wrapper(*args, **kwargs):
            out = integrate(*args, **kwargs)
            captured[kind].append(out)
            return out
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pinnet.harness, "integrate_batch", capture("batch"))
        rows = run_scenarios(sweep(base, "epsilon", SWEEP_GAINS), batched_dir)
        report = write_report(rows, batched_dir, "sweep")
        mp.setattr(pinnet.harness, "integrate_batch", capture("solo"))
        solo_rows = [
            run_scenarios([derived_epsilon(base, i, g)], out_dir=solo_dir)[0]
            for i, g in enumerate(SWEEP_GAINS)
        ]
    captured["solo"] = [result for (result,) in captured["solo"]]
    return report, solo_rows, captured, batched_dir, solo_dir


def test_sweep_runs_as_one_batch(fig8b_sweep):
    _, _, captured, _, _ = fig8b_sweep
    assert len(captured["batch"]) == 1
    assert len(captured["batch"][0]) == len(SWEEP_GAINS)
    assert len(captured["solo"]) == len(SWEEP_GAINS)


def test_batched_sweep_equals_solo_runs_bitwise(fig8b_sweep):
    report, solo_rows, captured, batched_dir, solo_dir = fig8b_sweep
    assert list(report.rows) == solo_rows
    for batched, solo in zip(captured["batch"][0], captured["solo"]):
        assert np.array_equal(batched.times, solo.times)
        assert np.array_equal(batched.error_metric, solo.error_metric)
    for row in solo_rows:
        for suffix in (".csv", ".meta.json"):
            name = row.name + suffix
            assert (batched_dir / name).read_bytes() == (solo_dir / name).read_bytes()


def test_batched_sweep_golden_sync_times(fig8b_sweep):
    report = fig8b_sweep[0]
    assert [r.sync_time for r in report.rows] == list(SWEEP_SYNC)
    assert [r.outcome for r in report.rows] == (
        ["not-synchronized"] * 4 + ["synchronized"] * 8
    )


def test_sweep_draws_its_shared_initial_state_once(monkeypatch):
    # The twelve members share the base scenario's seed: one rejection-
    # sampling draw serves them all (the bitwise test above checks the states).
    seeds = []
    draw = pinnet.harness.initial_state

    def spy(target, n_nodes, seed):
        seeds.append(seed)
        return draw(target, n_nodes, seed)

    monkeypatch.setattr(pinnet.harness, "initial_state", spy)
    base = get_scenario("fig8b")
    base = dataclasses.replace(base, sim=dataclasses.replace(base.sim, T=0.01))
    run_scenarios(sweep(base, "epsilon", SWEEP_GAINS))
    assert seeds == [base.sim.init_seed]


def reference_rk4(sys, plan, X, h, T, record_every):
    """The solo step loop integrate_batch replaced, kept as the bitwise reference."""
    c, eps = plan.coupling_strength, plan.gain_array()

    def rhs(X):
        out = field_at(sys.dynamics, X)
        if c != 0.0:
            out = out + c * (sys.coupling @ X) * sys.gamma
            if np.any(eps):
                out = out - c * eps[:, None] * (sys.gamma * (X - sys.target))
        return out

    states, errors = [X], [sync_error(X, sys.target)]
    for step in range(1, int(round(T / h)) + 1):
        k1 = rhs(X)
        k2 = rhs(X + 0.5 * h * k1)
        k3 = rhs(X + 0.5 * h * k2)
        k4 = rhs(X + h * k3)
        X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % record_every == 0:
            states.append(X)
            errors.append(sync_error(X, sys.target))
    return np.array(states), np.array(errors)


def test_mixed_batch_matches_reference_solo_loop():
    # Uncoupled, coupled but unpinned, leaf-pinned and mixed-pinned members on
    # the scale-free graph share one batch.
    names = ("fig6a", "fig6b", "fig8b", "fig9b")
    sys = scenario_system(names[0])[0]
    plans = [scenario_system(name)[1] for name in names]
    X0 = np.array([initial_state(sys.target, sys.n_nodes, i) for i in range(len(names))])
    h, T = 5e-4, 0.1
    batch = integrate_batch(sys, plans, X0, h, T, record_every=5)
    for plan, x0, result in zip(plans, X0, batch):
        states, errors = reference_rk4(sys, plan, x0, h, T, 5)
        assert np.array_equal(result.states, states)
        assert np.array_equal(result.error_metric, errors)


# Plans on the 20-node scale-free graph at h = 5e-4: uncoupled (fig6a),
# coupled but unpinned, leaf-, hub- and mixed-pinned.
BA_PLANS = ("fig7", "fig8b", "fig6a", "fig9a", "fig9b", "fig9c", "fig6b")


@pytest.mark.parametrize("B", [1, 2, 4, 5, 7])
def test_batch_sizes_match_reference_solo_loop(B):
    # B members sit in n-member GEMM groups padded to a multiple of n = 3:
    # one to three groups, with zero, one or two padding columns.
    sys = scenario_system("fig8b")[0]
    plans = [scenario_system(name)[1] for name in BA_PLANS[:B]]
    X0 = np.array([initial_state(sys.target, sys.n_nodes, 10 + b) for b in range(B)])
    h, T = 5e-4, 0.05
    batch = integrate_batch(sys, plans, X0, h, T, record_every=5)
    for plan, x0, result in zip(plans, X0, batch):
        states, errors = reference_rk4(sys, plan, x0, h, T, 5)
        assert np.array_equal(result.states, states)
        assert np.array_equal(result.error_metric, errors)


# The shipped star, cluster and scale-free graphs, and scale-free graphs of 2 to 60 nodes.
COUPLING_GRAPHS = (
    [pytest.param(name, get_scenario(name).topology.build(), id=name)
     for name in ("fig2a", "fig5a", "fig8b")]
    + [pytest.param(f"ba{n}", barabasi_albert(n, min(3, n - 1), min(3, n - 1), 1000 + n), id=f"ba{n}")
       for n in range(2, 61)]
)


@pytest.mark.parametrize("name, graph", COUPLING_GRAPHS)
def test_grouped_coupling_product_equals_each_members_own(name, graph):
    # The RHS forms (A X)_j of n members at a time, as one (N, N) @ (N, n)
    # GEMM over their j-th components: the call shape of one member's own
    # A @ X_b. With a zero field, c = 1 and no pin, the RHS is that product.
    rng = np.random.default_rng(len(name) * 1000 + graph.n_nodes)
    n, N, B = 3, graph.n_nodes, 9
    zero = NodeDynamics(n, lambda x, out: lambda: out.fill(0.0), lambda x: np.zeros((n, n)), 1.0)
    sys = NetworkSystem(zero, coupling_matrix(graph), np.ones(n), np.zeros(n))
    X = rng.uniform(-40.0, 40.0, (B, N, n))
    X[rng.random(X.shape) < 0.2] = 0.0
    X[rng.random(X.shape) < 0.1] *= 1e150
    planes, plans = _pad(X.T, [PinningPlan(N, (0.0,) * N, 1.0)] * B)
    out = np.empty_like(planes)
    _rhs(sys, plans, planes, out)()
    for b in range(B):
        own = sys.coupling @ X[b]
        assert np.array_equal(out[..., b].T, own), (
            f"{name}: member {b}'s coupling product differs from its own A @ X_b; a "
            "column's result must not depend on its position in the GEMM or on its neighbours"
        )


@pytest.mark.parametrize("B", [4, 5], ids=["two-padding-columns", "one-padding-column"])
def test_divergence_of_the_padded_member(B, monkeypatch):
    # Padding copies the last member, which blows up: its padding goes with
    # it, raises nothing of its own, and is reset in place with it. The batch
    # keeps its width of 6 columns, and the RHS is bound once per stage buffer.
    binds = []
    bind = pinnet.dynamics._rhs

    def spy(*args):
        binds.append(len(args[1]))
        return bind(*args)

    monkeypatch.setattr(pinnet.dynamics, "_rhs", spy)
    sys, leaf_plan = scenario_system("fig2b")
    hub_plan = scenario_system("fig2a")[1]
    plans = [leaf_plan, hub_plan, PinningPlan(9, (0.0,) * 9, 0.0), leaf_plan][:B - 1] + [hub_plan]
    X0 = np.array([initial_state(sys.target, 9, seed) for seed in range(1, B + 1)])
    X0[-1] += 1e4
    h, T = 5e-4, 0.25
    batch = integrate_batch(sys, plans, X0, h, T, record_every=5)
    assert isinstance(batch[-1], DivergenceError)
    assert binds == [6, 6]
    assert batch[-1].time == first_non_finite_time(sys, plans[-1], X0[-1], h, T)
    for plan, x0, result in zip(plans[:-1], X0, batch):
        states, errors = reference_rk4(sys, plan, x0, h, T, 5)
        assert np.array_equal(result.states, states)
        assert np.array_equal(result.error_metric, errors)


def test_start_state_memory_layout_does_not_matter():
    # The RHS reads and writes views bound once to the state buffers, so the
    # integrator must hold the state C-contiguous whatever layout X0 has.
    sys, plan = scenario_system("fig8b")
    X0 = np.array([initial_state(sys.target, sys.n_nodes, seed) for seed in (1, 2)])
    plans = [plan, plan]
    c_order = integrate_batch(sys, plans, X0, 5e-4, 0.05, record_every=5)
    f_order = integrate_batch(sys, plans, np.asfortranarray(X0), 5e-4, 0.05, record_every=5)
    for a, b in zip(c_order, f_order):
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.error_metric, b.error_metric)


def test_divergence_inside_a_batch():
    # Hub pinning, leaf pinning and the uncoupled network on the 9-node star;
    # the hub member starts far off and blows up, the others must not notice.
    sys, leaf_plan = scenario_system("fig2b")
    plans = [leaf_plan, scenario_system("fig2a")[1], PinningPlan(9, (0.0,) * 9, 0.0)]
    X0 = np.array([initial_state(sys.target, 9, seed) for seed in (1, 2, 3)])
    X0[1] += 1e4
    h, T = 5e-4, 0.25
    batch = integrate_batch(sys, plans, X0, h, T, record_every=5)

    with pytest.raises(DivergenceError) as solo_blowup:
        integrate_one(sys, plans[1], X0[1], h, T, record_every=5)
    assert isinstance(batch[1], DivergenceError)
    assert batch[1].time == solo_blowup.value.time
    for b in (0, 2):
        solo = integrate_one(sys, plans[b], X0[b], h, T, record_every=5)
        assert np.array_equal(batch[b].times, solo.times)
        assert np.array_equal(batch[b].states, solo.states)
        assert np.array_equal(batch[b].error_metric, solo.error_metric)
        # The batch with the diverged member reset in place, against the plain loop.
        states, errors = reference_rk4(sys, plans[b], X0[b], h, T, 5)
        assert np.array_equal(batch[b].states, states)
        assert np.array_equal(batch[b].error_metric, errors)


def zero_field_star():
    """The 9-node star under a zero node field, with the zero target."""
    def bind(x, out):
        return lambda: out.fill(0.0)

    return dataclasses.replace(
        scenario_system("fig2b")[0],
        dynamics=NodeDynamics(3, bind, lambda x: np.zeros((3, 3)), 1.0),
        target=np.zeros(3),
    )


def test_finite_state_with_overflowing_sum_is_kept():
    # Entries of +-1e308 are finite, but their sum overflows to inf; with a
    # zero field and no edges the state must stay as it started.
    sys = dataclasses.replace(zero_field_star(), coupling=np.zeros((9, 9)))
    X0 = np.stack([np.full((9, 3), 1e308), np.full((9, 3), -1e308)])
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.add.reduce(X0, None))
    plan = PinningPlan(9, (0.0,) * 9, 0.0)
    batch = integrate_batch(sys, [plan, plan], X0, 1e-3, 0.01, record_every=5)
    for x0, result in zip(X0, batch):
        assert not isinstance(result, DivergenceError)
        assert all(np.array_equal(x, x0) for x in result.states)


def test_uncoupled_member_ignores_an_overflowing_coupling_product():
    # At 1e308 every entry is finite but the star's A @ X is not; a member
    # with c = 0 takes no coupling term, so its state must stay as it started.
    sys = zero_field_star()
    X0 = np.full((1, 9, 3), 1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(sys.coupling @ X0[0]).all()
    (result,) = integrate_batch(sys, [PinningPlan(9, (0.0,) * 9, 0.0)], X0, 1e-3, 0.01)
    assert not isinstance(result, DivergenceError)
    assert all(np.array_equal(x, X0[0]) for x in result.states)


@pytest.mark.parametrize("members", [[0, 1, 2, 3], [1, 2], [1, 0], [1, 0, 2]],
                         ids=["mixed-c", "all-coupled", "c0-in-the-padding-group",
                              "c0-between-coupled"])
def test_two_coupled_columns_match_reference_solo_loop(members):
    # Gamma = (1, 0, 1) under a linear field on the 9-node star: both coupled
    # columns share the RHS's product block. The c = 0 members take no term;
    # the first starts at 1e308, where the star's A @ X overflows though the
    # state stays finite. One coupled member pins no node. The members keep
    # the order given, so "c0-between-coupled" couples two runs of columns.
    # The last member is padded: with c = 0 ("mixed-c",
    # "c0-in-the-padding-group"), its padding takes no term either.
    rng = np.random.default_rng(7)
    F = rng.uniform(-0.05, 0.05, (3, 3))
    target = rng.uniform(-1.0, 1.0, 3)
    F -= np.outer(F @ target, target) / (target @ target)  # F s ~ 0: s is the target
    sys = dataclasses.replace(zero_field_star(), dynamics=linear_field(F),
                              gamma=np.array([1.0, 0.0, 1.0]), target=target)
    gains = tuple(rng.uniform(0.0, 3.0, 9))
    plans = [PinningPlan(9, gains, 0.0), PinningPlan(9, gains, 0.5),
             PinningPlan(9, (0.0,) * 9, 2.0), PinningPlan(9, gains, 0.0)]
    X0 = target + rng.uniform(-2.0, 2.0, (4, 9, 3))
    X0[0] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(sys.coupling @ X0[0]).all()
    h, T = 1e-2, 0.5
    batch = integrate_batch(sys, [plans[b] for b in members], X0[members], h, T)
    for b, result in zip(members, batch):
        assert not isinstance(result, DivergenceError)
        with np.errstate(over="ignore"):
            states, errors = reference_rk4(sys, plans[b], X0[b], h, T, 1)
        assert np.array_equal(result.states, states)
        assert np.array_equal(result.error_metric, errors)


def first_non_finite_time(sys, plan, x0, h, T):
    """The time of the first step at which the plain RK4 loop's state is not finite."""
    with np.errstate(all="ignore"):
        states, _ = reference_rk4(sys, plan, x0, h, T, 1)
    step = int(np.argmin(np.isfinite(states).all(axis=(1, 2))))
    assert step > 0
    return step * h


@pytest.mark.parametrize("case", ["blow-up", "overflowing-sum"])
def test_divergence_time_is_the_first_non_finite_step(case):
    star_sys, plan = scenario_system("fig2b")
    if case == "blow-up":
        # The hub-pinned star started far off: the chaotic field blows up.
        sys, h, T = star_sys, 5e-4, 0.25
        X0 = np.array([initial_state(sys.target, 9, seed) for seed in (1, 2)])
        X0[0] += 1e4
    else:
        # Growth x' = x/2 from 1e307 on nodes without edges: the batch's sum
        # overflows for several steps while every entry is still finite.
        sys = dataclasses.replace(
            star_sys, dynamics=linear_field(0.5 * np.eye(3)), coupling=np.zeros((9, 9)),
            target=np.zeros(3),
        )
        plan = PinningPlan(9, (0.0,) * 9, 0.0)
        h, T = 0.5, 10.0
        X0 = np.stack([np.full((9, 3), 1e307), np.ones((9, 3))])
    batch = integrate_batch(sys, [plan, plan], X0, h, T)
    assert isinstance(batch[0], DivergenceError)
    assert batch[0].time == first_non_finite_time(sys, plan, X0[0], h, T)
    assert not isinstance(batch[1], DivergenceError)


def test_uncoupled_member_diverges_at_its_first_non_finite_step():
    # Growth x' = x/2 from 1e307 on the star: A @ X overflows steps before the
    # state does. The c = 0 member must diverge when the plain loop does, not
    # when its coupling product first overflows; its coupled mate runs on.
    sys = dataclasses.replace(zero_field_star(), dynamics=linear_field(0.5 * np.eye(3)))
    uncoupled, coupled = PinningPlan(9, (0.0,) * 9, 0.0), PinningPlan(9, (0.0,) * 9, 0.1)
    X0 = np.stack([np.full((9, 3), 1e307), np.ones((9, 3))])
    h, T = 0.5, 10.0
    batch = integrate_batch(sys, [uncoupled, coupled], X0, h, T)
    assert isinstance(batch[0], DivergenceError)
    expected = first_non_finite_time(sys, uncoupled, X0[0], h, T)
    assert batch[0].time == expected
    assert not isinstance(batch[1], DivergenceError)


def test_every_member_diverging_returns_errors():
    sys, plan = scenario_system("fig2b")
    X0 = np.tile(sys.target + 1e4, (2, 9, 1))
    batch = integrate_batch(sys, [plan, plan], X0, 1e-3, 0.5)
    assert all(isinstance(r, DivergenceError) for r in batch)


def test_summary_batch_records_no_states():
    sys, plan = scenario_system("fig2b")
    X0 = initial_state(sys.target, 9, 0)[None]
    (result,) = integrate_batch(sys, [plan], X0, 1e-3, 0.1, record_states=False)
    assert result.states is None
    assert len(result.error_metric) == 101


@pytest.mark.parametrize("h", [1e-4, 2e-4, 5e-4])
def test_record_times_are_step_times_h_bitwise(h):
    # Each record's time has the bits of step * h, the product of Python
    # numbers, at every record of a 2000-step run.
    sys, plan = scenario_system("fig2b")
    X0 = initial_state(sys.target, 9, 0)[None]
    steps, record_every = 2000, 5
    (result,) = integrate_batch(sys, [plan], X0, h, steps * h, record_every, record_states=False)
    expected = np.array([step * h for step in range(0, steps + 1, record_every)])
    assert result.times.dtype == expected.dtype
    assert np.array_equal(result.times.view(np.int64), expected.view(np.int64))


def test_batch_rejects_mismatched_states():
    sys, plan = scenario_system("fig2b")
    with pytest.raises(ContractViolationError):
        integrate_batch(sys, [plan, plan], np.zeros((1, 9, 3)), 1e-3, 0.1)


def test_batch_rejects_a_plan_on_other_nodes():
    sys, plan = scenario_system("fig2b")
    X0 = np.tile(sys.target, (2, 9, 1))
    with pytest.raises(ContractViolationError, match="system's 9 nodes"):
        integrate_batch(sys, [plan, PinningPlan(8, (0.0,) * 8, 1.0)], X0, 1e-3, 0.1)


def test_empty_batch_binds_no_rhs(monkeypatch):
    sys, _ = scenario_system("fig2a")

    def refuse(*args):
        raise AssertionError("an empty batch bound the RHS")

    monkeypatch.setattr(pinnet.dynamics, "_rhs", refuse)
    assert integrate_batch(sys, [], np.empty((0, 9, 3)), 1e-4, 5.0, 5) == []


def test_c_sweep_guard_failure_matches_solo_message():
    base = get_scenario("fig8b")
    base = dataclasses.replace(base, sim=dataclasses.replace(base.sim, T=0.01))
    with pytest.raises(ContractViolationError) as batched:
        run_scenarios(sweep(base, "c", [6.0, 1000.0]))
    plan = dataclasses.replace(base.plan, c=1000.0)
    worst = dataclasses.replace(base, name="solo", plan=plan, expected_cf=None)
    with pytest.raises(ContractViolationError) as solo:
        run_scenarios([worst])
    batched, solo = str(batched.value), str(solo.value)
    assert batched.startswith("fig8b+c01=1000: ") and solo.startswith("solo: ")
    assert "stability guard" in solo
    assert batched.removeprefix("fig8b+c01=1000: ") == solo.removeprefix("solo: ")


def test_guard_refusal_comes_before_any_group_runs(monkeypatch):
    calls = []
    real = pinnet.harness.integrate_batch

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pinnet.harness, "integrate_batch", spy)
    first, base = get_scenario("fig6c"), get_scenario("fig8b")
    first = dataclasses.replace(first, sim=dataclasses.replace(first.sim, T=0.5))
    stiff = dataclasses.replace(
        base, name="stiff", plan=dataclasses.replace(base.plan, c=1000.0), expected_cf=None,
        sim=dataclasses.replace(base.sim, T=0.01),
    )
    # fig6c's group is first: a guard checked per group would let it integrate.
    with pytest.raises(ContractViolationError, match="^stiff: step h=0.0005 exceeds the stab"):
        run_scenarios([first, stiff])
    assert calls == []


def test_reproduce_fig6_groups_are_bitwise_solo_runs(tmp_path, monkeypatch, capsys):
    groups = []
    real = pinnet.harness.integrate_batch

    def spy(sys, plans, *args, **kwargs):
        groups.append((args[1], [p.coupling_strength for p in plans]))
        return real(sys, plans, *args, **kwargs)

    monkeypatch.setattr(pinnet.harness, "integrate_batch", spy)
    overrides = ["--T", "0.5", "--full"]
    for run in ("first", "second"):
        assert main(["reproduce", "fig6", *overrides, "--out", str(tmp_path / run)]) == 0
    # fig6a/b share h = 1e-3 (fig6a uncoupled, c = 0), fig6c/d share h = 2e-4.
    assert sorted(groups) == [(2e-4, [6.0, 6.0])] * 2 + [(1e-3, [0.0, 6.0])] * 2
    first = sorted(p.name for p in (tmp_path / "first").iterdir())
    assert first == sorted(p.name for p in (tmp_path / "second").iterdir())
    for name in first:
        assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()

    for name in ("fig6a", "fig6b", "fig6c", "fig6d"):
        solo_dir = tmp_path / "solo"
        assert main(["simulate", name, *overrides, "--out", str(solo_dir)]) == 0
        for suffix in (".csv", ".meta.json"):
            batched = (tmp_path / "first" / f"{name}{suffix}").read_bytes()
            assert batched == (solo_dir / f"{name}{suffix}").read_bytes()
    capsys.readouterr()
