"""Scenario runner: build, analyze, simulate, and report.

Every run emits a time-series CSV (t,E summary or full per-node states), a
metadata JSON carrying everything needed to reproduce the run byte for
byte, and one report row. Reports collect rows sorted by scenario name so
their content is independent of execution order.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dynamics import (
    ChenParameters,
    NetworkSystem,
    SimulationResult,
    chen_field,
    integrate_batch,
    mode_threshold,
    sync_time,
)
from .errors import ComparisonDefinitionError, DivergenceError, ScenarioDefinitionError
from .pinning import cost, plan_to_dict
from .scenarios import Scenario
from .spectral import controlled_spectrum
from .topology import RNG_ALGORITHM, coupling_matrix

__all__ = [
    "ReportRow",
    "ComparisonReport",
    "initial_state",
    "run_scenarios",
    "run_comparison",
    "write_report",
    "sweep",
]

GAMMA = np.array([0.0, 1.0, 0.0])  # only the second state component couples


@dataclass(frozen=True)
class ReportRow:
    """One line of a comparison report."""

    name: str
    cf: float
    pinned_count: int
    lambda_max_controlled: float
    sigma_star: float
    sync_time: Optional[float]
    outcome: str  # synchronized | not-synchronized | diverged | not-simulated
    blowup_time: Optional[float] = None


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[ReportRow, ...]

    def to_csv_text(self) -> str:
        lines = ["name,cf,pinned,lambda_max,sigma_star,sync_time,outcome"]
        for r in self.rows:
            st = "" if r.sync_time is None else f"{r.sync_time:.6g}"
            lines.append(
                f"{r.name},{_fmt_cf(r.cf)},{r.pinned_count},"
                f"{r.lambda_max_controlled:.6g},{r.sigma_star:.6g},{st},{r.outcome}"
            )
        return "\n".join(lines) + "\n"

    def to_table_text(self) -> str:
        header = (
            f"{'name':<14}{'CF':>10}{'pinned':>8}{'lambda_max':>14}"
            f"{'sigma*':>12}{'sync_time':>12}  outcome"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows:
            st = "none" if r.sync_time is None else f"{r.sync_time:.6g}"
            lines.append(
                f"{r.name:<14}{_fmt_cf(r.cf):>10}{r.pinned_count:>8}"
                f"{r.lambda_max_controlled:>14.6g}{r.sigma_star:>12.6g}{st:>12}  {r.outcome}"
            )
        return "\n".join(lines) + "\n"


def _fmt_cf(cf: float) -> str:
    return str(int(cf)) if cf == int(cf) else repr(cf)


def initial_state(target: np.ndarray, n_nodes: int, seed: int) -> np.ndarray:
    """Per-node start states within unit distance of the target.

    Uniform draws from the [-1, 1]^n cube, redrawn until each offset lies in
    the unit ball so every node starts within distance 1 of the target.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    n = target.shape[0]
    offsets = np.empty((n_nodes, n))
    for i in range(n_nodes):
        while True:
            r = rng.uniform(-1.0, 1.0, n)
            if float(np.dot(r, r)) <= 1.0:
                offsets[i] = r
                break
    return target + offsets


def build_system(scenario: Scenario) -> NetworkSystem:
    """Resolve a scenario into a concrete controlled network (chaotic nodes)."""
    g = scenario.topology.build()
    A = coupling_matrix(g)
    plan = scenario.plan.build(g)
    params = ChenParameters()
    return NetworkSystem(chen_field(params), A, plan, GAMMA, params.equilibrium())


def run_scenarios(
    scenarios: Sequence[Scenario],
    out_dir: Optional[Path] = None,
    simulate: bool = True,
    full_states: bool = False,
) -> list[ReportRow]:
    """One report row per scenario: analysis always, integration unless simulate=False.

    Raises ScenarioDefinitionError when a realized cost disagrees with the
    scenario's expected value; divergence is an outcome row, so sweeps keep
    going. Scenarios sharing N, the coupling matrix, h, T and record_every
    run in one integrate_batch call, each with the numbers and artifacts of
    its run alone.
    """
    built, groups = [], {}
    for i, s in enumerate(scenarios):
        sys = build_system(s)
        cf = cost(sys.plan)
        if s.expected_cf is not None and cf != s.expected_cf:
            raise ScenarioDefinitionError(
                f"{s.name}: cost {cf!r} does not match expected {s.expected_cf!r}"
            )
        lam_max = controlled_spectrum(sys.coupling, sys.plan).lambda_max
        sigma_star = mode_threshold(sys)
        built.append((sys, ReportRow(
            s.name, cf, sys.plan.pinned_count, lam_max, sigma_star, None, "not-simulated"
        )))
        key = (sys.n_nodes, sys.coupling.tobytes(), s.sim.h, s.sim.T, s.sim.record_every)
        groups.setdefault(key, []).append(i)
    results: list = [None] * len(scenarios)
    for idx in groups.values() if simulate else ():
        sys, sim = built[idx[0]][0], scenarios[idx[0]].sim
        X0 = [initial_state(sys.target, sys.n_nodes, scenarios[i].sim.init_seed) for i in idx]
        plans = [built[i][0].plan for i in idx]
        batch = integrate_batch(
            sys, plans, np.array(X0), sim.h, sim.T,
            record_every=sim.record_every, record_states=full_states,
        )
        for i, result in zip(idx, batch):
            results[i] = result

    rows = []
    for scenario, (sys, row), result in zip(scenarios, built, results):
        if isinstance(result, DivergenceError):
            row = dataclasses.replace(row, outcome="diverged", blowup_time=result.time)
        elif result is not None:
            synced_at = sync_time(result, scenario.sim.tol)
            outcome = "synchronized" if synced_at is not None else "not-synchronized"
            row = dataclasses.replace(row, sync_time=synced_at, outcome=outcome)
        if out_dir is not None:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
            if isinstance(result, SimulationResult):
                _write_timeseries(Path(out_dir, f"{scenario.name}.csv"), result, full_states)
            _write_metadata(Path(out_dir, f"{scenario.name}.meta.json"), scenario, sys, row)
        rows.append(row)
    return rows


def _write_timeseries(path: Path, result: SimulationResult, full_states: bool) -> None:
    # One %-format per row over Python floats: the text of f"{v:.9g}" per value.
    if full_states:
        n = result.states.shape[2]
        lines = ["t,node," + ",".join(f"x{k + 1}" for k in range(n))]
        row = "%.9g,%d," + ",".join(["%.9g"] * n)
        for t, snap in zip(result.times.tolist(), result.states.tolist()):
            lines.extend(row % (t, node, *state) for node, state in enumerate(snap))
    else:
        lines = ["t,E"]
        lines.extend(
            "%.9g,%.9g" % te for te in zip(result.times.tolist(), result.error_metric.tolist())
        )
    path.write_text("\n".join(lines) + "\n")


def _write_metadata(
    path: Path, scenario: Scenario, sys: NetworkSystem, row: ReportRow
) -> None:
    meta = {
        "scenario": scenario.to_dict(),
        "rng_algorithm": RNG_ALGORITHM,
        "plan": plan_to_dict(sys.plan),
        "cf": row.cf,
        "lambda_max_controlled": row.lambda_max_controlled,
        "sigma_star": row.sigma_star,
        "sync_time": row.sync_time,
        "outcome": row.outcome,
        "blowup_time": row.blowup_time,
    }
    path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def write_report(
    rows: Sequence[ReportRow], out_dir: Optional[Path], stem: str
) -> ComparisonReport:
    """Sort rows by name and, given an output directory, write <stem>.csv and .txt."""
    report = ComparisonReport(tuple(sorted(rows, key=lambda r: r.name)))
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{stem}.csv").write_text(report.to_csv_text())
        (out_dir / f"{stem}.txt").write_text(report.to_table_text())
    return report


def run_comparison(
    scenarios: Sequence[Scenario],
    out_dir: Optional[Path] = None,
    simulate: bool = True,
    full_states: bool = False,
) -> ComparisonReport:
    """Run several scenarios on the same topology and tabulate them together."""
    if len(scenarios) < 2:
        raise ComparisonDefinitionError("comparison needs at least two scenarios")
    topo = scenarios[0].topology
    for s in scenarios[1:]:
        if s.topology != topo:
            raise ComparisonDefinitionError(
                f"scenario {s.name!r} uses a different topology than {scenarios[0].name!r}"
            )
    return write_report(
        run_scenarios(scenarios, out_dir, simulate, full_states), out_dir, "comparison"
    )


def sweep(
    base: Scenario,
    vary: str,
    values: Sequence[float],
    out_dir: Optional[Path] = None,
    simulate: bool = True,
    full_states: bool = False,
) -> ComparisonReport:
    """Re-run a base scenario with its gain or coupling strength swept.

    Derived scenarios are named with a zero-padded position so name order
    equals value order in the report.
    """
    if vary not in ("epsilon", "c"):
        raise ScenarioDefinitionError(f"can only vary 'epsilon' or 'c', got {vary!r}")
    if not values:
        raise ScenarioDefinitionError("sweep needs at least one value")
    if any(v <= 0 for v in values):
        raise ScenarioDefinitionError("sweep values must be positive")
    derived = []
    for i, v in enumerate(values):
        plan = base.plan
        if vary == "c":
            plan = dataclasses.replace(plan, c=float(v))
        elif plan.kind in ("by_degree", "mixed"):
            plan = dataclasses.replace(plan, gain=float(v))
        elif plan.kind == "explicit":
            plan = dataclasses.replace(
                plan, gains={k: float(v) for k in plan.gains}
            )
        else:
            raise ScenarioDefinitionError("cannot sweep epsilon on a zero-gain plan")
        derived.append(dataclasses.replace(
            base, name=f"{base.name}+{vary}{i:02d}={v:g}", plan=plan, expected_cf=None
        ))
    return write_report(run_scenarios(derived, out_dir, simulate, full_states), out_dir, "sweep")
