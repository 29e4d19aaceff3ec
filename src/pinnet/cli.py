"""Command-line interface.

Subcommands: topology, spectrum, pin, simulate, compare, sweep, reproduce.
Exit codes: 0 success, 2 scenario/comparison definition error, 3 divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Optional

from .errors import (InvalidSizeError, PinnetError, ScenarioDefinitionError, about, checked,
                     field, known_keys, read_json)
from .harness import run_scenarios, sweep, write_report
from .pinning import plan_by_degree, plan_explicit, read_plan, write_plan
from .scenarios import FAMILIES, Scenario, get_scenario
from .spectral import controlled_spectrum, eig_symmetric
from .topology import (
    barabasi_albert,
    cluster_stars,
    coupling_matrix,
    format_edge_list,
    read_edge_list,
    star,
    write_edge_list,
)

EXIT_OK = 0
EXIT_DEFINITION = 2
EXIT_DIVERGED = 3


def _add_sim_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=Path, default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="initial-condition seed override")
    p.add_argument("--h", type=float, default=None, help="integration step override")
    p.add_argument("--T", type=float, default=None, help="horizon override")
    p.add_argument("--tol", type=float, default=None, help="sync tolerance override")
    p.add_argument("--full", action="store_true", help="write full per-node states CSV")


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    sim = scenario.sim
    if args.h is not None:
        sim = dataclasses.replace(sim, h=args.h)
    if args.T is not None:
        sim = dataclasses.replace(sim, T=args.T)
    if args.tol is not None:
        sim = dataclasses.replace(sim, tol=args.tol)
    if args.seed is not None:
        sim = dataclasses.replace(sim, init_seed=args.seed)
    return dataclasses.replace(scenario, sim=sim)


def _load_scenario(ref: str) -> Scenario:
    """A scenario reference is a scenario JSON (a .json path or any file) or a shipped name."""
    path = Path(ref)
    if path.suffix == ".json" or path.is_file():
        d = read_json(path)
        with about(path):
            return Scenario.from_dict(d)
    return get_scenario(ref)


def _comma_list(flag: str, text: str, kind: type) -> list:
    """A flag's comma-separated ints or floats; a malformed list raises a
    ScenarioDefinitionError naming the flag."""
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError as exc:
        what = "integers" if kind is int else "numbers"
        raise ScenarioDefinitionError(
            f"{flag} expects comma-separated {what}, got {text!r}"
        ) from exc


def _run(scenarios: list[Scenario], args, stem: Optional[str], simulate: bool = True) -> int:
    """Run the scenarios with their artifacts and, unless stem is None, the report
    <stem>.csv and .txt in args.out; print the table, exit 3 if any row diverged."""
    if stem in {s.name for s in scenarios}:
        raise ScenarioDefinitionError(f"scenario {stem!r} would overwrite the report {stem}.csv")
    rows = run_scenarios(scenarios, args.out, simulate, args.full)
    report = write_report(rows, None if stem is None else args.out, stem)
    print(report.to_table_text(), end="")
    return EXIT_DIVERGED if any(r.outcome == "diverged" for r in report.rows) else EXIT_OK


def _cmd_topology(args) -> int:
    if args.family == "star":
        g = star(args.n)
    elif args.family == "cluster":
        g = cluster_stars(tuple(_comma_list("--branches", args.branches, int)))
    else:
        g = barabasi_albert(args.n, args.m0, args.m, args.seed)
    if args.out is None:
        print(format_edge_list(g), end="")
    else:
        write_edge_list(g, args.out)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    g = read_edge_list(args.edges)
    try:
        A = coupling_matrix(g)
    except (MemoryError, ValueError):  # numpy refuses arrays it cannot hold
        raise InvalidSizeError(
            f"{args.edges}: N {g.n_nodes} is too large: the dense coupling matrix cannot be allocated"
        ) from None
    if args.plan is not None:
        plan = read_plan(args.plan)
        if plan.n_nodes != g.n_nodes:
            raise ScenarioDefinitionError(
                f"{args.plan}: plan on {plan.n_nodes} nodes does not match "
                f"{args.edges} on {g.n_nodes} nodes"
            )
        dec = controlled_spectrum(A, plan)
    else:
        dec = eig_symmetric(A)
    print("index,eigenvalue")
    for i, lam in enumerate(dec.eigenvalues):
        print(f"{i},{lam:.12g}")
    return EXIT_OK


def _cmd_pin(args) -> int:
    g = read_edge_list(args.edges)
    if args.explicit is not None:
        gains = {}
        for item in args.explicit.split(","):
            try:
                node, gain = item.split(":")
                node, gain = int(node), float(gain)
            except ValueError as exc:
                raise ScenarioDefinitionError(
                    f"--explicit expects node:gain,... pairs, got {args.explicit!r}"
                ) from exc
            if node in gains:
                raise ScenarioDefinitionError(f"--explicit pins node {node} twice")
            gains[node] = gain
        plan = plan_explicit(g.n_nodes, gains, args.c)
    else:
        plan = plan_by_degree(g, args.strategy, args.count, args.gain, args.c)
    write_plan(plan, args.plan_out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    return _run([_apply_overrides(_load_scenario(args.scenario), args)], args, None)


def _cmd_compare(args) -> int:
    spec = read_json(args.scenarios)
    with about(args.scenarios):
        if isinstance(spec, dict):
            known_keys(spec, "", ("scenarios",))
            refs = field(spec, "", "scenarios", list)
        else:
            refs = checked(spec, list, "comparison document")
        scenarios = []
        for k, ref in enumerate(refs):  # an inline scenario, a shipped name or a file path
            with about(f"scenarios[{k}]"):
                scenarios.append(Scenario.from_dict(ref) if isinstance(ref, dict) else
                                 _load_scenario(checked(ref, str, "an entry that is not an object")))
        if len(scenarios) < 2:
            raise ScenarioDefinitionError("comparison needs at least two scenarios")
        for s in scenarios[1:]:
            if s.topology != scenarios[0].topology:
                raise ScenarioDefinitionError(f"scenario {s.name!r} uses a different topology "
                                              f"than {scenarios[0].name!r}")
    return _run([_apply_overrides(s, args) for s in scenarios], args, "comparison")


def _cmd_sweep(args) -> int:
    scenario = _apply_overrides(_load_scenario(args.scenario), args)
    values = _comma_list("--values", args.values, float)
    return _run(sweep(scenario, args.vary, values), args, "sweep")


def _cmd_reproduce(args) -> int:
    names = FAMILIES.get(args.family)
    if names is None:
        raise ScenarioDefinitionError(
            f"unknown family {args.family!r}; choose from {', '.join(sorted(FAMILIES))}"
        )
    scenarios = [_apply_overrides(get_scenario(name), args) for name in names]
    return _run(scenarios, args, f"{args.family}.report", simulate=not args.cf_only)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinnet",
        description="Pinning control of coupled dynamical networks: "
        "topologies, controlled spectra, costs, and synchronization runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("topology", help="generate a graph and emit its edge list")
    topo_sub = p.add_subparsers(dest="family", required=True)
    ps = topo_sub.add_parser("star")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--out", type=Path, default=None)
    ps.set_defaults(func=_cmd_topology)
    pc = topo_sub.add_parser("cluster")
    pc.add_argument("--branches", type=str, required=True, help="comma-separated sizes")
    pc.add_argument("--out", type=Path, default=None)
    pc.set_defaults(func=_cmd_topology)
    pb = topo_sub.add_parser("ba")
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--m0", type=int, required=True)
    pb.add_argument("--m", type=int, required=True)
    pb.add_argument("--seed", type=int, required=True)
    pb.add_argument("--out", type=Path, default=None)
    pb.set_defaults(func=_cmd_topology)

    p = sub.add_parser("spectrum", help="eigenvalues of the (controlled) coupling matrix")
    p.add_argument("--edges", type=Path, required=True)
    p.add_argument("--plan", type=Path, default=None)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("pin", help="build a pinning plan JSON")
    p.add_argument("--edges", type=Path, required=True)
    p.add_argument("--strategy", choices=("largest", "smallest"), default="smallest")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--gain", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--explicit", type=str, default=None, help="node:gain,node:gain,...")
    p.add_argument("--plan-out", type=Path, required=True)
    p.set_defaults(func=_cmd_pin)

    p = sub.add_parser("simulate", help="run one scenario (shipped name or JSON file)")
    p.add_argument("scenario")
    _add_sim_overrides(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="run scenarios on one topology and tabulate")
    p.add_argument("scenarios", help="JSON file with a scenarios list")
    _add_sim_overrides(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sweep", help="sweep gain or coupling strength of a scenario")
    p.add_argument("scenario")
    p.add_argument("--vary", choices=("epsilon", "c"), required=True)
    p.add_argument("--values", type=str, required=True, help="comma-separated values")
    _add_sim_overrides(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("reproduce", help="run a shipped scenario family")
    p.add_argument("family", help="fig2|fig3|fig5|fig6|fig7|fig8|fig9")
    p.add_argument("--cf-only", action="store_true", help="analysis only, skip integration")
    _add_sim_overrides(p)
    p.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PinnetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEFINITION


if __name__ == "__main__":
    raise SystemExit(main())
