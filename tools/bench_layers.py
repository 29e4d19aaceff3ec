"""Layer timings of pinnet for a before/after pair of source trees.

    python tools/bench_layers.py --src parent=<parent checkout>/src --src change=src \
        --rounds 10 --out BENCH_<pr>.json [--rows design_query_us,graph_build_us]

Each `--src LABEL=DIR` names a source tree holding the `pinnet` package, one
whose `NetworkSystem` holds no plan, whose `harness.build_system` takes a
graph, whose RHS kernel takes no argument and whose `dynamics._pad` pads the
member planes; one `--src` measures a single tree. Both trees are imported
into this one process, each under a package name of its own, and every
repeat of every row times the trees back to back, alternating which goes
first, so both see the same host conditions (the host's speed drifts over
tens of seconds, more than a 10 % change). Every row runs once per tree
untimed before the rounds. Measured per tree and round:

- `rk4_step_us`: one RK4 step of `integrate_batch` on fig8b's 20-node
  scale-free system with B copies of its plan (B = 1, 2, 3, 5, 12),
  h = 5e-4, 2000 steps, record_every 5, no per-node states; divided by the
  step count;
- `rhs_us`: one RHS call on fig2's pair (fig2a and fig2b as a batch of two
  on the 9-node star), 2000 calls, the batch held as (n, N, B) planes padded
  to a multiple of n members, as the integrator holds it;
- `reproduce_all_s`: `pinnet reproduce <family> --out DIR` for the seven
  families fig2 ... fig9, summary artifacts;
- `sweep_op_s`: one operation of perfbench's `sweep_ba` at seed 0, `pinnet
  sweep fig8b --vary epsilon` over its twelve gains at T = 2 through
  `cli.main` into a fresh temporary directory;
- `design_query_us`: one controller-design query of perfbench's `design_ba`,
  built as there from seed 1: the eight queries pin the smallest-degree half
  or the three hubs of scale-free graphs on 30, 39, 33 and 36 nodes (m0 = m =
  3); each builds its graph, asks `min_uniform_gain` (margin 0.5, tol 1e-6)
  and, for a gain, confirms it with `schur_feasible` and the `lambda_max` of
  `controlled_spectrum`; one pass over the eight, per query;
- `graph_build_us`: `barabasi_albert` alone for the same eight queries' graphs,
  one pass over the eight, per graph;
- `sigma_star_us`: `dynamics.mode_threshold` on fig8b's system, 200 calls,
  per call;
- `plan_build_us`: `PlanSpec.build` of the 16 shipped scenarios' plan
  recipes, each on its topology's graph built beforehand, 200 passes over
  the 16, per plan;
- `write_summary_us`: `harness._write_timeseries` of one sweep member's
  summary file, fig8b's 801 records at T = 2 (t and E), 200 writes, per write;
- `write_full_s`: the same writer for fig2a's `--full` file, 10,001 records of
  9 nodes' states, per write.

Both writers take synthetic records on the scenario's record grid, the same
for both trees, and write into a temporary directory removed when the timing
ends.

`--rows` names the rows to time, comma-separated; the default is all of them.
Per tree the output holds `src_lines`, the line count of `<src>/pinnet/*.py`
as `wc -l` gives it, and every round's value of each row, their median and
their interquartile range (`iqr`, the distance between the quartiles by
`statistics.quantiles`' inclusive method; 0 for one round); for two trees,
per row, the ratio first / second of the medians, the median of the
per-round ratios and the number of rounds each tree won, that is took less
time in; a tie counts for neither. With `--out`, these go under the file's
"layers" key and every other key of an existing file is kept. Set
OPENBLAS_NUM_THREADS=1 in the environment for one-thread BLAS numbers.

Read a pair by the rule these numbers are for: one tree wins at least 9 of
10 rounds, and the medians differ by more than the parent's `iqr`. Fewer
wins show nothing. An A/A run on identical trees, two `git archive` copies
of one commit (`--rows rk4_step_us,sweep_op_s --rounds 10`, one BLAS thread,
a 2-vCPU shared host), read the first tree faster in 8 of 10 rounds at
B = 5 and at B = 12, with median ratios 0.844 and 0.912.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

BATCH_SIZES = (1, 2, 3, 5, 12)
FAMILIES = ("fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9")
STEPS, H = 2000, 5e-4
SIGMA_CALLS = 200
PLAN_PASSES = 200
SUMMARY_WRITES = 200
DESIGN_SIZES, DESIGN_SEED, MARGIN, TOL = (30, 39, 33, 36), 1, 0.5, 1e-6
SWEEP_GAINS = (0.5, 1.0, 1.5, 2.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0, 30.0, 50.0)
SWEEP_ARGV = ["sweep", "fig8b", "--vary", "epsilon", "--values",
              ",".join(repr(g) for g in SWEEP_GAINS), "--T", "2.0"]
# The rows with one number per tree and round, and all rows.
SCALAR_ROWS = ("rhs_us", "reproduce_all_s", "sweep_op_s", "design_query_us", "graph_build_us",
               "sigma_star_us", "plan_build_us", "write_summary_us", "write_full_s")
ROWS = ("rk4_step_us", *SCALAR_ROWS)
MODULES = ("cli", "dynamics", "harness", "pinning", "scenarios", "spectral", "topology")


def load(alias: str, src: str) -> SimpleNamespace:
    """The pinnet package of source tree `src`, imported as package `alias`."""
    init = Path(src, "pinnet", "__init__.py").resolve()
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return SimpleNamespace(**{m: importlib.import_module(f"{alias}.{m}") for m in MODULES})


def rows(pkg: SimpleNamespace, scratch: Path) -> dict:
    """Per row of one tree: a function doing one measurement's work, and its divisor.

    The writer rows write into the directory `scratch`, which must exist."""
    dynamics, spectral, topology = pkg.dynamics, pkg.spectral, pkg.topology
    initial_state = pkg.harness.initial_state

    def network(names):
        """The system on the scenarios' shared graph and each scenario's plan."""
        scenarios = [pkg.scenarios.get_scenario(name) for name in names]
        g = scenarios[0].topology.build()
        return pkg.harness.build_system(g), [s.plan.build(g) for s in scenarios]

    work = {}
    sys_ba, (plan_ba,) = network(["fig8b"])
    x0 = initial_state(sys_ba.target, sys_ba.n_nodes, 0)
    for B in BATCH_SIZES:
        X0, plans = np.repeat(x0[None], B, axis=0), [plan_ba] * B
        work[f"rk4_step_us/{B}"] = (
            lambda X0=X0, plans=plans: dynamics.integrate_batch(
                sys_ba, plans, X0, H, STEPS * H, record_every=5, record_states=False),
            STEPS / 1e6,
        )

    sys_star, pair = network(["fig2a", "fig2b"])
    X = np.array([initial_state(sys_star.target, sys_star.n_nodes, i) for i in range(2)])
    X, pair = dynamics._pad(X.T, pair)
    rhs = dynamics._rhs(sys_star, pair, X, np.empty_like(X))

    def calls():
        for _ in range(STEPS):
            rhs()

    work["rhs_us"] = (calls, STEPS / 1e6)

    def cli(argv):
        with open(os.devnull, "w") as sink:
            stdout, sys.stdout = sys.stdout, sink
            try:
                code = pkg.cli.main(argv)
            finally:
                sys.stdout = stdout
        if code != 0:
            raise RuntimeError(f"pinnet {' '.join(argv[:2])} exited {code}")

    def reproduce():
        with tempfile.TemporaryDirectory() as out:
            for family in FAMILIES:
                cli(["reproduce", family, "--out", str(Path(out, family))])

    def sweep_op():
        with tempfile.TemporaryDirectory() as out:
            cli(SWEEP_ARGV + ["--out", out])

    work["reproduce_all_s"] = (reproduce, 1.0)
    work["sweep_op_s"] = (sweep_op, 1.0)

    rng = np.random.Generator(np.random.PCG64(DESIGN_SEED))
    queries = []
    for n in DESIGN_SIZES:
        graph_seed = int(rng.integers(0, 2**63))
        queries += [(n, graph_seed, "smallest", n // 2), (n, graph_seed, "largest", 3)]

    def design():
        for n, graph_seed, strategy, count in queries:
            g = topology.barabasi_albert(n, 3, 3, graph_seed)
            A = topology.coupling_matrix(g)
            pinned = pkg.pinning.plan_by_degree(g, strategy, count, 1.0, 1.0).pinned_nodes
            gain = spectral.min_uniform_gain(A, pinned, MARGIN, TOL)
            if gain is not None:
                spectral.schur_feasible(A, pinned, [gain] * len(pinned), MARGIN)
                plan = pkg.pinning.plan_explicit(n, {i: gain for i in pinned}, 1.0)
                spectral.controlled_spectrum(A, plan).lambda_max

    def graphs():
        for n, graph_seed, _, _ in queries:
            topology.barabasi_albert(n, 3, 3, graph_seed)

    work["design_query_us"] = (design, len(queries) / 1e6)
    work["graph_build_us"] = (graphs, len(queries) / 1e6)

    def thresholds():
        for _ in range(SIGMA_CALLS):
            dynamics.mode_threshold(sys_ba)

    work["sigma_star_us"] = (thresholds, SIGMA_CALLS / 1e6)

    shipped = pkg.scenarios.SCENARIOS.values()
    built = {s.topology: s.topology.build() for s in shipped}
    recipes = [(s.plan, built[s.topology]) for s in shipped]

    def plans():
        for _ in range(PLAN_PASSES):
            for recipe, g in recipes:
                recipe.build(g)

    work["plan_build_us"] = (plans, PLAN_PASSES * len(recipes) / 1e6)

    values = np.random.default_rng(0)

    def records(name, T, n_nodes):
        """Synthetic records of scenario `name` at horizon T: its record times,
        random errors and random states of its n_nodes nodes."""
        sim = pkg.scenarios.get_scenario(name).sim
        times = np.arange(0, round(T / sim.h) + 1, sim.record_every) * sim.h
        states = values.uniform(-30.0, 30.0, (len(times), n_nodes, 3))
        return pkg.dynamics.SimulationResult(times, states, values.uniform(0.0, 30.0, len(times)))

    write = pkg.harness._write_timeseries
    summary, summary_path = records("fig8b", 2.0, sys_ba.n_nodes), scratch / "summary.csv"
    full, full_path = records("fig2a", 5.0, sys_star.n_nodes), scratch / "full.csv"

    def summaries():
        for _ in range(SUMMARY_WRITES):
            write(summary_path, summary, False)

    work["write_summary_us"] = (summaries, SUMMARY_WRITES / 1e6)
    work["write_full_s"] = (lambda: write(full_path, full, True), 1.0)
    return work


def src_lines(src: str) -> int:
    """The newline count of the tree's `pinnet/*.py` files, as `wc -l` gives it."""
    return sum(path.read_bytes().count(b"\n") for path in Path(src, "pinnet").glob("*.py"))


def _sig(v: float) -> float:  # four significant digits
    return float(f"{v:.4g}")


def _iqr(values: list) -> float:
    """The distance between the quartiles of values, inclusive method; 0 for one value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", default=[], metavar="LABEL=DIR",
                        help="a source tree holding the pinnet package (repeat for a pair)")
    parser.add_argument("--rounds", type=int, default=5,
                        help="timed repeats per row and tree, the trees alternating")
    parser.add_argument("--out", type=Path, help="JSON file to write the results into")
    parser.add_argument("--rows", default=",".join(ROWS),
                        help="comma-separated rows to time (default: all of " + ", ".join(ROWS) + ")")
    args = parser.parse_args(argv)

    trees = [spec.partition("=")[::2] for spec in args.src]
    if not (1 <= len(trees) <= 2) or any(not label or not src for label, src in trees):
        parser.error("give --src LABEL=DIR once or twice")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    selected = args.rows.split(",")
    if any(row not in ROWS for row in selected):
        parser.error(f"--rows takes names from {', '.join(ROWS)}, got {args.rows!r}")

    labels = [label for label, _ in trees]
    with tempfile.TemporaryDirectory(prefix="bench_layers_") as scratch:
        work = {}
        for i, (label, src) in enumerate(trees):
            out = Path(scratch, f"tree{i}")
            out.mkdir()
            work[label] = rows(load(f"_pinnet_tree{i}", src), out)
        runs: dict = {label: {row: [] for row in work[label]} for label in labels}
        for row in [row for row in work[labels[0]] if row.split("/")[0] in selected]:
            for label in labels:
                work[label][row][0]()
            for r in range(args.rounds):
                for label in labels if r % 2 == 0 else labels[::-1]:
                    fn, per = work[label][row]
                    start = time.perf_counter()
                    fn()
                    runs[label][row].append((time.perf_counter() - start) / per)
            print(f"{row}: " + ", ".join(f"{label} {_sig(statistics.median(runs[label][row]))}"
                                         for label in labels), file=sys.stderr)

    def per_row(fn):
        """fn over each selected row's values, rk4_step_us keyed by batch size."""
        return {
            row: {str(B): fn(f"{row}/{B}") for B in BATCH_SIZES} if row == "rk4_step_us"
            else fn(row)
            for row in ROWS if row in selected
        }

    method = {
        "rk4_step_us": f"integrate_batch on fig8b's system, B copies of its plan, h = {H:g}, "
                       f"{STEPS} steps, record_every 5, no per-node states; time / steps",
        "rhs_us": f"one RHS call on fig2a + fig2b as a batch of two, padded to three; "
                  f"{STEPS} calls / {STEPS}",
        "reproduce_all_s": "pinnet reproduce of " + ", ".join(FAMILIES)
                           + ", summary artifacts",
        "sweep_op_s": "sweep_ba's seed-0 operation, pinnet " + " ".join(SWEEP_ARGV)
                      + " through cli.main into a temporary directory",
        "design_query_us": f"design_ba's eight seed-{DESIGN_SEED} queries (graph build, "
                           f"min_uniform_gain, schur_feasible, controlled_spectrum's "
                           f"lambda_max); one pass / 8",
        "graph_build_us": f"barabasi_albert for the graphs of design_ba's eight "
                          f"seed-{DESIGN_SEED} queries; one pass / 8",
        "sigma_star_us": f"mode_threshold on fig8b's system; {SIGMA_CALLS} calls / "
                         f"{SIGMA_CALLS}",
        "plan_build_us": f"PlanSpec.build of the shipped scenarios' plan recipes on graphs "
                         f"built beforehand; {PLAN_PASSES} passes, per plan",
        "write_summary_us": f"_write_timeseries of a summary file, 801 synthetic records "
                            f"of fig8b at T = 2; {SUMMARY_WRITES} writes / {SUMMARY_WRITES}",
        "write_full_s": "_write_timeseries of a --full file, 10,001 synthetic records of "
                        "fig2a's 9 nodes; one write",
    }
    layers: dict = {
        "method": {
            **{row: text for row, text in method.items() if row in selected},
            "rounds": f"{args.rounds} per row and tree, both trees in one process, each row "
                      "run once per tree untimed first, the trees timed back to back and "
                      "alternating which goes first",
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    for label, src in trees:
        layers[label] = {"src_lines": src_lines(src), **per_row(lambda row: {
            "runs": [_sig(v) for v in runs[label][row]],
            "median": _sig(statistics.median(runs[label][row])),
            "iqr": _sig(_iqr(runs[label][row])),
        })}
    if len(labels) == 2:
        first, second = labels

        def compare(row):
            a, b = runs[first][row], runs[second][row]
            return {
                "median_ratio": round(statistics.median(a) / statistics.median(b), 3),
                "pair_ratio_median": round(statistics.median(x / y for x, y in zip(a, b)), 3),
                f"{first}_won": f"{sum(x < y for x, y in zip(a, b))} of {len(a)}",
                f"{second}_won": f"{sum(y < x for x, y in zip(a, b))} of {len(a)}",
            }

        layers[f"{first}_over_{second}"] = per_row(compare)

    if args.out is None:
        print(json.dumps(layers, indent=1))
        return 0
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["layers"] = layers
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
