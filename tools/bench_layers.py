"""Layer timings of pinnet for a before/after pair of source trees.

    python tools/bench_layers.py --src parent=<parent checkout>/src --src change=src \
        --rounds 3 --out BENCH_<pr>.json

Each `--src LABEL=DIR` names a source tree holding the `pinnet` package, one
whose `NetworkSystem` holds no plan, whose `harness.build_system` takes a
graph and whose RHS kernel takes no argument; one `--src` measures a single
tree. Every measurement runs in a fresh Python process that imports pinnet
from DIR, and the rounds alternate which tree goes first, so both trees see
the same host conditions. Measured per tree:

- `rk4_step_us`: one RK4 step of `integrate_batch` on fig8b's 20-node
  scale-free system with B copies of its plan (B = 1, 2, 3, 5, 12),
  h = 5e-4, 2000 steps, record_every 5, no per-node states; the median of
  5 repeats divided by the step count;
- `rhs_us`: one RHS call on fig2's pair (fig2a and fig2b as a batch of two
  on the 9-node star), the median of 5 repeats of 2000 calls;
- `reproduce_all_s`: `pinnet reproduce <family> --out DIR` for the seven
  families fig2 ... fig9 in one process, summary artifacts;
- `sweep_op_s`: one operation of perfbench's `sweep_ba` at seed 0, `pinnet
  sweep fig8b --vary epsilon` over its twelve gains at T = 2 through
  `cli.main` into a fresh temporary directory; the median of 5;
- `design_query_us`: one controller-design query of perfbench's `design_ba`,
  built as there from seed 1: the eight queries pin the smallest-degree half
  or the three hubs of scale-free graphs on 30, 39, 33 and 36 nodes (m0 = m =
  3); each builds its graph, asks `min_uniform_gain` (margin 0.5, tol 1e-6)
  and, for a gain, confirms it with `schur_feasible` and the `lambda_max` of
  `controlled_spectrum`; the median of 5 passes over the eight, per query;
- `graph_build_us`: `barabasi_albert` alone for the same eight queries' graphs,
  the median of 5 passes over the eight, per graph.

Per tree the output holds every round's value and their median, and for two
trees the ratio first / second of the medians. With `--out`, these go under
the file's "layers" key and every other key of an existing file is kept.
Set OPENBLAS_NUM_THREADS=1 in the environment for one-thread BLAS numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BATCH_SIZES = (1, 2, 3, 5, 12)
FAMILIES = ("fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9")
STEPS, H, REPEATS = 2000, 5e-4, 5
DESIGN_SIZES, DESIGN_SEED, MARGIN, TOL = (30, 39, 33, 36), 1, 0.5, 1e-6
SWEEP_GAINS = (0.5, 1.0, 1.5, 2.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0, 30.0, 50.0)
SWEEP_ARGV = ["sweep", "fig8b", "--vary", "epsilon", "--values",
              ",".join(repr(g) for g in SWEEP_GAINS), "--T", "2.0"]
# The rows with one number per tree and round.
SCALAR_ROWS = ("rhs_us", "reproduce_all_s", "sweep_op_s", "design_query_us", "graph_build_us")


def _median_time(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure() -> dict:
    """Time the layers of the pinnet importable in this process."""
    import numpy as np
    from pinnet import dynamics, spectral
    from pinnet.cli import main
    from pinnet.harness import build_system, initial_state
    from pinnet.pinning import plan_by_degree, plan_explicit
    from pinnet.scenarios import get_scenario
    from pinnet.topology import barabasi_albert, coupling_matrix

    def network(names):
        """The system on the scenarios' shared graph and each scenario's plan."""
        scenarios = [get_scenario(name) for name in names]
        g = scenarios[0].topology.build()
        return build_system(g), [s.plan.build(g) for s in scenarios]

    sys_ba, (plan_ba,) = network(["fig8b"])
    x0 = initial_state(sys_ba.target, sys_ba.n_nodes, 0)
    step_us = {}
    for B in BATCH_SIZES:
        X0 = np.repeat(x0[None], B, axis=0)
        plans = [plan_ba] * B
        run = lambda: dynamics.integrate_batch(  # noqa: E731
            sys_ba, plans, X0, H, STEPS * H, record_every=5, record_states=False
        )
        run()
        step_us[str(B)] = 1e6 * _median_time(run) / STEPS

    sys_star, pair = network(["fig2a", "fig2b"])
    X = np.array([initial_state(sys_star.target, sys_star.n_nodes, i) for i in range(2)])
    rhs = dynamics._rhs(sys_star, pair, X, np.empty_like(X))

    def calls():
        for _ in range(STEPS):
            rhs()

    calls()
    rhs_us = 1e6 * _median_time(calls) / STEPS

    def cli(argv):
        with open(os.devnull, "w") as sink:
            stdout, sys.stdout = sys.stdout, sink
            try:
                code = main(argv)
            finally:
                sys.stdout = stdout
        if code != 0:
            raise RuntimeError(f"pinnet {' '.join(argv[:2])} exited {code}")

    with tempfile.TemporaryDirectory() as out:
        start = time.perf_counter()
        for family in FAMILIES:
            cli(["reproduce", family, "--out", str(Path(out, family))])
        reproduce_s = time.perf_counter() - start

    def sweep_op():
        with tempfile.TemporaryDirectory() as out:
            cli(SWEEP_ARGV + ["--out", out])

    sweep_op()
    sweep_s = _median_time(sweep_op)

    rng = np.random.Generator(np.random.PCG64(DESIGN_SEED))
    queries = []
    for n in DESIGN_SIZES:
        graph_seed = int(rng.integers(0, 2**63))
        queries += [(n, graph_seed, "smallest", n // 2), (n, graph_seed, "largest", 3)]

    def design():
        for n, graph_seed, strategy, count in queries:
            g = barabasi_albert(n, 3, 3, graph_seed)
            A = coupling_matrix(g)
            pinned = plan_by_degree(g, strategy, count, 1.0, 1.0).pinned_nodes
            gain = spectral.min_uniform_gain(A, pinned, MARGIN, TOL)
            if gain is not None:
                spectral.schur_feasible(A, pinned, [gain] * len(pinned), MARGIN)
                plan = plan_explicit(n, {i: gain for i in pinned}, 1.0)
                spectral.controlled_spectrum(A, plan).lambda_max

    design()
    design_us = 1e6 * _median_time(design) / len(queries)

    def graphs():
        for n, graph_seed, _, _ in queries:
            barabasi_albert(n, 3, 3, graph_seed)

    graphs()
    graph_us = 1e6 * _median_time(graphs) / len(queries)
    return {"rk4_step_us": step_us, "rhs_us": rhs_us, "reproduce_all_s": reproduce_s,
            "sweep_op_s": sweep_s, "design_query_us": design_us, "graph_build_us": graph_us}


def _worker(src: str) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, "--worker", src],
        check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout)


def _summary(values: list) -> dict:
    def sig(v):  # four significant digits
        return float(f"{v:.4g}")

    return {"runs": [sig(v) for v in values], "median": sig(statistics.median(values))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", default=[], metavar="LABEL=DIR",
                        help="a source tree holding the pinnet package (repeat for a pair)")
    parser.add_argument("--rounds", type=int, default=3, help="measurements per tree")
    parser.add_argument("--out", type=Path, help="JSON file to write the results into")
    parser.add_argument("--worker", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        sys.path.insert(0, str(Path(args.worker).resolve()))
        print(json.dumps(measure()))
        return 0
    trees = [spec.partition("=")[::2] for spec in args.src]
    if not trees or any(not label or not src for label, src in trees):
        parser.error("give --src LABEL=DIR once or twice")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    runs: dict = {label: [] for label, _ in trees}
    for r in range(args.rounds):
        for label, src in trees if r % 2 == 0 else trees[::-1]:
            runs[label].append(_worker(src))
            print(f"round {r + 1} {label}: {json.dumps(runs[label][-1])}", file=sys.stderr)

    layers: dict = {
        "method": {
            "rk4_step_us": f"integrate_batch on fig8b's system, B copies of its plan, h = {H:g}, "
                           f"{STEPS} steps, record_every 5, no per-node states; median of "
                           f"{REPEATS} repeats / steps",
            "rhs_us": f"one RHS call on fig2a + fig2b as a batch of two; median of {REPEATS} "
                      f"repeats of {STEPS} calls",
            "reproduce_all_s": "pinnet reproduce of " + ", ".join(FAMILIES)
                               + " in one process, summary artifacts",
            "sweep_op_s": "sweep_ba's seed-0 operation, pinnet " + " ".join(SWEEP_ARGV)
                          + f" through cli.main into a temporary directory; median of {REPEATS}",
            "design_query_us": f"design_ba's eight seed-{DESIGN_SEED} queries (graph build, "
                               f"min_uniform_gain, schur_feasible, controlled_spectrum's "
                               f"lambda_max); median of {REPEATS} passes / 8",
            "graph_build_us": f"barabasi_albert for the graphs of design_ba's eight "
                              f"seed-{DESIGN_SEED} queries; median of {REPEATS} passes / 8",
            "rounds": f"{args.rounds} per tree, each in a fresh process, alternating which "
                      "tree goes first",
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    for label, results in runs.items():
        layers[label] = {
            "rk4_step_us": {
                B: _summary([res["rk4_step_us"][B] for res in results]) for B in results[0]["rk4_step_us"]
            },
            **{key: _summary([res[key] for res in results]) for key in SCALAR_ROWS},
        }
    if len(trees) == 2:
        (first, _), (second, _) = trees
        a, b = layers[first], layers[second]
        layers[f"{first}_over_{second}"] = {
            "rk4_step_us": {
                B: round(a["rk4_step_us"][B]["median"] / b["rk4_step_us"][B]["median"], 3)
                for B in a["rk4_step_us"]
            },
            **{key: round(a[key]["median"] / b[key]["median"], 3) for key in SCALAR_ROWS},
        }

    if args.out is None:
        print(json.dumps(layers, indent=1))
        return 0
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["layers"] = layers
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
