"""The benchmark's workloads.

Each workload is built from a seed (its input generation, timed as part of
set-up), then runs operations through pinnet's public API and checks each
operation's output with ``check``.  ``run`` is the only timed part of an
operation; ``check`` runs after it, untimed and untraced.

* ``sweep_ba``: ``pinnet sweep fig8b --vary epsilon --values ... --T 2``
  in-process, i.e. ``harness.sweep`` of the gain on ``fig8b`` (20-node
  scale-free graph, c = 6, eleven smallest-degree nodes pinned) behind the
  command line, twelve members.  The seed draws four gains on the unstable
  side and eight well inside the stable side; seed 0 uses a fixed list
  whose sync times are recorded below.
* ``design_ba``: controller design without integration.  The seed draws
  preferential-attachment graphs of fixed sizes; each operation builds one,
  pins its smallest-degree half or its three largest hubs, asks
  ``min_uniform_gain`` and confirms the answer with ``schur_feasible`` and
  ``controlled_spectrum``.
* ``reproduce_fig2``: ``pinnet reproduce fig2 --full`` in-process, the
  paper's headline hub-vs-leaf pair on the 9-node star (two 50 000-step RK4
  runs writing full-state CSVs).  It has no free input, so the seed does
  not change it.  It is not listed in ``BENCHMARK.json``: two workloads of
  60 s fit the run budget where three had to be cut to 40 s, too short to
  be steady on a shared machine, and ``sweep_ba`` covers the same layers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import check


@dataclass
class OpResult:
    """What one operation did, taken from its outputs."""

    work: int = 0  # node-steps, or gain queries on design_ba
    rk4_steps: int = 0
    node_steps: int = 0
    bytes_written: int = 0
    problems: list[str] = field(default_factory=list)


def _integration_counts(meta: dict) -> tuple[int, int]:
    """RK4 steps and node-steps of one run, from its metadata."""
    sim = meta["scenario"]["sim"]
    if meta["outcome"] == "diverged":
        steps = int(round(meta["blowup_time"] / sim["h"]))
    else:
        steps = int(round(sim["T"] / sim["h"]))
    return steps, steps * meta["plan"]["n"]


def _check_files(out: Path, repeat: check.RepeatCheck, res: OpResult, skip=()) -> dict:
    """Read every artifact, compare it with the first repeat and count its bytes."""
    texts = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        res.problems += repeat.same(path.name, data)
        if not any(path.name.endswith(s) for s in skip):
            res.bytes_written += len(data)
        texts[path.name] = data.decode()
    return texts


class ReproduceFig2:
    name = "reproduce_fig2"
    work_name, work_unit = "node_steps_per_s", "node-steps/s"
    SCENARIOS = ("fig2a", "fig2b")
    # Sync times of the shipped fig2 scenarios, recorded from pinnet 0.1.0.
    REFERENCE_SYNC = {"fig2a": 1.8585, "fig2b": 0.9570000000000001}
    SMOKE_T = 2.0  # both scenarios have synchronized before this horizon

    def __init__(self, pn, seed: int, smoke: bool = False) -> None:
        self.pn = pn
        self.argv = ["reproduce", "fig2", "--full"]
        if smoke:
            self.argv += ["--T", str(self.SMOKE_T)]
        self.A = check.coupling_from_edges(9, check.star_edges(9))
        self.repeat = check.RepeatCheck()
        self.n_ops = 1

    def run(self, k: int, out: Path):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.pn.cli.main(self.argv + ["--out", str(out)])
        return rc, buf.getvalue()

    def check(self, k: int, raw, out: Path) -> OpResult:
        rc, printed = raw
        res = OpResult()
        if rc != 0:
            res.problems.append(f"exit code {rc}")
        texts = _check_files(out, self.repeat, res, skip=(".report.csv", ".report.txt"))
        if printed != texts.get("fig2.report.txt"):
            res.problems.append("printed table differs from fig2.report.txt")
        for name in self.SCENARIOS:
            meta = json.loads(texts[f"{name}.meta.json"])
            res.problems += check.check_plan(meta, self.A)
            res.problems += check.check_analysis(meta, self.A)
            res.problems += check.check_sync_reference(meta, self.REFERENCE_SYNC[name])
            res.problems += check.check_full_states(meta, texts[f"{name}.csv"])
            steps, node_steps = _integration_counts(meta)
            res.rk4_steps += steps
            res.node_steps += node_steps
        res.work = res.node_steps
        return res


class SweepBA:
    name = "sweep_ba"
    work_name, work_unit = "node_steps_per_s", "node-steps/s"
    BASE, T = "fig8b", 2.0
    # Seed 0: gains and the sync times pinnet 0.1.0 gives for them.
    REFERENCE_GAINS = (0.5, 1.0, 1.5, 2.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0, 30.0, 50.0)
    REFERENCE_SYNC = (
        None, None, None, None, 1.735, 1.4000000000000001, 1.2375, 1.21, 1.1525, 1.1375,
        1.2225, 1.3125,
    )
    # c * lambda_1 crosses sigma* near gain 2.4; gains up to 4 are stable but
    # too slow to synchronize by T = 2, so drawn gains avoid [2, 6].
    UNSTABLE, STABLE = (0.3, 2.0), (6.0, 60.0)

    def __init__(self, pn, seed: int, smoke: bool = False) -> None:
        self.pn = pn
        if seed == 0:
            gains, self.reference = self.REFERENCE_GAINS, self.REFERENCE_SYNC
        else:
            rng = np.random.Generator(np.random.PCG64(seed))

            def log_uniform(lo: float, hi: float, k: int) -> np.ndarray:
                return np.exp(rng.uniform(math.log(lo), math.log(hi), k))

            drawn = np.concatenate([log_uniform(*self.UNSTABLE, 4), log_uniform(*self.STABLE, 8)])
            gains = tuple(float(g) for g in np.round(np.sort(drawn), 4))
            self.reference = None
        if smoke:
            pick = (0, 4, 11)
            gains = tuple(gains[i] for i in pick)
            self.reference = self.reference and tuple(self.reference[i] for i in pick)
        self.gains = gains
        # repr round-trips each gain exactly through the command line.
        self.argv = ["sweep", self.BASE, "--vary", "epsilon",
                     "--values", ",".join(repr(g) for g in gains), "--T", repr(self.T)]
        topo = pn.scenarios.get_scenario(self.BASE).topology
        graph = pn.topology.barabasi_albert(topo.n, topo.m0, topo.m, topo.seed)
        self.A = check.coupling_from_edges(topo.n, graph.edges)
        self.repeat = check.RepeatCheck()
        self.n_ops = 1

    def run(self, k: int, out: Path):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.pn.cli.main(self.argv + ["--out", str(out)])
        return rc, buf.getvalue()

    def check(self, k: int, raw, out: Path) -> OpResult:
        rc, printed = raw
        res = OpResult()
        if rc != 0:
            res.problems.append(f"exit code {rc}")
        texts = _check_files(out, self.repeat, res)
        if printed != texts.get("sweep.txt"):
            res.problems.append("printed table differs from sweep.txt")
        rows = texts.get("sweep.csv", "").splitlines()[1:]
        if len(rows) != len(self.gains):
            res.problems.append(f"{len(rows)} sweep.csv rows for {len(self.gains)} gains")
        for i, gain in enumerate(self.gains):
            name = f"{self.BASE}+epsilon{i:02d}={gain:g}"
            meta = json.loads(texts[f"{name}.meta.json"])
            if meta["scenario"]["plan"]["gain"] != gain:
                res.problems.append(f"{name}: ran gain {meta['scenario']['plan']['gain']!r}")
            if meta["scenario"]["sim"]["T"] != self.T:
                res.problems.append(f"{name}: ran to T = {meta['scenario']['sim']['T']!r}")
            res.problems += check.check_plan(meta, self.A)
            res.problems += check.check_analysis(meta, self.A)
            res.problems += check.check_sync_series(meta, texts[f"{name}.csv"])
            if self.reference is not None:
                res.problems += check.check_sync_reference(meta, self.reference[i])
            steps, node_steps = _integration_counts(meta)
            res.rk4_steps += steps
            res.node_steps += node_steps
        res.work = res.node_steps
        return res


class DesignBA:
    name = "design_ba"
    work_name, work_unit = "gain_queries_per_s", "queries/s"
    # Fixed sizes keep the work per seed comparable; the seed draws the graphs.
    # Small and large alternate so a run that stops mid-pass is not biased.
    SIZES = (30, 39, 33, 36)
    M0 = M = 3
    MARGIN, TOL = 0.5, 1e-6
    HUBS = 3

    def __init__(self, pn, seed: int, smoke: bool = False) -> None:
        self.pn = pn
        rng = np.random.Generator(np.random.PCG64(seed))
        sizes = self.SIZES[:1] if smoke else self.SIZES
        self.queries = []
        for n in sizes:
            graph_seed = int(rng.integers(0, 2**63))
            self.queries.append((n, graph_seed, "smallest", n // 2))
            self.queries.append((n, graph_seed, "largest", self.HUBS))
        self.repeat = check.RepeatCheck()
        self.n_ops = len(self.queries)

    def run(self, k: int, out: Path):
        n, graph_seed, strategy, count = self.queries[k % self.n_ops]
        topology, pinning, spectral = self.pn.topology, self.pn.pinning, self.pn.spectral
        graph = topology.barabasi_albert(n, self.M0, self.M, graph_seed)
        A = topology.coupling_matrix(graph)
        pinned = pinning.plan_by_degree(graph, strategy, count, 1.0, 1.0).pinned_nodes
        gain = spectral.min_uniform_gain(A, pinned, self.MARGIN, self.TOL)
        schur_ok = lam = None
        if gain is not None:
            schur_ok = spectral.schur_feasible(A, pinned, [gain] * len(pinned), self.MARGIN)
            plan = pinning.plan_explicit(n, {i: gain for i in pinned}, 1.0)
            lam = spectral.controlled_spectrum(A, plan).lambda_max
        return graph.edges, pinned, gain, schur_ok, lam

    def check(self, k: int, raw, out: Path) -> OpResult:
        edges, pinned, gain, schur_ok, lam = raw
        n, _, strategy, count = self.queries[k % self.n_ops]
        A = check.coupling_from_edges(n, edges)
        res = OpResult()
        if sorted(pinned) != sorted(check.degree_order(A, strategy)[:count]):
            res.problems.append(f"query {k}: pinned {pinned} are not the {count} {strategy}")
        res.problems += check.check_gain_answer(A, pinned, self.MARGIN, self.TOL, gain, schur_ok, lam)
        answer = repr((sorted(edges), pinned, gain, schur_ok, lam)).encode()
        res.problems += self.repeat.same(k % self.n_ops, answer)
        res.work = 1
        return res


WORKLOADS = {w.name: w for w in (SweepBA, DesignBA, ReproduceFig2)}
