"""pinnet benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload sweep_ba --seed 1 --seconds 60 --trace 0

Run from the repository root (the package is imported from ``src/``).  The
untraced run (``--trace 0``) measures set-up time, work per second and
peak memory; the traced run (``--trace 1``) reports per-layer numbers from
spans around pinnet's public functions.  Every operation's output is
checked; a failed check or an unexpected exception counts as a failed
operation.  Human-readable lines come first and the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Artifacts and span files go to ``.perfbench_out/``.
"""

import os
import sys

# Single-threaded BLAS, set before numpy is imported anywhere in this process.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
# Every fresh import compiles pinnet from source, whether or not the
# environment would cache bytecode, so setup_s means the same everywhere.
sys.dont_write_bytecode = True

import argparse
import gc
import importlib
import json
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import spans
from workloads import WORKLOADS, OpResult

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 8  # before the timed body, and again after it


def fresh_setup(workload_cls, seed: int, smoke: bool):
    """Import pinnet afresh and build the workload's inputs; returns (seconds, workload)."""
    for name in [m for m in sys.modules if m == "pinnet" or m.startswith("pinnet.")]:
        del sys.modules[name]
    gc.collect()  # free the previous import, so repeats do not grow peak_rss_mb
    start = time.perf_counter()
    pn = SimpleNamespace(**{
        layer: importlib.import_module(f"pinnet.{layer}") for layer in spans.LAYERS
    })
    workload = workload_cls(pn, seed, smoke)
    return time.perf_counter() - start, workload


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '').strip()})"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Runner:
    """Runs, times and checks a workload's operations."""

    def __init__(self, workload, out: Path) -> None:
        self.workload = workload
        self.out = out
        self.attempted = 0
        self.failed = 0

    def op(self, k: int) -> tuple[float, OpResult]:
        """Run and check operation k once; returns its run time and result."""
        self.attempted += 1
        out = self.out / f"op{self.attempted}"
        out.mkdir(parents=True)
        try:
            start = time.perf_counter()
            try:
                raw = self.workload.run(k, out)
            finally:
                seconds = time.perf_counter() - start
            res = self.workload.check(k, raw, out)
        except Exception as exc:  # a failed operation is counted, not fatal
            res = OpResult(problems=[f"{type(exc).__name__}: {exc}"])
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if res.problems:
            self.failed += 1
            for problem in res.problems[:5]:
                print(f"check failed: op {k}: {problem}", file=sys.stderr)
        return seconds, res


def measure(runner: Runner, seconds: float, after_op) -> float:
    """Run operations until the next one would end after ``seconds``; returns throughput.

    Throughput is the work of one pass over the operations run, divided by
    the sum of each operation's median time, so neither one slow repeat nor
    a pass cut short skews it.  An operation that failed once adds no work.
    ``after_op`` is called after every operation.
    """
    start = time.perf_counter()
    times, work, failed = {}, {}, set()
    k, last = 0, 0.0
    while k == 0 or time.perf_counter() - start + last <= seconds:
        lap = time.perf_counter()
        dt, res = runner.op(k)
        i = k % runner.workload.n_ops
        times.setdefault(i, []).append(dt)
        work[i] = res.work
        if res.problems:
            failed.add(i)
        after_op()
        last = time.perf_counter() - lap
        k += 1
    done = sum(w for i, w in work.items() if i not in failed)
    return done / sum(statistics.median(t) for t in times.values())


def measure_traced(runner: Runner, seconds: float, trace_path: Path) -> dict:
    """Pairs of the same operation, untraced then traced, while they fit."""
    tracer = spans.Tracer()
    start = time.perf_counter()
    plain = traced = 0.0
    totals = {"rk4_steps": 0, "node_steps": 0, "bytes_written": 0}
    k, last = 0, 0.0
    while k == 0 or time.perf_counter() - start + last <= seconds:
        lap = time.perf_counter()
        dt, _ = runner.op(k)
        plain += dt
        tracer.install()
        try:
            dt, res = runner.op(k)
        finally:
            tracer.uninstall()
        traced += dt
        for key in totals:
            totals[key] += getattr(res, key)
        last = time.perf_counter() - lap
        k += 1
    tracer.write(trace_path)
    metrics, shares = spans.layer_metrics(tracer, k, **totals)
    metrics["trace.overhead_ratio"] = traced / plain
    print("busy share: " + " ".join(f"{layer}={share:.4f}" for layer, share in shares.items()))
    return metrics


def main(argv=None, smoke: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "pinnet" / "__init__.py").is_file():
        print(f"perfbench: pinnet sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    workload_cls = WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        dt, workload = fresh_setup(workload_cls, args.seed, smoke)
        setups.append(dt)

    info = machine()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = OUT / f"{tag}-pid{os.getpid()}"
    runner = Runner(workload, run_dir)
    try:
        if args.trace:
            metrics = measure_traced(runner, args.seconds, OUT / f"spans-{tag}.npz")
        else:
            # Set-up is also timed after every operation and after the body, so
            # its median samples the machine over the whole run.
            def set_up_again():
                setups.append(fresh_setup(workload_cls, args.seed, smoke)[0])

            metrics = {"throughput": measure(runner, args.seconds, set_up_again)}
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            for _ in range(SETUP_REPEATS):
                set_up_again()
            metrics["setup_s"] = statistics.median(setups)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if "throughput" in metrics:
        print(f"{workload.work_name} = {metrics['throughput']:.6g} {workload.work_unit}")
    print(f"fail_ratio = {runner.failed / runner.attempted:.6g} ratio "
          f"({runner.failed} of {runner.attempted} operations)")

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps({**result, "machine": info}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
