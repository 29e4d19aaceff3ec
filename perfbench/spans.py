"""Span tracing of pinnet's layers from outside the package.

The tracer wraps every public function of each layer module and rebinds the
wrapper in every loaded ``pinnet`` module whose namespace holds the original
function, so ``eig_symmetric`` is traced when called from ``spectral`` and
when called from ``dynamics``.  Methods are not wrapped: their time counts
to the function that calls them.  Each call records a span (function id,
parent span, start, end) in typed arrays kept in memory; self time is a
span's duration minus the durations of its direct children.  ``uninstall``
restores the original bindings, so untraced work in the same process runs
the program unchanged.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("topology", "pinning", "spectral", "dynamics", "scenarios", "harness", "cli")


def _public_functions(module) -> list:
    """Public functions defined in module (its ``__all__``, else names without ``_``)."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    objs = [getattr(module, n) for n in names]
    return [f for f in objs if inspect.isfunction(f) and f.__module__ == module.__name__]


class Tracer:
    """Records spans for calls into pinnet's layer functions."""

    def __init__(self) -> None:
        self.names: list[str] = []  # "layer.function", indexed by function id
        self.fid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors = {layer: 0 for layer in LAYERS}
        self._stack: list[int] = []
        self._counted: list[tuple[Exception, str]] = []
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str):
        fid = len(self.names)
        self.names.append(f"{layer}.{fn.__name__}")
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                # Count an exception once per layer it leaves, not once per span.
                if not any(e is exc and l == layer for e, l in self._counted):
                    self._counted.append((exc, layer))
                    self.errors[layer] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Rebind every layer's public functions to traced wrappers."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        if not self._wrappers:
            for layer in LAYERS:
                for fn in _public_functions(sys.modules[f"pinnet.{layer}"]):
                    self._wrappers[id(fn)] = (fn, self._wrap(fn, layer))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "pinnet" and not mod_name.startswith("pinnet."):
                continue
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in self._patches:
            setattr(module, attr, original)
        self._patches.clear()
        self._counted.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as arrays, with self time = duration - direct children's durations."""
        fid = np.frombuffer(self.fid, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        duration = end - start
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return {
            "fid": fid, "parent": parent, "start": start, "end": end,
            "duration": duration, "self": duration - child,
        }

    def write(self, path: Path) -> None:
        """Write the spans held in memory, with the function-id names."""
        spans = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **spans)


def layer_metrics(
    tracer: Tracer, ops: int, rk4_steps: int, node_steps: int, bytes_written: int
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics normalised per traced operation, and each layer's busy share.

    ``rk4_steps``, ``node_steps`` and ``bytes_written`` are totals over the
    traced operations, taken from their results.  A layer's busy time is the
    self time of its spans; its share is taken over all layers' busy time.
    """
    s = tracer.arrays()
    names, fid = tracer.names, s["fid"]
    n_fn = len(names)
    calls_by_fn = np.bincount(fid, minlength=n_fn)
    time_by_fn = np.bincount(fid, weights=s["duration"], minlength=n_fn)
    self_by_fn = np.bincount(fid, weights=s["self"], minlength=n_fn)

    def ids(name: str) -> list[int]:
        return [i for i, n in enumerate(names) if n == name]

    def calls(name: str) -> int:
        return int(calls_by_fn[ids(name)].sum())

    def total(name: str, by_fn: np.ndarray = time_by_fn) -> float:
        return float(by_fn[ids(name)].sum())

    busy = dict.fromkeys(LAYERS, 0.0)
    for name, t in zip(names, self_by_fn):
        busy[name.split(".")[0]] += float(t)
    all_busy = sum(busy.values())

    # Decompositions min_uniform_gain makes itself, i.e. its direct children.
    eig_mask = np.isin(fid, ids("spectral.eig_symmetric"))
    gain_spans = np.nonzero(np.isin(fid, ids("spectral.min_uniform_gain")))[0]
    eig_in_queries = int(np.count_nonzero(eig_mask & np.isin(s["parent"], gain_spans)))
    gain_calls = len(gain_spans)

    rhs_calls = calls("dynamics.network_rhs")
    integrate_s = total("dynamics.integrate_rk4")
    per_op = 1.0 / ops
    m = {
        "dynamics.rhs_calls": rhs_calls * per_op,
        "dynamics.rhs_us_per_call": 1e6 * total("dynamics.network_rhs") / rhs_calls if rhs_calls else 0.0,
        "dynamics.rk4_steps": rk4_steps * per_op,
        "dynamics.integrate_self_s": total("dynamics.integrate_rk4", self_by_fn) * per_op,
        "dynamics.us_per_node_step": 1e6 * integrate_s / node_steps if node_steps else 0.0,
        "dynamics.mode_threshold_s": total("dynamics.mode_threshold") * per_op,
        "dynamics.sync_error_s": total("dynamics.sync_error") * per_op,
        "spectral.eig_calls": calls("spectral.eig_symmetric") * per_op,
        "spectral.eig_busy_s": total("spectral.eig_symmetric") * per_op,
        "spectral.min_gain_s": total("spectral.min_uniform_gain") * per_op,
        "spectral.eig_per_query": eig_in_queries / gain_calls if gain_calls else 0.0,
        "spectral.schur_s": total("spectral.schur_feasible") * per_op,
        "spectral.controlled_spectrum_s": total("spectral.controlled_spectrum") * per_op,
        "harness.self_s": busy["harness"] * per_op,
        "harness.bytes_written": bytes_written * per_op,
        "topology.busy_s": busy["topology"] * per_op,
        "pinning.busy_s": busy["pinning"] * per_op,
        "scenarios.busy_s": busy["scenarios"] * per_op,
        "cli.self_s": busy["cli"] * per_op,
        "dynamics.busy_s": busy["dynamics"] * per_op,
        "spectral.busy_s": busy["spectral"] * per_op,
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = float(tracer.errors[layer])
    shares = {layer: busy[layer] / all_busy if all_busy else 0.0 for layer in LAYERS}
    return m, shares
