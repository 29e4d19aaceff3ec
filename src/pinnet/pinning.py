"""Pinning plans: which nodes get feedback controllers, at what gain and cost.

A plan assigns a nonnegative gain to every node (zero means unpinned) plus
the network coupling strength c. The control expenditure of a plan is
CF = c * sum(gains). Subtracting the diagonal gain matrix from the coupling
matrix gives the controlled coupling matrix whose spectrum decides
synchronizability.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .errors import (ContractViolationError, ScenarioDefinitionError, about, field, known_keys,
                     positive, read_json)
from .topology import Graph, degrees

__all__ = [
    "PinningPlan",
    "degree_order",
    "plan_by_degree",
    "plan_explicit",
    "cost",
    "controlled_coupling",
    "plan_to_dict",
    "pins_from_dict",
    "write_plan",
    "read_plan",
]


@dataclass(frozen=True)
class PinningPlan:
    """Per-node feedback gains and the coupling strength.

    gains[i] == 0 means node i is unpinned; the all-zero plan is the
    uncontrolled network. coupling_strength 0 is permitted only so the
    uncoupled baseline scenario can be expressed; every controlled setting
    uses a strictly positive value.
    """

    n_nodes: int
    gains: tuple[float, ...]
    coupling_strength: float

    def __post_init__(self):
        if len(self.gains) != self.n_nodes:
            raise ContractViolationError(
                f"{len(self.gains)} gains for {self.n_nodes} nodes"
            )
        if not all(g >= 0 and math.isfinite(g) for g in self.gains):
            raise ContractViolationError("gains must be finite and nonnegative")
        if not (self.coupling_strength >= 0 and math.isfinite(self.coupling_strength)):
            raise ContractViolationError("coupling strength must be finite and nonnegative")

    @property
    def pinned_nodes(self) -> tuple[int, ...]:
        return tuple(i for i, g in enumerate(self.gains) if g > 0)

    @property
    def pinned_count(self) -> int:
        return len(self.pinned_nodes)

    def gain_array(self) -> np.ndarray:
        return np.asarray(self.gains, dtype=float)


def degree_order(g: Graph, strategy: str) -> list[int]:
    """Every node, highest degree first ("largest") or lowest first ("smallest").

    Ties break toward the smaller node index, so the order is deterministic:
    the sort is stable, also in reverse.
    """
    if strategy not in ("largest", "smallest"):
        raise ContractViolationError(f"unknown strategy {strategy!r}")
    return sorted(range(g.n_nodes), key=degrees(g).__getitem__, reverse=strategy == "largest")


def plan_by_degree(
    g: Graph, strategy: str, count: int, epsilon: float, c: float
) -> PinningPlan:
    """Pin the first `count` nodes of degree_order(g, strategy), all with gain `epsilon`."""
    order = degree_order(g, strategy)
    if not (1 <= count <= g.n_nodes):
        raise ContractViolationError(f"count {count} outside 1..{g.n_nodes}")
    positive("epsilon", epsilon)
    positive("coupling strength", c)
    gains = [0.0] * g.n_nodes
    for i in order[:count]:
        gains[i] = float(epsilon)
    return PinningPlan(g.n_nodes, tuple(gains), float(c))


def plan_explicit(
    n_nodes: int, gains_by_node: Mapping[int, float], c: float
) -> PinningPlan:
    """Plan with explicitly chosen pinned nodes and per-node gains.

    An empty mapping yields the uncontrolled plan (CF = 0).
    """
    gains = [0.0] * n_nodes
    for node, gain in gains_by_node.items():
        if not (0 <= node < n_nodes):
            raise ContractViolationError(f"node index {node} outside 0..{n_nodes - 1}")
        positive(f"gain of pinned node {node}", gain)
        gains[node] = float(gain)
    return PinningPlan(n_nodes, tuple(gains), float(c))


def cost(plan: PinningPlan) -> float:
    """Cost function CF = c * sum of gains.

    fsum keeps the sum exactly rounded, so the cost is invariant under node
    relabeling. Raises ContractViolationError when the cost is not a finite
    number: each gain is finite, but their sum or its product with c may not be.
    """
    try:
        cf = plan.coupling_strength * math.fsum(plan.gains)
    except OverflowError:
        cf = math.inf
    if not math.isfinite(cf):
        raise ContractViolationError(
            f"cost c * sum(gains) overflows: c = {plan.coupling_strength!r}, "
            f"gains up to {max(plan.gains)!r} on {plan.pinned_count} pinned nodes"
        )
    return cf


def controlled_coupling(A: np.ndarray, plan: PinningPlan) -> np.ndarray:
    """Controlled coupling matrix: A minus the diagonal gain matrix."""
    A = np.asarray(A, dtype=float)
    if A.shape != (plan.n_nodes, plan.n_nodes):
        raise ContractViolationError(
            f"matrix shape {A.shape} does not match plan on {plan.n_nodes} nodes"
        )
    out = A.copy()
    out.flat[:: plan.n_nodes + 1] -= plan.gain_array()
    return out


def plan_to_dict(plan: PinningPlan) -> dict:
    """JSON form: {"n": ..., "c": ..., "pins": [{"node": i, "gain": g}, ...]}."""
    return {
        "n": plan.n_nodes,
        "c": plan.coupling_strength,
        "pins": [
            {"node": i, "gain": plan.gains[i]} for i in plan.pinned_nodes
        ],
    }


def pins_from_dict(
    d: dict, where: str = "", n_required: bool = True
) -> tuple[Optional[int], float, dict[int, float]]:
    """Read the plan format {"n", "c", "pins": [{"node", "gain"}, ...]}.

    Returns (n, c, gain by node); n is None when absent and not required.
    Raises ScenarioDefinitionError naming the field (under `where`) that is
    missing, of the wrong type or not a field of the format, or the pin that
    repeats a node.
    """
    known_keys(d, where, ("n", "c", "pins"))
    n = field(d, where, "n", int) if n_required or "n" in d else None
    c = field(d, where, "c", float)
    gains = {}
    for k, pin in enumerate(field(d, where, "pins", list)):
        at = f"{where}.pins[{k}]" if where else f"pins[{k}]"
        known_keys(pin, at, ("node", "gain"))
        node = field(pin, at, "node", int)
        if node in gains:
            raise ScenarioDefinitionError(f"{at}: node {node} is pinned twice")
        gains[node] = field(pin, at, "gain", float)
    return n, c, gains


def write_plan(plan: PinningPlan, path) -> None:
    with open(path, "w") as fh:
        json.dump(plan_to_dict(plan), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_plan(path) -> PinningPlan:
    """Read a plan file; a malformed one raises a PinnetError naming the file."""
    d = read_json(path)
    with about(path):
        n, c, gains = pins_from_dict(d)
        return plan_explicit(n, gains, c)
