"""Declarative simulation scenarios and the shipped benchmark set.

A scenario bundles a topology recipe, a pinning-plan recipe, integration
parameters, and an optional expected cost used as a loud consistency check.
The shipped set (families fig2..fig9) covers the star, cluster-of-stars,
and 20-node scale-free comparisons between hub pinning and small-degree
pinning at documented coupling strengths and gains.

The scale-free instance is fixed: PCG64 seed 1520 is the first seed (scanning
from 0 with n=20, m0=3, m=3) whose top three degrees are 15, 13, 10, whose two
lowest-degree nodes tie at degree 3, and which shows the small-degree pinning
advantage in the controlled spectrum. Horizons T are sized so each
synchronizing run crosses its tolerance with at least 20% slack.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import partial
from typing import Optional

from .errors import ScenarioDefinitionError, checked, field, known_keys, positive
from .pinning import PinningPlan, degree_order, pins_from_dict, plan_by_degree, plan_explicit
from .topology import Graph, barabasi_albert, cluster_stars, star

__all__ = [
    "TopologySpec",
    "PlanSpec",
    "SimParams",
    "Scenario",
    "SCENARIOS",
    "FAMILIES",
    "BA_PARAMS",
    "get_scenario",
]

# Shipped scale-free instance (n, m0, m, seed); see module docstring.
BA_PARAMS = (20, 3, 3, 1520)


class _Recipe:
    """A recipe of one of several kinds, kept in the JSON object SECTION. FIELDS
    gives each kind's fields and JSON types in reading order: a list holds ints,
    a dict maps node indices to gains, and a (type, None) field is optional."""

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        for name, typ in self.FIELDS.get(self.kind, {}).items():
            value = getattr(self, name)
            if value is not None:
                d[name] = (list(value) if typ is list else
                           {str(k): v for k, v in value.items()} if typ is dict else value)
        return d

    @classmethod
    def from_dict(cls, d: dict):
        kind = field(d, cls.SECTION, "kind", str, None)
        if kind not in cls.FIELDS:
            raise ScenarioDefinitionError(f"unknown {cls.SECTION} kind {kind!r}")
        known_keys(d, cls.SECTION, ("kind", *cls.FIELDS[kind]))
        values = {}
        for name, typ in cls.FIELDS[kind].items():
            at = f"{cls.SECTION}.{name}"
            value = field(d, cls.SECTION, name, *(typ if isinstance(typ, tuple) else (typ,)))
            if typ is list:
                value = tuple(checked(x, int, f"{at}[{k}]") for k, x in enumerate(value))
            elif typ is dict:
                gains = {}
                for key, gain in value.items():
                    try:
                        node = int(key)
                    except ValueError:
                        raise ScenarioDefinitionError(
                            f"{at} key {key!r} is not a node index"
                        ) from None
                    if node in gains:
                        raise ScenarioDefinitionError(f"{at}: node {node} is pinned twice")
                    gains[node] = checked(gain, float, f"{at}.{key}")
                value = gains
            values[name] = value
        return cls(kind, **values)


@dataclass(frozen=True)
class TopologySpec(_Recipe):
    """Recipe for one of the supported graph families."""

    SECTION = "topology"
    FIELDS = {
        "star": {"n": int},
        "cluster": {"branch_sizes": list},
        "ba": {"n": int, "m0": int, "m": int, "seed": int},
    }

    kind: str  # "star" | "cluster" | "ba"
    n: Optional[int] = None
    branch_sizes: Optional[tuple[int, ...]] = None
    m0: Optional[int] = None
    m: Optional[int] = None
    seed: Optional[int] = None

    def build(self) -> Graph:
        if self.kind == "star":
            return star(int(self.n))
        if self.kind == "cluster":
            return cluster_stars(tuple(self.branch_sizes))
        if self.kind == "ba":
            return barabasi_albert(int(self.n), int(self.m0), int(self.m), int(self.seed))
        raise ScenarioDefinitionError(f"unknown topology kind {self.kind!r}")


@dataclass(frozen=True)
class PlanSpec(_Recipe):
    """Recipe for a pinning plan, resolved against a concrete graph.

    kinds: "by_degree" (strategy + count), "mixed" (largest + smallest
    counts, gains equal), "explicit" (per-node gains), "none" (zero-gain
    baseline; the only kind that admits c = 0).
    """

    SECTION = "plan"
    FIELDS = {
        "none": {"c": float},
        "by_degree": {"c": float, "strategy": str, "count": int, "gain": float},
        "mixed": {"c": float, "largest": int, "smallest": int, "gain": float},
        "explicit": {"c": float, "gains": dict, "n": (int, None)},
    }

    kind: str
    c: float
    strategy: Optional[str] = None
    count: Optional[int] = None
    gain: Optional[float] = None
    largest: Optional[int] = None
    smallest: Optional[int] = None
    gains: Optional[dict] = None
    n: Optional[int] = None  # expected node count, set by the pin-file form

    def __post_init__(self):
        if self.kind == "by_degree" and self.strategy not in ("largest", "smallest"):
            raise ScenarioDefinitionError(
                f"plan.strategy must be largest or smallest, got {self.strategy!r}")

    def build(self, g: Graph) -> PinningPlan:
        if self.n is not None and self.n != g.n_nodes:
            raise ScenarioDefinitionError(
                f"plan is for {self.n} nodes but the topology has {g.n_nodes}"
            )
        if self.kind == "none":
            return PinningPlan(g.n_nodes, (0.0,) * g.n_nodes, float(self.c))
        if self.kind == "by_degree":
            return plan_by_degree(g, self.strategy, int(self.count), float(self.gain), self.c)
        if self.kind == "mixed":
            for name in ("largest", "smallest"):
                if not 0 <= (count := getattr(self, name)) <= g.n_nodes:
                    raise ScenarioDefinitionError(f"plan.{name} {count} outside 0..{g.n_nodes}")
            big = degree_order(g, "largest")[: int(self.largest)]
            small = degree_order(g, "smallest")[: int(self.smallest)]
            if set(big) & set(small):
                raise ScenarioDefinitionError("mixed plan: largest and smallest sets overlap")
            return plan_explicit(g.n_nodes, {i: float(self.gain) for i in big + small}, self.c)
        if self.kind == "explicit":
            return plan_explicit(
                g.n_nodes, {int(k): float(v) for k, v in self.gains.items()}, self.c
            )
        raise ScenarioDefinitionError(f"unknown plan kind {self.kind!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "PlanSpec":
        if isinstance(d, dict) and "pins" in d:  # the plan file written by the pin command
            n, c, gains = pins_from_dict(d, "plan", n_required=False)
            return PlanSpec("explicit", c, gains=gains, n=n)
        return super().from_dict(d)


@dataclass(frozen=True)
class SimParams:
    """Integration step, horizon, sync tolerance, and the init-condition seed."""

    h: float
    T: float
    tol: float = 1e-2
    init_seed: int = 0
    record_every: int = 5

    def __post_init__(self):
        for name in ("h", "T", "tol"):
            positive(f"sim.{name}", getattr(self, name), ScenarioDefinitionError)
        if self.record_every < 1:
            raise ScenarioDefinitionError(f"sim.record_every must be >= 1, got {self.record_every}")
        seed = self.init_seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ScenarioDefinitionError(
                f"sim.init_seed must be a non-negative integer, got {seed!r}"
            )

    def to_dict(self) -> dict:
        return {
            "h": self.h, "T": self.T, "tol": self.tol,
            "init_seed": self.init_seed, "record_every": self.record_every,
        }

    @staticmethod
    def from_dict(d: dict) -> "SimParams":
        known_keys(d, "sim", ("h", "T", "tol", "init_seed", "record_every"))
        get = partial(field, d, "sim")
        return SimParams(
            h=get("h", float), T=get("T", float), tol=get("tol", float, 1e-2),
            init_seed=get("init_seed", int, 0), record_every=get("record_every", int, 5),
        )


@dataclass(frozen=True)
class Scenario:
    name: str
    topology: TopologySpec
    plan: PlanSpec
    sim: SimParams
    expected_cf: Optional[float] = None

    def __post_init__(self):  # the name is the stem of the run's artifact files
        if not self.name or any(ch in self.name for ch in "/\\\0"):
            raise ScenarioDefinitionError(
                f"scenario.name must be a file name, without '/', '\\' or NUL, got {self.name!r}")

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "topology": self.topology.to_dict(),
            "plan": self.plan.to_dict(),
            "sim": self.sim.to_dict(),
        }
        if self.expected_cf is not None:
            d["expected_cf"] = self.expected_cf
        return d

    @staticmethod
    def from_dict(d: dict) -> "Scenario":
        known_keys(d, "scenario", ("name", "topology", "plan", "sim", "expected_cf"))
        get = partial(field, d, "scenario")
        return Scenario(
            name=get("name", str),
            topology=TopologySpec.from_dict(get("topology", dict)),
            plan=PlanSpec.from_dict(get("plan", dict)),
            sim=SimParams.from_dict(get("sim", dict)),
            expected_cf=None if d.get("expected_cf") is None else get("expected_cf", float),
        )


_STAR9 = TopologySpec("star", n=9)
_CLUSTER = TopologySpec("cluster", branch_sizes=(2, 3, 4))
_BA = TopologySpec("ba", n=BA_PARAMS[0], m0=BA_PARAMS[1], m=BA_PARAMS[2], seed=BA_PARAMS[3])


def _sc(name, topo, plan, h, T, seed, cf) -> Scenario:
    return Scenario(name, topo, plan, SimParams(h=h, T=T, init_seed=seed), expected_cf=cf)


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in [
        # Star, c=10: one big-gain controller on the hub vs small gains on all leaves.
        _sc("fig2a", _STAR9, PlanSpec("by_degree", 10.0, strategy="largest", count=1, gain=300.0),
            1e-4, 5.0, 201, 3000.0),
        _sc("fig2b", _STAR9, PlanSpec("by_degree", 10.0, strategy="smallest", count=8, gain=1.5),
            1e-4, 5.0, 202, 120.0),
        # Star, c=7: same contrast at weaker coupling (hub pinning barely inside
        # the stable region, hence the long horizon).
        _sc("fig3a", _STAR9, PlanSpec("by_degree", 7.0, strategy="largest", count=1, gain=500.0),
            2e-4, 15.0, 203, 3500.0),
        _sc("fig3b", _STAR9, PlanSpec("by_degree", 7.0, strategy="smallest", count=8, gain=1.5),
            2e-4, 15.0, 204, 84.0),
        # Cluster of stars with branches (2,3,4): centers vs all leaves.
        _sc("fig5a", _CLUSTER, PlanSpec("by_degree", 10.0, strategy="largest", count=3, gain=300.0),
            2e-4, 10.0, 205, 9000.0),
        _sc("fig5b", _CLUSTER, PlanSpec("by_degree", 10.0, strategy="smallest", count=9, gain=2.5),
            2e-4, 10.0, 206, 225.0),
        # Scale-free 20-node instance: uncontrolled baselines, then hub pinning
        # at growing gains.
        _sc("fig6a", _BA, PlanSpec("none", 0.0), 1e-3, 5.0, 207, 0.0),
        _sc("fig6b", _BA, PlanSpec("none", 6.0), 1e-3, 5.0, 208, 0.0),
        _sc("fig6c", _BA, PlanSpec("by_degree", 6.0, strategy="largest", count=3, gain=500.0),
            2e-4, 10.0, 209, 9000.0),
        _sc("fig6d", _BA, PlanSpec("by_degree", 6.0, strategy="largest", count=3, gain=1000.0),
            2e-4, 10.0, 210, 18000.0),
        # Eleven lowest-degree nodes at a small gain: lower cost, better effect.
        _sc("fig7", _BA, PlanSpec("by_degree", 6.0, strategy="smallest", count=11, gain=5.0),
            5e-4, 10.0, 211, 330.0),
        # Gain needed for a comparable effect: hubs at 500 vs small nodes at 8.
        _sc("fig8a", _BA, PlanSpec("by_degree", 8.0, strategy="largest", count=3, gain=500.0),
            2e-4, 10.0, 212, 12000.0),
        _sc("fig8b", _BA, PlanSpec("by_degree", 6.0, strategy="smallest", count=11, gain=8.0),
            5e-4, 10.0, 213, 528.0),
        # Equal cost 660 split three ways: two hubs, hubs+smallest, eleven smallest.
        _sc("fig9a", _BA, PlanSpec("by_degree", 6.0, strategy="largest", count=2, gain=55.0),
            5e-4, 10.0, 214, 660.0),
        _sc("fig9b", _BA, PlanSpec("mixed", 6.0, largest=3, smallest=2, gain=22.0),
            5e-4, 10.0, 215, 660.0),
        _sc("fig9c", _BA, PlanSpec("by_degree", 6.0, strategy="smallest", count=11, gain=10.0),
            5e-4, 10.0, 216, 660.0),
    ]
}

FAMILIES: dict[str, tuple[str, ...]] = {
    "fig2": ("fig2a", "fig2b"),
    "fig3": ("fig3a", "fig3b"),
    "fig5": ("fig5a", "fig5b"),
    "fig6": ("fig6a", "fig6b", "fig6c", "fig6d"),
    "fig7": ("fig7",),
    "fig8": ("fig8a", "fig8b"),
    "fig9": ("fig9a", "fig9b", "fig9c"),
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ScenarioDefinitionError(f"unknown scenario {name!r}") from None
