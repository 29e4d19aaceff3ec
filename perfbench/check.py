"""Output checks that decide whether a benchmark operation succeeded.

The checks recompute what pinnet reports with numpy's LAPACK routines and
the closed-form problem data, never with pinnet's own solvers:

* CF equals ``expected_cf`` (when the scenario has one) and c * sum(gains).
* ``lambda_1(A - diag(eps))`` matches ``np.linalg.eigvalsh`` within 1e-9.
* ``sigma*`` brackets the sign change of the mode-system abscissa, taken
  from ``np.linalg.eigvals`` of ``Df(s) + sigma * Gamma``.
* The outcome is "synchronized" exactly when ``c * lambda_1 < sigma*``.
* Sync times match reference values recorded from pinnet 0.1.0, or the
  time re-derived from the written error series.
* Repeated operations write byte-identical artifacts and equal answers.
* A ``min_uniform_gain`` answer g satisfies the margin and g - tol does
  not; ``None`` appears exactly when the unpinned block already fails.

Every check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import hashlib
import math
from typing import Optional, Sequence

import numpy as np

LAMBDA_TOL = 1e-9
# mode_threshold's bisection tolerance as run_scenario calls it.
SIGMA_TOL = 1e-6

# Chaotic node (a, b, c) = (35, 3, 28) at its equilibrium (r, r, 2c - a),
# r = sqrt(b (2c - a)); only the second state component couples.
_A, _B, _C = 35.0, 3.0, 28.0
_R = math.sqrt(_B * (2.0 * _C - _A))
_JACOBIAN = np.array(
    [[-_A, _A, 0.0], [(_C - _A) - (2.0 * _C - _A), _C, -_R], [_R, _R, -_B]]
)
_GAMMA = np.diag([0.0, 1.0, 0.0])
TARGET = np.array([_R, _R, 2.0 * _C - _A])


def mode_abscissa(sigma: float) -> float:
    """Largest real part of the eigenvalues of Df(s) + sigma * Gamma."""
    return float(np.max(np.linalg.eigvals(_JACOBIAN + sigma * _GAMMA).real))


def coupling_from_edges(n: int, edges) -> np.ndarray:
    """Negated graph Laplacian built directly from an edge list."""
    A = np.zeros((n, n))
    for i, j in edges:
        A[i, j] = A[j, i] = 1.0
    A[np.diag_indices(n)] = -A.sum(axis=1)
    return A


def star_edges(n: int) -> list[tuple[int, int]]:
    return [(0, i) for i in range(1, n)]


def degree_order(A: np.ndarray, strategy: str) -> list[int]:
    """Nodes by degree ("largest" or "smallest" first), ties to the smaller index."""
    deg = -np.diag(A)
    key = (lambda i: (-deg[i], i)) if strategy == "largest" else (lambda i: (deg[i], i))
    return sorted(range(A.shape[0]), key=key)


def check_plan(meta: dict, A: np.ndarray) -> list[str]:
    """A by-degree plan pins the right nodes, each at the requested gain."""
    spec = meta["scenario"]["plan"]
    if spec["kind"] != "by_degree":
        return []
    want = sorted(degree_order(A, spec["strategy"])[: spec["count"]])
    pins = meta["plan"]["pins"]
    got = sorted(p["node"] for p in pins)
    if got != want or any(p["gain"] != spec["gain"] for p in pins):
        return [f"{meta['scenario']['name']}: plan pins {pins} for {spec}"]
    return []


def check_analysis(meta: dict, A: np.ndarray) -> list[str]:
    """Check one scenario's metadata: cost, spectrum, threshold and outcome."""
    name = meta["scenario"]["name"]
    plan = meta["plan"]
    c = plan["c"]
    eps = np.zeros(plan["n"])
    for pin in plan["pins"]:
        eps[pin["node"]] = pin["gain"]
    problems = []

    cf = meta["cf"]
    if cf != c * math.fsum(eps):
        problems.append(f"{name}: CF {cf!r} != c*sum(gains) {c * math.fsum(eps)!r}")
    expected = meta["scenario"].get("expected_cf")
    if expected is not None and cf != expected:
        problems.append(f"{name}: CF {cf!r} != expected {expected!r}")

    lam = float(np.max(np.linalg.eigvalsh(A - np.diag(eps))))
    if not abs(meta["lambda_max_controlled"] - lam) <= LAMBDA_TOL:
        problems.append(
            f"{name}: lambda_1 {meta['lambda_max_controlled']!r} vs eigvalsh {lam!r}"
        )

    sigma = meta["sigma_star"]
    if not (mode_abscissa(sigma) >= 0.0 > mode_abscissa(sigma - SIGMA_TOL)):
        problems.append(f"{name}: sigma* {sigma!r} does not bracket the abscissa sign change")

    predicted = c * lam < sigma
    if (meta["outcome"] == "synchronized") != predicted:
        problems.append(
            f"{name}: outcome {meta['outcome']} but c*lambda_1 = {c * lam:.6g} "
            f"{'<' if predicted else '>='} sigma* = {sigma:.6g}"
        )
    return problems


def check_sync_reference(meta: dict, reference: Optional[float]) -> list[str]:
    if meta["sync_time"] != reference:
        name = meta["scenario"]["name"]
        return [f"{name}: sync time {meta['sync_time']!r} != reference {reference!r}"]
    return []


def check_sync_series(meta: dict, csv_text: str) -> list[str]:
    """Re-derive the sync time from a written ``t,E`` series.

    The sync time is the first recorded time after the last record with
    E >= tol; None when the last record is still above tol.
    """
    rows = csv_text.splitlines()
    name = meta["scenario"]["name"]
    if rows[0] != "t,E":
        return [f"{name}: unexpected series header {rows[0]!r}"]
    data = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    times, errors = data[:, 0], data[:, 1]
    above = np.nonzero(errors >= meta["scenario"]["sim"]["tol"])[0]
    if len(above) == 0:
        derived = float(times[0])
    elif above[-1] == len(times) - 1:
        derived = None
    else:
        derived = float(times[above[-1] + 1])
    got = meta["sync_time"]
    if (got is None) != (derived is None) or (
        got is not None and not math.isclose(got, derived, rel_tol=1e-9, abs_tol=1e-12)
    ):
        return [f"{name}: sync time {got!r} but the series gives {derived!r}"]
    return []


def check_full_states(meta: dict, csv_text: str) -> list[str]:
    """Shape of a full-state series, and a synchronized run ending within tol."""
    name = meta["scenario"]["name"]
    sim = meta["scenario"]["sim"]
    n = meta["plan"]["n"]
    rows = csv_text.splitlines()
    records = int(round(sim["T"] / sim["h"])) // sim["record_every"] + 1
    if len(rows) != 1 + records * n:
        return [f"{name}: {len(rows)} full-state rows, expected {1 + records * n}"]
    last = np.array([[float(x) for x in row.split(",")[2:]] for row in rows[-n:]])
    err = float(np.max(np.linalg.norm(last - TARGET, axis=1)))
    if (meta["outcome"] == "synchronized") != (err < sim["tol"]):
        return [f"{name}: outcome {meta['outcome']} but the final error is {err:.3g}"]
    return []


def below_margin(A: np.ndarray, pinned: Sequence[int], gain: float, margin: float) -> bool:
    eps = np.zeros(A.shape[0])
    eps[list(pinned)] = gain
    return float(np.max(np.linalg.eigvalsh(A - np.diag(eps)))) < -margin


def check_gain_answer(
    A: np.ndarray,
    pinned: Sequence[int],
    margin: float,
    tol: float,
    answer: Optional[float],
    schur_ok: Optional[bool],
    lambda_max: Optional[float],
) -> list[str]:
    """Check a min_uniform_gain answer and pinnet's own confirmation of it."""
    unpinned = [i for i in range(A.shape[0]) if i not in set(pinned)]
    block_fails = float(np.max(np.linalg.eigvalsh(A[np.ix_(unpinned, unpinned)]))) >= -margin
    if answer is None:
        return [] if block_fails else ["gain None although the unpinned block meets the margin"]
    problems = []
    if block_fails:
        problems.append(f"gain {answer!r} although the unpinned block fails the margin")
    if not below_margin(A, pinned, answer, margin):
        problems.append(f"gain {answer!r} does not meet the margin")
    if answer - tol > 0 and below_margin(A, pinned, answer - tol, margin):
        problems.append(f"gain {answer!r} - tol already meets the margin")
    if schur_ok is not True:
        problems.append(f"schur_feasible({answer!r}) returned {schur_ok!r}")
    eps = np.zeros(A.shape[0])
    eps[list(pinned)] = answer
    lam = float(np.max(np.linalg.eigvalsh(A - np.diag(eps))))
    if lambda_max is None or not abs(lambda_max - lam) <= LAMBDA_TOL:
        problems.append(f"controlled lambda_1 {lambda_max!r} vs eigvalsh {lam!r}")
    return problems


class RepeatCheck:
    """Remembers the first digest seen for each key; later ones must match."""

    def __init__(self) -> None:
        self._seen: dict[object, str] = {}

    def same(self, key, payload: bytes) -> list[str]:
        digest = hashlib.sha256(payload).hexdigest()
        first = self._seen.setdefault(key, digest)
        return [] if first == digest else [f"{key}: output differs from the first repeat"]
