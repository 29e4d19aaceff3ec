"""Test-side spectral reference code.

``jacobi_eig`` is a cyclic Jacobi eigensolver written independently of
LAPACK's eigensolvers; the tests use it as the oracle for the package's
``eig_symmetric`` (which calls ``np.linalg.eigvalsh``) and for its Cholesky
definiteness tests.
``two_pass_min_uniform_gain`` is the package's earlier ``min_uniform_gain``,
which forms the Schur complement twice, once per slack; it is the oracle for
the one-pass ``min_uniform_gain`` and its Newton step.
``spectral_abscissa_3`` solves the characteristic cubic of a 3x3 matrix in
closed form; it is the oracle for ``pinnet.dynamics.mode_threshold``, which
finds the stability threshold from the Routh-Hurwitz polynomials instead.
The report helpers below check spectral invariants and are used only by
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from pinnet.errors import BoundaryCaseError, ContractViolationError, positive
from pinnet.pinning import PinningPlan, cost
from pinnet.spectral import (
    _DEFINITE_SLACK,
    EigenDecomposition,
    _below,
    _controlled,
    _pins,
    _symmetric,
    controlled_spectrum,
    eig_symmetric,
)

# Stop once the off-diagonal Frobenius mass is negligible against the input.
_OFF_DIAG_FACTOR = 1e-12
_MAX_SWEEPS = 100


def _off_diag_norm(a: np.ndarray) -> float:
    mask = ~np.eye(a.shape[0], dtype=bool)
    return float(np.sqrt(np.sum(a[mask] ** 2)))


def _round_robin(n: int) -> list:
    """Round-robin (Brent-Luk) schedule: per round, index arrays (p, q) of
    disjoint pairs with p < q.

    The circle method on n players (n + 1 with a bye when n is odd) gives
    n - 1 or n rounds that together meet every pair exactly once.
    """
    m = n + n % 2
    players = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = sorted(
            (min(p, q), max(p, q))
            for p, q in zip(players[: m // 2], players[::-1][: m // 2])
            if max(p, q) < n
        )
        rounds.append(np.array(pairs, dtype=int).reshape(-1, 2).T)
        players = players[:1] + players[-1:] + players[1:-1]
    return rounds


def jacobi_eig(M: np.ndarray) -> EigenDecomposition:
    """Eigenvalues of a symmetric real matrix by cyclic Jacobi, descending.

    Each sweep meets all pairs in round-robin order, rotating the disjoint
    pairs of one round away together, until the off-diagonal norm falls
    below 1e-12 times the input Frobenius norm.
    """
    M = np.asarray(M, dtype=float)
    assert M.ndim == 2 and M.shape[0] == M.shape[1] and M.shape[0] > 0
    assert np.max(np.abs(M - M.T)) <= 1e-12 * max(1.0, np.linalg.norm(M))

    n = M.shape[0]
    a = M.copy()
    fro = float(np.linalg.norm(M))
    if fro == 0.0:
        return EigenDecomposition(np.zeros(n))
    threshold = _OFF_DIAG_FACTOR * fro
    rounds = _round_robin(n)

    for _ in range(_MAX_SWEEPS):
        if _off_diag_norm(a) <= threshold:
            break
        for p, q in rounds:
            apq = a[p, q]
            keep = np.abs(apq) > threshold / n
            if not keep.any():
                continue
            p, q, apq = p[keep], q[keep], apq[keep]
            theta = (a[q, q] - a[p, p]) / (2.0 * apq)
            # hypot(theta, 1) cannot overflow; for huge theta t is 1 / (2 theta).
            t = np.where(theta >= 0, 1.0, -1.0) / (np.abs(theta) + np.hypot(theta, 1.0))
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            # The rotations act on disjoint index pairs, so one orthogonal J
            # holds them all and a <- J^T a J applies them at once.
            J = np.eye(n)
            J[p, p] = J[q, q] = c
            J[p, q], J[q, p] = s, -s
            a = J.T @ a @ J
            a[p, q] = a[q, p] = 0.0
    if _off_diag_norm(a) > threshold:
        raise RuntimeError(f"Jacobi iteration did not converge within {_MAX_SWEEPS} sweeps")

    return EigenDecomposition(np.sort(np.diag(a))[::-1])


@dataclass(frozen=True)
class SpectralMargin:
    """Whether the controlled spectrum sits strictly below -margin."""

    margin: float
    satisfied: bool
    lambda_max: float


@dataclass(frozen=True)
class DiagBoundsReport:
    """Consistency checks between a Hermitian matrix's diagonal and spectrum.

    diag_within_spectrum: every diagonal entry lies in [lambda_min, lambda_max].
    lambda2_bound_holds: when lambda_max == 0, the two largest diagonal
    entries satisfy a11 + a22 <= lambda_2; None when lambda_max != 0.
    """

    diag_within_spectrum: bool
    lambda2_bound_holds: Optional[bool]


@dataclass(frozen=True)
class CostReport:
    cf: float
    pinned_count: int
    lambda_max_controlled: float


def check_margin(A: np.ndarray, plan: PinningPlan, margin: float) -> SpectralMargin:
    """Test whether every controlled eigenvalue lies strictly below -margin."""
    if margin <= 0:
        raise ContractViolationError("margin must be positive")
    lam_max = controlled_spectrum(A, plan).lambda_max
    return SpectralMargin(margin=margin, satisfied=lam_max < -margin, lambda_max=lam_max)


def diag_bounds_check(M: np.ndarray) -> DiagBoundsReport:
    """Check the diagonal-vs-spectrum inequalities of a symmetric matrix.

    Every diagonal entry of a Hermitian matrix lies between the extreme
    eigenvalues, and when the largest eigenvalue is zero the two largest
    diagonal entries are bounded above by the second eigenvalue.
    """
    dec = eig_symmetric(M)
    diag = np.diag(np.asarray(M, dtype=float))
    lo, hi = dec.lambda_min, dec.lambda_max
    within = bool(np.all(diag >= lo - 1e-9) and np.all(diag <= hi + 1e-9))
    lambda2_holds: Optional[bool] = None
    if abs(dec.lambda_max) <= 1e-9 and M.shape[0] >= 2:
        top_two = np.sort(diag)[::-1][:2]
        lambda2_holds = bool(top_two[0] + top_two[1] <= dec.eigenvalues[1] + 1e-9)
    return DiagBoundsReport(within, lambda2_holds)


def gershgorin_check(M: np.ndarray) -> bool:
    """Every eigenvalue lies in the union of Gershgorin discs (1e-9 slack)."""
    M = np.asarray(M, dtype=float)
    centers = np.diag(M)
    radii = np.sum(np.abs(M), axis=1) - np.abs(centers)
    eigenvalues = eig_symmetric(M).eigenvalues
    for lam in eigenvalues:
        if not np.any(np.abs(lam - centers) <= radii + 1e-9):
            return False
    return True


def evaluate_plan(A: np.ndarray, plan: PinningPlan) -> CostReport:
    """Cost and controlled spectral radius of a plan on a coupling matrix."""
    return CostReport(
        cf=cost(plan),
        pinned_count=plan.pinned_count,
        lambda_max_controlled=controlled_spectrum(A, plan).lambda_max,
    )


def two_pass_min_uniform_gain(
    A: np.ndarray, pinned, margin: float, tol: float
) -> Optional[float]:
    """min_uniform_gain with S formed twice: first at the unpinned block's
    slack, then at the slack of the controlled matrix at that first estimate.

    Same contract as ``pinnet.spectral.min_uniform_gain``; a failed Cholesky
    of M_UU at the second slack raises BoundaryCaseError.
    """
    positive("tol", tol)
    positive("margin", margin)
    A = _symmetric(A)
    n = A.shape[0]
    pins = _pins(n, pinned)
    unpinned = np.setdiff1d(np.arange(n), pins)
    u = len(unpinned)
    order = np.concatenate([unpinned, np.sort(pins)])
    P = A[np.ix_(order, order)]  # unpinned nodes first, then pinned, each ascending

    def schur_complement(slack_of: np.ndarray):
        """Cholesky factor L of M_UU, L^{-1} M_UP and S, the level's slack from slack_of."""
        M = -P
        M.flat[:: n + 1] -= margin + _DEFINITE_SLACK * (1.0 + np.linalg.norm(slack_of))
        chol = np.linalg.cholesky(M[:u, :u])
        y = np.linalg.solve(chol, M[:u, u:])
        return chol, y, M[u:, u:] - y.T @ y

    try:
        eps = max(0.0, -float(np.linalg.eigvalsh(schur_complement(P[:u, :u])[2])[0]))
    except np.linalg.LinAlgError:
        return None
    try:
        chol, y, S = schur_complement(_controlled(A, pins, eps))
        lam, w = np.linalg.eigh(S)
        z = np.linalg.solve(chol.T, y @ w[:, 0])
    except np.linalg.LinAlgError:
        raise BoundaryCaseError("unpinned block within roundoff of -margin") from None
    eps = max(0.0, -float(lam[0]))
    err = float(np.finfo(float).eps * np.linalg.norm(_controlled(A, pins, eps)) * (1.0 + z @ z))
    if err <= tol:
        for gain in (eps, eps + err):
            if _below(_controlled(A, pins, gain), margin):
                return gain
    raise BoundaryCaseError(f"minimal gain {eps!r} uncertain by {err:.3g}, tol {tol:g}")


def _cbrt(v: float) -> float:
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def spectral_abscissa_3(M: np.ndarray) -> float:
    """Max real part of the eigenvalues of a 3x3 matrix, via the closed-form cubic.

    The characteristic polynomial s^3 + a1 s^2 + a2 s + a3 is depressed and
    solved trigonometrically (three real roots) or by Cardano's formula (one
    real root plus a conjugate pair whose real part is -y1/2 - a1/3).
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (3, 3):
        raise ContractViolationError(f"expected a 3x3 matrix, got shape {M.shape}")
    tr = float(np.trace(M))
    tr2 = float(np.trace(M @ M))
    det = float(
        M[0, 0] * (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
        - M[0, 1] * (M[1, 0] * M[2, 2] - M[1, 2] * M[2, 0])
        + M[0, 2] * (M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0])
    )
    a1 = -tr
    a2 = 0.5 * (tr * tr - tr2)
    a3 = -det

    p = a2 - a1 * a1 / 3.0
    q = 2.0 * a1**3 / 27.0 - a1 * a2 / 3.0 + a3
    shift = -a1 / 3.0
    disc = -4.0 * p**3 - 27.0 * q * q
    if disc < 0.0:
        # One real root; the conjugate pair has real part -y1/2.
        w = math.sqrt(q * q / 4.0 + p**3 / 27.0)
        y1 = _cbrt(-q / 2.0 + w) + _cbrt(-q / 2.0 - w)
        return max(y1, -0.5 * y1) + shift
    if p == 0.0:
        return shift  # triple root
    m = 2.0 * math.sqrt(-p / 3.0)
    cos3 = 3.0 * q / (p * m)
    phi = math.acos(min(1.0, max(-1.0, cos3)))
    return m * math.cos(phi / 3.0) + shift
