"""Symmetric eigen-analysis of coupling matrices and analytic gain bounds.

Spectra are eigenvalues only, from LAPACK's ``np.linalg.eigvalsh``. The
questions that need only a yes/no answer, "does every eigenvalue lie below
-margin?", are answered by a Cholesky factorisation instead, which succeeds
exactly when the matrix tested is positive definite (Sylvester's law of
inertia). On top of these sit the controlled-spectrum computation,
closed-form sufficient gain bounds for star and cluster-of-stars networks, a
feasibility test for a requested spectral margin, and the minimal uniform
gain in closed form: minus the least eigenvalue of one Schur complement,
formed once from one Cholesky factor and one ``eigh`` (whose eigenvector
gives the Newton step to the confirmation's slack), and confirmed by the
same definiteness test as the feasibility test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import (BoundaryCaseError, BoundUndefinedError, ContractViolationError,
                     NumericalFailureError, positive)
from .pinning import PinningPlan

__all__ = [
    "EigenDecomposition",
    "eig_symmetric",
    "controlled_spectrum",
    "star_leaf_gain_bound",
    "cluster_leaf_gain_bound",
    "schur_feasible",
    "min_uniform_gain",
]

SYMMETRY_TOL = 1e-12
# Roundoff allowance of the definiteness test, relative to 1 + ||M||_F: a
# matrix whose top eigenvalue sits within it of -level counts as failing, so a
# "below" answer also holds for an eigensolver's lambda_max.
_DEFINITE_SLACK = 1e-12


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted descending."""

    eigenvalues: np.ndarray

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[-1])


def _symmetric(M) -> np.ndarray:
    """M as a float array, refused unless square, nonempty, finite and symmetric.

    Symmetry is relative: max|M - M^T| may reach 1e-12 * max(1, ||M||_F).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ContractViolationError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[0] == 0:
        raise ContractViolationError("empty matrix")
    if not np.all(np.isfinite(M)):
        raise ContractViolationError("matrix has non-finite entries")
    asymmetry = float(np.max(np.abs(M - M.T)))
    # max(1, ||M||_F) >= 1, so the norm is needed only above SYMMETRY_TOL.
    if asymmetry > SYMMETRY_TOL and asymmetry > SYMMETRY_TOL * float(np.linalg.norm(M)):
        raise ContractViolationError("matrix is not symmetric within 1e-12 * max(1, ||M||_F)")
    return M


def _below(M: np.ndarray, level: float) -> bool:
    """Whether every eigenvalue of the symmetric matrix M lies below -level.

    Factorises -(M + (level + slack) I) by Cholesky, which succeeds exactly
    when that matrix is positive definite; slack = 1e-12 * (1 + ||M||_F)
    absorbs the factorisation's roundoff, so an eigenvalue on -level counts
    as not below it.
    """
    shifted = -M
    shifted.flat[:: M.shape[0] + 1] -= level + _DEFINITE_SLACK * (1.0 + np.linalg.norm(M))
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def eig_symmetric(M: np.ndarray) -> EigenDecomposition:
    """Eigenvalues of a symmetric real matrix (LAPACK, via eigvalsh).

    Raises ContractViolationError on input that is non-square, empty,
    non-finite or asymmetric beyond 1e-12 * max(1, ||M||_F), and
    NumericalFailureError if the solver does not converge.
    """
    M = _symmetric(M)
    try:
        eigenvalues = np.linalg.eigvalsh(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"symmetric eigensolver failed: {exc}") from exc
    return EigenDecomposition(eigenvalues[::-1])


def controlled_spectrum(A: np.ndarray, plan: PinningPlan) -> EigenDecomposition:
    """Spectrum of the controlled coupling matrix A - diag(gains)."""
    A = np.asarray(A, dtype=float)
    n = plan.n_nodes
    if A.shape != (n, n):
        raise ContractViolationError(f"matrix shape {A.shape} does not match plan on {n} nodes")
    return eig_symmetric(_controlled(A, np.arange(n), plan.gains))


def star_leaf_gain_bound(n_nodes: int, margin: float) -> float:
    """Sufficient uniform gain for pinning every leaf of a star network.

    Any gain strictly above the returned value pushes all eigenvalues of the
    controlled coupling matrix below -margin. Requires margin < n_nodes - 1
    by a unit; outside that the bound is undefined.
    """
    positive("margin", margin, BoundUndefinedError)
    if n_nodes - margin - 1 <= 0:
        raise BoundUndefinedError(
            f"bound undefined: need n_nodes - margin - 1 > 0, got {n_nodes - margin - 1}"
        )
    return max(margin - 1.0, margin * (n_nodes - margin) / (n_nodes - margin - 1.0))


def cluster_leaf_gain_bound(n1: int, margin: float) -> float:
    """Sufficient uniform gain for pinning every leaf of a cluster of stars.

    n1 is the smallest branch size; it alone controls the bound. Any gain
    strictly above the returned value pushes all controlled eigenvalues
    below -margin. Requires n1 > margin.
    """
    positive("margin", margin, BoundUndefinedError)
    if n1 <= margin:
        raise BoundUndefinedError(f"bound undefined: need n1 > margin, got n1={n1}")
    return max(margin - 1.0, margin * (n1 + 1.0 - margin) / (n1 - margin))


def _pins(n: int, pinned: Iterable[int]) -> np.ndarray:
    """The pinned node indices of an n-node matrix as an index array, in order.

    Refuses pins that are not integers (bools included), lie outside 0..n-1
    or repeat, and a pinned set that is empty or holds every node.
    """
    pinned = list(pinned)
    for i in pinned:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise ContractViolationError(f"pinned index {i!r} is not an integer")
        if not 0 <= i < n:
            raise ContractViolationError(f"pinned index {i} outside 0..{n - 1}")
    if not 0 < len(pinned) == len(set(pinned)) < n:
        raise ContractViolationError("pinned nodes must be distinct, nonempty and a proper subset")
    return np.array(pinned, dtype=np.intp)


def _controlled(A: np.ndarray, pins: np.ndarray, gains) -> np.ndarray:
    """The controlled matrix A - D: a copy of A less gains on the diagonal at
    pins; gains is one gain, or one for every pin in pins' order."""
    a_ctrl = A.copy()
    a_ctrl.flat[pins * (A.shape[0] + 1)] -= gains
    return a_ctrl


def schur_feasible(A_full: np.ndarray, pinned: Iterable[int], gains, alpha: float) -> bool:
    """Whether the controlled spectrum lies below -alpha.

    The controlled matrix is A_full - D, D carrying gains[i] on node pinned[i],
    and it is tested whole, in node order, by the definiteness test. By
    Haynsworth's inertia additivity this decides the block test: with the
    unpinned block A1 first, the controlled matrix is below -alpha*I exactly
    when A1 + alpha*I is negative definite and so is the Schur complement
    A2 - D + alpha*I - A12^T (A1 + alpha*I)^{-1} A12.
    """
    positive("alpha", alpha)
    A_full = _symmetric(A_full)
    pins = _pins(A_full.shape[0], pinned)
    gains = np.asarray(gains, dtype=float)
    if gains.shape != pins.shape:
        raise ContractViolationError(f"expected {len(pins)} gains, got shape {gains.shape}")
    if not np.all(np.isfinite(gains)):
        raise ContractViolationError("gains must be finite")
    return _below(_controlled(A_full, pins, gains), alpha)


def min_uniform_gain(
    A: np.ndarray, pinned: Iterable[int], margin: float, tol: float
) -> Optional[float]:
    """Smallest uniform gain pushing the controlled spectrum below -margin.

    "Below" is the definiteness test, with its slack taken on the controlled
    matrix at the answer; the returned gain passes that test. With
    M = -(A + level I), M + eps I_P is positive definite exactly when the
    unpinned block M_UU is and so is S + eps I, S = M_PP - M_PU M_UU^{-1} M_UP,
    so the gain is max(0, -lambda_min(S)). S is formed once, with the unpinned
    block's slack s_UU. Raising the level by d lowers lambda_min(S) by
    d (1 + ||z||^2), z = M_UU^{-1} M_UP w for the eigenvector w of
    lambda_min(S), so one Newton step moves the estimate to the slack s_0 of
    the controlled matrix at the first estimate max(0, -lambda_min(S)).
    Returns None when no finite gain works: lambda_1 of the controlled matrix
    tends to that of the unpinned block as the gain grows. An eigenvalue error
    of one unit roundoff of ||A~||_F moves the answer by
    err = that times 1 + ||z||^2. The pass and the confirmation round
    independently, so the answer is taken err above the estimate,
    eps = max(0, -lambda_min(S) + (s_0 - s_UU) (1 + ||z||^2) + err), and
    eps + err is tried when eps fails. Raises BoundaryCaseError when err
    exceeds tol or both fail.
    """
    positive("tol", tol)
    positive("margin", margin)
    A = _symmetric(A)
    n = A.shape[0]
    pins = _pins(n, pinned)
    u = n - len(pins)
    order = np.argsort(np.bincount(pins, minlength=n), kind="stable")  # unpinned first
    M = (-A).take(order, 0).take(order, 1)
    norm_uu = float(np.linalg.norm(M[:u, :u]))
    M.flat[:: n + 1] -= margin + _DEFINITE_SLACK * (1.0 + norm_uu)
    try:
        chol = np.linalg.cholesky(M[:u, :u])
    except np.linalg.LinAlgError:
        return None
    y = np.linalg.solve(chol, M[:u, u:])
    lam, w = np.linalg.eigh(M[u:, u:] - y.T @ y)
    z = np.linalg.solve(chol.T, y @ w[:, 0])
    growth = 1.0 + float(z @ z)
    estimate = -float(lam[0])
    norm_0 = float(np.linalg.norm(_controlled(A, pins, max(0.0, estimate))))
    err = float(np.finfo(float).eps * norm_0 * growth)
    eps = max(0.0, estimate + _DEFINITE_SLACK * (norm_0 - norm_uu) * growth + err)
    if err <= tol:
        for gain in (eps, eps + err):
            if _below(_controlled(A, pins, gain), margin):
                return gain
    raise BoundaryCaseError(f"minimal gain {eps!r} uncertain by {err:.3g}, tol {tol:g}")
