"""Test-side dynamics reference code.

The package integrates through one entry point, ``integrate_batch``, whose
right-hand side ``dynamics._rhs`` is bound to its buffers. The helpers here
are what the tests compare it against or drive it with:

- ``field_at``: the node field at one state or at each row of a batch;
- ``linear_field``: the linear node field dx = F x, whose exact solutions
  and modes the tests know, formed column by column so that a state's
  field does not depend on where it sits in the planes;
- ``chen_reference_field``: the chaotic node field with its earlier kernel,
  ten ufunc calls on the component planes, each linear term a product by a 0-d
  constant; ``chen_field``'s kernel must give the same bytes;
- ``network_rhs``: one evaluation of the network's right-hand side at a
  single (N, n) state, through the planes the integrator holds;
- ``sync_error``: the error measure that ``integrate_batch`` records;
- ``integrate_one``: a batch of one, raising its DivergenceError;
- ``mode_matrix`` and ``modal_equivalence_check``: the mode systems and the
  check that the coupled linear error system decouples into them;
- ``quad_condition_sample``: a sampled (not proved) contraction estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pinnet.dynamics import (
    CHEN_A,
    CHEN_B,
    CHEN_C,
    NetworkSystem,
    NodeDynamics,
    SimulationResult,
    _pad,
    _rhs,
    chen_field,
    integrate_batch,
)
from pinnet.errors import ContractViolationError, DivergenceError
from pinnet.pinning import PinningPlan
from pinnet.spectral import eig_symmetric


def field_at(dynamics: NodeDynamics, x: np.ndarray) -> np.ndarray:
    """f at an (n,) state, or at each row of an (M, n) batch, through a fresh binding."""
    x = np.asarray(x, dtype=float)
    planes = np.ascontiguousarray(x.reshape(-1, dynamics.dimension).T)
    out = np.empty(planes.shape)
    dynamics.bind(planes, out)()
    return out.T.reshape(x.shape)


def linear_field(F: np.ndarray) -> NodeDynamics:
    """Linear test system dx = F x with constant Jacobian F."""
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[0] != F.shape[1]:
        raise ContractViolationError(f"F must be square, got shape {F.shape}")
    n = F.shape[0]
    spectral_norm = math.sqrt(max(eig_symmetric(F.T @ F).lambda_max, 0.0))

    def bind(x: np.ndarray, out: np.ndarray):
        # out_i = (F_i0 x_0 + F_i1 x_1) + ..., one elementwise call per term:
        # a matmul over the planes sums a column in an order that depends on
        # its position among them.
        term = np.empty_like(x[0])

        def field():
            for i in range(n):
                np.multiply(x[0], F[i, 0], out[i])
                for j in range(1, n):
                    np.multiply(x[j], F[i, j], term)
                    np.add(out[i], term, out[i])

        return field

    def jacobian(x: np.ndarray) -> np.ndarray:
        return F.copy()

    return NodeDynamics(n, bind, jacobian, spectral_norm)


def chen_reference_field() -> NodeDynamics:
    """chen_field() with the ten-call kernel that forms each linear term alone."""
    a0, b0, c0, c_a = (np.array(v) for v in (CHEN_A, CHEN_B, CHEN_C, CHEN_C - CHEN_A))
    multiply, add, subtract = np.multiply, np.add, np.subtract

    def bind(x: np.ndarray, out: np.ndarray):
        x1, x2, x3 = x
        dx, dy, dz = out

        def field():
            multiply(x3, b0, dy)
            multiply(x1, x2, dz)
            subtract(dz, dy, dz)
            multiply(x1, x3, dx)
            multiply(x1, c_a, dy)
            subtract(dy, dx, dy)
            multiply(x2, c0, dx)
            add(dy, dx, dy)
            subtract(x2, x1, dx)
            multiply(dx, a0, dx)

        return field

    field = chen_field()
    return NodeDynamics(3, bind, field.jacobian, field.lipschitz)


def network_rhs(sys: NetworkSystem, plan: PinningPlan, X: np.ndarray) -> np.ndarray:
    """Row i: f(x_i) + c * sum_j A_ij Gamma x_j - c * eps_i * Gamma (x_i - s) under `plan`."""
    X = np.asarray(X, dtype=float)
    if X.shape != (sys.n_nodes, sys.dynamics.dimension):
        raise ContractViolationError(
            f"state shape {X.shape}, expected {(sys.n_nodes, sys.dynamics.dimension)}"
        )
    planes, plans = _pad(X.T[..., None], [plan])
    out = np.empty(planes.shape)
    _rhs(sys, plans, planes, out)()
    return out[..., 0].T


def sync_error(states: np.ndarray, target: np.ndarray) -> float:
    """Largest Euclidean node deviation from the target state."""
    diff = np.asarray(states, dtype=float) - np.asarray(target, dtype=float)
    return float(np.max(np.sqrt(np.sum(diff * diff, axis=-1))))


def integrate_one(
    sys: NetworkSystem,
    plan: PinningPlan,
    X0: np.ndarray,
    h: float,
    T: float,
    record_every: int = 1,
    record_states: bool = True,
) -> SimulationResult:
    """integrate_batch of `sys` under `plan` from the (N, n) state X0.

    Raises the member's DivergenceError (with the blow-up time) if the state
    goes non-finite.
    """
    X0 = np.asarray(X0, dtype=float)
    (result,) = integrate_batch(sys, [plan], X0[None], h, T, record_every, record_states)
    if isinstance(result, DivergenceError):
        raise result
    return result


def mode_matrix(sys: NetworkSystem, plan: PinningPlan, lambda_i: float) -> np.ndarray:
    """Mode system matrix Df(s) + c * lambda_i * Gamma, with c of `plan`."""
    jac = sys.dynamics.jacobian(sys.target)
    return jac + plan.coupling_strength * lambda_i * np.diag(sys.gamma)


def modal_equivalence_check(
    F: np.ndarray,
    A_tilde: np.ndarray,
    c: float,
    gamma: np.ndarray,
    e0: np.ndarray,
    h: float,
    T: float,
) -> float:
    """Max deviation between the coupled linear error system and its modes.

    Integrates both the full system E' = E F^T + c (A~ E) Gamma and the N
    decoupled modes obtained through the orthogonal eigenbasis of A~, then
    maps the modes back and reports the largest absolute difference over
    all recorded times. Exact modal decoupling means this is pure roundoff.
    """
    e0 = np.asarray(e0, dtype=float)
    lam, U = np.linalg.eigh(A_tilde)
    dyn, zero = linear_field(F), np.zeros(e0.shape[1])
    plan = PinningPlan(len(lam), (0.0,) * len(lam), c)
    full = integrate_one(NetworkSystem(dyn, A_tilde, gamma, zero), plan, e0, h, T)
    modes = integrate_one(NetworkSystem(dyn, np.diag(lam), gamma, zero), plan, U.T @ e0, h, T)
    return float(np.max(np.abs(full.states - U @ modes.states)))


@dataclass(frozen=True)
class QuadSampleReport:
    """Sampled (not proved) one-sided contraction estimate.

    holds_on_samples: every sampled pair satisfied the strict inequality.
    mu_estimate: negated worst sampled quadratic-form ratio.
    """

    holds_on_samples: bool
    mu_estimate: float


def quad_condition_sample(
    dynamics: NodeDynamics,
    P: np.ndarray,
    c: float,
    margin: float,
    gamma: np.ndarray,
    box: tuple[np.ndarray, np.ndarray],
    samples: int,
    seed: int,
) -> QuadSampleReport:
    """Sample the contraction inequality
    (x-y)^T P (f(x) - f(y) - c*margin*Gamma(x-y)) <= -mu |x-y|^2 on a box.

    Draws `samples` pairs uniformly (seeded), evaluates the quadratic-form
    ratio q for each, and reports whether all q < 0 together with
    mu_estimate = -max q. A sampling check only, not a proof.
    """
    if samples < 1:
        raise ContractViolationError("samples must be >= 1")
    P = np.asarray(P, dtype=float)
    n = dynamics.dimension
    if P.shape != (n, n) or np.any(P != np.diag(np.diag(P))) or np.any(np.diag(P) <= 0):
        raise ContractViolationError("P must be a positive diagonal matrix")
    gamma = np.asarray(gamma, dtype=float)
    lo = np.asarray(box[0], dtype=float)
    hi = np.asarray(box[1], dtype=float)
    if lo.shape != (n,) or hi.shape != (n,) or np.any(hi <= lo):
        raise ContractViolationError("box must have positive volume in every coordinate")

    rng = np.random.Generator(np.random.PCG64(seed))
    p_diag = np.diag(P)
    worst = -math.inf
    remaining = samples
    while remaining > 0:
        x = rng.uniform(lo, hi, size=(remaining, n))
        y = rng.uniform(lo, hi, size=(remaining, n))
        d = x - y
        norms2 = np.sum(d * d, axis=1)
        keep = norms2 > 0.0
        if not np.any(keep):
            continue
        x, y, d, norms2 = x[keep], y[keep], d[keep], norms2[keep]
        rhs = field_at(dynamics, x) - field_at(dynamics, y) - c * margin * (d * gamma)
        q = np.sum(d * (rhs * p_diag), axis=1) / norms2
        worst = max(worst, float(np.max(q)))
        remaining -= len(q)
    return QuadSampleReport(holds_on_samples=worst < 0.0, mu_estimate=-worst)
