"""Node dynamics and nonlinear simulation of controlled coupled networks.

The network state is an (N, n) array, one row per node. The right-hand side
adds three parts: the isolated-node field applied row-wise, diffusive
coupling c * A x through the inner linking matrix, and feedback
-c * eps_i * Gamma (x_i - s) on pinned nodes. Integration is classical
fixed-step RK4 with a step-size guard tied to a documented stiffness
estimate, so a blown-up run raises instead of masquerading as
non-synchronization.

Local stability of the synchronized state reduces to n-dimensional mode
systems Df(s) + c*lambda_i*Gamma, one per eigenvalue of the controlled
coupling matrix; for three-dimensional nodes the threshold on c*lambda_i
comes from the Routh-Hurwitz conditions, polynomials in c*lambda_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ContractViolationError,
    DivergenceError,
    NumericalFailureError,
    RegionShapeError,
)
from .pinning import PinningPlan
from .spectral import eig_symmetric

__all__ = [
    "NodeDynamics",
    "ChenParameters",
    "NetworkSystem",
    "SimulationResult",
    "chen_field",
    "integrate_batch",
    "sync_time",
    "mode_threshold",
]

# Documented stiffness estimate for the chaotic oscillator below; feeds the
# RK4 step-size guard h * (L + c * (|lambda_min(A)| + max gain)) <= 2.5.
CHEN_LIPSCHITZ = 80.0
RK4_STABILITY_SPAN = 2.5


@dataclass(frozen=True)
class NodeDynamics:
    """Autonomous isolated-node vector field with its Jacobian.

    `bind(x, out)` takes two C-contiguous (M, n) arrays and returns a kernel,
    called with no argument, that writes f of each row of x, as x holds at
    call time, into the same row of out; the views it needs are made once,
    at binding. `jacobian(x)` takes a single (n,) state. `lipschitz` is the
    stiffness estimate used by the integrator guard.
    """

    dimension: int
    bind: Callable[[np.ndarray, np.ndarray], Callable[[], None]]
    jacobian: Callable[[np.ndarray], np.ndarray]
    lipschitz: float


@dataclass(frozen=True)
class ChenParameters:
    """Chaotic oscillator parameters; defaults give the standard chaotic regime."""

    a: float = 35.0
    b: float = 3.0
    c: float = 28.0

    def __post_init__(self):
        if 2.0 * self.c - self.a <= 0:
            raise ContractViolationError("need 2c - a > 0 for real equilibria")

    def equilibrium(self) -> np.ndarray:
        """Nonzero equilibrium (r, r, 2c-a) with r = sqrt(b(2c-a))."""
        r = math.sqrt(self.b * (2.0 * self.c - self.a))
        return np.array([r, r, 2.0 * self.c - self.a])


def chen_field(p: ChenParameters = ChenParameters()) -> NodeDynamics:
    """Three-dimensional chaotic oscillator

    dx = a (y - x)
    dy = (c - a) x - x z + c y
    dz = x y - b z
    """
    a, b, c = p.a, p.b, p.c
    # The field's constants as 0-d float64 arrays, made once: a ufunc takes
    # them with less overhead than Python floats, with the same arithmetic.
    a0, b0, c0, c_a = (np.array(v) for v in (a, b, c, c - a))

    multiply, add, subtract = np.multiply, np.add, np.subtract

    def bind(x: np.ndarray, out: np.ndarray) -> Callable[[], None]:
        x1, x2, x3 = x[:, 0], x[:, 1], x[:, 2]
        dx, dy, dz = out[:, 0], out[:, 1], out[:, 2]

        def field() -> None:
            # Component by component into `out`, each still unwritten
            # component serving as scratch; same products and sums as the
            # formulas above.
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

    def jacobian(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        x1, x2, x3 = x
        return np.array(
            [
                [-a, a, 0.0],
                [(c - a) - x3, c, -x1],
                [x2, x1, -b],
            ]
        )

    return NodeDynamics(3, bind, jacobian, CHEN_LIPSCHITZ)


@dataclass(frozen=True)
class NetworkSystem:
    """The network that plans are compared on: dynamics, coupling, inner linking, target."""

    dynamics: NodeDynamics
    coupling: np.ndarray
    gamma: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        n = self.dynamics.dimension
        object.__setattr__(self, "coupling", np.asarray(self.coupling, dtype=float))
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))
        object.__setattr__(self, "target", np.asarray(self.target, dtype=float))
        shape = self.coupling.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ContractViolationError(f"coupling matrix must be square, got shape {shape}")
        if self.gamma.shape != (n,) or not np.all(np.isin(self.gamma, (0.0, 1.0))):
            raise ContractViolationError("gamma must be a length-n 0/1 vector")
        if self.target.shape != (n,):
            raise ContractViolationError(f"target must have shape ({n},)")
        f_s = np.empty((1, n))
        self.dynamics.bind(np.ascontiguousarray(self.target[None]), f_s)()
        resid = float(np.linalg.norm(f_s[0]))
        if resid > 1e-3:
            raise ContractViolationError(
                f"target is not an equilibrium of the node field (|f(s)|={resid:.3g})"
            )

    @property
    def n_nodes(self) -> int:
        return self.coupling.shape[0]


@dataclass(frozen=True)
class SimulationResult:
    """Recorded trajectory and per-step synchronization error."""

    times: np.ndarray
    states: Optional[np.ndarray]  # None unless per-node states were recorded
    error_metric: np.ndarray


def _rhs(sys: NetworkSystem, plans: Sequence[PinningPlan], X: np.ndarray,
         out: np.ndarray) -> Callable[[], np.ndarray]:
    """rhs(): f(x_i) + c * sum_j A_ij Gamma x_j - c * eps_i * Gamma (x_i - s)
    for every node row i of the (B, N, n) batch X into `out`, member b under plans[b].

    X and `out` are C-contiguous (B, N, n) arrays that rhs reads and writes
    in place on every call; the views into them, and the field's binding to
    X and `out` as (B*N, n) row arrays, are made here, once.
    Coupling and feedback touch only the coupled columns j (gamma_j = 1):
    out_j = f_j + c * (A X)_j - (c * eps) * (X_j - s_j), the operations of
    f + c (A X) Gamma - c eps Gamma (X - s) in the same order, less the exact
    products by Gamma. A member with c = 0 skips both terms, so an
    overflowing A X cannot make them 0 * inf = NaN; one with no pinned node
    adds exact zeros. So a member's arithmetic does not depend on its batch
    mates.
    """
    if not (X.flags.c_contiguous and out.flags.c_contiguous):
        raise ContractViolationError("the RHS binds views: X and out must be C-contiguous")
    B, N, n = len(plans), sys.n_nodes, sys.dynamics.dimension
    # Per node row of the flattened (B*N, n) batch: c and c * eps_i.
    c = np.array([p.coupling_strength for p in plans])
    c_eps = (c[:, None] * np.array([p.gains for p in plans], dtype=float)).ravel()
    # The rows that take coupling: all, or those of each member with c != 0.
    coupled = np.flatnonzero(c)
    ranges = [slice(None)] if len(coupled) == B else [slice(b * N, (b + 1) * N) for b in coupled]
    c = np.repeat(c, N)
    A = sys.coupling
    AX, scratch = np.empty((B, N, n)), np.empty(B * N)
    rows, out_rows, AX_rows = X.reshape(-1, n), out.reshape(-1, n), AX.reshape(-1, n)
    field = sys.dynamics.bind(rows, out_rows)
    # Per coupled column j and row range r: the views into out, A X, X, c,
    # c * eps and the scratch, and s_j as a 0-d array.
    terms = [(out_rows[r, j], AX_rows[r, j], rows[r, j], np.array(sys.target[j]),
              c[r], c_eps[r], scratch[r])
             for j in np.flatnonzero(sys.gamma) for r in ranges]
    multiply, add, subtract, matmul = np.multiply, np.add, np.subtract, np.matmul

    def rhs() -> np.ndarray:
        field()
        matmul(A, X, AX)
        for col, AX_col, x_col, s_j, c_r, c_eps_r, tmp in terms:
            multiply(c_r, AX_col, tmp)
            add(col, tmp, col)
            subtract(x_col, s_j, tmp)
            multiply(tmp, c_eps_r, tmp)
            subtract(col, tmp, col)
        return out

    return rhs


def integrate_batch(
    sys: NetworkSystem,
    plans: Sequence[PinningPlan],
    X0: np.ndarray,
    h: float,
    T: float,
    record_every: int = 1,
    record_states: bool = True,
) -> list:
    """Fixed-step classical RK4 over [0, T] of B members of `sys` in one step loop.

    Member b runs plans[b] from X0[b] (X0 is (B, N, n)), bit for bit as its
    solo run, and must pass the guard h * (L_f + c * (|lambda_min(A)| + max
    gain)) <= 2.5. T must be a whole number of record intervals h *
    record_every. Returns per member a SimulationResult recorded every
    `record_every` steps (per-node states only if `record_states`), or, for a
    member gone non-finite, its DivergenceError; the others run on.
    """
    if not (math.isfinite(h) and h > 0):
        raise ContractViolationError(f"h must be positive and finite, got {h!r}")
    if not (math.isfinite(T) and T >= h):
        raise ContractViolationError(f"T must be finite and at least one step, got {T!r}")
    if record_every < 1:
        raise ContractViolationError("record_every must be >= 1")
    steps = int(round(T / h))
    if not (math.isclose(steps * h, T, rel_tol=1e-9) and steps % record_every == 0):
        raise ContractViolationError(
            f"horizon T={T!r} is not a whole number of record intervals of "
            f"h={h!r} * record_every={record_every}"
        )
    shape = (len(plans), sys.n_nodes, sys.dynamics.dimension)
    X = np.array(X0, dtype=float, order="C")
    if X.shape != shape:
        raise ContractViolationError(f"initial states shape {X.shape}, expected {shape}")
    if any(p.n_nodes != sys.n_nodes for p in plans):
        raise ContractViolationError(f"every plan must be on the system's {sys.n_nodes} nodes")

    lam_min = None
    for plan in plans:
        c = plan.coupling_strength
        stiffness = sys.dynamics.lipschitz
        if c != 0.0:
            if lam_min is None:
                lam_min = eig_symmetric(sys.coupling).lambda_min
            stiffness += c * (abs(lam_min) + max(plan.gains))
        if h * stiffness > RK4_STABILITY_SPAN:
            raise ContractViolationError(
                f"step h={h:g} exceeds the stability guard "
                f"{RK4_STABILITY_SPAN:g}/{stiffness:g} = {RK4_STABILITY_SPAN / stiffness:.3g}"
            )

    times = np.empty(steps // record_every + 1)
    states = np.empty(times.shape + shape) if record_states else None
    errors = np.empty(times.shape + shape[:1])
    out: list = [None] * len(plans)
    live = np.arange(len(plans))  # members still integrating

    def buffers(X, live):
        # k, the stage state, the weighted sum k1 + 2 k2 + 2 k3 + k4 (formed
        # in the same order as X + (h/6) (k1 + 2.0 * k2 + 2.0 * k3 + k4)),
        # the RHS bound to X -> ksum and to stage -> k, and the error
        # record's scratch.
        k, stage, ksum = np.empty_like(X), np.empty_like(X), np.empty_like(X)
        members = [plans[b] for b in live]
        return (k, stage, ksum, _rhs(sys, members, X, ksum), _rhs(sys, members, stage, k),
                np.empty_like(X), np.empty(X.shape[:2]), np.empty(X.shape[:1]))

    k, stage, ksum, rhs_X, rhs_stage, diff, node_err, err = buffers(X, live)
    # The step's scalars as 0-d float64 arrays: cheaper ufunc operands than
    # Python floats, with the same arithmetic.
    half_h, full_h, sixth_h, two = (np.array(v) for v in (0.5 * h, h, h / 6.0, 2.0))
    multiply, add, subtract = np.multiply, np.add, np.subtract
    target = sys.target
    # Overflow is handled explicitly via the finiteness check, so numpy's
    # warnings would only be noise on a member that is about to be dropped.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps + 1):
            if step:
                rhs_X()
                multiply(ksum, half_h, stage)
                add(stage, X, stage)
                rhs_stage()
                multiply(k, half_h, stage)
                add(stage, X, stage)
                multiply(k, two, k)
                add(ksum, k, ksum)
                rhs_stage()
                multiply(k, full_h, stage)
                add(stage, X, stage)
                multiply(k, two, k)
                add(ksum, k, ksum)
                rhs_stage()
                add(ksum, k, ksum)
                multiply(ksum, sixth_h, ksum)
                add(X, ksum, X)
                # A finite sum proves every entry finite; only a non-finite
                # one (an entry gone non-finite, or finite entries whose sum
                # overflows) needs the per-member test.
                if not math.isfinite(add.reduce(X, None)):
                    ok = np.all(np.isfinite(X), axis=(1, 2))
                    if not ok.all():
                        for b in live[~ok]:
                            out[b] = DivergenceError(step * h)
                        X, live = X[ok], live[ok]
                        if not len(live):
                            return out
                        k, stage, ksum, rhs_X, rhs_stage, diff, node_err, err = buffers(X, live)
            if step % record_every == 0:
                rec = step // record_every
                times[rec] = step * h
                if record_states:
                    states[rec, live] = X
                # Each member's error max_i |x_i - s|, the largest Euclidean
                # node deviation from the target.
                subtract(X, target, diff)
                multiply(diff, diff, diff)
                add.reduce(diff, -1, None, node_err)
                np.sqrt(node_err, node_err)
                np.maximum.reduce(node_err, -1, None, err)
                errors[rec, live] = err
    for b in live:
        b_states = states[:, b] if record_states else None
        out[b] = SimulationResult(times, b_states, errors[:, b])
    return out


def sync_time(result: SimulationResult, tol: float) -> Optional[float]:
    """Earliest recorded time after which the error stays below tol; None if never."""
    if tol <= 0:
        raise ContractViolationError("tol must be positive")
    above = np.nonzero(result.error_metric >= tol)[0]
    if len(above) == 0:
        return float(result.times[0])
    if above[-1] == len(result.times) - 1:
        return None
    return float(result.times[above[-1] + 1])


def mode_threshold(sys: NetworkSystem) -> float:
    """Stability boundary of the mode systems along the coupling axis.

    The characteristic polynomial of Df(s) + sigma*Gamma is
    s^3 + a1 s^2 + a2 s + a3, with a1, a2, a3 polynomials in sigma; the mode
    system is stable exactly when a1, a3 and a1 a2 - a3 are all positive
    (Routh-Hurwitz). Their real roots cut the sigma axis into intervals of
    constant stability, and one point of each decides it. Returns sigma*
    just above the root r where the stable set (-inf, r) ends, by the slack
    1e-12 * (1 + |r|), so the mode system is unstable at sigma* and stable
    below r. Network modes with c * lambda_i < sigma* are locally stable.
    Raises RegionShapeError when the mode system is stable at sigma = 0,
    stable for no sigma, or stable on a set other than one half-line (-inf, r),
    and NumericalFailureError when the roots of a Hurwitz polynomial overflow.
    """
    if sys.dynamics.dimension != 3:
        raise ContractViolationError("mode threshold implemented for 3-dimensional nodes")
    jac = sys.dynamics.jacobian(sys.target)
    # Entries as polynomials in sigma, highest power first; np.convolve
    # multiplies two such coefficient arrays.
    m = [[np.array([sys.gamma[i], jac[i, i]]) if i == j else jac[i, j:j + 1] for j in range(3)]
         for i in range(3)]

    def minor(rows, cols):
        (i, k), (j, l) = rows, cols
        return np.polysub(np.convolve(m[i][j], m[k][l]), np.convolve(m[i][l], m[k][j]))

    a1 = -(m[0][0] + m[1][1] + m[2][2])
    lower = minor((1, 2), (1, 2))
    a2 = np.polyadd(np.polyadd(minor((0, 1), (0, 1)), minor((0, 2), (0, 2))), lower)
    a3 = -np.polyadd(
        np.polysub(np.convolve(m[0][0], lower), np.convolve(m[0][1], minor((1, 2), (0, 2)))),
        np.convolve(m[0][2], minor((1, 2), (0, 1))),
    )
    hurwitz = (a1, a3, np.polysub(np.convolve(a1, a2), a3))
    roots = []
    for name, p in zip(("a1", "a3", "a1*a2 - a3"), hurwitz):
        # A leading coefficient tiny beside the others overflows np.roots'
        # companion matrix, which eigvals then refuses.
        with np.errstate(over="ignore"):
            try:
                roots.append(np.roots(p).real)
            except np.linalg.LinAlgError as exc:
                raise NumericalFailureError(
                    f"roots of the Hurwitz polynomial {name} in sigma, coefficients "
                    f"{p.tolist()} (highest power first), are not computable: {exc}"
                ) from None
    # Real parts of complex roots only add cuts inside intervals of one sign.
    cuts = np.unique(np.concatenate(roots))
    reach = 1.0 + 2.0 * np.abs(cuts).max(initial=0.0)
    points = np.concatenate([[-reach], 0.5 * (cuts[1:] + cuts[:-1]), [reach]])
    stable = np.all([np.polyval(p, points) > 0.0 for p in hurwitz], axis=0)

    if all(p[-1] > 0.0 for p in hurwitz):
        raise RegionShapeError("mode system already stable at sigma = 0")
    if not stable.any():
        raise RegionShapeError("mode system is stable for no sigma")
    k = int(np.argmin(stable))  # the first unstable interval
    if k == 0 or stable[k:].any():
        raise RegionShapeError("stability region is not one half-line (-inf, r)")
    r = float(cuts[k - 1])
    return r + 1e-12 * (1.0 + abs(r))
