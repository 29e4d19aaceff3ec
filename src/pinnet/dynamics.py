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
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ContractViolationError,
    DivergenceError,
    NumericalFailureError,
    RegionShapeError,
    positive,
)
from .pinning import PinningPlan
from .spectral import eig_symmetric

__all__ = [
    "NodeDynamics",
    "NetworkSystem",
    "SimulationResult",
    "chen_equilibrium",
    "chen_field",
    "integrate_batch",
    "member_steps",
    "sync_time",
    "mode_threshold",
]

# The chaotic oscillator's parameters (a, b, c) in the paper's regime, and its
# documented stiffness estimate, which feeds the RK4 step-size guard
# h * (L + c * (|lambda_min(A)| + max gain)) <= 2.5.
CHEN_A, CHEN_B, CHEN_C = 35.0, 3.0, 28.0
CHEN_LIPSCHITZ = 80.0
RK4_STABILITY_SPAN = 2.5


@dataclass(frozen=True)
class NodeDynamics:
    """Autonomous isolated-node vector field with its Jacobian.

    `bind(x, out)` takes two C-contiguous (n, M) arrays, one plane per state
    component with one column per node state, and returns a kernel, called
    with no argument, that writes f of each column of x, as x holds at call
    time, into the same column of out; the views it needs are made once, at
    binding. `jacobian(x)` takes a single (n,) state. `lipschitz` is the
    stiffness estimate used by the integrator guard.
    """

    dimension: int
    bind: Callable[[np.ndarray, np.ndarray], Callable[[], None]]
    jacobian: Callable[[np.ndarray], np.ndarray]
    lipschitz: float


def chen_equilibrium() -> np.ndarray:
    """The nonzero equilibrium (r, r, 2c - a) of chen_field, r = sqrt(b (2c - a))."""
    r = math.sqrt(CHEN_B * (2.0 * CHEN_C - CHEN_A))
    return np.array([r, r, 2.0 * CHEN_C - CHEN_A])


def chen_field() -> NodeDynamics:
    """Three-dimensional chaotic oscillator in the paper's regime (a, b, c) = (35, 3, 28)

    dx = a (y - x)
    dy = (c - a) x - x z + c y
    dz = x y - b z
    """
    a, b, c = CHEN_A, CHEN_B, CHEN_C
    # a as a 0-d float64 array, made once: a ufunc takes it with less
    # overhead than a Python float, with the same arithmetic.
    a0 = np.array(a)
    # The constant of each column's linear term: (c - a) x, c y, b z.
    linear = np.array([c - a, c, b])

    multiply, add, subtract = np.multiply, np.add, np.subtract

    def bind(x: np.ndarray, out: np.ndarray) -> Callable[[], None]:
        x1, x2, x3 = x
        dx, dy, dz = out
        # The linear constants tiled to x's shape: one contiguous multiply
        # forms all three linear terms (a broadcast (3, 1) column is slower).
        constants = np.repeat(linear[:, None], x.shape[1], axis=1)
        terms = np.empty_like(constants)
        cx, cy, bz = terms

        def field() -> None:
            # The same products and sums, in the same order, as the formulas
            # above, each sum with its operands and output where the
            # component-wise kernel had them, so even NaN payloads agree.
            multiply(x, constants, terms)
            multiply(x1, x2, dz)
            subtract(dz, bz, dz)
            multiply(x1, x3, dx)
            subtract(cx, dx, dy)
            add(dy, cy, dy)
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
    """The network that plans are compared on: dynamics, symmetric coupling, Gamma, target."""

    dynamics: NodeDynamics
    coupling: np.ndarray
    gamma: np.ndarray
    target: np.ndarray
    lambda_min: float = field(init=False)  # the coupling's least eigenvalue, for the RK4 guard

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
        if not np.all(np.isfinite(self.target)):
            raise ContractViolationError(f"target must be finite, got {self.target}")
        f_s = np.empty((n, 1))
        self.dynamics.bind(np.ascontiguousarray(self.target[:, None]), f_s)()
        resid = float(np.linalg.norm(f_s[:, 0]))
        if resid > 1e-3:
            raise ContractViolationError(
                f"target is not an equilibrium of the node field (|f(s)|={resid:.3g})"
            )
        object.__setattr__(self, "lambda_min", eig_symmetric(self.coupling).lambda_min)

    @property
    def n_nodes(self) -> int:
        return self.coupling.shape[0]


@dataclass(frozen=True)
class SimulationResult:
    """Recorded trajectory and per-step synchronization error."""

    times: np.ndarray
    states: Optional[np.ndarray]  # None unless per-node states were recorded
    error_metric: np.ndarray


def _pad(planes: np.ndarray, plans: Sequence[PinningPlan]) -> tuple[np.ndarray, list]:
    """The (n, N, B) member planes and their plans, padded to a multiple of n members.

    The members keep the order given. Each padding column is a copy of the
    last member's state and plan, so it runs exactly as that member does and
    goes non-finite only with it. The returned planes are C-contiguous.
    """
    n, _, B = planes.shape
    index = np.concatenate([np.arange(B), np.full(-B % n, B - 1)])
    return np.ascontiguousarray(planes[..., index]), [plans[b] for b in index]


def _rhs(sys: NetworkSystem, plans: Sequence[PinningPlan], X: np.ndarray,
         out: np.ndarray) -> Callable[[], None]:
    """rhs(): f(x_i) + c * sum_j A_ij Gamma x_j - c * eps_i * Gamma (x_i - s)
    for every node i of every member of X into `out`, member b under plans[b].

    X and `out` are C-contiguous (n, N, B) component planes, member b in
    column b and B a multiple of n; rhs reads and writes them in place on
    every call, and the views into them and the field's binding to them as
    (n, N*B) planes are made here, once.
    Coupling and feedback touch only the coupled planes j (gamma_j = 1):
    out_j = f_j + c * (A X)_j - (c * eps) * (X_j - s_j), the operations of
    f + c (A X) Gamma - c eps Gamma (X - s) in the same order, less the exact
    products by Gamma. (A X)_j is one matmul per coupled plane, each GEMM
    an (N, N) @ (N, n) product of n member columns: the call shape of one
    member's (N, n) state, which gives every column the bits of that
    member's own product. Both products of every coupled plane come from
    one multiply of a (2, |J|, N, B) block (J the coupled planes) holding
    (A X)_j and X_j - s_j, scaled by c and c * eps. A member with c = 0
    reads neither product, so an overflowing A X cannot make them
    0 * inf = NaN; one with no pinned node adds exact zeros. So a member's
    arithmetic does not depend on its batch mates or their order: coupling is
    added to and feedback subtracted from each run of members with c != 0.
    """
    B, N, n = len(plans), sys.n_nodes, sys.dynamics.dimension
    if X.shape != (n, N, B) or out.shape != X.shape or B % n:
        raise ContractViolationError(
            f"the RHS takes (n, N, B) planes with B a multiple of n = {n}, "
            f"got {X.shape} and {out.shape} for {B} plans"
        )
    if not (X.flags.c_contiguous and out.flags.c_contiguous):
        raise ContractViolationError("the RHS binds views: X and out must be C-contiguous")
    field = sys.dynamics.bind(X.reshape(n, -1), out.reshape(n, -1))
    J = np.flatnonzero(sys.gamma)
    c = np.array([p.coupling_strength for p in plans])
    # The member columns that take coupling: the runs [a, b) of c != 0, from
    # where the mask, bounded by False on both sides, changes.
    edges = np.flatnonzero(np.diff(c != 0.0, prepend=False, append=False))
    runs = list(zip(edges[::2], edges[1::2]))
    # The product block and its constants: c under A X_j, c * eps under X_j - s_j.
    products, scale = np.empty((2, len(J), N, B)), np.empty((2, len(J), N, B))
    scale[0] = c
    scale[1] = c * np.array([p.gains for p in plans], dtype=float).T

    def groups(plane):  # an (N, B) plane as B/n (N, n) matrices of n members each
        return plane.reshape(N, B // n, n).transpose(1, 0, 2)

    A = sys.coupling
    # Per coupled plane: its member groups and those of (A X)_j, X_j and its
    # slot for X_j - s_j with s_j as a 0-d array; per coupled plane and run: the
    # run's columns of out, c * (A X)_j and (c * eps) * (X_j - s_j).
    planes = [(groups(X[j]), groups(products[0, k]), X[j], products[1, k], np.array(sys.target[j]))
              for k, j in enumerate(J)]
    terms = [(out[j][:, a:b], products[0, k][:, a:b], products[1, k][:, a:b])
             for k, j in enumerate(J) for a, b in runs]
    multiply, add, subtract, matmul = np.multiply, np.add, np.subtract, np.matmul

    def rhs() -> None:
        field()
        for x_groups, ax_groups, x_j, slot, s_j in planes:
            matmul(A, x_groups, ax_groups)
            subtract(x_j, s_j, slot)
        multiply(products, scale, products)
        for col, coupling, feedback in terms:
            add(col, coupling, col)
            subtract(col, feedback, col)

    return rhs


def member_steps(sys: NetworkSystem, plan: PinningPlan, h: float, T: float,
                 record_every: int) -> int:
    """The steps of h in the horizon T of one member of `sys` under `plan`, refused unless
    T is a whole number of record intervals h * record_every and h * (L_f + c *
    (|lambda_min(A)| + max gain)) <= 2.5; sys.lambda_min is read only if c != 0."""
    positive("h", h)
    if not (math.isfinite(T) and T >= h):
        raise ContractViolationError(f"T must be finite and at least one step, got {T!r}")
    if record_every < 1:
        raise ContractViolationError("record_every must be >= 1")
    if not math.isfinite(T / h):
        raise ContractViolationError(f"T={T!r} / h={h!r} overflows: no finite step count")
    steps = int(round(T / h))
    if not (math.isclose(steps * h, T, rel_tol=1e-9) and steps % record_every == 0):
        raise ContractViolationError(
            f"horizon T={T!r} is not a whole number of record intervals of "
            f"h={h!r} * record_every={record_every}"
        )
    c, stiffness = plan.coupling_strength, sys.dynamics.lipschitz
    if c != 0.0:
        stiffness += c * (abs(sys.lambda_min) + max(plan.gains))
    if h * stiffness > RK4_STABILITY_SPAN:
        raise ContractViolationError(
            f"step h={h:g} exceeds the stability guard "
            f"{RK4_STABILITY_SPAN:g}/{stiffness:g} = {RK4_STABILITY_SPAN / stiffness:.3g}"
        )
    return steps


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

    Member b runs plans[b] from X0[b] (X0 is (B, N, n)) in state column b,
    bit for bit as its solo run, and must pass member_steps. Returns per
    member a SimulationResult recorded every `record_every` steps (per-node
    states only if `record_states`), or, for a member gone non-finite, its
    DivergenceError; the others run on. No plans take no step and give [].
    """
    B = len(plans)
    shape = (B, sys.n_nodes, sys.dynamics.dimension)
    X0 = np.asarray(X0, dtype=float)
    if X0.shape != shape:
        raise ContractViolationError(f"initial states shape {X0.shape}, expected {shape}")
    if any(p.n_nodes != sys.n_nodes for p in plans):
        raise ContractViolationError(f"every plan must be on the system's {sys.n_nodes} nodes")
    for plan in plans:
        steps = member_steps(sys, plan, h, T, record_every)
    if not plans:
        return []

    records = steps // record_every + 1
    try:
        states = np.empty((records,) + shape) if record_states else None
        errors = np.empty((records, B + -B % shape[2]))  # a column per padded member
    except (MemoryError, ValueError):  # numpy refuses arrays it cannot hold
        raise ContractViolationError(
            f"horizon T={T!r} at h={h!r} and record_every={record_every} needs {records} "
            f"records, more than can be allocated"
        ) from None
    out: list = [None] * B
    # The state X as (n, N, Bp) planes, members innermost in the caller's order
    # and padded (see _rhs and _pad), its flat view, k, the stage state, the
    # weighted sum k1 + 2 k2 + 2 k3 + k4 (in the order of X + (h/6) (k1 + 2.0 *
    # k2 + 2.0 * k3 + k4)), and the RHS bound to X -> ksum and to stage -> k.
    X, members = _pad(X0.T, plans)
    flat, k, stage, ksum = X.reshape(-1), np.empty_like(X), np.empty_like(X), np.empty_like(X)
    rhs_X, rhs_stage = _rhs(sys, members, X, ksum), _rhs(sys, members, stage, k)
    diff, node_err = np.empty_like(X), np.empty(X.shape[1:])
    # The step's scalars as 0-d float64 arrays: cheaper ufunc operands than
    # Python floats, with the same arithmetic.
    half_h, full_h, sixth_h, two = (np.array(v) for v in (0.5 * h, h, h / 6.0, 2.0))
    multiply, add, subtract, dot = np.multiply, np.add, np.subtract, np.dot
    target = sys.target[:, None, None]
    # Overflow is handled explicitly via the finiteness check, so numpy's
    # warnings would only be noise on a member that is about to be reset.
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
                # A finite sum of squares proves every entry finite; only a
                # non-finite one (an entry gone non-finite, or finite entries
                # whose squares or their sum overflow) needs the per-column
                # test. Non-finite columns, padding included, are reset to the
                # target in place (no other column reads them): the sum stays finite.
                if not math.isfinite(dot(flat, flat)):
                    bad = ~np.all(np.isfinite(X), axis=(0, 1))
                    X[..., bad] = target
                    for b in np.flatnonzero(bad[:B]):
                        out[b] = out[b] or DivergenceError(step * h)
                    if None not in out:
                        return out
            if step % record_every == 0:
                rec = step // record_every
                if record_states:
                    states[rec] = X[..., :B].T
                # Each member's error max_i |x_i - s|, the largest Euclidean
                # node deviation from the target, its squares summed
                # (d_0^2 + d_1^2) + d_2^2 + ... as the (N, n) sum over rows does.
                subtract(X, target, diff)
                multiply(diff, diff, diff)
                add.reduce(diff, 0, None, node_err)
                np.sqrt(node_err, node_err)
                np.maximum.reduce(node_err, 0, None, errors[rec])
    # step * h per record, with the same bits as the product of Python numbers.
    times = np.arange(0, steps + 1, record_every) * h
    return [r or SimulationResult(times, states[:, b] if record_states else None, errors[:, b])
            for b, r in enumerate(out)]


def sync_time(result: SimulationResult, tol: float) -> Optional[float]:
    """Earliest recorded time after which the error stays below tol; None if never."""
    positive("tol", tol)
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
    # Sorted, less each entry equal to the one before: np.unique's cuts,
    # without the numpy.ma import that np.unique makes.
    cuts = np.sort(np.concatenate(roots))
    cuts = np.delete(cuts, np.flatnonzero(cuts[1:] == cuts[:-1]) + 1)
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
