import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pinnet
from conftest import random_connected_graph
from dynamics_oracle import (
    chen_reference_field,
    field_at,
    integrate_one,
    linear_field,
    modal_equivalence_check,
    mode_matrix,
    network_rhs,
    quad_condition_sample,
    sync_error,
)
from pinnet.dynamics import (
    CHEN_A,
    CHEN_B,
    CHEN_C,
    NetworkSystem,
    NodeDynamics,
    chen_equilibrium,
    chen_field,
    member_steps,
    mode_threshold,
    sync_time,
)
from pinnet.errors import (
    ContractViolationError,
    DivergenceError,
    NumericalFailureError,
    RegionShapeError,
)
from pinnet.pinning import PinningPlan, plan_by_degree, plan_explicit
from pinnet.spectral import controlled_spectrum
from pinnet.topology import Graph, coupling_matrix, star
from spectral_oracle import spectral_abscissa_3

GAMMA = np.array([0.0, 1.0, 0.0])


# Entries that the field's products and sums turn into inf or NaN.
CHEN_SPECIALS = np.array([math.inf, -math.inf, math.nan, -math.nan, 1e200, -1e200])


def zero_plan(n, c=0.0):
    return PinningPlan(n, (0.0,) * n, c)


def single_node_system(dyn, target=None):
    g = Graph(1, frozenset())
    A = coupling_matrix(g)
    if target is None:
        target = np.zeros(dyn.dimension)
    return NetworkSystem(dyn, A, np.ones(dyn.dimension), target)


# All eight leaves of the 9-node star pinned at gain 1.5, c = 10.
LEAF_PLAN = plan_by_degree(star(9), "smallest", 8, 1.5, 10.0)


def chen_star_system(n=9):
    return NetworkSystem(chen_field(), coupling_matrix(star(n)), GAMMA, chen_equilibrium())


class TestChenField:
    def test_printed_equilibrium_is_near_fixed_point(self):
        dyn = chen_field()
        f = field_at(dyn, np.array([7.9373, 7.9373, 21.0]))
        assert np.linalg.norm(f) < 1e-3

    def test_exact_equilibrium(self):
        s = chen_equilibrium()
        assert np.allclose(s, [math.sqrt(63.0), math.sqrt(63.0), 21.0], rtol=0, atol=0)
        assert np.linalg.norm(field_at(chen_field(), s)) < 1e-12

    def test_origin_is_equilibrium(self):
        assert np.array_equal(field_at(chen_field(), np.zeros(3)), np.zeros(3))

    def test_negative_equilibrium(self):
        r = math.sqrt(CHEN_B * (2.0 * CHEN_C - CHEN_A))
        s = np.array([-r, -r, 2.0 * CHEN_C - CHEN_A])
        assert np.linalg.norm(field_at(chen_field(), s)) < 1e-12

    def test_jacobian_matches_finite_differences(self, rng):
        dyn = chen_field()
        for _ in range(10):
            x = rng.uniform(-20, 30, 3)
            jac = dyn.jacobian(x)
            fd = np.empty((3, 3))
            eps = 1e-6
            for j in range(3):
                dx = np.zeros(3)
                dx[j] = eps
                fd[:, j] = (field_at(dyn, x + dx) - field_at(dyn, x - dx)) / (2 * eps)
            tol = max(1e-5, 1e-4 * np.max(np.abs(jac)))
            assert np.max(np.abs(jac - fd)) < tol

    def test_batch_evaluation(self, rng):
        dyn = chen_field()
        X = rng.uniform(-5, 5, (7, 3))
        batch = field_at(dyn, X)
        for i in range(7):
            assert np.allclose(batch[i], field_at(dyn, X[i]), rtol=0, atol=0)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    @example(rows=1, seed=2151)  # x = (NaN, -NaN, -18.7)
    def test_kernel_bytes_equal_ten_call_reference(self, rows, seed):
        # Rows mix finite entries with +-inf, NaNs of both signs and +-1e200,
        # whose products overflow; each entry is special with a drawn chance.
        rng = np.random.default_rng(seed)
        x = rng.uniform(-50.0, 50.0, (rows, 3))
        special = rng.random((rows, 3)) < rng.random()
        x[special] = rng.choice(CHEN_SPECIALS, int(special.sum()))
        x = np.ascontiguousarray(x.T)  # the field takes (3, rows) planes
        out, expected = np.empty_like(x), np.empty_like(x)
        with np.errstate(all="ignore"):
            chen_field().bind(x, out)()
            chen_reference_field().bind(x, expected)()
        assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dyn", [chen_field(), linear_field(np.arange(9.0).reshape(3, 3) - 4.0)],
                         ids=["chen", "linear"])
def test_bound_kernel_reads_the_state_at_call_time(dyn, rng):
    # The integrator binds the field to its buffers once and rewrites the
    # state in place between calls: each call must see the values of that
    # moment, as a fresh binding does.
    x, out = rng.uniform(-5, 5, (3, 7)), np.empty((3, 7))
    kernel = dyn.bind(x, out)
    kernel()
    before = out.copy()
    x[...] = rng.uniform(-5, 5, (3, 7))
    kernel()
    assert np.array_equal(out, field_at(dyn, x.T).T)
    assert not np.array_equal(out, before)


class TestLinearField:
    def test_field_and_jacobian(self, rng):
        F = rng.uniform(-2, 2, (4, 4))
        dyn = linear_field(F)
        x = rng.uniform(-1, 1, 4)
        assert np.allclose(field_at(dyn, x), F @ x, atol=1e-14)
        assert np.array_equal(dyn.jacobian(x), F)

    def test_lipschitz_is_spectral_norm(self, rng):
        F = rng.uniform(-2, 2, (3, 3))
        dyn = linear_field(F)
        assert dyn.lipschitz == pytest.approx(np.linalg.norm(F, 2), rel=1e-9)


class TestNetworkRhs:
    def test_vanishes_on_synchronization_manifold(self):
        sys = chen_star_system()
        X = np.tile(sys.target, (9, 1))
        rhs = network_rhs(sys, LEAF_PLAN, X)
        assert np.max(np.abs(rhs)) < 1e-10

    def test_single_uncoupled_node_reduces_to_field(self, rng):
        dyn = chen_field()
        sys = single_node_system(dyn, chen_equilibrium())
        x = rng.uniform(-5, 5, (1, 3))
        assert np.allclose(network_rhs(sys, zero_plan(1), x), field_at(dyn, x), atol=0)

    def test_matches_kronecker_operator_for_linear_nodes(self, rng):
        # error dynamics of a linear node field against the block operator
        # I (x) F + c * (A - G) (x) Gamma acting on the stacked state
        n, nn = 6, 3
        g = random_connected_graph(rng, n)
        A = coupling_matrix(g)
        F = rng.uniform(-1, 1, (nn, nn))
        plan = plan_explicit(n, {0: 1.3, 3: 0.7}, 0.8)
        gamma = np.array([1.0, 0.0, 1.0])
        sys = NetworkSystem(linear_field(F), A, gamma, np.zeros(nn))
        X = rng.uniform(-1, 1, (n, nn))
        G = np.diag(plan.gains)
        block = np.kron(np.eye(n), F) + 0.8 * np.kron(A - G, np.diag(gamma))
        expected = (block @ X.reshape(-1)).reshape(n, nn)
        assert np.allclose(network_rhs(sys, plan, X), expected, atol=1e-12)

    def test_dimension_mismatch(self):
        sys = chen_star_system()
        with pytest.raises(ContractViolationError):
            network_rhs(sys, LEAF_PLAN, np.zeros((4, 3)))


class TestIntegrateRk4:
    def test_exponential_decay_exact_order(self):
        dyn = linear_field(np.array([[-1.0]]))
        sys = single_node_system(dyn)
        res = integrate_one(sys, zero_plan(1), np.array([[1.0]]), 0.01, 1.0, record_every=1)
        assert abs(res.states[-1, 0, 0] - math.exp(-1.0)) < 1e-9
        assert res.times[-1] == pytest.approx(1.0)

    def test_order_four_on_chen_node(self):
        sys = single_node_system(chen_field(), chen_equilibrium())
        x0 = chen_equilibrium() + np.array([0.5, -0.3, 0.2])
        ends = []
        for h in (2e-3, 1e-3, 5e-4):
            res = integrate_one(sys, zero_plan(1), x0[None, :], h, 1.0, record_every=1)
            assert res.times[-1] == pytest.approx(1.0)
            ends.append(res.states[-1, 0])
        e1 = np.linalg.norm(ends[0] - ends[1])
        e2 = np.linalg.norm(ends[1] - ends[2])
        order = math.log2(e1 / e2)
        assert 3.7 <= order <= 4.3

    def test_step_guard_rejects_large_h(self):
        sys, plan = chen_star_system(), plan_explicit(9, {0: 300.0}, 10.0)
        # stiffness ~ 80 + 10*(9+300); h=1e-2 is far beyond the guard
        with pytest.raises(ContractViolationError):
            integrate_one(sys, plan, np.tile(sys.target, (9, 1)), 1e-2, 1.0)

    def test_divergence_error_carries_time(self):
        def bind(x, out):
            def field():
                with np.errstate(over="ignore"):
                    np.multiply(x, x, out)

            return field

        def jac(x):
            return np.diag(2 * np.asarray(x))

        dyn = NodeDynamics(1, bind, jac, 1.0)
        sys = single_node_system(dyn)
        with pytest.raises(DivergenceError) as exc:
            integrate_one(sys, zero_plan(1), np.array([[10.0]]), 0.01, 5.0)
        assert 0.0 < exc.value.time <= 5.0

    def test_manifold_invariance(self):
        sys = chen_star_system()
        X0 = np.tile(sys.target, (9, 1))
        res = integrate_one(sys, LEAF_PLAN, X0, 1e-3, 2.0, record_every=10)
        assert np.max(res.error_metric) <= 1e-9

    def test_record_every(self):
        dyn = linear_field(np.array([[-1.0]]))
        sys = single_node_system(dyn)
        res = integrate_one(sys, zero_plan(1), np.array([[1.0]]), 0.01, 1.0, record_every=10)
        assert len(res.times) == 11
        assert np.allclose(np.diff(res.times), 0.1)

    def test_input_validation(self):
        sys = chen_star_system()
        X0 = np.tile(sys.target, (9, 1))
        with pytest.raises(ContractViolationError):
            integrate_one(sys, LEAF_PLAN, X0, -1e-3, 1.0)
        with pytest.raises(ContractViolationError):
            integrate_one(sys, LEAF_PLAN, X0, 1e-3, 1e-4)

    @pytest.mark.parametrize("h,T", [
        (float("nan"), 1.0), (float("inf"), 1.0), (1e-3, float("nan")), (1e-3, float("inf")),
    ])
    def test_rejects_non_finite_step_parameters(self, h, T):
        sys = chen_star_system()
        with pytest.raises(ContractViolationError, match="finite"):
            integrate_one(sys, LEAF_PLAN, np.tile(sys.target, (9, 1)), h, T)


class TestMemberSteps:
    # The 9-node star's coupling matrix has lambda_min = -9; member_steps reads
    # it from the system, which computes it once, when it is built.
    def test_system_holds_the_stars_lambda_min(self):
        assert chen_star_system().lambda_min == pytest.approx(-9.0, rel=0, abs=1e-12)

    @pytest.mark.parametrize("h,T,record_every,message", [
        (0.0, 1.0, 1, "h must be finite and positive, got 0.0"),
        (math.nan, 1.0, 1, "h must be finite and positive, got nan"),
        (1e-3, 1e-4, 1, "T must be finite and at least one step, got 0.0001"),
        (1e-3, 1.0, 0, "record_every must be >= 1"),
        (5e-324, 0.004, 1, "T=0.004 / h=5e-324 overflows: no finite step count"),
        (1e-4, 0.00126, 5, "horizon T=0.00126 is not a whole number of record "
                           "intervals of h=0.0001 * record_every=5"),
        (1e-3, 1.0, 1, "step h=0.001 exceeds the stability guard 2.5/3170 = 0.000789"),
    ], ids=["h-zero", "h-nan", "T-below-h", "record-every-0", "overflow", "off-grid", "guard"])
    def test_refusals(self, h, T, record_every, message):
        plan = plan_explicit(9, {0: 300.0}, 10.0)  # stiffness 80 + 10 * (9 + 300)
        with pytest.raises(ContractViolationError) as exc:
            member_steps(chen_star_system(), plan, h, T, record_every)
        assert str(exc.value) == message

    def test_step_count(self):
        assert member_steps(chen_star_system(), LEAF_PLAN, 1e-4, 5.0, 5) == 50000

    @pytest.mark.parametrize("lam_min", [None, math.nan, -1e300])
    def test_uncoupled_guard_is_the_field_stiffness_alone(self, lam_min):
        # -1e300 is the least eigenvalue of a real one-node coupling. None and
        # NaN are written over the star's own, so a guard that read them fails.
        if lam_min == -1e300:
            sys = NetworkSystem(chen_field(), [[lam_min]], GAMMA, chen_equilibrium())
            assert sys.lambda_min == lam_min
        else:
            sys = chen_star_system()
            object.__setattr__(sys, "lambda_min", lam_min)
        plan = plan_explicit(sys.n_nodes, {0: 300.0}, 0.0)
        assert member_steps(sys, plan, 2.5 / 80, 2.5 / 40, 1) == 2
        with pytest.raises(ContractViolationError) as exc:
            member_steps(sys, plan, 2.5 / 40, 2.5 / 20, 1)
        assert str(exc.value) == "step h=0.0625 exceeds the stability guard 2.5/80 = 0.0312"


class TestSyncMetrics:
    def test_zero_when_equal(self):
        target = np.array([1.0, 2.0, 3.0])
        assert sync_error(np.tile(target, (5, 1)), target) == 0.0

    def test_displaced_node(self):
        target = np.zeros(3)
        states = np.zeros((4, 3))
        states[2] = [3.0, 4.0, 0.0]
        assert sync_error(states, target) == 5.0

    def test_brute_force(self, rng):
        states = rng.uniform(-5, 5, (8, 3))
        target = rng.uniform(-5, 5, 3)
        expected = max(np.linalg.norm(states[i] - target) for i in range(8))
        assert sync_error(states, target) == pytest.approx(expected, rel=0, abs=0)

    def _result(self, errors):
        from pinnet.dynamics import SimulationResult

        times = np.arange(len(errors), dtype=float)
        return SimulationResult(times, np.zeros((len(errors), 1, 1)), np.asarray(errors))

    def test_sync_time_identically_zero(self):
        assert sync_time(self._result([0.0, 0.0, 0.0]), 1e-2) == 0.0

    def test_sync_time_monotone_crossing(self):
        res = self._result([1.0, 0.5, 0.009, 0.001])
        assert sync_time(res, 1e-2) == 2.0

    def test_sync_time_requires_staying_below(self):
        res = self._result([1.0, 0.001, 0.5, 0.001, 0.0001])
        assert sync_time(res, 1e-2) == 3.0

    def test_sync_time_none(self):
        assert sync_time(self._result([1.0, 0.5, 0.2]), 1e-2) is None
        assert sync_time(self._result([0.001, 0.001, 0.2]), 1e-2) is None

    def test_sync_time_invalid_tol(self):
        with pytest.raises(ContractViolationError):
            sync_time(self._result([1.0]), 0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_sync_time_refuses_non_finite_tol(self, tol):
        # An error that never drops must not read as synchronized at t = 0.
        with pytest.raises(ContractViolationError,
                           match=rf"^tol must be finite and positive, got {tol!r}$"):
            sync_time(self._result([1.0, 0.5, 0.2]), tol)


class TestModeMatrix:
    def test_lambda_zero_gives_jacobian(self):
        sys = chen_star_system()
        jac = sys.dynamics.jacobian(sys.target)
        assert np.array_equal(mode_matrix(sys, LEAF_PLAN, 0.0), jac)

    def test_chen_entry_shift(self):
        sys = chen_star_system()
        m = mode_matrix(sys, LEAF_PLAN, -10.0)  # c=10, so c*lambda = -100 lands on entry (1,1)
        jac = sys.dynamics.jacobian(sys.target)
        assert m[1, 1] == jac[1, 1] - 100.0
        m_zeroed = m.copy()
        m_zeroed[1, 1] = jac[1, 1]
        assert np.array_equal(m_zeroed, jac)

    def test_linear_field(self, rng):
        F = rng.uniform(-1, 1, (3, 3))
        g = Graph(1, frozenset())
        sys = NetworkSystem(linear_field(F), coupling_matrix(g), GAMMA, np.zeros(3))
        lam = -1.7
        assert np.allclose(mode_matrix(sys, zero_plan(1, 2.0), lam), F + 2.0 * lam * np.diag(GAMMA), atol=0)


class TestSpectralAbscissa3:
    def test_diagonal(self):
        assert spectral_abscissa_3(np.diag([-1.0, -2.0, -3.0])) == pytest.approx(-1.0)

    def test_chen_equilibrium_unstable(self):
        jac = chen_field().jacobian(chen_equilibrium())
        assert spectral_abscissa_3(jac) > 0.0

    def test_companion_of_known_cubic(self):
        # (s+1)(s^2+1): roots -1, +-i; abscissa 0
        companion = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -1.0, -1.0]])
        assert abs(spectral_abscissa_3(companion)) < 1e-12

    def test_against_numpy_roots(self, rng):
        for _ in range(300):
            M = rng.uniform(-5, 5, (3, 3))
            expected = float(np.max(np.real(np.linalg.eigvals(M))))
            assert spectral_abscissa_3(M) == pytest.approx(expected, rel=1e-7, abs=1e-7)

    def test_routh_hurwitz_agreement(self, rng):
        for _ in range(300):
            M = rng.uniform(-5, 5, (3, 3))
            absc = spectral_abscissa_3(M)
            if abs(absc) < 1e-8:
                continue
            a1 = -np.trace(M)
            a2 = 0.5 * (np.trace(M) ** 2 - np.trace(M @ M))
            a3 = -np.linalg.det(M)
            hurwitz = a1 > 0 and a3 > 0 and a1 * a2 > a3
            assert (absc < 0) == hurwitz

    def test_wrong_shape(self):
        with pytest.raises(ContractViolationError):
            spectral_abscissa_3(np.eye(2))


def _hurwitz_exact(M):
    """Routh-Hurwitz test of the 3x3 float matrix M in rational arithmetic."""
    a = [[Fraction(x) for x in row] for row in M.tolist()]

    def minor(i, j, k, l):
        return a[i][k] * a[j][l] - a[i][l] * a[j][k]

    a1 = -(a[0][0] + a[1][1] + a[2][2])
    a2 = minor(0, 1, 0, 1) + minor(0, 2, 0, 2) + minor(1, 2, 1, 2)
    a3 = -(a[0][0] * minor(1, 2, 1, 2) - a[0][1] * minor(1, 2, 0, 2) + a[0][2] * minor(1, 2, 0, 1))
    return a1 > 0 and a3 > 0 and a1 * a2 - a3 > 0


def _oracle_stable(M):
    """Whether every eigenvalue of the 3x3 matrix M has negative real part.

    Decided by the closed-form cubic, except where its abscissa lies within
    1e-9 * (1 + ||M||_F) of zero, inside its own rounding: there the
    Routh-Hurwitz conditions are evaluated exactly instead.
    """
    abscissa = spectral_abscissa_3(M)
    if abs(abscissa) > 1e-9 * (1.0 + np.linalg.norm(M)):
        return abscissa < 0.0
    return _hurwitz_exact(M)


def _samples_between_cuts(F, gamma):
    """Sorted sigmas, one inside each interval between neighbouring places
    where F + sigma*diag(gamma) can change stability, the two unbounded ones
    included: -reach and reach lie past every cut, reach = 1 + 2 max|cut|.

    Those places are real roots of the Routh-Hurwitz polynomials. The
    characteristic-polynomial coefficients have degree <= 3 in sigma, so
    np.poly at four sigmas and an interpolating fit give them here, apart
    from the package's construction.
    """
    sigmas = np.arange(4.0)
    G = np.diag(gamma)
    fit = np.polyfit(sigmas, [np.poly(F + s * G) for s in sigmas], 3)
    # Roundoff leaves about 1e-15 where a coefficient vanishes. Left in, a
    # vanishing leading coefficient adds a spurious root near 1e7 or beyond,
    # so far out that the cubic oracle misjudges stability there.
    fit[np.abs(fit) <= 1e-9 * np.abs(fit).max(axis=0)] = 0.0
    _, a1, a2, a3 = fit.T
    roots = [np.roots(p).real for p in (a1, a3, np.polysub(np.polymul(a1, a2), a3))]
    cuts = np.unique(np.concatenate(roots))
    reach = 1.0 + 2.0 * np.abs(cuts).max(initial=0.0)
    return np.concatenate([[-reach], 0.5 * (cuts[1:] + cuts[:-1]), [reach]])


class TestModeThreshold:
    def test_exact_value_for_chen_node(self):
        # a1 a2 - a3 = 38 sigma^2 - 359 sigma - 3570 for the shipped node
        r = (359.0 - math.sqrt(671521.0)) / 76.0
        assert r <= mode_threshold(chen_star_system()) <= r + 1e-11

    def test_overflowing_hurwitz_roots_raise_typed_error(self):
        # a1*a2 - a3 has the subnormal leading coefficient -2.2250738585e-313,
        # so np.roots' companion matrix overflows.
        F = [[0.0, 1.0, 0.0], [1.0, 2.2250738585e-313, 0.0], [0.0, 0.0, 0.0]]
        gamma = np.array([1.0, 0.0, 0.0])
        sys = NetworkSystem(linear_field(F), np.zeros((1, 1)), gamma, np.zeros(3))
        with pytest.raises(NumericalFailureError, match=r"Hurwitz polynomial a1\*a2 - a3"):
            mode_threshold(sys)

    def test_does_not_import_numpy_ma(self):
        # Nothing else on the run path imports numpy.ma; np.unique would.
        code = (
            "import sys\n"
            "from pinnet.harness import build_system\n"
            "from pinnet.dynamics import mode_threshold\n"
            "from pinnet.topology import star\n"
            "mode_threshold(build_system(star(5)))\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        src = str(Path(pinnet.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_threshold_separates_stability(self):
        sys = chen_star_system()
        sigma = mode_threshold(sys)
        jac = sys.dynamics.jacobian(sys.target)
        for below in (sigma - 1e-6, sigma - 1e-3):
            assert spectral_abscissa_3(jac + below * np.diag(GAMMA)) < 0.0
            assert np.max(np.linalg.eigvals(jac + below * np.diag(GAMMA)).real) < 0.0
        assert spectral_abscissa_3(jac + sigma * np.diag(GAMMA)) >= 0.0
        assert np.max(np.linalg.eigvals(jac + sigma * np.diag(GAMMA)).real) >= 0.0

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=49734184)  # stable only on a bounded interval, which ends near sigma = -1.25e4
    def test_agrees_with_cubic_oracle(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        F = rng.uniform(-5.0, 5.0, (3, 3))
        gamma = rng.integers(0, 2, 3).astype(float)
        sys = NetworkSystem(linear_field(F), np.zeros((1, 1)), gamma, np.zeros(3))

        def stable(sigma):
            return _oracle_stable(F + sigma * np.diag(gamma))

        try:
            sigma = mode_threshold(sys)
        except RegionShapeError:
            # Witness that the stable set is not (-inf, r) with r <= 0: stable
            # at 0, stable at no sample, or unstable below a stable sample.
            flags = [stable(s) for s in _samples_between_cuts(F, gamma)]
            assert stable(0.0) or not any(flags) or flags != sorted(flags, reverse=True)
        else:
            assert sigma <= 1e-11
            assert not stable(sigma)
            for below in (sigma - 1e-6 * (1.0 + abs(sigma)), 2.0 * sigma - 1.0, 10.0 * sigma - 10.0):
                assert stable(below)

    def test_predicts_leaf_pinned_star_synchronizes(self):
        sys = chen_star_system()
        sigma = mode_threshold(sys)
        lam1 = controlled_spectrum(sys.coupling, LEAF_PLAN).lambda_max
        assert LEAF_PLAN.coupling_strength * lam1 < sigma


class TestStabilityConsistency:
    def test_prediction_matches_integration_both_outcomes(self):
        # synchronizing instance: all leaves pinned at c=10
        sync_sys = chen_star_system()
        sigma = mode_threshold(sync_sys)
        lam1 = controlled_spectrum(sync_sys.coupling, LEAF_PLAN).lambda_max
        assert LEAF_PLAN.coupling_strength * lam1 < sigma
        X0 = sync_sys.target + _ball_offsets(9, seed=30)
        res = integrate_one(sync_sys, LEAF_PLAN, X0, 5e-4, 3.0, record_every=5)
        assert sync_time(res, 1e-2) is not None

        # non-synchronizing instance: center pinned hard but coupling too weak
        weak, weak_plan = chen_star_system(), plan_explicit(9, {0: 300.0}, 1.0)
        lam1_weak = controlled_spectrum(weak.coupling, weak_plan).lambda_max
        assert weak_plan.coupling_strength * lam1_weak > sigma
        X0 = weak.target + _ball_offsets(9, seed=31)
        res = integrate_one(weak, weak_plan, X0, 5e-4, 3.0, record_every=5)
        assert sync_time(res, 1e-2) is None


def _ball_offsets(n_nodes, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    out = np.empty((n_nodes, 3))
    for i in range(n_nodes):
        while True:
            r = rng.uniform(-1, 1, 3)
            if r @ r <= 1.0:
                out[i] = r
                break
    return out


class TestModalEquivalence:
    def test_random_networks_small_deviation(self, rng):
        for _ in range(3):
            g = random_connected_graph(rng, 5)
            A = coupling_matrix(g)
            gains = rng.uniform(0, 2, 5)
            At = A - np.diag(gains)
            F = rng.uniform(-1, 1, (3, 3))
            e0 = rng.uniform(-1, 1, (5, 3))
            dev = modal_equivalence_check(F, At, 0.7, GAMMA, e0, 1e-3, 1.0)
            assert dev < 1e-6

    def test_single_node(self, rng):
        F = rng.uniform(-1, 1, (3, 3))
        dev = modal_equivalence_check(
            F, np.array([[-2.0]]), 1.0, GAMMA, rng.uniform(-1, 1, (1, 3)), 1e-3, 1.0
        )
        assert dev < 1e-12

    def test_uncoupled(self, rng):
        g = random_connected_graph(rng, 4)
        At = coupling_matrix(g) - np.diag(rng.uniform(0, 1, 4))
        F = rng.uniform(-1, 1, (3, 3))
        dev = modal_equivalence_check(F, At, 0.0, GAMMA, rng.uniform(-1, 1, (4, 3)), 1e-3, 1.0)
        assert dev < 1e-9


class TestQuadConditionSample:
    def test_exact_for_isotropic_linear_field(self):
        dyn = linear_field(-3.0 * np.eye(3))
        box = (np.full(3, -2.0), np.full(3, 2.0))
        rep = quad_condition_sample(dyn, np.eye(3), 0.0, 1.0, GAMMA, box, 500, seed=5)
        assert rep.holds_on_samples
        assert rep.mu_estimate == pytest.approx(3.0, abs=1e-9)

    def test_linear_matches_symmetric_part(self, rng):
        F = rng.uniform(-1, 1, (3, 3))
        sym = 0.5 * (F + F.T)
        shift = np.max(np.linalg.eigvalsh(sym)) + 1.0
        F -= shift * np.eye(3)
        c, margin = 0.8, 1.25
        gamma = np.array([0.0, 1.0, 0.0])
        eff = F - c * margin * np.diag(gamma)
        mu_true = -np.max(np.linalg.eigvalsh(0.5 * (eff + eff.T)))
        box = (np.full(3, -1.0), np.full(3, 1.0))
        rep = quad_condition_sample(linear_field(F), np.eye(3), c, margin, gamma, box, 10000, 11)
        assert rep.holds_on_samples
        assert abs(rep.mu_estimate - mu_true) <= 0.05 * abs(mu_true)

    def test_chen_not_contracting_uncoupled(self):
        dyn = chen_field()
        box = (np.array([-25.0, -25.0, 0.0]), np.array([25.0, 25.0, 40.0]))
        rep = quad_condition_sample(dyn, np.eye(3), 0.0, 1.0, GAMMA, box, 2000, seed=3)
        assert rep.holds_on_samples is False

    def test_degenerate_box(self):
        dyn = linear_field(-np.eye(3))
        with pytest.raises(ContractViolationError):
            quad_condition_sample(
                dyn, np.eye(3), 0.0, 1.0, GAMMA,
                (np.zeros(3), np.array([1.0, 0.0, 1.0])), 10, 0,
            )

    def test_p_validation(self):
        dyn = linear_field(-np.eye(3))
        box = (np.zeros(3), np.ones(3))
        with pytest.raises(ContractViolationError):
            quad_condition_sample(dyn, np.ones((3, 3)), 0.0, 1.0, GAMMA, box, 10, 0)
        with pytest.raises(ContractViolationError):
            quad_condition_sample(dyn, -np.eye(3), 0.0, 1.0, GAMMA, box, 10, 0)

    def test_seeded_determinism(self):
        dyn = chen_field()
        box = (np.full(3, -5.0), np.full(3, 5.0))
        a = quad_condition_sample(dyn, np.eye(3), 1.0, 1.0, GAMMA, box, 200, seed=9)
        b = quad_condition_sample(dyn, np.eye(3), 1.0, 1.0, GAMMA, box, 200, seed=9)
        assert a == b


class TestNetworkSystemValidation:
    def test_bad_gamma(self):
        A = coupling_matrix(star(3))
        with pytest.raises(ContractViolationError):
            NetworkSystem(chen_field(), A, np.array([0.0, 2.0, 0.0]), chen_equilibrium())

    def test_target_not_equilibrium(self):
        A = coupling_matrix(star(3))
        with pytest.raises(ContractViolationError):
            NetworkSystem(chen_field(), A, GAMMA, np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_target(self, bad):
        target = chen_equilibrium()
        target[1] = bad
        with pytest.raises(ContractViolationError, match="target must be finite"):
            NetworkSystem(chen_field(), coupling_matrix(star(3)), GAMMA, target)

    def test_non_square_coupling(self):
        for shape in [(4, 3), (3, 4), (9,), (1, 3, 3)]:
            with pytest.raises(ContractViolationError, match="square"):
                NetworkSystem(chen_field(), np.zeros(shape), GAMMA, chen_equilibrium())

    # Refused whatever the members' c: the RK4 guard reads lambda_min(A).
    @pytest.mark.parametrize("coupling,message", [
        ([[-1.0, 1.0], [0.0, 0.0]], "matrix is not symmetric within 1e-12 * max(1, ||M||_F)"),
        ([[math.nan, 0.0], [0.0, 0.0]], "matrix has non-finite entries"),
    ], ids=["asymmetric", "nan"])
    def test_refuses_a_coupling_without_a_symmetric_spectrum(self, coupling, message):
        with pytest.raises(ContractViolationError) as exc:
            NetworkSystem(chen_field(), coupling, GAMMA, chen_equilibrium())
        assert str(exc.value) == message
