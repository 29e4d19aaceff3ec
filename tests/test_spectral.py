import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pinnet.spectral
from conftest import random_connected_graph
from pinnet.errors import (
    BoundaryCaseError,
    BoundUndefinedError,
    ContractViolationError,
    NumericalFailureError,
)
from pinnet.pinning import PinningPlan, degree_order, plan_by_degree, plan_explicit
from pinnet.spectral import (
    _below,
    cluster_leaf_gain_bound,
    controlled_spectrum,
    eig_symmetric,
    min_uniform_gain,
    schur_feasible,
    star_leaf_gain_bound,
)
from pinnet.topology import Graph, barabasi_albert, cluster_stars, coupling_matrix, star
from spectral_oracle import (
    check_margin,
    diag_bounds_check,
    evaluate_plan,
    gershgorin_check,
    jacobi_eig,
    two_pass_min_uniform_gain,
)


def leaf_plan(n, eps, c=1.0):
    return plan_by_degree(star(n), "smallest", n - 1, eps, c)


class TestEigSymmetric:
    def test_diagonal_matrix(self):
        dec = eig_symmetric(np.diag([3.0, 1.0, 2.0]))
        assert np.array_equal(dec.eigenvalues, [3.0, 2.0, 1.0])

    def test_star_9(self):
        dec = eig_symmetric(coupling_matrix(star(9)))
        expected = np.concatenate([[0.0], -np.ones(7), [-9.0]])
        assert np.max(np.abs(dec.eigenvalues - expected)) < 1e-8

    def test_swap_matrix(self):
        dec = eig_symmetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ContractViolationError):
            eig_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_symmetry_tolerance_is_relative(self):
        # asymmetry 1e-10 against ||M||_F ~ 2.2e6: 5e-17 relative
        dec = eig_symmetric(np.array([[1e6, 1.0], [1.0 + 1e-10, 2e6]]))
        assert dec.lambda_max > dec.lambda_min
        with pytest.raises(ContractViolationError):
            eig_symmetric(np.array([[1e6, 1.0], [2.0, 2e6]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ContractViolationError):
            eig_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_lapack_failure_is_numerical_failure(self, monkeypatch):
        def fail(M):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NumericalFailureError):
            eig_symmetric(np.eye(2))

    def test_rejects_nonsquare(self):
        with pytest.raises(ContractViolationError):
            eig_symmetric(np.zeros((2, 3)))

    def test_zero_matrix(self):
        dec = eig_symmetric(np.zeros((4, 4)))
        assert np.array_equal(dec.eigenvalues, np.zeros(4))

    def test_descending_order_and_oracle_1000(self):
        # Descending order on 1000 random symmetric matrices, cross-checked
        # against the cyclic Jacobi oracle.
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(1000):
            n = int(rng.integers(2, 31))
            M = rng.uniform(-10, 10, (n, n))
            M = 0.5 * (M + M.T)
            dec = eig_symmetric(M)
            fro = np.linalg.norm(M)
            assert np.all(np.diff(dec.eigenvalues) <= 1e-12)
            oracle = jacobi_eig(M).eigenvalues
            assert np.max(np.abs(dec.eigenvalues - oracle)) <= 1e-9 * max(1.0, fro)


class TestControlledSpectrum:
    """The spectrum is that of A - diag(gains), formed as eigvalsh sees it:
    every diagonal entry loses its gain, zeros included, and nothing else moves."""

    @staticmethod
    def _assert_spectrum_of_controlled(A, plan):
        expected = np.linalg.eigvalsh(A - np.diag(plan.gains))[::-1]
        assert np.array_equal(controlled_spectrum(A, plan).eigenvalues, expected)

    def test_center_pin(self):
        self._assert_spectrum_of_controlled(coupling_matrix(star(9)), plan_explicit(9, {0: 300.0}, 10.0))

    def test_zero_plan_identity(self):
        A = coupling_matrix(star(5))
        plan = PinningPlan(5, (0.0,) * 5, 1.0)
        self._assert_spectrum_of_controlled(A, plan)
        assert np.array_equal(controlled_spectrum(A, plan).eigenvalues, eig_symmetric(A).eigenvalues)

    def test_leaf_pins(self):
        self._assert_spectrum_of_controlled(coupling_matrix(star(9)), leaf_plan(9, 1.5, 10.0))

    def test_preserves_off_diagonal(self, rng):
        A = coupling_matrix(random_connected_graph(rng, 8))
        self._assert_spectrum_of_controlled(A, plan_explicit(8, {1: 2.0, 5: 3.5}, 1.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolationError,
                           match=re.escape("matrix shape (3, 3) does not match plan on 4 nodes")):
            controlled_spectrum(np.zeros((3, 3)), PinningPlan(4, (0.0,) * 4, 1.0))

    def test_leaf_pinning_beats_margin(self):
        A = coupling_matrix(star(9))
        dec = controlled_spectrum(A, leaf_plan(9, 1.5, 10.0))
        assert dec.lambda_max < -1.0

    def test_center_pin_ceiling(self):
        A = coupling_matrix(star(9))
        dec = controlled_spectrum(A, plan_explicit(9, {0: 300.0}, 10.0))
        assert -1.0 <= dec.lambda_max < 0.0

    def test_empty_plan_gives_raw_spectrum(self):
        A = coupling_matrix(star(6))
        dec = controlled_spectrum(A, PinningPlan(6, (0.0,) * 6, 1.0))
        assert abs(dec.lambda_max) < 1e-9

    def test_ceiling_across_sizes_and_gains(self):
        # pinning only the center cannot push the spectrum below -1
        for n in range(3, 21):
            A = coupling_matrix(star(n))
            for eps in (1.0, 10.0, 100.0, 1000.0):
                lam1 = controlled_spectrum(A, plan_explicit(n, {0: eps}, 1.0)).lambda_max
                assert -1.0 - 1e-9 <= lam1 < 0.0

    def test_lambda_max_monotone_in_each_gain(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 10))
            g = random_connected_graph(rng, n)
            A = coupling_matrix(g)
            gains = rng.uniform(0, 3, n)
            gains[rng.integers(0, n)] = 0.0
            base = eig_symmetric(A - np.diag(gains)).lambda_max
            i = int(rng.integers(0, n))
            bumped = gains.copy()
            bumped[i] += rng.uniform(0.1, 2.0)
            after = eig_symmetric(A - np.diag(bumped)).lambda_max
            assert after <= base + 1e-9


class TestGainBounds:
    def test_star_bound_values(self):
        assert star_leaf_gain_bound(9, 1.0) == pytest.approx(8.0 / 7.0, rel=1e-15)
        assert star_leaf_gain_bound(3, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_star_bound_undefined(self):
        with pytest.raises(BoundUndefinedError):
            star_leaf_gain_bound(9, 8.5)
        with pytest.raises(BoundUndefinedError):
            star_leaf_gain_bound(9, 0.0)

    def test_star_bound_sufficiency_spot(self):
        for n, margin in [(3, 1.0), (9, 1.0), (12, 2.5)]:
            eps = star_leaf_gain_bound(n, margin) * 1.01
            lam1 = controlled_spectrum(coupling_matrix(star(n)), leaf_plan(n, eps)).lambda_max
            assert lam1 < -margin

    def test_cluster_bound_values(self):
        assert cluster_leaf_gain_bound(2, 1.0) == pytest.approx(2.0, rel=1e-15)
        assert cluster_leaf_gain_bound(3, 1.0) == pytest.approx(1.5, rel=1e-15)

    def test_cluster_bound_undefined(self):
        with pytest.raises(BoundUndefinedError):
            cluster_leaf_gain_bound(1, 1.0)

    @pytest.mark.parametrize("margin", [np.nan, np.inf, -np.inf], ids=repr)
    def test_non_finite_margin_refused(self, margin):
        # Every comparison with NaN is false, so a NaN margin once passed the
        # checks and came back as a NaN bound.
        with pytest.raises(BoundUndefinedError, match="margin must be finite"):
            star_leaf_gain_bound(9, margin)
        with pytest.raises(BoundUndefinedError, match="margin must be finite"):
            cluster_leaf_gain_bound(2, margin)

    def test_cluster_bound_sufficiency_spot(self):
        g = cluster_stars((3, 3, 3))
        A = coupling_matrix(g)
        eps = cluster_leaf_gain_bound(3, 1.0) * 1.01
        plan = plan_explicit(g.n_nodes, {i: eps for i in range(3, g.n_nodes)}, 1.0)
        assert controlled_spectrum(A, plan).lambda_max < -1.0

    def test_fig5b_gain_clears_cluster_bound(self):
        # shipped cluster scenario gain 2.5 > bound 2 for smallest branch 2
        assert 2.5 > cluster_leaf_gain_bound(2, 1.0)


class TestSchurFeasible:
    def test_star_leaves_true(self):
        A = coupling_matrix(star(9))
        assert schur_feasible(A, range(1, 9), [1.5] * 8, 1.0) is True

    def test_star_center_false(self):
        A = coupling_matrix(star(9))
        for eps in (1.0, 300.0, 1e6):
            assert schur_feasible(A, [0], [eps], 1.0) is False

    def test_small_alpha_true(self, rng):
        g = random_connected_graph(rng, 7)
        A = coupling_matrix(g)
        assert schur_feasible(A, [2, 3], [1.0, 2.0], 1e-6) is True

    def test_alpha_near_the_unpinned_block_is_decided(self):
        # The unpinned block is the center alone, eigenvalue -8, and alpha sits
        # 1e-10 inside it; lambda_1 of the controlled matrix is -7.815.
        A = coupling_matrix(star(9))
        lam1 = np.linalg.eigvalsh(A - np.diag([0.0] + [50.0] * 8))[-1]
        assert lam1 == pytest.approx(-7.815, abs=1e-3)
        assert schur_feasible(A, range(1, 9), [50.0] * 8, 8.0 - 1e-10) is False

    def test_agrees_with_direct_eigen_test(self, rng):
        checked = 0
        while checked < 60:
            n = int(rng.integers(3, 13))
            g = random_connected_graph(rng, n)
            A = coupling_matrix(g)
            k = int(rng.integers(1, n))
            pinned = sorted(rng.choice(n, size=k, replace=False).tolist())
            gains = rng.uniform(0.1, 50.0, k)
            alpha = float(rng.uniform(0.05, 5.0))
            At = A.copy()
            for idx, node in enumerate(pinned):
                At[node, node] -= gains[idx]
            lam1 = eig_symmetric(At).lambda_max
            if abs(lam1 + alpha) < 1e-7:
                continue
            assert schur_feasible(A, pinned, gains, alpha) == (lam1 < -alpha)
            checked += 1

    def test_validates_inputs(self):
        A = coupling_matrix(star(4))
        with pytest.raises(ContractViolationError):
            schur_feasible(A, [], [], 1.0)
        with pytest.raises(ContractViolationError):
            schur_feasible(A, range(4), [1.0] * 4, 1.0)
        with pytest.raises(ContractViolationError):
            schur_feasible(A, [1], [1.0, 2.0], 1.0)


    @pytest.mark.parametrize("A,pinned,gains,message", [
        (np.zeros((0, 0)), [], [], "empty matrix"),
        (coupling_matrix(star(4)), [4], [1.0], "pinned index 4 outside 0..3"),
        (coupling_matrix(star(4)), [1, -1], [1.0, 1.0], "pinned index -1 outside 0..3"),
        (coupling_matrix(star(4)), [1, 2], [1.0, np.nan], "gains must be finite"),
        (coupling_matrix(star(4)), [1], [np.inf], "gains must be finite"),
    ], ids=["empty", "pin-above", "pin-negative", "nan-gain", "inf-gain"])
    def test_refuses_input_naming_it(self, A, pinned, gains, message):
        with pytest.raises(ContractViolationError, match=f"^{re.escape(message)}$"):
            schur_feasible(A, pinned, gains, 1.0)


class TestMinUniformGain:
    def test_star_leaves_reaches_exact_threshold(self):
        A = coupling_matrix(star(9))
        tol = 1e-6
        eps = min_uniform_gain(A, range(1, 9), 1.0, tol)
        # closed form: the threshold is exactly (N-1)/(N-2) = 8/7
        assert eps <= 8.0 / 7.0 + 2 * tol
        assert eps >= 8.0 / 7.0 - tol
        lam1 = eig_symmetric(A - np.diag([0.0] + [eps] * 8)).lambda_max
        assert lam1 < -1.0

    def test_center_infeasible_at_margin_1(self):
        A = coupling_matrix(star(9))
        assert min_uniform_gain(A, [0], 1.0, 1e-6) is None

    def test_center_feasible_at_half_margin(self):
        A = coupling_matrix(star(9))
        eps = min_uniform_gain(A, [0], 0.5, 1e-6)
        assert eps is not None
        lam1 = eig_symmetric(A - np.diag([eps] + [0.0] * 8)).lambda_max
        assert lam1 < -0.5
        # minimality within tolerance
        lam_below = eig_symmetric(A - np.diag([eps - 1e-5] + [0.0] * 8)).lambda_max
        assert lam_below >= -0.5 - 1e-4

    def test_invalid_tol(self):
        with pytest.raises(ContractViolationError):
            min_uniform_gain(coupling_matrix(star(4)), [1], 1.0, 0.0)

    @pytest.mark.parametrize("edges,pinned,margin", [
        # 3-node path pinned at one end, margin 1e-5 inside the limit
        # (3 - sqrt(5)) / 2 set by the unpinned block: answer about 27716.
        ([(0, 1), (1, 2)], [0], (3.0 - 5.0**0.5) / 2.0 - 1e-5),
        # 2-node path pinned at one end: lambda_1 moves by 1e-10 per unit
        # gain near the answer 101020.535.
        ([(0, 1)], [0], 0.99999),
    ])
    def test_unresolvable_gain_raises(self, edges, pinned, margin):
        A = coupling_matrix(Graph.from_edges(len(edges) + 1, edges))
        with pytest.raises(BoundaryCaseError):
            min_uniform_gain(A, pinned, margin, 1e-6)

    def test_below_theorem_bound(self, rng):
        # the minimal gain can only improve on the sufficient bound
        for n in (5, 9, 14):
            A = coupling_matrix(star(n))
            eps = min_uniform_gain(A, range(1, n), 1.0, 1e-9)
            assert eps <= star_leaf_gain_bound(n, 1.0) + 1e-6

    @pytest.mark.parametrize("n,seed", [(30, 1), (33, 2), (36, 3), (39, 4)])
    def test_answer_passes_the_feasibility_test(self, n, seed):
        # The design contract: pinning the smallest-degree half or the three
        # hubs of a scale-free graph, the answer passes the feasibility test
        # and puts the controlled spectrum below -margin.
        g = barabasi_albert(n, 3, 3, seed)
        A = coupling_matrix(g)
        for strategy, count in (("smallest", n // 2), ("largest", 3)):
            pinned = degree_order(g, strategy)[:count]
            gain = min_uniform_gain(A, pinned, 0.5, 1e-6)
            assert gain is not None
            assert schur_feasible(A, pinned, [gain] * count, 0.5) is True
            controlled = A.copy()
            controlled[pinned, pinned] -= gain
            assert np.linalg.eigvalsh(controlled)[-1] < -0.5


def _design_queries():
    """perfbench design_ba's seed-1 queries: (graph, pinned nodes)."""
    rng = np.random.Generator(np.random.PCG64(1))
    queries = []
    for n in (30, 39, 33, 36):
        g = barabasi_albert(n, 3, 3, int(rng.integers(0, 2**63)))
        queries += [(g, degree_order(g, "smallest")[: n // 2]), (g, degree_order(g, "largest")[:3])]
    return queries


def _one_pass_against_two_pass(A, pinned, margin, tol):
    """The one-pass answer meets the two-pass oracle's contract on one instance.

    Both give None together; the one pass raises BoundaryCaseError only
    where the oracle does; answers agree within tol and pass schur_feasible.
    """
    try:
        expected = two_pass_min_uniform_gain(A, pinned, margin, tol)
    except BoundaryCaseError:
        expected = BoundaryCaseError
    try:
        got = min_uniform_gain(A, pinned, margin, tol)
    except BoundaryCaseError:
        assert expected is BoundaryCaseError
        return
    assert (got is None) == (expected is None)
    if got is not None:
        assert schur_feasible(A, pinned, [got] * len(pinned), margin) is True
        if expected is not BoundaryCaseError:
            assert abs(got - expected) <= tol


class TestOnePassMinGain:
    @pytest.mark.parametrize("block", range(6))
    def test_agrees_with_two_pass_oracle(self, block):
        # Seeded random graphs on 2-12 nodes; odd seeds put the margin within
        # 1e-6 inside the limit set by the unpinned block, where the gain
        # grows without bound and roundoff decides the outcome.
        tol = 1e-6
        for seed in range(100 * block, 100 * block + 100):
            rng = np.random.Generator(np.random.PCG64(seed))
            n = int(rng.integers(2, 13))
            A = coupling_matrix(random_connected_graph(rng, n))
            pinned = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
            unpinned = [i for i in range(n) if i not in pinned]
            limit = -np.linalg.eigvalsh(A[np.ix_(unpinned, unpinned)])[-1]
            margin = rng.uniform(0.01, 5.0)
            if seed % 2 and limit > 1e-6:
                margin = limit - rng.uniform(0.0, 1e-6)
            _one_pass_against_two_pass(A, pinned, margin, tol)

    @pytest.mark.parametrize("margin", [0.5, 0.05, 1.0])
    def test_agrees_on_design_queries(self, margin):
        for g, pinned in _design_queries():
            _one_pass_against_two_pass(coupling_matrix(g), pinned, margin, 1e-6)

    @pytest.mark.parametrize("query", range(8))
    def test_one_factorisation_and_one_eigh(self, monkeypatch, query):
        # One Cholesky of M_UU, one eigh of the Schur complement and no
        # eigvalsh; every later Cholesky is a confirmation of the whole
        # controlled matrix.
        calls = []

        def counted(name):
            lapack = getattr(np.linalg, name)

            def call(M, *args, **kwargs):
                calls.append((name, M.shape))
                return lapack(M, *args, **kwargs)

            return call

        for name in ("cholesky", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name))
        g, pinned = _design_queries()[query]
        n, p = g.n_nodes, len(pinned)
        assert min_uniform_gain(coupling_matrix(g), pinned, 0.5, 1e-6) is not None
        assert calls[:2] == [("cholesky", (n - p, n - p)), ("eigh", (p, p))]
        assert 3 <= len(calls) <= 4 and set(calls[2:]) == {("cholesky", (n, n))}


def _pinned_instance(seed, n):
    """Random connected graph on n nodes with a random proper pinned subset."""
    rng = np.random.Generator(np.random.PCG64(seed))
    A = coupling_matrix(random_connected_graph(rng, n))
    k = int(rng.integers(1, n))
    pinned = sorted(rng.choice(n, size=k, replace=False).tolist())
    return rng, A, pinned


def _positive_definite_exact(S):
    """Whether the symmetric float matrix S is positive definite, decided exactly.

    Gaussian elimination in rational arithmetic: S is positive definite
    exactly when every pivot, a ratio of leading principal minors, is positive.
    """
    a = [[Fraction(x) for x in row] for row in S.tolist()]
    n = len(a)
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k + 1, n):
                a[i][j] -= f * a[k][j]
    return True


def _oracle_below(M, level):
    """The documented definiteness predicate, decided by the Jacobi oracle.

    An eigenvalue within 1e-12 * (1 + ||M||_F) of -level counts as not below.
    Where Jacobi's lambda_1 lies within 1e-11 * (1 + ||M||_F) of that shifted
    threshold, ten times its stopping tolerance, its rounding can decide the
    wrong way; there the shifted matrix, formed in floating point as the
    predicate defines it, is tested for definiteness exactly instead.
    """
    fro = np.linalg.norm(M)
    shift = level + 1e-12 * (1.0 + fro)
    lam1 = jacobi_eig(M).lambda_max
    if abs(lam1 + shift) > 1e-11 * (1.0 + fro):
        return lam1 < -shift
    shifted = -M
    shifted[np.diag_indices_from(shifted)] -= shift
    return _positive_definite_exact(shifted)


def _oracle_min_gain(A, pinned, margin, tol):
    """min_uniform_gain's bisection with the Jacobi oracle as the predicate."""
    unpinned = [i for i in range(A.shape[0]) if i not in pinned]
    if not _oracle_below(A[np.ix_(unpinned, unpinned)], margin):
        return None

    def satisfied(eps):
        a_ctrl = A.copy()
        a_ctrl[pinned, pinned] -= eps
        return _oracle_below(a_ctrl, margin)

    if satisfied(0.0):
        return 0.0
    hi = 1.0
    while not satisfied(hi):
        hi *= 2.0
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if satisfied(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestDefinitenessOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        margin=st.floats(0.01, 5.0),
    )
    def test_below_agrees_with_jacobi(self, seed, n, margin):
        rng, A, pinned = _pinned_instance(seed, n)
        A[pinned, pinned] -= rng.uniform(0.0, 50.0, len(pinned))
        lam1 = jacobi_eig(A).lambda_max
        assume(abs(lam1 + margin) > 1e-9)
        assert _below(A, margin) == (lam1 < -margin)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 9),
        margin=st.floats(0.05, 2.0),
    )
    # lambda_1 is flat in the gain near the answer 128, so the slack moves
    # the answer by about 2e-6, more than tol, against a slack-free bisection.
    @example(seed=0, n=2, margin=0.9921875)
    # Near the answer 101020.535 lambda_1 moves by 1e-10 per unit gain, so a
    # rounding of 2e-16 in lambda_1 moves the answer by 2e-6: the gain cannot
    # be resolved to tol and BoundaryCaseError is the expected outcome.
    @example(seed=0, n=2, margin=0.99999)
    def test_min_gain_agrees_with_jacobi_bisection(self, seed, n, margin):
        _, A, pinned = _pinned_instance(seed, n)
        unpinned = [i for i in range(n) if i not in pinned]
        block = jacobi_eig(A[np.ix_(unpinned, unpinned)]).lambda_max
        assume(abs(block + margin) > 1e-9)
        tol = 1e-6
        expected = _oracle_min_gain(A, pinned, margin, tol)
        try:
            got = min_uniform_gain(A, pinned, margin, tol)
        except BoundaryCaseError:
            # Only where the oracle shows lambda_1 all but flat over one tol.
            assert expected is not None
            at, above = A.copy(), A.copy()
            at[pinned, pinned] -= expected
            above[pinned, pinned] -= expected + tol
            move = jacobi_eig(at).lambda_max - jacobi_eig(above).lambda_max
            assert move < 1e-12 * (1.0 + np.linalg.norm(at))
            return
        if expected is None:
            assert got is None
        else:
            assert got is not None and abs(got - expected) <= tol
            a_ctrl = A.copy()
            a_ctrl[pinned, pinned] -= got
            assert jacobi_eig(a_ctrl).lambda_max < -margin

    def test_decisions_make_no_eigendecomposition(self, monkeypatch):
        def refuse(M):
            raise AssertionError("eig_symmetric called")

        monkeypatch.setattr(pinnet.spectral, "eig_symmetric", refuse)
        A = coupling_matrix(star(9))
        assert min_uniform_gain(A, range(1, 9), 1.0, 1e-6) is not None
        assert min_uniform_gain(A, [0], 1.0, 1e-6) is None
        assert schur_feasible(A, range(1, 9), [1.5] * 8, 1.0) is True
        assert schur_feasible(A, [0], [300.0], 1.0) is False
        assert schur_feasible(A, range(1, 9), [50.0] * 8, 8.0 - 1e-10) is False


class TestBlockSplit:
    @pytest.mark.parametrize(
        "pin", [1.5, 1.9, 2.0, np.float64(1.0), True, np.bool_(True), "1"], ids=repr
    )
    def test_non_integral_pin_refused(self, pin):
        A = coupling_matrix(star(9))
        with pytest.raises(ContractViolationError, match=re.escape(repr(pin))):
            schur_feasible(A, [pin], [3.0], 0.5)
        with pytest.raises(ContractViolationError, match=re.escape(repr(pin))):
            min_uniform_gain(A, [pin, 3], 0.5, 1e-6)

    def test_duplicate_pin_refused(self):
        A = coupling_matrix(star(9))
        with pytest.raises(ContractViolationError, match="distinct"):
            min_uniform_gain(A, [1, 2, 1], 0.5, 1e-6)
        with pytest.raises(ContractViolationError, match="distinct"):
            schur_feasible(A, [1, 1], [3.0, 3.0], 0.5)

    def test_infinite_alpha_refused(self):
        with pytest.raises(ContractViolationError, match="alpha must be finite"):
            schur_feasible(coupling_matrix(star(9)), range(1, 9), [1.5] * 8, np.inf)

    def test_infinite_margin_refused(self):
        with pytest.raises(ContractViolationError, match="margin must be finite"):
            min_uniform_gain(coupling_matrix(star(9)), [0], np.inf, 1e-6)

    def test_infinite_tol_refused(self):
        with pytest.raises(ContractViolationError, match="tol must be finite"):
            min_uniform_gain(coupling_matrix(star(9)), range(1, 9), 1.0, np.inf)

    def test_gain_is_a_python_float(self):
        # The answer is summed from NumPy scalars and must come back a Python float.
        for seed in range(20):
            _, A, pinned = _pinned_instance(seed, 2 + seed % 8)
            try:
                gain = min_uniform_gain(A, pinned, 0.5, 1e-6)
            except BoundaryCaseError:
                continue
            assert gain is None or type(gain) is float

    def test_gains_follow_the_pinned_order(self):
        # Path 0-1-2: node 1 gets gain 50 and node 0 gain 0.1, listed in that
        # order; lambda_1 is -0.977 so, and -0.404 with the gains swapped.
        A = coupling_matrix(Graph.from_edges(3, [(0, 1), (1, 2)]))
        assert eig_symmetric(A - np.diag([0.1, 50.0, 0.0])).lambda_max < -0.5
        assert schur_feasible(A, [1, 0], [50.0, 0.1], 0.5) is True
        assert schur_feasible(A, [0, 1], [0.1, 50.0], 0.5) is True
        assert schur_feasible(A, [0, 1], [50.0, 0.1], 0.5) is False

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 9),
        margin=st.floats(0.05, 2.0),
    )
    def test_relabelling_keeps_decisions(self, seed, n, margin):
        # Node i of A is node perm[i] of B; the pins and their gains move with it.
        rng, A, pinned = _pinned_instance(seed, n)
        perm = rng.permutation(n)
        B = np.empty_like(A)
        B[np.ix_(perm, perm)] = A
        moved = [int(perm[i]) for i in pinned]
        gains = rng.uniform(0.1, 20.0, len(pinned))
        tol = 1e-6
        try:
            feasible = schur_feasible(A, pinned, gains, margin), schur_feasible(B, moved, gains, margin)
            gain = min_uniform_gain(A, pinned, margin, tol), min_uniform_gain(B, moved, margin, tol)
        except BoundaryCaseError:
            return
        assert feasible[0] == feasible[1]
        assert (gain[0] is None) == (gain[1] is None)
        if gain[0] is not None:
            assert abs(gain[0] - gain[1]) <= tol

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        margin=st.floats(0.05, 2.0),
    )
    def test_pin_order_changes_nothing(self, seed, n, margin):
        # The pins in another order, each gain moved with its pin, name the
        # same controlled matrix, tested in node order: decisions and answers
        # are bit-identical, BoundaryCaseError's message included.
        rng, A, pinned = _pinned_instance(seed, n)
        perm = rng.permutation(len(pinned))
        shuffled = [pinned[i] for i in perm]

        def answer(pins):
            try:
                return repr(min_uniform_gain(A, pins, margin, 1e-6))
            except BoundaryCaseError as exc:
                return str(exc)

        gain = answer(pinned)
        assert answer(shuffled) == gain
        trials = [rng.uniform(0.0, 50.0, len(pinned))]
        if gain != "None" and not gain.startswith("minimal gain"):
            g = float(gain)
            trials += [np.full(len(pinned), v) for v in (g, np.nextafter(g, 0.0), g * (1 - 1e-9))]
        for gains in trials:
            expected = schur_feasible(A, pinned, gains, margin)
            assert schur_feasible(A, shuffled, gains[perm], margin) is expected


class TestDiagBounds:
    def test_star_9(self):
        rep = diag_bounds_check(coupling_matrix(star(9)))
        assert rep.diag_within_spectrum is True
        assert rep.lambda2_bound_holds is True

    def test_identity(self):
        rep = diag_bounds_check(np.eye(3))
        assert rep.diag_within_spectrum is True
        assert rep.lambda2_bound_holds is None

    def test_cluster(self):
        rep = diag_bounds_check(coupling_matrix(cluster_stars((2, 3, 4))))
        assert rep.diag_within_spectrum is True
        assert rep.lambda2_bound_holds is True

    def test_star_two_largest_diagonals(self):
        # a11 + a22 = -1 + -1 = -2 <= lambda_2 = -1 for the star
        A = coupling_matrix(star(9))
        dec = eig_symmetric(A)
        top_two = np.sort(np.diag(A))[::-1][:2]
        assert top_two[0] + top_two[1] <= dec.eigenvalues[1] + 1e-9


class TestGershgorin:
    def test_coupling_matrices(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(2, 12)))
            assert gershgorin_check(coupling_matrix(g))

    def test_diagonal_matrix(self):
        assert gershgorin_check(np.diag([5.0, -3.0]))

    def test_controlled_star(self):
        A = coupling_matrix(star(9))
        At = A - np.diag([0.0] + [1.5] * 8)
        assert gershgorin_check(At)


class TestMarginAndReport:
    def test_check_margin(self):
        A = coupling_matrix(star(9))
        sm = check_margin(A, leaf_plan(9, 1.5, 10.0), 1.0)
        assert sm.satisfied and sm.lambda_max < -1.0
        sm2 = check_margin(A, plan_explicit(9, {0: 300.0}, 10.0), 1.0)
        assert not sm2.satisfied
        assert sm2.satisfied == (sm2.lambda_max < -sm2.margin)

    def test_evaluate_plan(self):
        A = coupling_matrix(star(9))
        rep = evaluate_plan(A, leaf_plan(9, 1.5, 10.0))
        assert rep.cf == 120.0
        assert rep.pinned_count == 8
        assert rep.lambda_max_controlled < -1.0
