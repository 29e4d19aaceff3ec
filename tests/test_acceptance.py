"""Acceptance gate: every shipped claim checked at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion (lines also appear in captured output on failure).
"""

import math
import time

import numpy as np
from conftest import random_connected_graph
from dynamics_oracle import (
    field_at,
    integrate_one,
    linear_field,
    modal_equivalence_check,
    quad_condition_sample,
)
from pinnet.dynamics import (
    NetworkSystem,
    chen_equilibrium,
    chen_field,
    mode_threshold,
)
from pinnet.harness import GAMMA, build_system, run_scenarios
from pinnet.pinning import PinningPlan
from pinnet.scenarios import FAMILIES, get_scenario
from pinnet.spectral import (
    cluster_leaf_gain_bound,
    controlled_spectrum,
    eig_symmetric,
    schur_feasible,
    star_leaf_gain_bound,
)
from pinnet.topology import cluster_stars, coupling_matrix, star
from spectral_oracle import spectral_abscissa_3

CAPTION_CFS = [
    3000.0, 120.0,            # fig2a, fig2b
    3500.0, 84.0,             # fig3a, fig3b
    9000.0, 225.0,            # fig5a, fig5b
    0.0, 0.0, 9000.0, 18000.0,  # fig6a..fig6d
    330.0,                    # fig7
    12000.0, 528.0,           # fig8a, fig8b
    660.0, 660.0, 660.0,      # fig9a, fig9b, fig9c
]

FAMILY_ORDER = ["fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9"]

_t0 = {}


def _start(num):
    _t0[num] = time.time()


def _report(num, description, ok):
    elapsed = time.time() - _t0.get(num, time.time())
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} ({elapsed:6.2f}s) — {description}")
    assert ok, f"criterion {num}: {description}"


def leaf_pinned_star_spectrum(n, eps):
    A = coupling_matrix(star(n))
    gains = [0.0] + [eps] * (n - 1)
    return eig_symmetric(A - np.diag(gains)).lambda_max


def test_01_caption_cost_values():
    _start(1)
    cfs = []
    for family in FAMILY_ORDER:
        for name in FAMILIES[family]:
            cfs.append(run_scenarios([get_scenario(name)], simulate=False)[0].cf)
    _report(1, f"reproduce CF values exactly {CAPTION_CFS}", cfs == CAPTION_CFS)


def test_02_star_spectrum_closed_form():
    _start(2)
    ok = True
    for n in (3, 9, 20):
        lam = eig_symmetric(coupling_matrix(star(n))).eigenvalues
        expected = np.concatenate([[0.0], -np.ones(n - 2), [-float(n)]])
        ok &= float(np.max(np.abs(lam - expected))) < 1e-8
    _report(2, "star spectrum {0, -1 x (N-2), -N} within 1e-8 for N in {3,9,20}", ok)


def test_03_center_pin_ceiling():
    _start(3)
    A = coupling_matrix(star(9))
    ok = True
    for eps in (1.0, 10.0, 100.0, 300.0, 1000.0):
        lam1 = eig_symmetric(A - np.diag([eps] + [0.0] * 8)).lambda_max
        ok &= -1.0 - 1e-9 <= lam1 < 0.0
    _report(3, "center-only pinning of star(9) keeps lambda_1 in [-1, 0)", ok)


def test_04_star_bound_sufficiency_randomized():
    _start(4)
    rng = np.random.Generator(np.random.PCG64(41))
    ok = True
    for _ in range(200):
        n = int(rng.integers(3, 41))
        margin = float(rng.uniform(1e-3, n - 1.5))
        delta = float(rng.uniform(0.0, 1.0)) or 1e-6
        eps = star_leaf_gain_bound(n, margin) * (1.0 + delta)
        ok &= leaf_pinned_star_spectrum(n, eps) < -margin
    _report(4, "200 random star instances: gain above bound forces lambda_1 < -margin", ok)


def test_05_cluster_bound_sufficiency_randomized():
    _start(5)
    rng = np.random.Generator(np.random.PCG64(51))
    ok = True
    for _ in range(200):
        k = int(rng.integers(1, 6))
        margin = float(rng.uniform(1e-3, 6.5))
        lo = int(math.ceil(margin)) + 1
        sizes = tuple(sorted(int(rng.integers(lo, 9)) for _ in range(k)))
        g = cluster_stars(sizes)
        A = coupling_matrix(g)
        delta = float(rng.uniform(0.0, 1.0)) or 1e-6
        eps = cluster_leaf_gain_bound(sizes[0], margin) * (1.0 + delta)
        gains = [0.0] * k + [eps] * (g.n_nodes - k)
        lam1 = eig_symmetric(A - np.diag(gains)).lambda_max
        ok &= lam1 < -margin
    _report(5, "200 random cluster instances: gain above bound forces lambda_1 < -margin", ok)


def test_06_schur_equivalence_randomized():
    _start(6)
    rng = np.random.Generator(np.random.PCG64(61))
    checked = 0
    disagreements = 0
    while checked < 200:
        n = int(rng.integers(2, 13))
        g = random_connected_graph(rng, n)
        A = coupling_matrix(g)
        k = int(rng.integers(1, n))
        pinned = sorted(rng.choice(n, size=k, replace=False).tolist())
        gains = rng.uniform(1e-6, 50.0, k)
        alpha = float(rng.uniform(1e-3, 5.0))
        At = A.copy()
        for idx, node in enumerate(pinned):
            At[node, node] -= gains[idx]
        lam1 = eig_symmetric(At).lambda_max
        if abs(lam1 + alpha) < 1e-7:
            continue
        if schur_feasible(A, pinned, gains, alpha) != (lam1 < -alpha):
            disagreements += 1
        checked += 1
    _report(6, "Schur block test agrees with direct eigenvalue test on 200 graphs",
            disagreements == 0)


def test_07_modal_decomposition():
    _start(7)
    rng = np.random.Generator(np.random.PCG64(71))
    worst = 0.0
    for _ in range(20):
        g = random_connected_graph(rng, 5)
        A = coupling_matrix(g)
        gains = rng.uniform(0.0, 2.0, 5)
        At = A - np.diag(gains)
        F = rng.uniform(-1.0, 1.0, (3, 3))
        c = float(rng.uniform(0.1, 1.0))
        e0 = rng.uniform(-1.0, 1.0, (5, 3))
        worst = max(worst, modal_equivalence_check(F, At, c, GAMMA, e0, 1e-3, 1.0))
    _report(7, f"full vs decoupled-mode linear integration deviates {worst:.2e} < 1e-6",
            worst < 1e-6)


def test_08_rk4_order_on_chen():
    _start(8)
    from pinnet.topology import Graph
    sys = NetworkSystem(
        chen_field(), coupling_matrix(Graph(1, frozenset())), np.ones(3), chen_equilibrium(),
    )
    x0 = chen_equilibrium() + np.array([0.5, -0.3, 0.2])
    ends = []
    for h in (2e-3, 1e-3, 5e-4):
        res = integrate_one(sys, PinningPlan(1, (0.0,), 0.0), x0[None, :], h, 1.0, record_every=1)
        ends.append(res.states[-1, 0])
    e1 = np.linalg.norm(ends[0] - ends[1])
    e2 = np.linalg.norm(ends[1] - ends[2])
    order = math.log2(e1 / e2)
    _report(8, f"measured RK4 convergence exponent {order:.3f} in [3.7, 4.3]",
            3.7 <= order <= 4.3)


def test_09_chen_equilibrium():
    _start(9)
    dyn = chen_field()
    printed = float(np.linalg.norm(field_at(dyn, np.array([7.9373, 7.9373, 21.0]))))
    exact = float(np.linalg.norm(field_at(dyn, np.array([math.sqrt(63.0)] * 2 + [21.0]))))
    abscissa = spectral_abscissa_3(dyn.jacobian(chen_equilibrium()))
    ok = printed < 1e-3 and exact < 1e-12 and abscissa > 0.0
    _report(9, f"|f(printed s)|={printed:.2e} < 1e-3, |f(exact s)|={exact:.2e} < 1e-12, "
            f"abscissa {abscissa:.3f} > 0", ok)


def test_10_headline_star_comparison(shipped_rows):
    _start(10)
    row_a, row_b = shipped_rows["fig2a"], shipped_rows["fig2b"]
    sync_a = math.inf if row_a.sync_time is None else row_a.sync_time
    sync_b = math.inf if row_b.sync_time is None else row_b.sync_time
    ok = row_b.cf < row_a.cf and sync_b < sync_a
    _report(10, f"leaf pinning: CF {row_b.cf:g} < {row_a.cf:g} and "
            f"sync {sync_b:g} < {sync_a:g}", ok)


def test_11_stability_consistency_star_cluster(shipped_rows):
    _start(11)
    mismatches = []
    names = ("fig2a", "fig2b", "fig3a", "fig3b", "fig5a", "fig5b")
    for name in names:
        row = shipped_rows[name]
        scenario = get_scenario(name)
        g = scenario.topology.build()
        sys_net, plan = build_system(g), scenario.plan.build(g)
        sigma = mode_threshold(sys_net)
        lam1 = controlled_spectrum(sys_net.coupling, plan).lambda_max
        predicted = plan.coupling_strength * lam1 < sigma
        observed = row.outcome == "synchronized"
        if predicted != observed:
            mismatches.append(name)
    _report(11, f"E -> 0 iff c*lambda_1 < sigma* on 6 star/cluster scenarios "
            f"(mismatches: {mismatches})", not mismatches)


def test_12_quad_sampler_calibration():
    _start(12)
    rng = np.random.Generator(np.random.PCG64(121))
    box = (np.full(3, -1.0), np.full(3, 1.0))
    ok = True
    worst_rel = 0.0
    for i in range(5):
        F = rng.uniform(-1.0, 1.0, (3, 3))
        sym = 0.5 * (F + F.T)
        F -= (np.max(np.linalg.eigvalsh(sym)) + 1.0) * np.eye(3)
        mu_true = -float(np.max(np.linalg.eigvalsh(0.5 * (F + F.T))))
        rep = quad_condition_sample(
            linear_field(F), np.eye(3), 0.0, 1.0, np.ones(3), box, 10000, seed=1200 + i
        )
        rel = abs(rep.mu_estimate - mu_true) / abs(mu_true)
        worst_rel = max(worst_rel, rel)
        ok &= rep.holds_on_samples and rel <= 0.05
    _report(12, f"quad sampler matches analytic mu within {worst_rel:.2%} (<= 5%)", ok)
