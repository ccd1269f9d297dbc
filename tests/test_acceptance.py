"""Acceptance suite: one test per shipping criterion, run at the canonical
desk-scale configuration (T=0.5, theta=0.1, r=2, bump kernel, heavy-tailed
rational signal with spectral rate a=1.5, 41-point time grid on [-2, 2]).

Each test prints one PASS line; run with `pytest -s tests/test_acceptance.py`
to see them.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from horizon.config import ClassMembershipError
from horizon.kernels import TargetKernel
from horizon.polynomials import alpha_closed_form, projection_psi, taylor_alpha_bound, taylor_psi
from horizon.predictor import (
    PredictorKernel,
    error_bound_parts,
    moment_table,
    predict_values,
    target_values,
    transfer_norms,
)
from horizon.signals import chirp_noise, class_norm, noise_norm, poisson_signal
from horizon.spectral_core import default_omega_max

from oracles import (
    assembled_spectrum,
    derivative_spectrum,
    frequency_grid,
    h_spectrum,
    kernel_derivative,
    richardson_derivative,
    weighted_moments,
)

T, TH, R, A = 0.5, 0.1, 2.0, 1.5


@pytest.fixture(scope="module")
def kernel():
    return TargetKernel(T, TH)


@pytest.fixture(scope="module")
def signal():
    return poisson_signal(A)


@pytest.fixture(scope="module")
def tgrid():
    return np.linspace(-2.0, 2.0, 41)


@pytest.fixture(scope="module")
def grid():
    return frequency_grid(default_omega_max(R), 2048)


@pytest.fixture(scope="module")
def predictors(kernel):
    return {d: PredictorKernel(kernel, taylor_psi(T, d)) for d in (0, 2, 4, 6, 10)}


@pytest.fixture(scope="module")
def predictions(predictors, signal, tgrid):
    y = target_values(predictors[2].h, signal, tgrid)
    pks = [predictors[d] for d in (2, 6, 10)]
    table = moment_table(predictors[2].h, signal, tgrid, 10)
    parts = error_bound_parts(pks, signal, R)
    sups = {pk.d: float(np.max(np.abs(y - predict_values(pk, table)))) for pk in pks}
    bounds = {pk.d: bound for pk, (_, _, bound) in zip(pks, parts)}
    return y, sups, bounds


def test_criterion_1_taylor_alpha_bound():
    for d in range(2, 13):
        alpha = alpha_closed_form(taylor_psi(T, d), T, R)
        bound = taylor_alpha_bound(T, R, d)
        assert alpha <= bound + 1e-12, (d, alpha, bound)
    b10 = taylor_alpha_bound(T, R, 10)
    assert b10 == pytest.approx(3.815e-6, rel=1e-3)
    print(f"ACCEPTANCE 1 PASS: taylor alpha within 2T^d/r^(d-1) for d=2..12 "
          f"(bound at d=10: {b10:.3e})")


def test_criterion_2_projection_optimality():
    alphas = []
    for d in range(0, 13):
        a_proj = alpha_closed_form(projection_psi(T, R, d), T, R)
        a_tay = alpha_closed_form(taylor_psi(T, d), T, R)
        assert a_proj <= a_tay + 1e-12, (d, a_proj, a_tay)
        alphas.append(alpha_closed_form(projection_psi(T, R, d), T, R))
    for d, (a1, a2) in enumerate(zip(alphas, alphas[1:])):
        assert a2 <= a1 + 1e-12, (d, a1, a2)
    print(f"ACCEPTANCE 2 PASS: projection alpha below taylor and non-increasing "
          f"for d=0..12 (alpha_12 = {alphas[-1]:.3e})")


def test_criterion_3_central_identity(kernel, predictors, grid):
    H = h_spectrum(kernel, grid.nodes)
    usable = np.abs(H) > 1e-3 * np.max(np.abs(H))
    candidates = grid.nodes[usable]
    omegas = candidates[np.linspace(0, candidates.size - 1, 50).astype(int)]
    H50 = h_spectrum(kernel, omegas)
    worst = 0.0
    for d in (0, 4, 10):
        pk = predictors[d]
        lhs = assembled_spectrum(pk, omegas)
        rhs = np.exp(-1j * omegas * T) * pk.psi.at_iw(omegas) * H50
        rel = float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))
        assert rel < 1e-8, (d, rel)
        worst = max(worst, rel)
    print(f"ACCEPTANCE 3 PASS: transform of the assembled kernel matches "
          f"e^(-iwT) psi H at 50 frequencies for d in (0,4,10); worst rel {worst:.2e}")


def test_criterion_4_error_bound_validity(predictions):
    _, sups, bounds = predictions
    for d in (2, 6, 10):
        assert sups[d] <= bounds[d] + 1e-8, (d, sups[d], bounds[d])
    print("ACCEPTANCE 4 PASS: sup-grid error within (1/2pi) sqrt(alpha beta) "
          + ", ".join(f"d={d}: {sups[d]:.2e} <= {bounds[d]:.2e}" for d in (2, 6, 10)))


def test_criterion_5_convergence(predictions):
    _, sups, _ = predictions
    assert sups[10] <= sups[2] / 10.0, sups
    print(f"ACCEPTANCE 5 PASS: sup error shrinks {sups[2] / sups[10]:.0f}x "
          f"from d=2 ({sups[2]:.2e}) to d=10 ({sups[10]:.2e})")


def test_criterion_6_noise_robustness(kernel, predictors, signal, tgrid):
    eta_unit = chirp_noise((6.0, 12.0), 1.0)
    y = target_values(kernel, signal, tgrid)
    pks = [predictors[d] for d in (4, 10)]
    table0, table_eta = (moment_table(kernel, x, tgrid, 10) for x in (signal, eta_unit))
    sweep = zip(pks, error_bound_parts(pks, signal, R), transfer_norms(pks, 1), transfer_norms(pks, 2))
    slopes = {}
    for pk, (_, _, eps_bound), *norms in sweep:
        d = pk.d
        y_hat0 = predict_values(pk, table0)
        conv_eta = predict_values(pk, table_eta)
        for p, (n_hhat, n_h) in zip((1, 2), norms):
            unit = noise_norm(eta_unit, p)
            slope = (n_hhat + n_h) / (2.0 * math.pi)
            slopes[(d, p)] = slope
            for nu in (0.0, 0.01, 0.1):
                scale = nu / unit
                total = float(np.max(np.abs(y - y_hat0 - scale * conv_eta)))
                bound = eps_bound + nu * slope
                assert total <= bound + 1e-8, (d, p, nu, total, bound)
    for p in (1, 2):
        b4 = 0.1 * slopes[(4, p)]
        b10 = 0.1 * slopes[(10, p)]
        assert b10 > b4, (p, b4, b10)
    print("ACCEPTANCE 6 PASS: noisy error within eps + (nu/2pi)(|Hhat|_q + |H|_q) "
          f"for nu in (0, 0.01, 0.1), p in (1,2); bound growth d=4 -> d=10: "
          f"{0.1 * slopes[(4, 2)]:.2e} -> {0.1 * slopes[(10, 2)]:.2e} (p=2)")


def test_criterion_7_derivative_correctness(kernel):
    ts = np.linspace(-T + 0.05, TH - 0.02, 20)
    for k in range(1, 7):
        scale = float(np.max(np.abs(kernel_derivative(kernel, k, ts))))
        for t in ts:
            fd = richardson_derivative(lambda s: kernel_derivative(kernel, k - 1, s), t, h=1e-5)
            assert abs(fd - kernel_derivative(kernel, k, t)) <= 1e-5 * scale
    omegas = np.array([0.1, 0.5, 1.0, 3.0, 10.0])
    H = h_spectrum(kernel, omegas)
    worst = 0.0
    for k in range(1, 7):
        lhs = derivative_spectrum(kernel, k, omegas)
        rhs = (1j * omegas) ** k * H
        rel = float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))
        assert rel < 1e-8, (k, rel)
        worst = max(worst, rel)
    print(f"ACCEPTANCE 7 PASS: derivatives k=1..6 match Richardson differences at "
          f"1e-5 and the frequency cross-check at 1e-8 (worst rel {worst:.2e})")


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")
def test_criterion_8_moment_layer():
    # the library's exact moments (``unit_rate_moments``), rounded once
    worst = 0.0
    for r in (0.5, 2.0):
        mono = weighted_moments(0.0, r, 12)[0]
        for k in range(0, 25):
            if k % 2:  # omega^k is odd: the two halves cancel exactly
                assert mono[k] == 0.0
                continue
            ref, _ = integrate.quad(lambda om: om**k * math.exp(-r * om),
                                    0, (k + 80) / r, epsabs=0, epsrel=1e-13, limit=400)
            rel = abs(mono[k] - 2 * ref) / (2 * ref)
            assert rel < 1e-10, (k, r, rel)
            worst = max(worst, rel)
    Tq = 0.5
    expo = weighted_moments(Tq, 2.0, 24)[1]
    for k in range(0, 25):
        re_ref, _ = integrate.quad(lambda om: om**k * math.cos(om * Tq) * math.exp(-2.0 * om),
                                   0, (k + 80) / 2.0, epsabs=0, epsrel=1e-13, limit=400)
        im_ref, _ = integrate.quad(lambda om: om**k * math.sin(om * Tq) * math.exp(-2.0 * om),
                                   0, (k + 80) / 2.0, epsabs=0, epsrel=1e-13, limit=400)
        ref = complex(re_ref * (1 + (-1) ** k), im_ref * (1 - (-1) ** k))
        rel = abs(expo[k] - ref) / abs(ref)
        assert rel < 1e-10, (k, rel)
        worst = max(worst, rel)
    print(f"ACCEPTANCE 8 PASS: closed-form moments match adaptive quadrature to "
          f"1e-10 for k <= 24 (worst rel {worst:.2e})")


def test_criterion_9_causality(predictors, signal):
    pk = predictors[4]
    assert pk.tau == T + TH
    highs, lows = [], []

    def spy(kmax, ts):
        ts = np.asarray(ts, dtype=float)
        highs.append(float(ts.max()))
        lows.append(float(ts.min()))
        return signal.derivatives(kmax, ts)

    x = replace(signal, kind="spy", params={}, derivatives=spy)
    for t0 in (-1.0, 0.0, 0.7):
        predict_values(pk, moment_table(pk.h, x, np.array([t0]), pk.d))
        assert max(highs) < t0, "future sample accessed"
        assert min(lows) > t0 - pk.tau, "window longer than tau"
        highs.clear()
        lows.clear()
    print("ACCEPTANCE 9 PASS: prediction reads no sample beyond t and stays "
          f"inside the window of length tau = {pk.tau}")


def test_criterion_10_class_gate(kernel):
    rep = class_norm(poisson_signal(1.5), R)
    assert rep.member and rep.norm**2 == pytest.approx(0.4, abs=1e-10)
    pk = PredictorKernel(kernel, taylor_psi(T, 2))
    with pytest.raises(ClassMembershipError):
        error_bound_parts([pk], poisson_signal(0.9), R)
    print("ACCEPTANCE 10 PASS: class norm 0.4 exact for a=1.5, r=2; divergence "
          "flagged for a=0.9 under the energy weight")
