"""Acceptance suite: one test per shipping criterion, run at the canonical
desk-scale configuration (T=0.5, theta=0.1, r=2, bump kernel, heavy-tailed
rational signal with spectral rate a=1.5, 41-point time grid on [-2, 2]).

Each test prints one PASS line; run with `pytest -s tests/test_acceptance.py`
to see them.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from horizon import (
    ClassMembershipError,
    SpectralGrid,
    TimeGrid,
    alpha_closed_form,
    build_predictor,
    bump_kernel,
    chirp_noise,
    class_norm,
    error_bound_parts,
    exponential_moment,
    h_spectrum,
    moment_tables,
    monomial_moment,
    noise_norm,
    poisson_signal,
    predict_values,
    projection_psi,
    target_values,
    taylor_alpha_bound,
    taylor_psi,
    transfer_norms,
)
from horizon.signals import Signal

from oracles import assembled_spectrum_mp, derivative_spectrum, richardson_derivative

T, TH, R, A = 0.5, 0.1, 2.0, 1.5


@pytest.fixture(scope="module")
def kernel():
    return bump_kernel(T, TH)


@pytest.fixture(scope="module")
def signal():
    return poisson_signal(A)


@pytest.fixture(scope="module")
def tgrid():
    return TimeGrid(-2.0, 2.0, 41)


@pytest.fixture(scope="module")
def grid():
    return SpectralGrid.for_rate(R, 2048)


@pytest.fixture(scope="module")
def predictors(kernel):
    return {d: build_predictor(kernel, taylor_psi(T, d)) for d in (0, 2, 4, 6, 10)}


@pytest.fixture(scope="module")
def predictions(predictors, signal, tgrid):
    y = target_values(predictors[2].h, signal, tgrid.nodes)
    pks = [predictors[d] for d in (2, 6, 10)]
    tables = moment_tables(pks, signal, tgrid.nodes)
    parts = error_bound_parts(pks, signal, R)
    sups = {pk.d: float(np.max(np.abs(y - predict_values(pk, table)))) for pk, table in zip(pks, tables)}
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
        # the double route is refused where roundoff would dominate (d = 10)
        lhs = assembled_spectrum_mp(pk, omegas) if pk.needs_extended() else pk.spectrum(omegas)
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
    y = target_values(kernel, signal, tgrid.nodes)
    pks = [predictors[d] for d in (4, 10)]
    sweep = zip(pks, moment_tables(pks, signal, tgrid.nodes), moment_tables(pks, eta_unit, tgrid.nodes),
                error_bound_parts(pks, signal, R), transfer_norms(pks, 1), transfer_norms(pks, 2))
    slopes = {}
    for pk, table0, table_eta, (_, _, eps_bound), *norms in sweep:
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
        scale = float(np.max(np.abs(kernel.derivative(k, ts))))
        for t in ts:
            fd = richardson_derivative(lambda s: kernel.derivative(k - 1, s), t, h=1e-5)
            assert abs(fd - kernel.derivative(k, t)) <= 1e-5 * scale
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
    worst = 0.0
    for r in (0.5, 2.0):
        for k in range(0, 25):
            ref, _ = integrate.quad(lambda om: om**k * math.exp(-r * om),
                                    0, (k + 80) / r, epsabs=0, epsrel=1e-13, limit=400)
            rel = abs(monomial_moment(k, r) - 2 * ref) / (2 * ref)
            assert rel < 1e-10, (k, r, rel)
            worst = max(worst, rel)
    Tq = 0.5
    for k in range(0, 25):
        re_ref, _ = integrate.quad(lambda om: om**k * math.cos(om * Tq) * math.exp(-2.0 * om),
                                   0, (k + 80) / 2.0, epsabs=0, epsrel=1e-13, limit=400)
        im_ref, _ = integrate.quad(lambda om: om**k * math.sin(om * Tq) * math.exp(-2.0 * om),
                                   0, (k + 80) / 2.0, epsabs=0, epsrel=1e-13, limit=400)
        ref = complex(re_ref * (1 + (-1) ** k), im_ref * (1 - (-1) ** k))
        val = exponential_moment(k, 2.0, Tq)
        rel = abs(val - ref) / abs(ref)
        assert rel < 1e-10, (k, rel)
        worst = max(worst, rel)
    print(f"ACCEPTANCE 8 PASS: closed-form moments match adaptive quadrature to "
          f"1e-10 for k <= 24 (worst rel {worst:.2e})")


def test_criterion_9_causality(predictors, signal):
    pk = predictors[4]
    assert pk.tau == T + TH
    highs, lows = [], []

    def spy(ts):
        ts = np.asarray(ts, dtype=float)
        highs.append(float(ts.max()))
        lows.append(float(ts.min()))
        return signal.time(ts)

    x = Signal(kind="spy", params={}, time=spy)
    for t0 in (-1.0, 0.0, 0.7):
        predict_values(pk, moment_tables([pk], x, np.array([t0]))[0])
        assert max(highs) < t0, "future sample accessed"
        assert min(lows) > t0 - pk.tau, "window longer than tau"
        highs.clear()
        lows.clear()
    print("ACCEPTANCE 9 PASS: prediction reads no sample beyond t and stays "
          f"inside the window of length tau = {pk.tau}")


def test_criterion_10_class_gate(kernel):
    rep = class_norm(poisson_signal(1.5), R)
    assert rep.norm_sq == pytest.approx(0.4, abs=1e-10)
    rep_bad = class_norm(poisson_signal(0.9), R, sign=+1)
    assert not rep_bad.member and rep_bad.norm == math.inf
    pk = build_predictor(kernel, taylor_psi(T, 2))
    with pytest.raises(ClassMembershipError):
        error_bound_parts([pk], poisson_signal(0.9), R)
    print("ACCEPTANCE 10 PASS: class norm 0.4 exact for a=1.5, r=2; divergence "
          "flagged for a=0.9 under the energy weight")
