import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from horizon import _accel, predictor
from horizon._accel import bump_derivative_values
from horizon.config import BoundRangeError
from horizon.kernels import TargetKernel, derivative_panel_edges, q_spectrum
from horizon.polynomials import Polynomial, projection_psi, taylor_psi
from horizon.predictor import (
    PredictorKernel,
    _band_spectrum,
    beta_energy,
    error_bound_parts,
    moment_table,
    predict_values,
    target_values,
    transfer_norms,
)
from horizon.signals import (
    Signal,
    chirp_noise,
    cosine_modulated_poisson,
    gaussian_signal,
    noise_norm,
    poisson_signal,
    zero_signal,
)
from horizon.spectral_core import default_omega_max, gauss_legendre_edges

from oracles import (
    _bump_poly_edge,
    adaptive_simpson,
    assembled_kernel,
    assembled_spectrum,
    assembled_table,
    beta_fine_panels,
    bump_derivative_mp,
    bump_l1_ratios_mp,
    bump_l2_ratios_mp,
    bump_transform_mp,
    chirp_transfer_prediction_mp,
    closed_form,
    direct_table,
    frequency_grid,
    gram_l2_norm_sq_mp,
    h_spectrum,
    mp_context,
    padded_band_spectrum,
    superposition,
    transfer_prediction_mp,
)

T, TH, R = 0.5, 0.1, 2.0


def _predict(pk, x, ts):
    """pk's predictions of x at ts, from a one-predictor sweep."""
    return predict_values(pk, moment_table(pk.h, x, ts, pk.d))


def _noise_error(pk, h, eta, ts):
    """sup_t |(hhat_d * eta)(t) - (h * eta)(t)|: the extra error a noise term induces."""
    return float(np.max(np.abs(_predict(pk, eta, ts) - target_values(h, eta, ts))))


@pytest.fixture(scope="module")
def pk_small(canonical_kernel):
    return PredictorKernel(canonical_kernel, taylor_psi(T, 4))


class TestAssembly:
    def test_degree_zero_is_delayed_kernel(self, canonical_kernel):
        pk = PredictorKernel(canonical_kernel, Polynomial((1.0,)))
        ts = np.linspace(0.0, pk.tau, 19)
        np.testing.assert_allclose(
            assembled_kernel(pk, ts), canonical_kernel(ts - T), rtol=1e-13, atol=1e-300)

    def test_support(self, pk_small):
        assert assembled_kernel(pk_small, -0.01) == 0.0
        assert assembled_kernel(pk_small, pk_small.tau + 0.01) == 0.0
        assert pk_small.tau == T + TH

    def test_degree_cap(self, canonical_kernel):
        with pytest.raises(ValueError):
            PredictorKernel(canonical_kernel, taylor_psi(T, canonical_kernel.d_max + 1))

    def test_transfer_identity_small_d(self, pk_small):
        omegas = np.array([0.0, 1.0, 3.0])
        lhs = assembled_spectrum(pk_small, omegas)
        rhs = pk_small.psi.at_iw(omegas) * q_spectrum(pk_small.h, omegas)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-8)

    def test_transfer_identity_equals_shifted_H(self, pk_small, canonical_kernel):
        # psi Q written as e^{-i w T} psi H
        omegas = np.array([0.5, 2.0, 7.0])
        H = h_spectrum(canonical_kernel, omegas)
        rhs = np.exp(-1j * omegas * T) * pk_small.psi.at_iw(omegas) * H
        closed = pk_small.psi.at_iw(omegas) * q_spectrum(canonical_kernel, omegas)
        np.testing.assert_allclose(closed, rhs, rtol=1e-9)

    def test_l1_mass_triggers_extended(self, canonical_kernel):
        # the bound sum_k |a_k| ||q^(k)||_1 switches where the assembled node
        # table's own L1 mass l1 > 1e4 does, at every degree and both methods
        # on the canonical kernel (elsewhere it can switch first: needs_extended)
        for make in (lambda d: taylor_psi(T, d), lambda d: projection_psi(T, R, d)):
            pks = [PredictorKernel(canonical_kernel, make(d)) for d in range(TargetKernel.d_max + 1)]
            assert [pk.needs_extended() for pk in pks] == [assembled_table(pk)[3] > 1e4 for pk in pks]
            assert not pks[4].needs_extended() and pks[10].needs_extended()


class TestTarget:
    def test_zero_signal(self, canonical_kernel):
        assert target_values(canonical_kernel, zero_signal(), [0.3])[0] == 0.0

    def test_against_adaptive_quadrature(self, canonical_kernel, canonical_signal):
        h, x = canonical_kernel, canonical_signal
        t0 = 0.0
        ref = adaptive_simpson(
            lambda u: h(np.asarray(u)) * closed_form(x, t0 - u), -T, TH, tol=1e-13)
        assert target_values(h, x, [t0])[0] == pytest.approx(ref, rel=1e-9)

    def test_chirp_reads_its_lines_once(self, canonical_kernel):
        # chirp noise as the signal: the target reads the lines once, on a
        # rule resolving every argument t - s, and never the derivative
        # stack, whose every order is a pass over the lines
        calls = []
        eta = chirp_noise((6.0, 12.0), 1.0)

        def lines(t_scale):
            calls.append(t_scale)
            return eta.lines(t_scale)

        def derivatives(kmax, t):
            calls.append("derivatives")
            return eta.derivatives(kmax, t)

        ts = np.linspace(-2.0, 2.0, 41)
        y = target_values(canonical_kernel, replace(eta, lines=lines, derivatives=derivatives), ts)
        assert calls == [pytest.approx(2.0 + T, rel=1e-4)]  # the largest |t - s|
        np.testing.assert_allclose(y, direct_table(canonical_kernel, eta, ts)[0][0], rtol=0, atol=1e-15)

    def test_spectral_factorization(self, canonical_kernel, canonical_signal):
        # y(0) = (1/2pi) int H(i w) X(i w) dw
        h, x = canonical_kernel, canonical_signal
        grid = frequency_grid(40.0, 4096)
        H = h_spectrum(h, grid.nodes)
        X = x.spectrum(grid.nodes)
        via_freq = float(np.real((H * X) @ grid.weights)) / (2.0 * math.pi)
        assert target_values(h, x, [0.0])[0] == pytest.approx(via_freq, rel=1e-6)


class TestPredict:
    def test_zero_signal(self, pk_small):
        assert _predict(pk_small, zero_signal(), [0.2])[0] == 0.0

    def test_degree_zero_predicts_delayed_target(self, canonical_kernel, canonical_signal):
        pk = PredictorKernel(canonical_kernel, Polynomial((1.0,)))
        for t0 in (-0.5, 0.0, 1.2):
            lhs = _predict(pk, canonical_signal, [t0])[0]
            rhs = target_values(canonical_kernel, canonical_signal, [t0 - T])[0]
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_linearity(self, pk_small):
        x1, x2 = poisson_signal(1.5), gaussian_signal(0.7)
        combo = superposition([x1, x2], [0.7, -1.3])
        t0 = 0.4
        lhs = _predict(pk_small, combo, [t0])[0]
        rhs = 0.7 * _predict(pk_small, x1, [t0])[0] - 1.3 * _predict(pk_small, x2, [t0])[0]
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_never_reads_future_samples(self, pk_small, canonical_signal):
        accessed = []

        def spy(kmax, ts):
            ts = np.asarray(ts, dtype=float)
            accessed.append(ts.max())
            return canonical_signal.derivatives(kmax, ts)

        x = replace(canonical_signal, kind="spy", params={}, derivatives=spy)
        for t0 in (-1.0, 0.0, 0.7):
            _predict(pk_small, x, [t0])
            assert max(accessed) < t0
            accessed.clear()

    def test_memory_window_is_tau(self, pk_small, canonical_signal):
        lows = []

        def spy(kmax, ts):
            ts = np.asarray(ts, dtype=float)
            lows.append(ts.min())
            return canonical_signal.derivatives(kmax, ts)

        x = replace(canonical_signal, kind="spy", params={}, derivatives=spy)
        t0 = 0.25
        _predict(pk_small, x, [t0])
        assert min(lows) > t0 - pk_small.tau

    def test_double_and_extended_paths_agree_at_low_degree(self, canonical_kernel, canonical_signal):
        # below the roundoff switch the double node-table quadrature of the
        # assembled kernel is accurate to its floor 1e-15 l1_mass; every
        # degree of a sweep, read from the one derivative-transfer table of
        # its top degree, stays within that floor of it
        psis = [taylor_psi(T, d) for d in range(5)] + [projection_psi(T, R, d) for d in range(5)]
        pks = [PredictorKernel(canonical_kernel, psi) for psi in psis]
        ts = np.linspace(-2.0, 2.0, 41)
        table = moment_table(canonical_kernel, canonical_signal, ts, 4)
        for pk in pks:
            assert not pk.needs_extended()
            nodes, weights, values, l1_mass = assembled_table(pk)
            ref = np.real(closed_form(canonical_signal, ts[:, None] - nodes) @ (weights * values))
            np.testing.assert_allclose(predict_values(pk, table), ref,
                                       rtol=0, atol=1e-15 * l1_mass)

    @pytest.mark.parametrize("method", ["taylor", "projection"])
    @pytest.mark.parametrize("d", [0, 4, 8, 10, 12, 16])
    def test_derivative_transfer_against_70_digits(self, method, d):
        # every degree, narrow and wide kernels: within 16 eps of the
        # absolute sum sum_k |Re a_k| sum_s |h w x^(k)(t - T - s)| at each
        # time (measured at most 0.37 of it; a direct quadrature against
        # hhat_d was up to 1.4e7 of it, 1.1e-8 off at T = 0.05, theta = 1,
        # d = 16).  The oracle's tanh-sinh rule needs a finer step on the
        # widest kernel
        x = poisson_signal(1.0)
        ts = np.linspace(-2.0, 2.0, 3)
        for T_, theta, step in [(T, TH, 1 / 32), (0.05, 1.0, 1 / 32), (0.2, 0.5, 1 / 32), (2.0, 0.5, 1 / 64)]:
            h = TargetKernel(T_, theta)
            psi = taylor_psi(T_, d) if method == "taylor" else projection_psi(T_, R, d)
            _, (hw,), samples = direct_table(h, x, ts, d)
            abs_a = np.abs(psi.coeffs)
            floor = 16.0 * np.finfo(float).eps * np.einsum("k,kts->t", abs_a, np.abs(samples * hw))
            ref = transfer_prediction_mp(psi.coeffs, T_, theta, 1.0, ts, dps=70, step=step)
            np.testing.assert_array_less(np.abs(_predict(PredictorKernel(h, psi), x, ts) - ref), floor,
                                         err_msg=f"T={T_}, theta={theta}")

    @pytest.mark.parametrize("method", ["taylor", "projection"])
    @pytest.mark.parametrize("d", [10, 12, 16])
    def test_chirp_transfer_against_70_digits(self, canonical_kernel, method, d):
        # the chirp moments are O(12^k), so the sum over k carries a
        # roundoff floor eps sum_k |Re a_k| |M_k| of about 1.2e-14 here
        # (measured errors 1.9e-15 to 3.7e-15); 1e-14 is that floor
        psi = taylor_psi(T, d) if method == "taylor" else projection_psi(T, R, d)
        pk = PredictorKernel(canonical_kernel, psi)
        ts = np.linspace(-2.0, 2.0, 5)
        ref = chirp_transfer_prediction_mp(psi.coeffs, T, TH, (6.0, 12.0), 1.0, ts, dps=70)
        np.testing.assert_allclose(_predict(pk, chirp_noise((6.0, 12.0), 1.0), ts), ref,
                                   rtol=0, atol=1e-14)

    def test_sweep_reads_one_moment_table(self, canonical_kernel):
        # a sweep evaluates the signal's derivative stack once per row
        # block and window, up to its top degree, whatever degree it starts
        # from, M doubling from 16 (the chirp without its lines, which take
        # the other transfer route); every row fails until the last M, and
        # a block is padded to whole groups of four rows (41 -> 44).  A
        # degree's own table may take another M, so the two agree within
        # twice the window tolerance of each against the direct sum,
        # 8 eps ||h w||_1 max|x^(k)| per order
        calls = []
        base = replace(chirp_noise((6.0, 12.0), 1.0), lines=None)

        def counted(kmax, t):
            calls.append((kmax, np.shape(t)))
            return base.derivatives(kmax, t)

        x = replace(base, derivatives=counted)
        ts = np.linspace(-2.0, 2.0, 41)
        pks = [PredictorKernel(canonical_kernel, taylor_psi(T, d)) for d in range(6, 13)]
        table = moment_table(canonical_kernel, x, ts, 12)
        assert calls == [(12, (44, 16 << i)) for i in range(len(calls))]
        assert calls[-1][1][1] == table.window_points <= 128
        _, vectors, samples = direct_table(canonical_kernel, base, ts, 12)
        tol = 16.0 * np.finfo(float).eps * np.abs(vectors[0]).sum() * np.abs(samples).max(axis=(1, 2))
        for pk in pks:
            abs_a = np.abs(pk.psi.coeffs)
            np.testing.assert_allclose(
                predict_values(pk, table),
                predict_values(pk, moment_table(canonical_kernel, base, ts, pk.d)),
                rtol=0, atol=abs_a @ tol[:pk.d + 1])

    @pytest.mark.parametrize("n_points", [41, 201], ids=["one-block", "two-blocks"])
    def test_chirp_lines_table_matches_derivative_table(self, canonical_kernel, monkeypatch, n_points):
        # the same double sum over kernel nodes and lines as the direct sum
        # of the derivative stack, taken over the nodes first; the lines are
        # read once for the whole grid, so a row block's rule is no finer
        # than the whole grid's
        monkeypatch.setattr(_accel, "_BLOCK_ELEMENTS", 1 << 15)
        n_lines = []
        eta = chirp_noise((6.0, 12.0), 1.0)

        def lines(t_scale):
            n_lines.append(eta.lines(t_scale)[0].size)
            return eta.lines(t_scale)

        ts = np.linspace(-2.0, 2.0, n_points)
        table = moment_table(canonical_kernel, replace(eta, lines=lines), ts, 12)
        assert table.window_points is None
        assert len(predictor._row_blocks(n_points, n_lines[0], depth=4)) == (n_points > 41) + 1
        stacks = direct_table(canonical_kernel, eta, ts, 12)[0]
        scale = np.max(np.abs(stacks), axis=1, keepdims=True)
        assert np.all(np.abs(table.values - stacks) <= 2e-15 * scale)

    def test_chirp_lines_table_peaks_below_600_kib(self, canonical_kernel):
        # the canonical chirp's (80 lines x 1,376 nodes) phases take one
        # reused complex block of 16 rows (344 KiB); an exponent and its
        # exponential in fresh arrays traced 735 KiB
        eta = chirp_noise((6.0, 12.0), 1.0)
        ts = np.linspace(-2.0, 2.0, 41)
        tracemalloc.start()
        try:
            moment_table(canonical_kernel, eta, ts, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 600 << 10

    @pytest.mark.parametrize("d", [4, 12], ids=["sample", "transfer"])
    def test_sweep_tables_are_kept_per_signal_object(self, d):
        # two signals of one kind and params but different values, one
        # after the other on one kernel: each gets its own predictions, the
        # same as on a fresh kernel (a table cache keyed by kind and params
        # once gave the second the first's predictions, 0.10 off at d = 12)
        h = TargetKernel(T, TH)
        pk = PredictorKernel(h, taylor_psi(T, d))
        assert pk.needs_extended() == (d == 12)
        xs = [Signal(kind="custom", params={}, derivatives=p.derivatives, spectrum=p.spectrum)
              for p in (poisson_signal(1.5), poisson_signal(3.0))]
        ts = np.linspace(-2.0, 2.0, 9)
        got = [_predict(pk, x, ts) for x in xs]
        for x, y_hat in zip(xs, got):
            fresh = PredictorKernel(TargetKernel(T, TH), taylor_psi(T, d))
            np.testing.assert_array_equal(y_hat, _predict(fresh, x, ts))
        assert np.max(np.abs(got[0] - got[1])) > 0.05


class TestErrorBound:
    def test_q_on_mirrored_grid_from_positive_half(self, monkeypatch, canonical_signal):
        h = TargetKernel(T, TH)
        sizes = []

        def counted(h_, omegas):
            sizes.append(np.size(omegas))
            return q_spectrum(h_, omegas)

        monkeypatch.setattr(predictor, "q_spectrum", counted)
        om = frequency_grid(default_omega_max(R), 4096).nodes
        full = np.exp(R * np.abs(om)) * np.abs(q_spectrum(h, om) * canonical_signal.spectrum(om)) ** 2
        np.testing.assert_array_equal(predictor._beta_integrand(canonical_signal, h, R, om), full)
        assert sizes == [om.size // 2]

    def test_beta_where_the_weight_overflows(self, canonical_kernel):
        # on the a = 1.005 grid (omega_max 3684) e^{r omega} overflows
        # against |Q X|^2 = 0; beta is finite, below the a -> r/2 limit
        # 2 pi ||h||^2 (Parseval) and above beta at a larger a
        nodes, weights = predictor._target_rule(canonical_kernel)
        parseval = 2.0 * math.pi * float(canonical_kernel(nodes) ** 2 @ weights)
        beta = beta_energy(canonical_kernel, poisson_signal(1.005), R)
        assert beta_energy(canonical_kernel, poisson_signal(1.05), R) < beta < parseval

    def test_beta_beyond_double_range_refused(self, canonical_kernel):
        with pytest.raises(BoundRangeError, match="exceeds double range"):
            beta_energy(canonical_kernel, gaussian_signal(0.02), R)

    @pytest.mark.parametrize("T_, theta", [(0.5, 0.1), (2.0, 0.5), (0.05, 0.01), (1.0, 0.25)])
    def test_beta_against_kink_aligned_fine_panels(self, T_, theta):
        # one grid rule for every kind: Poisson near the class edge and far
        # from it, modulated Poisson with its kink at omega0 (the heuristic
        # tail test once refused omega0 = 4.5 and 5), the chirp with its
        # band edges and the Gaussian; beta_fine_panels is exact to ~1e-15
        h = TargetKernel(T_, theta)
        cases = {2.0: [poisson_signal(a) for a in (1.5, 1.0001, 1.000001, 10.0)]
                      + [chirp_noise((6.0, 12.0), 1.0), gaussian_signal(0.5)],
                 4.0: [cosine_modulated_poisson(5.656, w0) for w0 in (3.0, 4.5, 5.0)]}
        for r, xs in cases.items():
            for x, ref in zip(xs, beta_fine_panels(h, xs, r)):
                assert beta_energy(h, x, r) == pytest.approx(ref, rel=1e-12), (x.kind, x.params)

    def test_beta_grid_is_bounded_by_the_band_cut(self, monkeypatch):
        # a = 1 + 1e-6 once sized the grid by its decay 2a - r: omega up to
        # 1.8e7 and a 937 MiB transform for this kernel; now no grid passes
        # the band cut, and a spectrum not decayed there is refused
        h = TargetKernel(2.0, 0.5)
        tops = []

        def counted(h_, omegas):
            tops.append(float(np.max(omegas)))
            return q_spectrum(h_, omegas)

        monkeypatch.setattr(predictor, "q_spectrum", counted)
        beta_energy(h, poisson_signal(1.000001), R)
        assert max(tops) <= predictor._band_cut(h)
        with pytest.raises(BoundRangeError, match="has not decayed"):
            beta_energy(h, cosine_modulated_poisson(20.0, 1200.0), 4.0)

    def test_beta_value_and_grid_stability(self, canonical_kernel, canonical_signal):
        # against the same integrand on a wider grid of twice the nodes
        b1 = beta_energy(canonical_kernel, canonical_signal, R)
        grid = frequency_grid(60.0, 8192)
        b2 = float(predictor._beta_integrand(canonical_signal, canonical_kernel, R, grid.nodes) @ grid.weights)
        assert b1 == pytest.approx(b2, rel=1e-9)

    def test_degenerate_exact_predictor_zero_bound(self, canonical_kernel, canonical_signal):
        # T = 0 with psi = 1 represents the exponent exactly: alpha = 0
        from horizon.polynomials import alpha_closed_form

        assert alpha_closed_form(Polynomial((1.0,)), 0.0, R) == 0.0

    def test_positive_and_taylor_decay(self, canonical_kernel, canonical_signal):
        pk6 = PredictorKernel(canonical_kernel, taylor_psi(T, 6))
        pk8 = PredictorKernel(canonical_kernel, taylor_psi(T, 8))
        (_, _, b6), (_, _, b8) = error_bound_parts([pk6, pk8], canonical_signal, R)
        assert 0 < b8 <= b6 / 2.0

    def test_signal_outside_class_rejected(self, canonical_kernel):
        thin = poisson_signal(0.9)  # 2a < r
        pk = PredictorKernel(canonical_kernel, taylor_psi(T, 4))
        with pytest.raises(ValueError, match="outside"):
            error_bound_parts([pk], thin, R)

    def test_bound_validity_on_grid(self, pk_small, canonical_signal, canonical_tgrid):
        ts = canonical_tgrid
        sup = float(np.max(np.abs(target_values(pk_small.h, canonical_signal, ts)
                                  - _predict(pk_small, canonical_signal, ts))))
        (_, _, bound), = error_bound_parts([pk_small], canonical_signal, R)
        assert sup <= bound * (1 + 1e-6) + 1e-8


class TestConvergenceInDegree:
    def test_sup_error_non_increasing_projection(self, canonical_kernel, canonical_signal,
                                                 canonical_tgrid):
        ts = canonical_tgrid
        y = target_values(canonical_kernel, canonical_signal, ts)
        pks = [PredictorKernel(canonical_kernel, projection_psi(T, R, d)) for d in range(0, 11)]
        table = moment_table(canonical_kernel, canonical_signal, ts, 10)
        sups = [float(np.max(np.abs(y - predict_values(pk, table)))) for pk in pks]
        for s1, s2 in zip(sups, sups[1:]):
            assert s2 <= s1 + 1e-10


class TestNoise:
    def test_zero_noise(self, pk_small, canonical_kernel, canonical_tgrid):
        eta = zero_signal()
        assert _noise_error(pk_small, canonical_kernel, eta, canonical_tgrid) == 0.0
        assert noise_norm(eta, 1) == noise_norm(eta, 2) == 0.0

    @pytest.mark.parametrize("p", [1, 2])
    def test_sweep_norms_match_single_predictor(self, canonical_kernel, p):
        # the norms built once for a sweep are each degree's own, bit for bit
        pks = [PredictorKernel(canonical_kernel, taylor_psi(T, d)) for d in (2, 8, 12)]
        assert transfer_norms(pks, p) == [transfer_norms([pk], p)[0] for pk in pks]

    def test_bound_grows_with_degree(self, canonical_kernel):
        # norms taken on the transfer band, where the degree blow-up lives
        pk4 = PredictorKernel(canonical_kernel, taylor_psi(T, 4))
        pk10 = PredictorKernel(canonical_kernel, taylor_psi(T, 10))
        for p in (1, 2):
            (n4, h4), (n10, h10) = transfer_norms([pk4, pk10], p)
            assert h4 == h10 and n10 > n4

    def test_empirical_below_bound(self, pk_small, canonical_kernel, canonical_tgrid):
        eta = chirp_noise((6.0, 12.0), 0.05)
        noise_error = _noise_error(pk_small, canonical_kernel, eta, canonical_tgrid)
        (n_hhat, n_h), = transfer_norms([pk_small], 2)  # norms on the transfer band
        slope = (n_hhat + n_h) / (2.0 * math.pi)
        assert noise_error <= noise_norm(eta, 2) * slope + 1e-10

    def test_doubling_noise_doubles_error(self, pk_small, canonical_kernel, canonical_tgrid):
        e1, e2 = (_noise_error(pk_small, canonical_kernel, chirp_noise((6.0, 12.0), amp),
                               canonical_tgrid) for amp in (0.05, 0.10))
        assert e2 == pytest.approx(2.0 * e1, rel=1e-12)


#: (T, theta) of the kernels the p = 2 norms are checked on
GRAM_KERNELS = ((T, TH), (2.0, 0.5), (0.05, 0.01), (1.0, 1.0), (0.2, 2.0))


class TestTransferNorms:
    @pytest.mark.parametrize("method", ["taylor", "projection"])
    @pytest.mark.parametrize("d", [4, 8, 12, 16])
    def test_l2_norm_against_gram_identity(self, method, d):
        # ||Hhat_d||_2 and ||H||_2 against the Gram sum at 40 digits on the
        # 60-digit L_m.  The double form is measured within 1e-15; a double
        # node table of the assembled kernel read up to 3.75e-11 off (T =
        # theta = 1, d = 16)
        ctx = mp_context(40)
        for T_, theta in GRAM_KERNELS:
            h = TargetKernel(T_, theta)
            psi = taylor_psi(T_, d) if method == "taylor" else projection_psi(T_, R, d)
            (n_hhat, n_h), = transfer_norms([PredictorKernel(h, psi)], 2)
            for got, coeffs in ((n_hhat, psi.coeffs), (n_h, [1.0])):
                ref = ctx.sqrt(2 * ctx.pi * gram_l2_norm_sq_mp(h, coeffs))
                assert abs(got / ref - 1) <= 4e-15, (T_, theta)

    def test_bump_l2_ratios_against_the_oracle(self):
        # the literal is the 60-digit oracle rounded to double, and the
        # oracle's trapezoid has converged: half its step moves it by 3e-30
        ratios = bump_l2_ratios_mp()
        assert list(predictor._BUMP_L2_RATIOS) == [float(v) for v in ratios]
        assert len(ratios) == TargetKernel.d_max + 1
        finer = bump_l2_ratios_mp(step=1 / 256)
        assert max(abs(a / b - 1) for a, b in zip(ratios, finer)) <= 1e-25


BAND_KERNELS = pytest.mark.parametrize("T_, theta", [(T, TH), (2.0, 0.5)], ids=["canonical", "wide"])


def _oracle_band(h):
    return padded_band_spectrum(h, predictor._band_cut(h), predictor._BAND_PAD)


def _assembled_band(h):
    """(step, |Q(i omega)|) at omega = step * arange(n) on the whole band, from ``_band_spectrum``'s groups.

    The groups must hold each frequency once, each exactly step times its
    index; the entries past the cut, at the indices above cut / step, are
    dropped here.
    """
    omegas, values = zip(*((om.ravel(), q_abs.ravel()) for om, q_abs in _band_spectrum(h)))
    omegas, values = np.concatenate(omegas), np.concatenate(values)
    order = np.argsort(omegas)
    step = omegas[order[1]]
    assert np.array_equal(omegas[order], step * np.arange(omegas.size))
    return step, values[order[:int(predictor._band_cut(h) / step) + 1]]


def _derivative_l1(h):
    """||q^(m)||_1 = (2 / tau)^m c_m, m = 0..24, from the library's c_m table."""
    return predictor._BUMP_L1_RATIOS * (2.0 / h.width) ** np.arange(predictor._BUMP_L1_RATIOS.size)


def _tail(h, psi):
    """min over d <= m <= 24 of sum_k |a_k| ||q^(m)||_1 Omega^(k - m): sup |psi Q| past the cut."""
    cut, a = predictor._band_cut(h), np.abs(psi.coeffs)
    return min(float(a @ (cut ** np.arange(psi.degree + 1))) * l1 * cut ** -m
               for m, l1 in enumerate(_derivative_l1(h)) if m >= psi.degree)


def _resolved_sup(h, psi):
    """(sup, |psi_d| at its argmax): sup |psi_d Q| over the long FFT's band up to the last |Q| > 1e-15.

    An error e in |Q| there moves the sup by at most e |psi_d|; the
    streamed band is within 1e-15 of the long FFT's (``test_band_matches_padded_fft``).
    Taylor d = 15 peaks where |Q| is 1.5e-14.
    """
    step, q_abs = _oracle_band(h)
    n = int(np.flatnonzero(q_abs > 1e-15)[-1]) + 1
    psi_abs = np.abs(psi.at_iw(step * np.arange(n)))
    i = int(np.argmax(psi_abs * q_abs[:n]))
    return float(psi_abs[i] * q_abs[i]), float(psi_abs[i])


#: (omega, |Q|) near 4000, 9000 and 16000, all past the band cut, |Q| from
#: ``oracles.bump_transform_mp(omega, h.width)`` at 30 digits (0.9 to 3.2 s
#: per call on the canonical kernel, 3.2 to 12.7 s on the wide one); a value
#: below 1e-30 is at that working precision
_HIGH_BAND_30_DIGITS = {
    (T, TH): ((3999.9940013155447, 4.971485246078324e-18),
              (8999.986502959975, 2.3608927531197705e-26),
              (15999.976005262179, 1.0093749674092737e-33)),
    (2.0, 0.5): ((3999.9926774581663, 1.9686467096512376e-36),
                 (9000.003055571415, 2.5640553613396335e-37),
                 (16000.001959897529, 1.5452123045727728e-37)),
}


class TestBandSpectrum:
    @pytest.mark.parametrize("T_, theta, targets", [
        (T, TH, (0.0, 37.0, 141.0, 1062.0, 1930.0)),
        # 4x wider: its band stops 4x lower, at 914.5
        (2.0, 0.5, (0.0, 37.0, 141.0, 900.0)),
    ])
    def test_fft_band_against_30_digits(self, T_, theta, targets):
        # live oracle inside the band; past it the committed 30-digit values
        # obey the tail bound |Q| <= ||q^(m)||_1 / omega^m that replaces the band
        h = TargetKernel(T_, theta)
        step, q_abs = _assembled_band(h)
        omegas = step * np.arange(q_abs.size)
        cut = predictor._band_cut(h)
        assert omegas[-1] <= cut < omegas[-1] + step
        assert step <= 2.0 * math.pi / (predictor._BAND_PAD * h.width)
        for target_omega in targets:
            i = int(np.argmin(np.abs(omegas - target_omega)))
            assert q_abs[i] == pytest.approx(bump_transform_mp(omegas[i], h.width),
                                             rel=0.0, abs=1e-15)
        # at the cut the m = 16 bound is the floor, and it only falls past it
        assert float(np.min(_derivative_l1(h)[1:17] * cut ** -np.arange(1, 17))) == pytest.approx(
            predictor._BAND_FLOOR, rel=1e-12)
        for omega, ref in _HIGH_BAND_30_DIGITS[(T_, theta)]:
            assert omega > cut
            assert ref <= float(np.min(_derivative_l1(h)[:17] * omega ** -np.arange(17.0)))

    def test_bump_l1_ratios_against_panel_quadrature(self):
        # c_m = ||f^(m)||_1 / ||f||_1 by the double panel rule of order m, its
        # panels split at the sign changes of f^(m), where |f^(m)| has a kink
        # (unsplit, the kinks leave it 1e-4 off); measured within 1.4e-11 for
        # m <= 16.  Past that the double values of f^(m) lose digits (the
        # rule read c_24 1.0e-7 off), so c_17..c_24 come from the oracle's
        # identity ||f^(m)||_1 = sum |f^(m-1)(z_{i+1}) - f^(m-1)(z_i)| over
        # -1, the sign changes z_i of f^(m) found in double, and 1, with
        # f^(m-1) at 40 digits: f^(m-1) is stationary at each z_i, so a root
        # off by e moves it by O(e^2); measured within 3.7e-10.  The first
        # orders are the 40-digit oracle's values bit for bit
        assert bump_l1_ratios_mp(6) == list(predictor._BUMP_L1_RATIOS[:7])
        grid = np.linspace(-1.0, 1.0, 40001)
        l1 = []
        for m in range(predictor._BUMP_L1_RATIOS.size):
            def f(u, m=m):
                return bump_derivative_values(np.atleast_1d(u), _bump_poly_edge(m), m)

            v = f(grid)
            roots = [brentq(lambda u: f(u)[0], grid[i], grid[i + 1], xtol=1e-15)
                     for i in np.flatnonzero(v[:-1] * v[1:] < 0.0)]
            if m <= 16:
                nodes, weights = gauss_legendre_edges(np.union1d(derivative_panel_edges(2.0, m) - 1.0, roots))
                l1.append(float(np.abs(f(nodes)) @ weights))
            else:
                extrema = [float(bump_derivative_mp(u, m - 1, 40)) for u in (-1.0, *roots, 1.0)]
                l1.append(float(np.sum(np.abs(np.diff(extrema)))))
        np.testing.assert_allclose(np.array(l1) / l1[0], predictor._BUMP_L1_RATIOS, rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("T_, theta", [(T, TH), (2.0, 0.5)])
    def test_panel_factored_q_against_30_digits(self, T_, theta):
        # the factored transform is as close to the 30-digit values at these
        # frequencies as the node-by-node one was (at most 4.5e-16)
        h = TargetKernel(T_, theta)
        omegas = np.array([0.0, 37.0, 141.0, 1062.0])
        ref = [bump_transform_mp(om, h.width) for om in omegas]
        np.testing.assert_allclose(np.abs(q_spectrum(h, omegas)), ref, rtol=0.0, atol=5e-16)

    @pytest.mark.parametrize("T_, theta", [(T, TH), (2.0, 0.5)])
    def test_fft_band_against_quadrature(self, T_, theta):
        # q_spectrum rounds the phase omega t of each node, which leaves it
        # up to 2e-15 (canonical) and 3e-14 (wide) off the 30-digit values
        # at omega <= 2000 (the wide band stops at 915); the FFT's twiddles
        # are exact to 3e-18 there
        h = TargetKernel(T_, theta)
        step, q_abs = _assembled_band(h)
        omegas = step * np.arange(q_abs.size)
        sel = np.flatnonzero(omegas <= 2000.0)[::29]
        np.testing.assert_allclose(q_abs[sel], np.abs(q_spectrum(h, omegas[sel])),
                                   rtol=0.0, atol=1e-13)

    @BAND_KERNELS
    def test_band_uses_short_transforms(self, monkeypatch, T_, theta):
        # the band is P transforms of length L, L the smallest power of two
        # >= n + 1, never one of length m = L P; the band stops at the same
        # Omega tau for every width, so L is 2048 for both kernels
        h = TargetKernel(T_, theta)
        n = math.ceil(2.0 * predictor._band_cut(h) * h.width / math.pi)
        lengths = []
        for name in ("fft", "rfft"):
            def spy(a, n_=None, *args, _f=getattr(np.fft, name), **kwargs):
                lengths.append(np.shape(a)[-1] if n_ is None else n_)
                return _f(a, n_, *args, **kwargs)
            monkeypatch.setattr(predictor.np.fft, name, spy)
        _assembled_band(h)
        assert lengths and max(lengths) == 1 << n.bit_length() == 2048

    @BAND_KERNELS
    def test_band_matches_padded_fft(self, T_, theta):
        # the same DFT samples as one FFT zero-padded to 2^18 (for both);
        # measured within 4.4e-16 (canonical) and 2.2e-16 (wide)
        h = TargetKernel(T_, theta)
        step, q_abs = _assembled_band(h)
        ref_step, ref = _oracle_band(h)
        assert step == ref_step and q_abs.size == ref.size
        np.testing.assert_allclose(q_abs, ref, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("T_, theta, method, d",
                             [pytest.param(T, TH, "taylor", d, id=f"taylor-{d}") for d in (2, 3, 4, 5, 6, 7, 14, 15)]
                             + [pytest.param(T, TH, "projection", 16, id="projection-16")]
                             + [pytest.param(0.05, 0.01, "taylor", d, id=f"narrow-taylor-{d}") for d in (14, 15)])
    def test_p1_sup_against_padded_fft(self, T_, theta, method, d):
        # the sup over the clipped band and its tail against the resolved
        # sup of the long FFT's band.  Taylor d = 6
        # moves 6.4e-13 and d = 7 7.1e-12, where |Q| is 4.8e-7: the two
        # routes' |Q| agree to 3.4e-18 there, and the tolerance's 4e-18
        # |psi_d| exceeds 1e-12 of the sup only at d = 7.  At d = 14 and 15
        # the unclipped band's roundoff near the cut times |psi_d| read up
        # to 13 % (canonical d = 15) and 30 % (T = 0.05, d = 15) above the
        # tail bound; clipped at the envelope, the sup is the tail (d = 16)
        # or the band's own peak near 0.71 Omega (d = 15)
        h = TargetKernel(T_, theta)
        psi = taylor_psi(T_, d) if method == "taylor" else projection_psi(T_, R, d)
        pk = PredictorKernel(h, psi)
        resolved, psi_abs = _resolved_sup(h, psi)
        sup = transfer_norms([pk], 1)[0][0]
        assert sup == pytest.approx(max(resolved, _tail(h, psi)), rel=1e-12, abs=4e-18 * psi_abs)
        assert sup >= resolved - 4e-18 * psi_abs  # the clip never cuts into the resolved sup

    @BAND_KERNELS
    def test_p1_norms_stream(self, T_, theta):
        # each group of transforms is folded into the sups and dropped:
        # nothing band-sized is held (|Q| on the band alone is 0.5 MB, and a
        # stored band to omega = 16384 peaked at 4.8 and 11.3 MB here)
        h = TargetKernel(T_, theta)
        pks = [PredictorKernel(h, projection_psi(T_, R, d)) for d in (0, 16)]
        tracemalloc.start()
        try:
            transfer_norms(pks, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("method, d", [("taylor", d) for d in (0, 4, 8, 10, 12, 16)]
                             + [("projection", 16)])
    def test_p1_sup_within_l1_mass(self, canonical_kernel, method, d):
        # |F f(omega)| <= ||f||_1 holds exactly for every omega.  The sup
        # (the band's FFT) and ||hhat_d||_1 (the node quadrature) are rounded
        # apart, and at d = 0 both are ||q||_1 = 1: they read
        # 0.9999999999999998 and 0.9999999999999997, hence the 4 eps
        psi = taylor_psi(T, d) if method == "taylor" else projection_psi(T, R, d)
        pk = PredictorKernel(canonical_kernel, psi)
        (sup_hhat, sup_h), = transfer_norms([pk], 1)
        assert sup_hhat <= assembled_table(pk)[3] * (1.0 + 4.0 * np.finfo(float).eps)
        assert sup_h == pytest.approx(1.0, rel=1e-15)

    @pytest.fixture(scope="class")
    def q_scan(self, canonical_kernel):
        omegas = np.linspace(0.0, 2500.0, 25001)
        return omegas, np.abs(q_spectrum(canonical_kernel, omegas))

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_p1_sup_against_quadrature_scan(self, canonical_kernel, q_scan, d):
        # at these degrees the peak of |psi_d Q| lies well below omega = 2500
        omegas, q_abs = q_scan
        pk = PredictorKernel(canonical_kernel, taylor_psi(T, d))
        ref = float(np.max(np.abs(pk.psi.at_iw(omegas)) * q_abs))
        assert transfer_norms([pk], 1)[0][0] == pytest.approx(ref, rel=1e-3)

    def test_d10_sup_is_not_roundoff(self, canonical_kernel):
        # the two-stage quadrature scan returned 6.85e18 here: |psi_10| times
        # roundoff of |Q|; a band to omega = 16384 hit the 9.46e11 l1_mass cap
        pk = PredictorKernel(canonical_kernel, taylor_psi(T, 10))
        resolved, psi_abs = _resolved_sup(canonical_kernel, pk.psi)
        sup = transfer_norms([pk], 1)[0][0]
        assert sup == pytest.approx(resolved, rel=0.0, abs=1e-15 * psi_abs)
        assert sup == pytest.approx(6.1407e11, rel=1e-4) and sup < assembled_table(pk)[3] / 1.5

    @pytest.mark.parametrize("scale", [0.1, 4.0])
    def test_p1_norms_invariant_under_rescaling(self, canonical_kernel, scale):
        # (T, theta) -> s (T, theta) maps Q(i omega) to Q(i s omega) and the
        # taylor psi_d(i omega) to psi_d(i s omega), so the sups do not move.
        # A band stopped at omega = 16384 read the narrow (s = 0.1) kernel's
        # sup 11 % low at d = 13 and 33 % low at d = 14.  Past d = 13 the
        # sup is the tail bound or |psi_d| times roundoff, both above the
        # resolved sup; up to d = 13 measured within 7.4e-6 of the canonical
        h = TargetKernel(scale * T, scale * TH)
        degrees = range(17)
        ref = transfer_norms([PredictorKernel(canonical_kernel, taylor_psi(T, d)) for d in degrees], 1)
        got = transfer_norms([PredictorKernel(h, taylor_psi(scale * T, d)) for d in degrees], 1)
        for d, (sup, _), (sup_ref, _) in zip(degrees, got, ref):
            resolved, psi_abs = _resolved_sup(canonical_kernel, taylor_psi(T, d))
            assert sup >= resolved - 1e-15 * psi_abs, d
            if d <= 13:
                assert sup == pytest.approx(sup_ref, rel=1e-3), d


class TestSamplePathBlocks:
    def test_blocks_match_one_product(self, monkeypatch, pk_small, canonical_signal):
        ts = np.linspace(-2.0, 2.0, 301)
        h = pk_small.h
        whole_y = predictor.target_values(h, canonical_signal, ts)
        whole_y_hat = _predict(pk_small, canonical_signal, ts)
        monkeypatch.setattr(_accel, "_BLOCK_ELEMENTS", 1)  # 16-row blocks
        assert len(predictor._row_blocks(ts.size, 100, 1)) == 19
        np.testing.assert_allclose(predictor.target_values(h, canonical_signal, ts),
                                   whole_y, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(_predict(pk_small, canonical_signal, ts),
                                   whole_y_hat, rtol=0.0, atol=1e-15)

    def test_dense_grid_peaks_below_three_blocks(self, canonical_signal):
        # the argument block lives in one reused buffer and the Poisson
        # time evaluator allocates only its result block; on the transfer
        # route the row blocks are sized by the whole 13-deep derivative
        # stack.  Beyond the output and the (k + 1) x times moment table it
        # is summed from, every transient stays below three 256 KB blocks
        h = TargetKernel(T, TH)
        pk = PredictorKernel(h, taylor_psi(T, 4))
        pk12 = PredictorKernel(h, taylor_psi(T, 12))
        ts = np.linspace(-20.0, 20.0, 20001)
        block = _accel._BLOCK_ELEMENTS * 8
        for table_rows, run in ((0, lambda: predictor.target_values(h, canonical_signal, ts)),
                                (pk.d + 1, lambda: _predict(pk, canonical_signal, ts)),
                                (pk12.d + 1, lambda: _predict(pk12, canonical_signal, ts))):
            tracemalloc.start()
            try:
                out = run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - out.nbytes - table_rows * ts.size * 8 < 3 * block


WINDOW_KERNELS = [(T, TH), (0.05, 1.0), (2.0, 0.5), (0.2, 2.0)]
WINDOW_SIGNALS = {
    "poisson": poisson_signal(1.01),
    "modulated": cosine_modulated_poisson(1.5, 5.0),
    "gauss-0.5": gaussian_signal(0.5),
    "gauss-0.1": gaussian_signal(0.1),
    "gauss-0.02": gaussian_signal(0.02),
    "chirp": replace(chirp_noise((6.0, 12.0), 1.0), lines=None),
}


def _library_table(h, x, ts, kmax):
    """The library's moment table up to kmax: the target for kmax None."""
    if kmax is None:
        return predictor.target_values(h, x, ts)[None, :]
    return moment_table(h, x, ts, kmax).values


class TestWindowTables:
    """Each convolution reads x through its window interpolant, within roundoff of the direct sum."""

    @pytest.mark.parametrize("signal", list(WINDOW_SIGNALS), ids=list(WINDOW_SIGNALS))
    @pytest.mark.parametrize("T_, theta", WINDOW_KERNELS)
    @pytest.mark.parametrize("kmax", [None, 16], ids=["target", "transfer"])
    def test_within_eight_eps_of_direct_sum(self, monkeypatch, T_, theta, signal, kmax):
        # |table[k] - direct[k]| <= 8 eps ||v||_1 max|y_k|, v = h w the weight
        # vector and y_k the signal (or its k-th derivative) over the
        # table's arguments; measured at most 7.2 eps, most of it the
        # direct sum's own roundoff.  61 times would take the direct sum
        # unless the basis is free
        monkeypatch.setattr(predictor, "_BASIS_COST", 0)
        h, x = TargetKernel(T_, theta), WINDOW_SIGNALS[signal]
        ts = np.linspace(-3.0, 3.0, 61)
        ref, (v,), samples = direct_table(h, x, ts, kmax)
        scale = np.abs(v).sum() * np.array([np.abs(y).max() for y in samples])[:, None]
        got = _library_table(h, x, ts, kmax)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 8.0 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("T_, theta", WINDOW_KERNELS)
    def test_sharp_gaussian_is_the_direct_sum(self, monkeypatch, T_, theta):
        # sigma = 5e-4 needs some 5000 window points on every one of these
        # windows, past every node count: each table tries every window and
        # falls back to the nodes, the direct panel sum.  The target takes
        # the nodes in one column block and is that sum bit for bit; the
        # 5-deep stack takes them in blocks of 409 (_BLOCK_ELEMENTS over 16
        # rows of 5 orders), within 8 eps of it as in the test above
        monkeypatch.setattr(predictor, "_BASIS_COST", 0)
        h, x = TargetKernel(T_, theta), gaussian_signal(5e-4)
        ts = np.linspace(-0.2, 0.4, 41)
        for kmax in (None, 4):
            args = ts if kmax is None else ts + h.T
            ref, (v,), samples = direct_table(h, x, args, kmax)
            got = _library_table(h, x, args, kmax)
            if kmax is None:
                np.testing.assert_array_equal(got, ref)
            else:
                scale = np.abs(v).sum() * np.array([np.abs(y).max() for y in samples])[:, None]
                assert np.all(np.abs(got - ref) <= 8.0 * np.finfo(float).eps * scale)
                assert moment_table(h, x, args, kmax).window_points == v.size  # the node count of its rule

    @pytest.mark.parametrize("n_cols", [1376, 2208])
    def test_row_blocks_merge_a_one_row_tail(self, n_cols):
        # numpy takes a one-row product through another kernel, so a tail
        # of one row changed that row's bits (177 times on the target rule)
        step = predictor._row_blocks(1 << 20, n_cols, 1)[0].stop
        for n in (step + 1, 2 * step + 1):
            blocks = predictor._row_blocks(n, n_cols, 1)
            assert [b.stop - b.start for b in blocks] == [step] * (n // step - 1) + [step + 1]
        rng = np.random.default_rng(0)
        a, v = rng.standard_normal((step + 1, n_cols)), rng.standard_normal(n_cols)
        blocked = np.concatenate([a[b] @ v for b in predictor._row_blocks(step + 1, n_cols, 1)])
        np.testing.assert_array_equal(blocked, a @ v)

    def test_dense_poisson_reads_32_window_points(self, canonical_kernel, canonical_signal):
        # the dense benchmark grid: the target and the d <= 4 moment table
        # read x and its derivative stack on 32 points per time, not on the
        # 1,376 nodes of the target rule
        ts = np.linspace(-20.0, 20.0, 20001)
        shapes = []

        def derivatives(kmax, t):
            shapes.append(np.shape(t))
            return canonical_signal.derivatives(kmax, t)

        x = replace(canonical_signal, derivatives=derivatives)
        target_values(canonical_kernel, x, ts)
        assert moment_table(canonical_kernel, x, ts, 4).window_points == 32
        assert max(m for _, m in shapes) == 32

    @pytest.mark.parametrize("rows", [np.s_[:20000:50], np.s_[16000:20000:10]], ids=["spread", "far"])
    def test_rows_do_not_depend_on_the_other_times(self, canonical_kernel, canonical_signal, rows):
        # each row takes its own M, so the dense Poisson table's rows are
        # those of a 400-time subset bit for bit: "spread" crosses the rows
        # that move on to M = 32, "far" passes at M = 16 throughout (where a
        # table-wide M read it on 16 points, against 32 for the whole grid)
        ts = np.linspace(-20.0, 20.0, 20001)
        table = moment_table(canonical_kernel, canonical_signal, ts, 4).values
        sub = moment_table(canonical_kernel, canonical_signal, ts[rows], 4)
        assert sub.window_points <= 32 and ts[rows].size == 400  # no row took the direct sum
        np.testing.assert_array_equal(sub.values, table[:, rows])

    @pytest.mark.parametrize("x", [gaussian_signal(1.0), cosine_modulated_poisson(1.5, 3.0)],
                             ids=["gauss-1", "modulated"])
    def test_dense_table_reads_few_values_per_time(self, canonical_kernel, x):
        # 87 % of the sigma = 1 rows pass at M <= 32; a table-wide M read
        # 1,024 points per time for the Gaussian and 128 for the modulated
        # Poisson.  Measured 6.9M and 6.7M values, against 9.6M here
        ts = np.linspace(-20.0, 20.0, 20001)
        count = [0]

        def derivatives(kmax, t):
            count[0] += (kmax + 1) * np.size(t)
            return x.derivatives(kmax, t)

        moment_table(canonical_kernel, replace(x, derivatives=derivatives), ts, 4)
        assert count[0] <= 3 * 32 * ts.size * 5


class TestFrequencyIdentityOfTarget:
    def test_y_transform_factorizes(self, canonical_kernel, canonical_signal):
        # F y = H X checked through an inverse transform at several times
        h, x = canonical_kernel, canonical_signal
        grid = frequency_grid(40.0, 4096)
        HX = h_spectrum(h, grid.nodes) * x.spectrum(grid.nodes)
        for t0 in (-0.5, 0.0, 0.8):
            inv = float(np.real((HX * np.exp(1j * grid.nodes * t0)) @ grid.weights)) / (2 * math.pi)
            assert target_values(h, x, [t0])[0] == pytest.approx(inv, abs=1e-6)
