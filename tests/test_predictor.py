import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from horizon import (
    Polynomial,
    SpectralGrid,
    TimeGrid,
    beta_energy,
    build_predictor,
    error_bound_parts,
    bump_kernel,
    h_spectrum,
    noise_bound,
    noise_norm,
    poisson_signal,
    predict_values,
    q_spectrum,
    run_prediction,
    superposition,
    target_values,
    taylor_psi,
    chirp_noise,
    gaussian_signal,
    zero_signal,
)
from horizon.signals import Signal
from horizon.polynomials import projection_psi
from horizon import predictor
from horizon.predictor import _band_spectrum, _moment_table, _predict_from, transfer_norms

from oracles import (
    adaptive_simpson,
    bump_transform_mp,
    chirp_transfer_prediction_mp,
    gram_l2_norm_sq,
    padded_band_spectrum,
    transfer_prediction_mp,
)

T, TH, R, A = 0.5, 0.1, 2.0, 1.5


def _noise_error(pk, h, eta, ts):
    """sup_t |(hhat_d * eta)(t) - (h * eta)(t)|: the extra error a noise term induces."""
    return float(np.max(np.abs(predict_values(pk, eta, ts) - target_values(h, eta, ts))))


@pytest.fixture(scope="module")
def pk_small(canonical_kernel):
    return build_predictor(canonical_kernel, taylor_psi(T, 4))


@pytest.fixture(scope="module")
def pk_big(canonical_kernel):
    return build_predictor(canonical_kernel, taylor_psi(T, 10))


class TestAssembly:
    def test_degree_zero_is_delayed_kernel(self, canonical_kernel):
        pk = build_predictor(canonical_kernel, Polynomial((1.0,)))
        ts = np.linspace(0.0, pk.tau, 19)
        np.testing.assert_allclose(
            pk(ts).real, canonical_kernel(ts - T), rtol=1e-13, atol=1e-300)

    def test_support(self, pk_small):
        assert pk_small(-0.01) == 0.0
        assert pk_small(pk_small.tau + 0.01) == 0.0
        assert pk_small.tau == T + TH

    def test_degree_cap(self, canonical_kernel):
        with pytest.raises(ValueError):
            build_predictor(canonical_kernel, taylor_psi(T, canonical_kernel.d_max + 1))

    def test_transfer_identity_small_d(self, pk_small):
        omegas = np.array([0.0, 1.0, 3.0])
        lhs = pk_small.spectrum(omegas)
        rhs = pk_small.psi.at_iw(omegas) * q_spectrum(pk_small.h, omegas)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-8)

    def test_transfer_identity_equals_shifted_H(self, pk_small, canonical_kernel):
        # psi Q written as e^{-i w T} psi H
        omegas = np.array([0.5, 2.0, 7.0])
        H = h_spectrum(canonical_kernel, omegas)
        rhs = np.exp(-1j * omegas * T) * pk_small.psi.at_iw(omegas) * H
        closed = pk_small.psi.at_iw(omegas) * q_spectrum(canonical_kernel, omegas)
        np.testing.assert_allclose(closed, rhs, rtol=1e-9)

    def test_l1_mass_triggers_extended(self, pk_small, pk_big):
        assert not pk_small.needs_extended()
        assert pk_big.needs_extended()


class TestTarget:
    def test_zero_signal(self, canonical_kernel):
        assert target_values(canonical_kernel, zero_signal(), [0.3])[0] == 0.0

    def test_against_adaptive_quadrature(self, canonical_kernel, canonical_signal):
        h, x = canonical_kernel, canonical_signal
        t0 = 0.0
        ref = adaptive_simpson(
            lambda u: h(np.asarray(u)) * x.time(np.asarray(t0 - u)), -T, TH, tol=1e-13)
        assert target_values(h, x, [t0])[0] == pytest.approx(ref, rel=1e-9)

    def test_spectral_factorization(self, canonical_kernel, canonical_signal):
        # y(0) = (1/2pi) int H(i w) X(i w) dw
        h, x = canonical_kernel, canonical_signal
        grid = SpectralGrid.build(40.0, 4096)
        H = h_spectrum(h, grid.nodes)
        X = x.spectrum(grid.nodes)
        via_freq = float(np.real((H * X) @ grid.weights)) / (2.0 * math.pi)
        assert target_values(h, x, [0.0])[0] == pytest.approx(via_freq, rel=1e-6)


class TestPredict:
    def test_zero_signal(self, pk_small):
        assert predict_values(pk_small, zero_signal(), [0.2])[0] == 0.0

    def test_degree_zero_predicts_delayed_target(self, canonical_kernel, canonical_signal):
        pk = build_predictor(canonical_kernel, Polynomial((1.0,)))
        for t0 in (-0.5, 0.0, 1.2):
            lhs = predict_values(pk, canonical_signal, [t0])[0]
            rhs = target_values(canonical_kernel, canonical_signal, [t0 - T])[0]
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_linearity(self, pk_small):
        x1, x2 = poisson_signal(1.5), gaussian_signal(0.7)
        combo = superposition([x1, x2], [0.7, -1.3])
        t0 = 0.4
        lhs = predict_values(pk_small, combo, [t0])[0]
        rhs = 0.7 * predict_values(pk_small, x1, [t0])[0] - 1.3 * predict_values(pk_small, x2, [t0])[0]
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_never_reads_future_samples(self, pk_small, canonical_signal):
        accessed = []

        def spy(ts):
            ts = np.asarray(ts, dtype=float)
            accessed.append(ts.max())
            return canonical_signal.time(ts)

        x = Signal(kind="spy", params={}, time=spy)
        for t0 in (-1.0, 0.0, 0.7):
            predict_values(pk_small, x, [t0])
            assert max(accessed) < t0
            accessed.clear()

    def test_memory_window_is_tau(self, pk_small, canonical_signal):
        lows = []

        def spy(ts):
            ts = np.asarray(ts, dtype=float)
            lows.append(ts.min())
            return canonical_signal.time(ts)

        x = Signal(kind="spy", params={}, time=spy)
        t0 = 0.25
        predict_values(pk_small, x, [t0])
        assert min(lows) > t0 - pk_small.tau

    def test_complex_coefficients_take_real_part_at_output(self, canonical_kernel,
                                                           canonical_signal):
        pk = build_predictor(canonical_kernel, Polynomial((1.0, 0.1j)))
        assert not pk.real_coeffs
        t0 = 0.3
        val = predict_values(pk, canonical_signal, [t0])[0]
        nodes, weights, values, _ = pk._double_table()
        manual = float(np.real(np.sum(weights * values * canonical_signal.time(t0 - nodes))))
        assert val == pytest.approx(manual, rel=1e-12)
        # the complex branch of the assembled-kernel transform stays consistent
        omegas = np.array([0.5, 2.0])
        closed = pk.psi.at_iw(omegas) * q_spectrum(canonical_kernel, omegas)
        np.testing.assert_allclose(pk.spectrum(omegas), closed, rtol=1e-8)

    def test_double_and_extended_paths_agree_at_low_degree(self, pk_small, canonical_signal):
        # derivative transfer against the sample path, forced at d = 4
        # where the sample path is still accurate
        ts = np.linspace(-1, 1, 5)
        a = predict_values(pk_small, canonical_signal, ts)
        b = _predict_from(pk_small, _moment_table(pk_small.h, canonical_signal, ts, pk_small.d))
        np.testing.assert_allclose(b, a, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("method", ["taylor", "projection"])
    def test_sample_table_against_per_degree_quadrature(self, canonical_kernel, canonical_signal,
                                                        method):
        # below the switch every degree of a sweep reads one sample-moment
        # table on the top degree's panel rule; each stays within the
        # roundoff floor 1e-15 l1_mass of its own node-table quadrature
        pks = [build_predictor(canonical_kernel,
                               taylor_psi(T, d) if method == "taylor" else projection_psi(T, R, d))
               for d in range(5)]
        ts = np.linspace(-2.0, 2.0, 41)
        for pk in pks:
            assert not pk.needs_extended()
            nodes, weights, values, l1_mass = pk._double_table()
            ref = np.real(canonical_signal.time(ts[:, None] - nodes) @ (weights * values))
            np.testing.assert_allclose(predict_values(pk, canonical_signal, ts, sweep=pks), ref,
                                       rtol=0, atol=1e-15 * l1_mass)

    def test_signal_without_derivative_takes_sample_path(self, pk_small, pk_big,
                                                         canonical_signal):
        # below the roundoff switch both signals take the sample path; past
        # it a signal without derivatives is refused, not returned as roundoff
        samples_only = Signal(kind="samples", params={}, time=canonical_signal.time)
        ts = np.array([-0.5, 0.4])
        np.testing.assert_array_equal(predict_values(pk_small, samples_only, ts),
                                      predict_values(pk_small, canonical_signal, ts))
        with pytest.raises(ValueError, match="l1_mass"):
            predict_values(pk_big, samples_only, ts)

    def test_assembled_transform_refused_past_roundoff_switch(self, pk_big):
        with pytest.raises(ValueError, match="l1_mass"):
            pk_big.spectrum(np.array([1.0]))

    @pytest.mark.parametrize("method", ["taylor", "projection"])
    @pytest.mark.parametrize("d", [10, 12, 16])
    def test_derivative_transfer_against_70_digits(self, canonical_kernel, canonical_signal,
                                                   method, d):
        psi = taylor_psi(T, d) if method == "taylor" else projection_psi(T, R, d)
        pk = build_predictor(canonical_kernel, psi)
        assert pk.needs_extended()
        ts = np.linspace(-2.0, 2.0, 5)
        ref = transfer_prediction_mp(psi.coeffs, T, TH, A, ts, dps=70)
        np.testing.assert_allclose(predict_values(pk, canonical_signal, ts), ref,
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("method", ["taylor", "projection"])
    @pytest.mark.parametrize("d", [10, 12, 16])
    def test_chirp_transfer_against_70_digits(self, canonical_kernel, method, d):
        # the chirp moments are O(12^k), so the sum over k carries a
        # roundoff floor eps sum_k |Re a_k| |M_k| of about 1.2e-14 here
        # (measured errors 1.9e-15 to 3.7e-15); 1e-14 is that floor
        psi = taylor_psi(T, d) if method == "taylor" else projection_psi(T, R, d)
        pk = build_predictor(canonical_kernel, psi)
        assert pk.needs_extended()
        ts = np.linspace(-2.0, 2.0, 5)
        ref = chirp_transfer_prediction_mp(psi.coeffs, T, TH, (6.0, 12.0), 1.0, ts, dps=70)
        np.testing.assert_allclose(predict_values(pk, chirp_noise((6.0, 12.0), 1.0), ts), ref,
                                   rtol=0, atol=1e-14)

    def test_sweep_reads_one_moment_table(self, canonical_kernel):
        # a named sweep evaluates the signal's derivative stack once per
        # row block, up to its top degree, whatever degree it starts from
        # (the chirp without its lines, which take the other transfer route)
        calls = []
        base = replace(chirp_noise((6.0, 12.0), 1.0), lines=None)

        def counted(kmax, t):
            calls.append(kmax)
            return base.derivatives(kmax, t)

        x = replace(base, derivatives=counted)
        ts = np.linspace(-2.0, 2.0, 7)
        pks = [build_predictor(canonical_kernel, taylor_psi(T, d)) for d in range(6, 13)]
        for pk in pks:
            got = predict_values(pk, x, ts, sweep=pks)
            np.testing.assert_array_equal(
                got, _predict_from(pk, _moment_table(canonical_kernel, base, ts, pk.d)))
        assert calls == [12]

    @pytest.mark.parametrize("n_points", [41, 201], ids=["one-block", "two-blocks"])
    def test_chirp_lines_table_matches_derivative_table(self, canonical_kernel, n_points):
        # the same double sum over kernel nodes and lines, taken over the
        # nodes first; a block's rule is no finer than the whole grid's
        ts = np.linspace(-2.0, 2.0, n_points)
        nodes, _ = predictor._target_rule(canonical_kernel)
        assert len(predictor._row_blocks(n_points, nodes.size)) == (n_points > 41) + 1
        eta = chirp_noise((6.0, 12.0), 1.0)
        lines = _moment_table(canonical_kernel, eta, ts, 12)
        stacks = _moment_table(canonical_kernel, replace(eta, lines=None), ts, 12)
        scale = np.max(np.abs(stacks), axis=1, keepdims=True)
        assert np.all(np.abs(lines - stacks) <= 2e-15 * scale)

    @pytest.mark.parametrize("d", [4, 12], ids=["sample", "transfer"])
    def test_sweep_tables_are_kept_per_signal_object(self, d):
        # two signals of one kind and params but different values: each
        # reads its own table (a table cache keyed by kind and params gave
        # the second the first's predictions, 0.10 off at d = 12)
        h = bump_kernel(T, TH)
        pk = build_predictor(h, taylor_psi(T, d))
        assert pk.needs_extended() == (d == 12)
        xs = [Signal(kind="custom", params={}, time=p.time, derivatives=p.derivatives)
              for p in (poisson_signal(1.5), poisson_signal(3.0))]
        ts = np.linspace(-2.0, 2.0, 9)
        got = [predict_values(pk, x, ts, sweep=[pk]) for x in xs]
        for x, y_hat in zip(xs, got):
            np.testing.assert_array_equal(y_hat, predict_values(pk, x, ts))
        assert np.max(np.abs(got[0] - got[1])) > 0.05

    @pytest.mark.parametrize("d", [4, 12], ids=["sample", "transfer"])
    def test_sweep_tables_do_not_pile_up(self, d):
        # a caller that builds an equal signal afresh for every sweep keeps
        # at most two tables per route on the kernel
        h = bump_kernel(T, TH)
        pk = build_predictor(h, taylor_psi(T, d))
        ts = np.linspace(-2.0, 2.0, 9)
        for _ in range(5):
            predict_values(pk, poisson_signal(A), ts, sweep=[pk])
        tables = [v for v in h._spectra.values() if isinstance(v, list)]
        assert len(tables) == 1
        assert len(tables[0]) == 2


class TestErrorBound:
    def test_q_on_mirrored_grid_from_positive_half(self, monkeypatch):
        # each test builds its own kernel: _q_on_grid caches per kernel
        h = bump_kernel(T, TH)
        sizes = []

        def counted(h_, omegas, *args):
            sizes.append(np.size(omegas))
            return q_spectrum(h_, omegas, *args)

        monkeypatch.setattr(predictor, "q_spectrum", counted)
        grid = SpectralGrid.for_rate(R, 4096)
        np.testing.assert_array_equal(predictor._q_on_grid(h, grid), q_spectrum(h, grid.nodes))
        assert sizes == [grid.n_points // 2]
        # a grid that is not mirrored about 0 is transformed node by node
        nodes = grid.nodes + 0.25
        shifted = SpectralGrid(omega_max=grid.omega_max, nodes=nodes, weights=grid.weights)
        np.testing.assert_array_equal(predictor._q_on_grid(h, shifted), q_spectrum(h, nodes))
        assert sizes[1:] == [grid.n_points]

    def test_beta_where_the_weight_overflows(self, canonical_kernel):
        # on the a = 1.005 grid (omega_max 3684) e^{r omega} overflows
        # against |Q X|^2 = 0; beta is finite, below the a -> r/2 limit
        # 2 pi ||h||^2 (Parseval) and above beta at a larger a
        nodes, weights = predictor._target_rule(canonical_kernel)
        parseval = 2.0 * math.pi * float(canonical_kernel(nodes) ** 2 @ weights)
        beta = beta_energy(canonical_kernel, poisson_signal(1.005), R)
        assert beta_energy(canonical_kernel, poisson_signal(1.05), R) < beta < parseval

    def test_beta_beyond_double_range_refused(self, canonical_kernel):
        with pytest.raises(predictor.BoundRangeError, match="exceeds double range"):
            beta_energy(canonical_kernel, gaussian_signal(0.02), R)

    def test_beta_value_and_grid_stability(self, canonical_kernel, canonical_signal):
        b1 = beta_energy(canonical_kernel, canonical_signal, R)
        b2 = beta_energy(canonical_kernel, canonical_signal, R,
                         SpectralGrid.build(60.0, 8192))
        assert b1 == pytest.approx(b2, rel=1e-9)

    def test_degenerate_exact_predictor_zero_bound(self, canonical_kernel, canonical_signal):
        # T = 0 with psi = 1 represents the exponent exactly: alpha = 0
        from horizon.polynomials import alpha_closed_form

        assert alpha_closed_form(Polynomial((1.0,)), 0.0, R) == 0.0

    def test_positive_and_taylor_decay(self, canonical_kernel, canonical_signal):
        pk6 = build_predictor(canonical_kernel, taylor_psi(T, 6))
        pk8 = build_predictor(canonical_kernel, taylor_psi(T, 8))
        b6 = error_bound_parts(pk6, canonical_signal, R)[2]
        b8 = error_bound_parts(pk8, canonical_signal, R)[2]
        assert 0 < b8 <= b6 / 2.0

    def test_signal_outside_class_rejected(self, canonical_kernel):
        thin = poisson_signal(0.9)  # 2a < r
        pk = build_predictor(canonical_kernel, taylor_psi(T, 4))
        with pytest.raises(ValueError, match="outside"):
            error_bound_parts(pk, thin, R)

    def test_bound_validity_on_grid(self, pk_small, canonical_signal, canonical_tgrid):
        res = run_prediction(pk_small, canonical_signal, canonical_tgrid, R)
        assert res.sup_error <= res.bound * (1 + 1e-6) + 1e-8


class TestConvergenceInDegree:
    def test_sup_error_non_increasing_projection(self, canonical_kernel, canonical_signal,
                                                 canonical_tgrid):
        sups = []
        for d in range(0, 11):
            pk = build_predictor(canonical_kernel, projection_psi(T, R, d))
            res = run_prediction(pk, canonical_signal, canonical_tgrid, R)
            sups.append(res.sup_error)
        for s1, s2 in zip(sups, sups[1:]):
            assert s2 <= s1 + 1e-10


class TestNoise:
    def test_zero_noise(self, pk_small, canonical_kernel, canonical_tgrid):
        eta = zero_signal()
        assert _noise_error(pk_small, canonical_kernel, eta, canonical_tgrid.nodes) == 0.0
        assert noise_norm(eta, 2, SpectralGrid.for_rate(2.0, 4096)) == 0.0

    def test_noise_bound_linearity(self, pk_small, canonical_kernel, grid_r2):
        b1 = noise_bound(pk_small, canonical_kernel, 0.1, 2, grid_r2)
        b2 = noise_bound(pk_small, canonical_kernel, 0.2, 2, grid_r2)
        assert b2 == pytest.approx(2.0 * b1, rel=1e-14)

    def test_grid_norms_read_the_q_cache(self, monkeypatch):
        # on an explicit grid Q comes from _q_on_grid's per-kernel cache, as
        # beta's does: one transform of the positive half for every degree and p
        h = bump_kernel(T, TH)
        sizes = []

        def counted(h_, omegas, *args):
            sizes.append(np.size(omegas))
            return q_spectrum(h_, omegas, *args)

        monkeypatch.setattr(predictor, "q_spectrum", counted)
        grid = SpectralGrid.for_rate(R, 2048)
        for d in (2, 4):
            pk = build_predictor(h, taylor_psi(T, d))
            for p in (1, 2):
                transfer_norms(pk, h, p, grid)
        assert sizes == [grid.n_points // 2]

    def test_bound_grows_with_degree(self, canonical_kernel):
        # norms taken on the transfer band, where the degree blow-up lives
        pk4 = build_predictor(canonical_kernel, taylor_psi(T, 4))
        pk10 = build_predictor(canonical_kernel, taylor_psi(T, 10))
        for p in (1, 2):
            b4 = noise_bound(pk4, canonical_kernel, 0.1, p)
            b10 = noise_bound(pk10, canonical_kernel, 0.1, p)
            assert b10 > b4

    def test_empirical_below_bound(self, pk_small, canonical_kernel, canonical_tgrid, grid_r2):
        eta = chirp_noise((6.0, 12.0), 0.05)
        noise_error = _noise_error(pk_small, canonical_kernel, eta, canonical_tgrid.nodes)
        slope = noise_bound(pk_small, canonical_kernel, 1.0, 2)  # norms on the transfer band
        assert noise_error <= noise_norm(eta, 2, grid_r2) * slope + 1e-10

    def test_doubling_noise_doubles_error(self, pk_small, canonical_kernel, canonical_tgrid):
        e1, e2 = (_noise_error(pk_small, canonical_kernel, chirp_noise((6.0, 12.0), amp),
                               canonical_tgrid.nodes) for amp in (0.05, 0.10))
        assert e2 == pytest.approx(2.0 * e1, rel=1e-12)


class TestTransferNorms:
    @pytest.mark.parametrize("method", ["taylor", "projection"])
    @pytest.mark.parametrize("d", [12, 16])
    def test_l2_norm_against_gram_identity(self, canonical_kernel, method, d):
        psi = taylor_psi(T, d) if method == "taylor" else projection_psi(T, R, d)
        pk = build_predictor(canonical_kernel, psi)
        ref = math.sqrt(2.0 * math.pi * gram_l2_norm_sq(canonical_kernel, psi.coeffs))
        assert transfer_norms(pk, canonical_kernel, 2)[0] == pytest.approx(ref, rel=1e-11)


BAND_KERNELS = pytest.mark.parametrize("T_, theta", [(T, TH), (2.0, 0.5)], ids=["canonical", "wide"])


def _oracle_band(h):
    return padded_band_spectrum(h, predictor._SCAN_OMEGA_MAX, predictor._BAND_PAD)


class TestBandSpectrum:
    @pytest.mark.parametrize("T_, theta, targets", [
        (T, TH, (0.0, 37.0, 141.0, 1062.0, 1930.0, 4000.0, 9000.0, 16000.0)),
        # 4x wider: 4x longer short transforms
        (2.0, 0.5, (0.0, 37.0, 141.0, 1062.0, 4000.0, 9000.0, 16000.0)),
    ])
    def test_fft_band_against_30_digits(self, T_, theta, targets):
        # at 4000, 9000 and 16000 |Q| is below 5e-18 and the band is within
        # 1e-17 of it (canonical 3.3e-18, 3.5e-18, 8.5e-18; wide 5.3e-19,
        # 1.8e-18, 7.6e-18)
        h = bump_kernel(T_, theta)
        step, q_abs = _band_spectrum(h)
        omegas = step * np.arange(q_abs.size)
        assert omegas[-1] <= predictor._SCAN_OMEGA_MAX < omegas[-1] + step
        assert step <= 2.0 * math.pi / (predictor._BAND_PAD * h.width)
        for target_omega in targets:
            i = int(np.argmin(np.abs(omegas - target_omega)))
            assert q_abs[i] == pytest.approx(bump_transform_mp(omegas[i], h.width),
                                             rel=0.0, abs=1e-15)

    @pytest.mark.parametrize("T_, theta", [(T, TH), (2.0, 0.5)])
    def test_panel_factored_q_against_30_digits(self, T_, theta):
        # the factored transform is as close to the 30-digit values at these
        # frequencies as the node-by-node one was (at most 4.5e-16)
        h = bump_kernel(T_, theta)
        omegas = np.array([0.0, 37.0, 141.0, 1062.0])
        ref = [bump_transform_mp(om, h.width) for om in omegas]
        np.testing.assert_allclose(np.abs(q_spectrum(h, omegas)), ref, rtol=0.0, atol=5e-16)

    @pytest.mark.parametrize("T_, theta", [(T, TH), (2.0, 0.5)])
    def test_fft_band_against_quadrature(self, T_, theta):
        # q_spectrum rounds the phase omega t of each node, which leaves it
        # up to 2e-15 (canonical) and 3e-14 (wide) off the 30-digit values
        # at omega <= 2000; the FFT's twiddles are exact to 3e-18 there
        h = bump_kernel(T_, theta)
        step, q_abs = _band_spectrum(h)
        omegas = step * np.arange(q_abs.size)
        sel = np.flatnonzero(omegas <= 2000.0)[::29]
        np.testing.assert_allclose(q_abs[sel], np.abs(q_spectrum(h, omegas[sel])),
                                   rtol=0.0, atol=1e-13)

    @BAND_KERNELS
    def test_band_uses_short_transforms(self, monkeypatch, T_, theta):
        # the band is P transforms of length L, L the smallest power of two
        # >= n + 1 (8192 canonical, 32768 wide), never one of length m = L P
        h = bump_kernel(T_, theta)
        n = math.ceil(2.0 * predictor._SCAN_OMEGA_MAX * h.width / math.pi)
        lengths = []
        for name in ("fft", "rfft"):
            def spy(a, n_=None, *args, _f=getattr(np.fft, name), **kwargs):
                lengths.append(np.shape(a)[-1] if n_ is None else n_)
                return _f(a, n_, *args, **kwargs)
            monkeypatch.setattr(predictor.np.fft, name, spy)
        _band_spectrum(h)
        assert lengths and max(lengths) == 1 << n.bit_length() == {T: 8192, 2.0: 32768}[T_]

    @BAND_KERNELS
    def test_band_matches_padded_fft(self, T_, theta):
        # the same DFT samples as one FFT zero-padded to 2^20 (2^22 wide);
        # measured within 5.6e-16 (canonical) and 4.4e-16 (wide)
        h = bump_kernel(T_, theta)
        step, q_abs = _band_spectrum(h)
        ref_step, ref = _oracle_band(h)
        assert step == ref_step and q_abs.size == ref.size
        np.testing.assert_allclose(q_abs, ref, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("method, d", [("taylor", d) for d in range(2, 8)] + [("projection", 16)])
    def test_p1_sup_against_padded_fft(self, canonical_kernel, method, d):
        # the sup over the chunked band against the sup of the long FFT's
        # band; taylor d = 6 moves most, 5.2e-13, where |Q| is 4.6e-6
        psi = taylor_psi(T, d) if method == "taylor" else projection_psi(T, R, d)
        pk = build_predictor(canonical_kernel, psi)
        step, q_abs = _oracle_band(canonical_kernel)
        prod = np.abs(psi.at_iw(step * np.arange(q_abs.size))) * q_abs
        ref = min(float(np.max(prod)), pk.l1_mass)
        assert transfer_norms(pk, canonical_kernel, 1)[0] == pytest.approx(ref, rel=1e-12)

    def test_p1_sup_streams(self, canonical_kernel):
        # with the band cached, the sup takes about one chunk of memory, not
        # a band-sized complex psi_d(i omega) (8.0 MB for the canonical band)
        _band_spectrum(canonical_kernel)
        pk = build_predictor(canonical_kernel, taylor_psi(T, 6))
        tracemalloc.start()
        try:
            transfer_norms(pk, canonical_kernel, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("method, d", [("taylor", d) for d in (0, 4, 8, 10, 12, 16)]
                             + [("projection", 16)])
    def test_p1_sup_within_l1_mass(self, canonical_kernel, method, d):
        # |F f(omega)| <= ||f||_1 holds exactly for every omega
        psi = taylor_psi(T, d) if method == "taylor" else projection_psi(T, R, d)
        pk = build_predictor(canonical_kernel, psi)
        sup_hhat, sup_h = transfer_norms(pk, canonical_kernel, 1)
        assert sup_hhat <= pk.l1_mass
        assert sup_h == pytest.approx(1.0, rel=1e-15)

    @pytest.fixture(scope="class")
    def q_scan(self, canonical_kernel):
        omegas = np.linspace(0.0, 2500.0, 25001)
        return omegas, np.abs(q_spectrum(canonical_kernel, omegas))

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_p1_sup_against_quadrature_scan(self, canonical_kernel, q_scan, d):
        # at these degrees the peak of |psi_d Q| lies well below omega = 2500
        omegas, q_abs = q_scan
        pk = build_predictor(canonical_kernel, taylor_psi(T, d))
        ref = float(np.max(np.abs(pk.psi.at_iw(omegas)) * q_abs))
        assert transfer_norms(pk, canonical_kernel, 1)[0] == pytest.approx(ref, rel=1e-3)

    def test_d10_sup_is_not_roundoff(self, canonical_kernel):
        # the two-stage quadrature scan returned 6.85e18 here: |psi_10| times roundoff of |Q|
        pk = build_predictor(canonical_kernel, taylor_psi(T, 10))
        assert transfer_norms(pk, canonical_kernel, 1)[0] <= 9.46e11 * (1.0 + 1e-6)


class TestSamplePathBlocks:
    def test_blocks_match_one_product(self, monkeypatch, pk_small, canonical_signal):
        # no sweep is named, so each call builds its table: no cache hit
        ts = np.linspace(-2.0, 2.0, 301)
        h = pk_small.h
        whole_y = predictor.target_values(h, canonical_signal, ts)
        whole_y_hat = predict_values(pk_small, canonical_signal, ts)
        monkeypatch.setattr(predictor, "_BLOCK_ELEMENTS", 1)  # 16-row blocks
        assert len(predictor._row_blocks(ts.size, 100)) == 19
        np.testing.assert_allclose(predictor.target_values(h, canonical_signal, ts),
                                   whole_y, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(predict_values(pk_small, canonical_signal, ts),
                                   whole_y_hat, rtol=0.0, atol=1e-15)

    def test_dense_grid_peaks_below_three_blocks(self, canonical_signal):
        # the argument block lives in one reused buffer and the Poisson
        # time evaluator allocates only its result block; on the transfer
        # route the row blocks are sized by the whole 13-deep derivative stack
        h = bump_kernel(T, TH)
        pk = build_predictor(h, taylor_psi(T, 4))
        assert not pk.needs_extended()  # node table built before tracing
        pk12 = build_predictor(h, taylor_psi(T, 12))
        assert pk12.needs_extended()
        ts = np.linspace(-20.0, 20.0, 20001)
        block = predictor._BLOCK_ELEMENTS * 8
        for run in (lambda: predictor.target_values(h, canonical_signal, ts),
                    lambda: predict_values(pk, canonical_signal, ts),
                    lambda: predict_values(pk12, canonical_signal, ts)):
            tracemalloc.start()
            try:
                out = run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - out.nbytes < 3 * block


class TestPredictionResult:
    def test_summary_fields(self, pk_small, canonical_signal, canonical_tgrid):
        res = run_prediction(pk_small, canonical_signal, canonical_tgrid, R, method="taylor")
        s = res.summary()
        assert set(s) == {"sup_error", "bound", "alpha", "beta", "d", "method"}
        assert s["d"] == 4 and s["method"] == "taylor"
        assert res.sup_error == pytest.approx(
            float(np.max(np.abs(res.y - res.y_hat))))

    def test_rows_align_with_grid(self, pk_small, canonical_signal):
        tg = TimeGrid(-1.0, 1.0, 5)
        res = run_prediction(pk_small, canonical_signal, tg, R)
        rows = list(res.rows())
        assert len(rows) == 5
        assert rows[0][0] == -1.0


class TestFrequencyIdentityOfTarget:
    def test_y_transform_factorizes(self, canonical_kernel, canonical_signal):
        # F y = H X checked through an inverse transform at several times
        h, x = canonical_kernel, canonical_signal
        grid = SpectralGrid.build(40.0, 4096)
        HX = h_spectrum(h, grid.nodes) * x.spectrum(grid.nodes)
        for t0 in (-0.5, 0.0, 0.8):
            inv = float(np.real((HX * np.exp(1j * grid.nodes * t0)) @ grid.weights)) / (2 * math.pi)
            assert target_values(h, x, [t0])[0] == pytest.approx(inv, abs=1e-6)
