import numpy as np
import pytest

from horizon import (
    SpectralGrid,
    TimeGrid,
    fourier_transform_at,
    laplace_transform,
    parseval_check,
)
from horizon.spectral_core import PANEL_DEGREE, gauss_legendre_rule

from oracles import simpson_fourier


class TestSpectralGrid:
    def test_nodes_symmetric(self):
        grid = SpectralGrid.build(50.0, 1024)
        np.testing.assert_allclose(grid.nodes, -grid.nodes[::-1], rtol=1e-12)
        assert np.all(np.diff(grid.nodes) > 0)

    def test_weights_positive_and_sum_to_measure(self):
        grid = SpectralGrid.build(37.5, 2048)
        assert np.all(grid.weights > 0)
        np.testing.assert_allclose(grid.weights.sum(), 2 * 37.5, rtol=1e-10)

    def test_rounds_up_to_panel_multiple(self):
        grid = SpectralGrid.build(10.0, 100)
        assert grid.n_points % 32 == 0
        assert grid.n_points >= 100

    def test_immutable_arrays(self):
        grid = SpectralGrid.build(10.0, 128)
        with pytest.raises(ValueError):
            grid.nodes[0] = 0.0

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            SpectralGrid.build(-1.0, 128)


class TestTimeGrid:
    def test_uniform_spacing(self):
        tg = TimeGrid(-2.0, 2.0, 41)
        np.testing.assert_allclose(np.diff(tg.nodes), tg.step)
        assert tg.step == pytest.approx(0.1)

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, -1.0, 5)


class TestFourierTransform:
    def test_zero_frequency_is_plain_integral(self, unit_bump):
        grid = SpectralGrid.build(5.0, 256)
        F = fourier_transform_at(unit_bump, unit_bump.support, grid.nodes)
        F0 = fourier_transform_at(unit_bump, unit_bump.support, [0.0])[0]
        assert F0.real == pytest.approx(unit_bump.mass(), rel=1e-12)
        assert abs(F0.imag) < 1e-14
        assert F.shape == grid.nodes.shape

    def test_even_function_has_real_transform(self, unit_bump):
        grid = SpectralGrid.build(20.0, 512)
        F = fourier_transform_at(unit_bump, unit_bump.support, grid.nodes)
        assert np.max(np.abs(F.imag)) < 1e-10

    def test_matches_adaptive_simpson_oracle(self, unit_bump):
        val = fourier_transform_at(unit_bump, unit_bump.support, [2.0])[0]
        ref = simpson_fourier(lambda t: unit_bump(np.asarray(t)), -1.0, 1.0, 2.0, tol=1e-13)
        assert val == pytest.approx(ref, rel=1e-9)

    def test_linearity(self, unit_bump):
        omegas = np.array([0.3, 1.7, 4.2])
        g = lambda t: np.cos(t) * unit_bump(t)
        Ff = fourier_transform_at(unit_bump, (-1, 1), omegas)
        Fg = fourier_transform_at(g, (-1, 1), omegas)
        Fc = fourier_transform_at(lambda t: 2.0 * unit_bump(t) - 3.0 * g(t), (-1, 1), omegas)
        np.testing.assert_allclose(Fc, 2.0 * Ff - 3.0 * Fg, rtol=0, atol=1e-12)

    def test_shift_rule(self, unit_bump):
        c = 0.35
        omegas = np.array([0.5, 1.0, 3.0, 8.0])
        F = fourier_transform_at(unit_bump, (-1, 1), omegas)
        Fs = fourier_transform_at(lambda t: unit_bump(t - c), (-1 + c, 1 + c), omegas)
        np.testing.assert_allclose(Fs, np.exp(-1j * omegas * c) * F, rtol=1e-10)

    def test_panel_refinement_converged(self, unit_bump):
        omegas = np.array([0.5, 5.0, 20.0])
        F1 = fourier_transform_at(unit_bump, (-1, 1), omegas, base_panels=32)
        F2 = fourier_transform_at(unit_bump, (-1, 1), omegas, base_panels=64)
        np.testing.assert_allclose(F1, F2, rtol=1e-9)

    def test_rejects_infinite_support(self, unit_bump):
        with pytest.raises(ValueError):
            fourier_transform_at(unit_bump, (-np.inf, 1.0), [1.0])

    def test_rejects_nan(self):
        bad = lambda t: np.full_like(np.asarray(t, dtype=float), np.nan)
        with pytest.raises(ValueError):
            fourier_transform_at(bad, (0.0, 1.0), [1.0])


class TestLaplaceTransform:
    def test_zero_function(self):
        zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        assert laplace_transform(zero, (0.0, 1.0), 1 + 2j) == 0.0

    def test_z_zero_is_plain_integral(self, canonical_kernel):
        h = canonical_kernel
        q = lambda t: h(t - h.T)
        val = laplace_transform(q, (0.0, h.width), 0.0)
        assert val.real == pytest.approx(1.0, rel=1e-10)

    def test_matches_adaptive_oracle(self, canonical_kernel):
        h = canonical_kernel
        q = lambda t: h(np.asarray(t) - h.T)
        z = 1.0 + 2.0j
        val = laplace_transform(q, (0.0, h.width), z)
        from oracles import adaptive_simpson

        ref = adaptive_simpson(lambda t: np.exp(-z * t) * q(t), 0.0, h.width, tol=1e-13)
        assert val == pytest.approx(ref, rel=1e-9)

    def test_imaginary_axis_agrees_with_fourier(self, canonical_kernel):
        h = canonical_kernel
        q = lambda t: h(np.asarray(t) - h.T)
        for om in (0.5, 2.0):
            lhs = laplace_transform(q, (0.0, h.width), 1j * om)
            rhs = fourier_transform_at(q, (0.0, h.width), [om])[0]
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rejects_negative_start(self, unit_bump):
        with pytest.raises(ValueError):
            laplace_transform(unit_bump, (-1.0, 1.0), 1.0)


class TestParseval:
    def test_adequate_grid(self, unit_bump):
        grid = SpectralGrid.build(200.0, 8192)
        disc = parseval_check(unit_bump, unit_bump.support, grid)
        assert disc < 1e-8

    def test_truncated_grid_flagged(self, unit_bump):
        grid = SpectralGrid.build(2.0, 512)
        disc = parseval_check(unit_bump, unit_bump.support, grid)
        assert disc > 1e-3

    def test_scale_invariant(self, unit_bump):
        grid = SpectralGrid.build(60.0, 2048)
        d1 = parseval_check(unit_bump, unit_bump.support, grid)
        d2 = parseval_check(lambda t: 7.5 * unit_bump(t), unit_bump.support, grid)
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_zero_function_rejected(self):
        grid = SpectralGrid.build(10.0, 256)
        zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        with pytest.raises(ValueError):
            parseval_check(zero, (0.0, 1.0), grid)


def test_gauss_legendre_panels_integrate_polynomials():
    nodes, weights = gauss_legendre_rule(-1.0, 3.0, 4)
    for k in (0, 3, 11):
        exact = (3.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        assert (nodes**k) @ weights == pytest.approx(exact, rel=1e-13)


def test_tabulated_rule_is_numpys_leggauss():
    # the tabulated 16-point rule is numpy's eigenvalue solution, bit for bit
    nodes, weights = gauss_legendre_rule(-1.0, 1.0, 1)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(PANEL_DEGREE)
    assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)
