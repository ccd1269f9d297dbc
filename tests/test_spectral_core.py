import numpy as np
import pytest

from horizon import SpectralGrid, TimeGrid, fourier_transform_at
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
        assert grid.nodes.size % 32 == 0
        assert grid.nodes.size >= 100

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
        np.testing.assert_allclose(np.diff(tg.nodes), 0.1, rtol=1e-12)

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, -1.0, 5)


class TestFourierTransform:
    def test_zero_frequency_is_plain_integral(self, unit_bump):
        grid = SpectralGrid.build(5.0, 256)
        F = fourier_transform_at(unit_bump, unit_bump.support, grid.nodes)
        F0 = fourier_transform_at(unit_bump, unit_bump.support, [0.0])[0]
        nodes, weights = gauss_legendre_rule(-1.0, 1.0, 32)
        assert F0.real == pytest.approx(unit_bump(nodes) @ weights, rel=1e-12)
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
