import math

import numpy as np
import pytest

from horizon.spectral_core import (
    PANEL_DEGREE,
    _adequate_grid,
    default_omega_max,
    fourier_transform_at,
    gauss_legendre_rule,
)

from oracles import frequency_grid, simpson_fourier


def _grid(integrand, r, kinks=(), top=math.inf):
    return _adequate_grid(integrand, r, kinks, top)


class TestSpectralGrid:
    """The grid of every weighted spectral energy (``_adequate_grid``)."""

    def test_nodes_symmetric(self):
        nodes, _, _ = _grid(lambda om: np.exp(-np.abs(om)), 1.0)
        np.testing.assert_array_equal(nodes, -nodes[::-1])
        assert np.all(np.diff(nodes) > 0)

    def test_weights_positive_and_sum_to_measure(self):
        # a zero integrand stops at the first grid, the cut of the weight
        _, weights, _ = _grid(np.zeros_like, 0.5)
        assert np.all(weights > 0)
        np.testing.assert_allclose(weights.sum(), 2 * default_omega_max(0.5), rtol=1e-13)

    def test_rounds_up_to_panel_multiple(self):
        # whole panels of PANEL_DEGREE nodes on each half; a kink splits one
        nodes, _, _ = _grid(np.zeros_like, 2.0)
        kinked, _, _ = _grid(np.zeros_like, 2.0, kinks=(3.3,))
        assert nodes.size == 2 * PANEL_DEGREE * 128
        assert kinked.size == nodes.size + 2 * PANEL_DEGREE

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            _grid(np.zeros_like, -1.0)

    def test_kinks_are_panel_edges(self):
        # the rule integrates a spectrum with a kink at 3.3 and a jump at 7.1
        # exactly where both fall on panel edges
        def integrand(om):
            w = np.abs(om)
            return np.exp(-np.abs(w - 3.3)) * (w <= 7.1)

        _, weights, values = _grid(integrand, 2.0, kinks=(3.3, 7.1))
        exact = 2.0 * ((1.0 - math.exp(-3.3)) + (1.0 - math.exp(-3.8)))
        assert float(values @ weights) == pytest.approx(exact, rel=1e-14)

    def test_doubles_until_the_edge_has_decayed(self):
        # e^{-|w| / 8} needs 8 times the weight's cut for r = 1
        nodes, weights, values = _grid(lambda om: np.exp(-np.abs(om) / 8.0), 1.0)
        assert nodes[-1] > 8.0 * default_omega_max(1.0) * (1.0 - 1e-3)
        assert values[-1] <= 1e-16 * values.max()
        assert float(values @ weights) == pytest.approx(16.0, rel=1e-13)

    def test_covers_every_kink(self):
        # a compact spectrum past the weight's cut is reached, not read as 0
        nodes, weights, values = _grid(lambda om: (np.abs(om) >= 40.0) * (np.abs(om) <= 41.0), 2.0,
                                       kinks=(40.0, 41.0))
        assert float(values @ weights) == pytest.approx(2.0, rel=1e-14)

    def test_none_rather_than_a_truncated_grid(self):
        top = 3.0 * default_omega_max(1.0)
        assert _grid(lambda om: np.exp(-np.abs(om) / 8.0), 1.0, top=top) is None
        nodes, _, _ = _grid(lambda om: np.exp(-np.abs(om) / 2.0), 1.0, top=top)
        assert nodes[-1] <= top


class TestFourierTransform:
    def test_zero_frequency_is_plain_integral(self, unit_bump):
        grid = frequency_grid(5.0, 256)
        F = fourier_transform_at(unit_bump, unit_bump.support, grid.nodes)
        F0 = fourier_transform_at(unit_bump, unit_bump.support, [0.0])[0]
        nodes, weights = gauss_legendre_rule(-1.0, 1.0, 32)
        assert F0.real == pytest.approx(unit_bump(nodes) @ weights, rel=1e-12)
        assert abs(F0.imag) < 1e-14
        assert F.shape == grid.nodes.shape

    def test_even_function_has_real_transform(self, unit_bump):
        grid = frequency_grid(20.0, 512)
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
        # the fewest panels (32) already hold at frequencies up to 20
        omegas = np.array([0.5, 5.0, 20.0])
        F = fourier_transform_at(unit_bump, (-1, 1), omegas)
        ref = [simpson_fourier(lambda t: unit_bump(np.asarray(t)), -1.0, 1.0, om, tol=1e-14) for om in omegas]
        np.testing.assert_allclose(F, ref, rtol=1e-9)

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
