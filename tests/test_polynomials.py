import math

import numpy as np
import pytest

from horizon.polynomials import (
    Polynomial,
    alpha_closed_form,
    projection_psi,
    taylor_alpha_bound,
    taylor_psi,
)

from oracles import (
    adaptive_simpson,
    alpha_closed_form_mp,
    alpha_grid_bound,
    alpha_of,
    frequency_grid,
    projection_mp,
    projection_rounding_floor_mp,
)

T, R = 0.5, 2.0


def alpha_grid(T_, r_, d_):
    return frequency_grid(alpha_grid_bound(T_, r_, d_), 4096)


class TestPolynomial:
    def test_horner_matches_power_sum(self):
        rng = np.random.default_rng(42)
        coeffs = rng.normal(size=13)
        psi = Polynomial(tuple(coeffs))
        for om in rng.uniform(-5, 5, size=8):
            direct = sum(c * (1j * om) ** k for k, c in enumerate(coeffs))
            assert psi(1j * om) == pytest.approx(direct, rel=1e-14)

    def test_degree(self):
        assert Polynomial((1.0, 2.0, 0.5)).degree == 2

    @pytest.mark.parametrize("coeffs", [(1.0, 0.1j), (1.0, 0.5 + 0j), (np.complex64(1.0),),
                                        (1.0, np.complex128(0.5))])
    def test_complex_coefficient_refused(self, coeffs):
        with pytest.raises(ValueError, match="real"):
            Polynomial(coeffs)

    def test_real_coefficients_accepted_as_floats(self):
        # the check reads the numbers ABCs, so numpy's real scalars pass without numpy imported
        psi = Polynomial((2, np.float32(0.5), np.float64(0.25)))
        assert psi.coeffs == (2.0, 0.5, 0.25)
        assert all(type(c) is float for c in psi.coeffs)


class TestTaylorPsi:
    def test_coefficients(self):
        psi = taylor_psi(1.0, 2)
        np.testing.assert_allclose(psi.coeffs, [1.0, 1.0, 0.5])

    def test_zero_horizon(self):
        psi = taylor_psi(0.0, 5)
        np.testing.assert_allclose(psi.coeffs, [1, 0, 0, 0, 0, 0])

    def test_converges_pointwise(self):
        psi = taylor_psi(0.5, 8)
        assert abs(psi(1j * 1.0) - np.exp(0.5j)) < 1e-6

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            taylor_psi(0.5, 200)


class TestProjectionPsi:
    def test_degree_zero_constant(self):
        # c0 = r^2 / (r^2 + T^2); for r=2, T=1 that is 0.8
        assert projection_psi(1.0, 2.0, 0).coeffs == (0.8,)

    def test_zero_horizon_exact(self):
        for d in (0, 3, 7):
            assert projection_psi(0.0, 2.0, d).coeffs == (1.0,) + (0.0,) * d

    def test_coefficients_real(self):
        # the even weight makes every z-coefficient real: plain floats, no imaginary part to drop
        for d in (4, 9):
            assert all(type(c) is float for c in projection_psi(T, R, d).coeffs)

    def test_beats_taylor(self):
        a_proj = alpha_closed_form(projection_psi(T, R, 6), T, R)
        a_tay = alpha_closed_form(taylor_psi(T, 6), T, R)
        assert a_proj <= a_tay + 1e-12

    @pytest.mark.parametrize("T_, r_", [(0.5, 2.0), (3.0, 2.0), (0.5, 0.5), (2.0, 8.0), (0.05, 4.0)])
    @pytest.mark.parametrize("d", [8, 12, 16])
    def test_against_80_digit_projection(self, d, T_, r_):
        # the exact solve rounded once is the 80-digit LU solve of the
        # normal equations rounded once, bit for bit
        assert list(projection_psi(T_, r_, d).coeffs) == projection_mp(T_, r_, d)[0]


class TestAlpha:
    def test_exact_representation_is_zero(self):
        psi = Polynomial((1.0,))
        grid = alpha_grid(0.0, R, 0)
        assert alpha_of(psi, 0.0, R, grid) == pytest.approx(0.0, abs=1e-14)

    def test_constant_against_closed_form(self):
        # alpha([1]) = 4 T^2 / (r (r^2 + T^2)) for psi = 1
        psi = Polynomial((1.0,))
        grid = alpha_grid(1.0, 2.0, 0)
        val = alpha_of(psi, 1.0, 2.0, grid)
        assert val == pytest.approx(0.4, rel=1e-10)
        assert alpha_closed_form(psi, 1.0, 2.0) == pytest.approx(0.4, rel=1e-12)

    def test_quadrature_oracle(self):
        psi = taylor_psi(T, 4)
        grid = alpha_grid(T, R, 4)
        val = alpha_of(psi, T, R, grid)

        def integrand(om):
            diff = psi(1j * om) - np.exp(1j * om * T)
            return math.exp(-R * abs(om)) * abs(diff) ** 2

        ref = 2.0 * adaptive_simpson(integrand, 0.0, 60.0, tol=1e-14).real
        assert val == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("d", range(0, 11))
    def test_closed_form_matches_quadrature(self, d):
        for method_psi in (taylor_psi(T, d), projection_psi(T, R, d)):
            grid = alpha_grid(T, R, d)
            quad = alpha_of(method_psi, T, R, grid)
            closed = alpha_closed_form(method_psi, T, R)
            assert closed == pytest.approx(quad, rel=1e-9)

    def test_taylor_bound_holds(self):
        psi = taylor_psi(T, 10)
        val = alpha_closed_form(psi, T, R)
        bound = taylor_alpha_bound(T, R, 10)
        assert bound == pytest.approx(2 * T**10 / R**9)
        assert val <= bound

    def test_tail_guard_rejects_small_grid(self):
        psi = taylor_psi(T, 10)
        grid = frequency_grid(10.0, 512)
        with pytest.raises(ValueError, match="truncation"):
            alpha_of(psi, T, R, grid)


#: (T, r) of the decay checks: both sides of T = r, and T = 0.05, where alpha falls below 1e-39
_DECAY_GRID = [(T, R)] + [(T_, r_) for T_ in (0.05, 0.5, 2.0) for r_ in (1.0, 4.0)]
#: configs whose alpha reaches the floor of rounding psi to double: at T = 0.05, r = 4 it
#: rises from 4.83e-40 (d = 11) to 5.08e-40 (d = 12), while the exact projection's does not
_AT_ROUNDING_FLOOR = {(0.05, 4.0)}


class TestAlphaDecay:
    def test_projection_monotone(self):
        # the exact alpha never rises with d; the rounded psi's alpha exceeds it by exactly
        # its rounding floor ||delta_d||^2 (Pythagoras), so where that floor is reached
        # alpha_d <= exact alpha_(d-1) + ||delta_d||^2 <= alpha_(d-1) + ||delta_d||^2
        for T_, r_ in _DECAY_GRID:
            alphas = [alpha_closed_form(projection_psi(T_, r_, d), T_, r_) for d in range(0, 17)]
            for d in range(1, 17):
                if (T_, r_) in _AT_ROUNDING_FLOOR:
                    floor = projection_rounding_floor_mp(T_, r_, d)
                    assert alphas[d] == pytest.approx(projection_mp(T_, r_, d)[1] + floor, rel=1e-12)
                    assert alphas[d] <= alphas[d - 1] + floor, (T_, r_, d)
                else:
                    assert alphas[d] <= alphas[d - 1] * (1.0 + 1e-12), (T_, r_, d)

    def test_projection_dominates_taylor(self):
        for T_, r_ in _DECAY_GRID:
            for d in range(0, 17):
                a_p = alpha_closed_form(projection_psi(T_, r_, d), T_, r_)
                a_t = alpha_closed_form(taylor_psi(T_, d), T_, r_)
                assert a_p <= a_t * (1.0 + 1e-12), (T_, r_, d)

    def test_taylor_ratio_decays_in_regime(self):
        # T < r: alpha_{d+2} / alpha_d < 1 from d = 4 on
        alphas = {d: alpha_closed_form(taylor_psi(T, d), T, R) for d in range(4, 13)}
        for d in range(4, 11):
            assert alphas[d + 2] / alphas[d] < 1.0


def _psi(method, T_, r_, d):
    return taylor_psi(T_, d) if method == "taylor" else projection_psi(T_, r_, d)


class TestAlphaExact:
    @pytest.mark.parametrize("method", ["taylor", "projection"])
    @pytest.mark.parametrize("r_", [1.0, 2.0, 4.0])
    def test_correctly_rounded_where_40_digits_cancel(self, method, r_):
        # at T = 0.05, r = 4 the taylor alpha is below 1e-39 from d = 11 on, past 40-digit resolution
        for d in range(17):
            psi = _psi(method, 0.05, r_, d)
            assert alpha_closed_form(psi, 0.05, r_) == alpha_closed_form_mp(psi, 0.05, r_, dps=120)

    @pytest.mark.parametrize("method", ["taylor", "projection"])
    def test_same_bits_as_40_digits_where_they_suffice(self, method):
        for d in range(17):
            psi = _psi(method, T, R, d)
            assert alpha_closed_form(psi, T, R) == alpha_closed_form_mp(psi, T, R, dps=40)


def test_weight_mass_consistency():
    # ||e^{i w T}||^2 in the weighted space equals the weight mass 2/r
    psi_far = Polynomial((0.0,))
    assert alpha_closed_form(psi_far, 0.3, 2.0) == 2.0 / 2.0
