import math

import numpy as np
import pytest
from scipy import integrate

from horizon import (SpectralGrid, class_norm, exponential_moment, monomial_moment, poisson_signal,
                     superposition, zero_signal)
from horizon.weighted_space import _tail_is_divergent
from oracles import exponential_moment_mp, monomial_moment_mp, mp_context


#: spectrum e^{-|w|} as a superposition, whose class norm is taken by grid quadrature
_EXP_SPECTRUM = superposition([poisson_signal(1.0)])


class TestWeightedNormSq:
    def test_decaying_exponential_closed_form(self):
        # integral e^{-2|w|} e^{-2|w|} dw = 2/4
        val = class_norm(_EXP_SPECTRUM, 2.0, sign=-1).norm_sq
        assert val == pytest.approx(0.5, rel=1e-10)

    def test_zero_function(self):
        assert class_norm(zero_signal(), 1.0, sign=-1).norm_sq == 0.0

    def test_growing_weight_with_fast_decay(self):
        # integral e^{+|w|} e^{-2|w|} dw = 2
        val = class_norm(_EXP_SPECTRUM, 1.0, sign=+1).norm_sq
        assert val == pytest.approx(2.0, rel=1e-10)

    def test_weight_decay_mismatch_is_divergent(self):
        # e^{+3|w|} e^{-2|w|} grows toward the grid edge
        grid = SpectralGrid.for_rate(1.0, 2048)
        integrand = np.exp(3.0 * np.abs(grid.nodes)) * np.exp(-np.abs(grid.nodes)) ** 2
        assert _tail_is_divergent(integrand, grid.nodes)

    def test_validation(self):
        with pytest.raises(ValueError):
            class_norm(_EXP_SPECTRUM, -1.0)
        with pytest.raises(ValueError):
            class_norm(_EXP_SPECTRUM, 1.0, sign=2)


class TestMonomialMoment:
    def test_known_values(self):
        assert monomial_moment(0, 2.0) == pytest.approx(1.0)
        assert monomial_moment(2, 1.0) == pytest.approx(4.0)

    def test_signed_odd_vanishes(self):
        for k in (1, 3, 11):
            assert monomial_moment(k, 1.7, signed=True) == 0.0

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 12, 24])
    def test_against_quadrature(self, k, r):
        ref, _ = integrate.quad(lambda om: om**k * math.exp(-r * om), 0, (k + 80) / r,
                                epsabs=0, epsrel=1e-13, limit=400)
        assert monomial_moment(k, r) == pytest.approx(2 * ref, rel=1e-10)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            monomial_moment(-1, 1.0)


class TestExponentialMoment:
    def test_reduces_to_weight_mass_at_T_zero(self):
        for k in range(0, 25):
            em = exponential_moment(k, 1.3, 0.0)
            assert em.imag == pytest.approx(0.0, abs=1e-18)
            assert em.real == pytest.approx(monomial_moment(k, 1.3, signed=True), rel=1e-14, abs=1e-18)

    def test_known_values(self):
        assert exponential_moment(0, 1.0, 1.0) == pytest.approx(1.0)
        val = exponential_moment(1, 1.0, 1.0)
        assert val == pytest.approx(1j, abs=1e-15)

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 16, 24])
    def test_against_quadrature(self, k):
        r, T = 2.0, 0.7
        upper = (k + 80) / r

        def integrand_re(om):
            return om**k * math.cos(om * T) * math.exp(-r * om)

        def integrand_im(om):
            return om**k * math.sin(om * T) * math.exp(-r * om)

        re_pos, _ = integrate.quad(integrand_re, 0, upper, epsabs=0, epsrel=1e-13, limit=400)
        im_pos, _ = integrate.quad(integrand_im, 0, upper, epsabs=0, epsrel=1e-13, limit=400)
        # negative half by parity: omega^k picks up (-1)^k, sin flips sign
        ref = complex(re_pos * (1 + (-1) ** k), im_pos * (1 - (-1) ** k))
        val = exponential_moment(k, r, T)
        assert val == pytest.approx(ref, rel=1e-10)

    def test_conjugate_symmetry(self):
        for k in range(0, 25):
            plus = exponential_moment(k, 1.1, 0.8)
            minus = exponential_moment(k, 1.1, -0.8)
            assert minus == pytest.approx(plus.conjugate(), rel=1e-14)


class TestExtendedPrecisionAgree:
    @pytest.mark.parametrize("k", [0, 3, 10, 24])
    def test_monomial(self, k):
        mp_val = monomial_moment_mp(mp_context(40), k, 1.7)
        assert float(mp_val) == pytest.approx(monomial_moment(k, 1.7), rel=1e-14)

    @pytest.mark.parametrize("k", [0, 3, 10, 24])
    def test_exponential(self, k):
        mp_val = exponential_moment_mp(mp_context(40), k, 2.0, 0.6)
        val = exponential_moment(k, 2.0, 0.6)
        assert complex(mp_val) == pytest.approx(val, rel=1e-13)
