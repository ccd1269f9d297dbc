import math

import numpy as np
import pytest
from scipy import integrate

from horizon.config import ClassMembershipError
from horizon.kernels import TargetKernel
from horizon.predictor import beta_energy
from horizon.signals import class_norm, poisson_signal, zero_signal
from horizon.spectral_core import _adequate_grid
from horizon.weighted_space import unit_rate_moments
from oracles import exponential_moment_mp, monomial_moment_mp, mp_context, superposition, weighted_moments


def monomial_moment(k, r):
    """int omega^k e^{-r|omega|} domega from ``unit_rate_moments``, rounded once."""
    return weighted_moments(0.0, r, (k + 1) // 2)[0][k]


def exponential_moment(k, r, T):
    """int omega^k e^{i omega T} e^{-r|omega|} domega from ``unit_rate_moments``, rounded once."""
    return weighted_moments(T, r, k)[1][k]


#: spectrum e^{-|w|} as a superposition, whose class norm is taken by grid quadrature
_EXP_SPECTRUM = superposition([poisson_signal(1.0)])


class TestWeightedNormSq:
    def test_decaying_exponential_closed_form(self):
        # integral e^{-2|w|} e^{-2|w|} dw = 2/4
        val = class_norm(_EXP_SPECTRUM, 2.0).norm ** 2
        assert val == pytest.approx(0.5, rel=1e-10)

    def test_zero_function(self):
        assert class_norm(zero_signal(), 1.0).norm == 0.0

    def test_growing_weight_with_fast_decay(self):
        # integral e^{+|w|} e^{-2|w|} dw = 2, on the grid beta is taken on
        _, weights, values = _adequate_grid(
            lambda om: np.exp(np.abs(om)) * np.abs(_EXP_SPECTRUM.spectrum(om)) ** 2, 1.0, (), math.inf)
        assert float(values @ weights) == pytest.approx(2.0, rel=1e-12)

    def test_weight_decay_mismatch_is_divergent(self):
        # e^{+3|w|} e^{-2|w|} grows: beta is refused, whatever the grid
        with pytest.raises(ClassMembershipError, match="diverges"):
            beta_energy(TargetKernel(0.5, 0.1), _EXP_SPECTRUM, 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            class_norm(_EXP_SPECTRUM, -1.0)


class TestMonomialMoment:
    def test_known_values(self):
        assert monomial_moment(0, 2.0) == pytest.approx(1.0)
        assert monomial_moment(2, 1.0) == pytest.approx(4.0)

    def test_signed_odd_vanishes(self):
        for k in (1, 3, 11):
            assert monomial_moment(k, 1.7) == 0.0

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 12, 24])
    def test_against_quadrature(self, k, r):
        # the half-line integral, and the negative half by parity: omega^k picks up (-1)^k
        ref, _ = integrate.quad(lambda om: om**k * math.exp(-r * om), 0, (k + 80) / r,
                                epsabs=0, epsrel=1e-13, limit=400)
        assert monomial_moment(k, r) == pytest.approx((1 + (-1) ** k) * ref, rel=1e-10, abs=0)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            unit_rate_moments(0.5, 1.0, -1)
        with pytest.raises(ValueError):
            unit_rate_moments(0.5, 0.0, 2)

    def test_integers_at_unit_rate(self):
        # at r = 1 the monomial moments are 2 n!; at T = 1, (1 - i)^-(k+1) = ((1 + i) / 2)^(k+1)
        # is 1/2 + i/2, i/2 and -1/4 + i/4 for k = 0, 1, 2, times k! = 1, 1, 2
        m, e, den = unit_rate_moments(1.0, 1.0, 2)
        assert m == [1, 0, 2, 0, 24]
        assert den == 2**3 and e == [4, 4, -4]


class TestExponentialMoment:
    def test_reduces_to_weight_mass_at_T_zero(self):
        for k in range(0, 25):
            em = exponential_moment(k, 1.3, 0.0)
            assert em.imag == pytest.approx(0.0, abs=1e-18)
            assert em.real == pytest.approx(monomial_moment(k, 1.3), rel=1e-14, abs=1e-18)

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
