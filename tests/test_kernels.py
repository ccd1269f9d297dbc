import json
import math

import numpy as np
import pytest

from horizon import kernels
from horizon.config import D_MAX, ExperimentConfig
from horizon.kernels import TargetKernel, bump_poly_exact, q_spectrum
from horizon.spectral_core import fourier_transform_at, gauss_legendre_rule

from oracles import bump_derivative_mp, derivative_spectrum, h_spectrum, kernel_derivative, richardson_derivative


class TestBumpPolynomials:
    def test_first_terms(self):
        assert bump_poly_exact(0) == (1,)
        assert bump_poly_exact(1) == (0, -2)
        assert bump_poly_exact(2) == (-2, 0, 0, 0, 6)

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        u = sympy.symbols("u")
        f = sympy.exp(-1 / (1 - u**2))
        for k in (1, 2, 3, 5):
            deriv = sympy.simplify(sympy.diff(f, u, k) / f * (1 - u**2) ** (2 * k))
            poly = sympy.Poly(sympy.expand(deriv), u)
            coeffs = [int(c) for c in reversed(poly.all_coeffs())]
            mine = list(bump_poly_exact(k))
            coeffs += [0] * (len(mine) - len(coeffs))
            assert mine == coeffs

    def test_coefficients_fit_in_float64(self):
        for k in range(17):
            assert max(abs(c) for c in bump_poly_exact(k)) < 1e300


class TestBumpKernel:
    def test_support_endpoints_vanish(self, canonical_kernel):
        h = canonical_kernel
        assert h(-h.T) == 0.0
        assert h(h.theta) == 0.0
        assert h(-h.T - 0.01) == 0.0 and h(h.theta + 0.01) == 0.0

    def test_unnormalized_peak_value(self, unit_bump):
        # T = theta = 1 makes the unit map the identity; peak at 0 is e^{-1}
        peak = unit_bump(0.0) / unit_bump.normalization
        assert peak == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_unit_mass(self, canonical_kernel):
        nodes, weights = gauss_legendre_rule(*canonical_kernel.support, 32)
        assert canonical_kernel(nodes) @ weights == pytest.approx(1.0, rel=1e-12)

    def test_bump_mass_against_60_digits(self):
        import mpmath

        mp = mpmath.mp.clone()
        mp.dps = 60
        mass = mp.quad(lambda u: mp.exp(-1 / ((1 - u) * (1 + u))), [-1, 0, 1])
        assert abs(mp.mpf(kernels._BUMP_MASS) - mass) <= mp.mpf("1e-50")

    def test_midpoint_is_maximum(self, canonical_kernel):
        h = canonical_kernel
        mid = (h.theta - h.T) / 2.0
        ts = np.linspace(-h.T, h.theta, 501)
        assert h(mid) == pytest.approx(np.max(h(ts)), rel=1e-9)

    def test_rejects_degenerate(self):
        # a NaN passes a plain sign check and would give normalization nan;
        # an infinite T would give normalization 0.0
        for T_, theta in [(0.0, 0.0), (1.0, -0.5), (math.nan, 0.1), (0.5, math.nan),
                          (math.inf, 0.1), (0.5, math.inf), (-math.inf, 0.1)]:
            with pytest.raises(ValueError, match="T must be positive and finite|theta must be nonnegative and finite"):
                TargetKernel(T_, theta)


class TestKernelDerivative:
    """Order k of the kernel in double, on the oracles' edge basis.

    The library evaluates h at order 0 only; the oracles build every order
    with ``bump_derivative_edge``, which matches the library's order-0
    evaluator bit for bit (checked in ``test_accel.py``).
    """

    def test_order_zero_is_the_kernel(self, canonical_kernel):
        h = canonical_kernel
        ts = np.linspace(-h.T - 0.01, h.theta + 0.01, 301)
        np.testing.assert_array_equal(kernel_derivative(h, 0, ts), h(ts))

    def test_zero_outside_support(self, canonical_kernel):
        h = canonical_kernel
        for k in range(1, 9):
            assert kernel_derivative(h, k, -h.T - 1e-6) == 0.0
            assert kernel_derivative(h, k, h.theta + 1e-6) == 0.0

    def test_first_derivative_vanishes_at_center(self, unit_bump):
        assert kernel_derivative(unit_bump, 1, 0.0) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_finite_differences(self, canonical_kernel, k):
        h = canonical_kernel
        # interior points clear of the endpoint underflow region
        ts = np.linspace(-h.T + 0.05, h.theta - 0.02, 20)
        for t in ts:
            fd = richardson_derivative(lambda s: kernel_derivative(h, k - 1, s), t, h=1e-5)
            exact = kernel_derivative(h, k, t)
            scale = max(abs(exact), np.max(np.abs(kernel_derivative(h, k, ts))))
            assert abs(fd - exact) <= 1e-5 * scale

    @pytest.mark.parametrize("k", range(1, 7))
    def test_frequency_domain_consistency(self, canonical_kernel, k):
        # F[h^(k)](i w) must equal (i w)^k F[h](i w)
        h = canonical_kernel
        omegas = np.array([0.1, 0.5, 1.0, 3.0, 10.0])
        lhs = derivative_spectrum(h, k, omegas)
        rhs = (1j * omegas) ** k * h_spectrum(h, omegas)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-8)

    def test_extended_matches_double(self, canonical_kernel):
        h = canonical_kernel
        for k in (0, 3, 6):
            for t in (-0.3, 0.0, 0.05):
                assert float(h.derivative_mp(t, k)) == pytest.approx(
                    kernel_derivative(h, k, t), rel=1e-11)

    @pytest.mark.parametrize("k", [0, 5, 16])
    def test_extended_against_60_digits(self, canonical_kernel, k):
        # the unit bump's derivative at 80 digits over its mass at 60, mapped
        # to the kernel at 60; the 55-digit mass literal rounds to 40 digits
        # and the Horner sum keeps its digits up to the edges (a 32-panel
        # Gauss-Legendre mass put every value 1.6e-16 off, a 40-digit
        # Horner sum 1.1e-21 near the edges at k = 16)
        import mpmath

        h, mp = canonical_kernel, mpmath.mp.clone()
        mp.dps = 60
        mass = mp.quad(lambda u: mp.exp(-1 / ((1 - u) * (1 + u))), [-1, 0, 1])
        width = mp.mpf(h.width)
        for t in np.linspace(-h.T, h.theta, 41)[1:-1]:
            u = (2 * mp.mpf(t) - (mp.mpf(h.theta) - mp.mpf(h.T))) / width
            ref = mp.mpf(bump_derivative_mp(u, k)) * 2 / (width * mass) * (2 / width) ** k
            assert abs(mp.mpf(h.derivative_mp(t, k)) / ref - 1) <= 1e-35, t

    @pytest.mark.parametrize("k", range(D_MAX + 1))
    def test_every_order_against_80_digits(self, unit_bump, k):
        # T = theta = 1 makes the unit map the identity; the nodes reach
        # into the edge wavepackets where high orders peak
        ts = np.linspace(-0.999, 0.999, 401)
        ref = np.array([float(bump_derivative_mp(t, k)) for t in ts])
        got = kernel_derivative(unit_bump, k, ts) / unit_bump.normalization
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_order_cap(self, canonical_kernel):
        with pytest.raises(ValueError):
            canonical_kernel.derivative_mp(0.0, TargetKernel.d_max + 1)


class TestQTransform:
    """Q(i omega) of q(t) = h(t - T) by ``q_spectrum``, the transform beta reads."""

    def test_mass_at_zero(self, canonical_kernel):
        val = q_spectrum(canonical_kernel, [0.0])[0]
        assert val.real == pytest.approx(1.0, rel=1e-12)
        assert abs(val.imag) < 1e-14

    def test_identity_with_kernel_transform(self, canonical_kernel):
        # Q(i w) e^{i w T} = F[h](i w)
        h = canonical_kernel
        omegas = np.array([0.5, 1.0, 5.0])
        q = q_spectrum(h, omegas)
        H = fourier_transform_at(h, h.support, omegas)
        np.testing.assert_allclose(q * np.exp(1j * omegas * h.T), H, rtol=1e-10)

    def test_bounded_with_decay(self, canonical_kernel):
        h = canonical_kernel
        q0, q100 = np.abs(q_spectrum(h, [0.0, 100.0]))
        assert q100 < q0
        assert np.all(np.abs(q_spectrum(h, np.linspace(0, 300, 40))) <= q0 + 1e-12)


class TestSupportOrientation:
    def test_q_is_causal(self, canonical_kernel):
        h = canonical_kernel
        q = lambda t: h(np.asarray(t) - h.T)
        assert np.all(q(np.linspace(-1.0, -1e-9, 11)) == 0.0)
        assert np.all(q(np.linspace(h.width + 1e-9, 2.0, 11)) == 0.0)
        ts = np.linspace(1e-3, h.width - 1e-3, 101)
        assert np.max(np.abs(q(ts))) > 0.0


class TestSerialization:
    def test_bump_roundtrip(self, canonical_kernel):
        # a config carries the kernel as its top-level T and theta
        cfg = ExperimentConfig.from_dict({"T": canonical_kernel.T, "theta": canonical_kernel.theta})
        back = ExperimentConfig.from_json(json.dumps(cfg.to_dict())).build_kernel()
        assert back.T == canonical_kernel.T and back.theta == canonical_kernel.theta
        ts = np.linspace(-0.4, 0.05, 9)
        np.testing.assert_array_equal(back(ts), canonical_kernel(ts))
