import math

import numpy as np
import pytest

from horizon.config import BoundRangeError, ClassMembershipError, ExperimentConfig
from horizon.kernels import TargetKernel
from horizon.predictor import _BUMP_L2_RATIOS, beta_energy
from horizon.signals import (
    Signal,
    _exp_integral,
    _log_abs_spectrum,
    _poisson_norm_sq,
    chirp_noise,
    class_norm,
    cosine_modulated_poisson,
    gaussian_signal,
    noise_norm,
    poisson_signal,
    zero_signal,
)
from horizon.spectral_core import _adequate_grid, default_omega_max, fourier_transform_at

from oracles import closed_form, frequency_grid, superposition

#: the canonical kernel, for the energy weight e^{r|omega|} |Q X|^2 of beta
_KERNEL = TargetKernel(0.5, 0.1)


def _values(x):
    """t -> x(t), order 0 of the signal's derivative stack."""
    return lambda t: x.derivatives(0, t)[0]


class TestPoisson:
    def test_peak_value(self):
        x = poisson_signal(1.0)
        assert x.derivatives(0, 0.0)[0] == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_mass_equals_spectrum_at_zero(self):
        x = poisson_signal(1.5)
        assert x.spectrum(np.array([0.0]))[0] == pytest.approx(1.0)

    def test_grid_ft_matches_spectrum(self):
        x = poisson_signal(1.0)
        omegas = np.array([0.1, 0.5, 1.0, 2.0, 5.0])
        F = fourier_transform_at(_values(x), (-1e3, 1e3), omegas)
        np.testing.assert_allclose(F, x.spectrum(omegas), rtol=1e-4)


class TestGaussian:
    def test_spectrum_pair(self):
        x = gaussian_signal(0.8)
        omegas = np.array([0.1, 1.0, 3.0])
        F = fourier_transform_at(_values(x), (-12.0, 12.0), omegas)
        np.testing.assert_allclose(F, x.spectrum(omegas), rtol=1e-4)

    def test_always_member(self):
        for r in (0.5, 2.0, 8.0):
            assert class_norm(gaussian_signal(1.0), r).member
            assert math.isfinite(beta_energy(_KERNEL, gaussian_signal(1.0), r))


class TestCosineModulatedPoisson:
    def test_spectrum_pair(self):
        # off the kink at omega0, where time truncation leaves a flat tail
        x = cosine_modulated_poisson(1.0, 3.0)
        omegas = np.array([0.5, 2.0, 4.0, 4.5])
        F = fourier_transform_at(_values(x), (-2e3, 2e3), omegas)
        np.testing.assert_allclose(F, x.spectrum(omegas), rtol=2e-4)

    def test_real_even_spectrum(self):
        x = cosine_modulated_poisson(1.2, 2.0)
        om = np.linspace(-6, 6, 41)
        X = x.spectrum(om)
        np.testing.assert_allclose(X, np.conj(X[::-1]), rtol=1e-12)


class TestChirpNoise:
    def test_time_value_at_zero(self):
        eta = chirp_noise((6.0, 12.0), 2.0)
        assert eta.derivatives(0, 0.0)[0] == pytest.approx(2.0 / math.pi * 6.0, rel=1e-12)

    def test_spectrum_pair_inside_band(self):
        # on the sinc form: the lines resolving |t| <= 5e3 number 80,000,
        # and TestTimeEvaluator holds the stack's order 0 to it in mpmath
        eta = chirp_noise((6.0, 12.0), 1.0)
        omegas = np.array([8.0, 9.0, 10.0])
        F = fourier_transform_at(lambda t: closed_form(eta, t), (-5e3, 5e3), omegas)
        np.testing.assert_allclose(F.real, 1.0, rtol=2e-4)
        np.testing.assert_allclose(F.imag, 0.0, atol=2e-4)

    def test_band_validation(self):
        with pytest.raises(ValueError):
            chirp_noise((5.0, 3.0), 1.0)


class TestRealness:
    @pytest.mark.parametrize("make", [
        lambda: poisson_signal(1.5),
        lambda: gaussian_signal(0.7),
        lambda: cosine_modulated_poisson(1.0, 4.0),
        lambda: chirp_noise((6.0, 12.0), 0.5),
    ])
    def test_time_values_real_and_spectrum_conjugate_symmetric(self, make):
        x = make()
        ts = np.linspace(-3, 3, 17)
        assert np.isrealobj(x.derivatives(0, ts))
        om = np.linspace(-10, 10, 21)
        X = x.spectrum(om)
        assert np.isrealobj(X)  # x is real and even, so X is too
        np.testing.assert_allclose(X, np.conj(X[::-1]), rtol=1e-12, atol=1e-15)


def _mp_definitions(mp):
    """(signal, the same signal written for mpmath) pairs."""
    a, s, w0 = mp.mpf(1.5), mp.mpf(0.7), mp.mpf(4.0)
    poisson = lambda t: (a / mp.pi) / (a * a + t * t)
    gauss = lambda t: mp.exp(-t * t / (2 * s * s)) / (s * mp.sqrt(2 * mp.pi))
    return {
        "poisson": (poisson_signal(1.5), poisson),
        "gaussian": (gaussian_signal(0.7), gauss),
        "cosine_modulated_poisson": (cosine_modulated_poisson(1.5, 4.0),
                                     lambda t: poisson(t) * mp.cos(w0 * t)),
        "chirp_noise": (chirp_noise((6.0, 12.0), 0.5),
                        lambda t: mp.mpf(0.5) / mp.pi * (mp.sin(12 * t) - mp.sin(6 * t)) / t),
        "superposition": (superposition([poisson_signal(1.5), gaussian_signal(0.7)], [2.0, -0.5]),
                          lambda t: 2 * poisson(t) - gauss(t) / 2),
    }


class TestTimeEvaluator:
    @pytest.mark.parametrize("kind", ["poisson", "gaussian", "cosine_modulated_poisson",
                                      "chirp_noise", "superposition"])
    def test_against_mpmath(self, kind):
        import mpmath

        mp = mpmath.mp.clone()
        mp.dps = 40
        x, f = _mp_definitions(mp)[kind]
        ts = np.array([-1.3, 0.4, 2.7, 25.0])
        ref = np.array([float(f(mp.mpf(t))) for t in ts])
        # relative to the largest value: the Gaussian at t = 25 (e^-638)
        # carries the rounding of its argument, condition number 1.3e3.
        # Chirp noise is the sum of its lines, whose roundoff is a few eps
        # times their absolute sum (amplitude / pi)(hi - lo), 3.2 eps here
        tol = 8.0 * np.finfo(float).eps * 0.5 / math.pi * 6.0 if kind == "chirp_noise" else 1e-15 * np.max(np.abs(ref))
        assert np.max(np.abs(x.derivatives(0, ts)[0] - ref)) <= tol

    @pytest.mark.parametrize("kind", ["poisson", "gaussian", "cosine_modulated_poisson",
                                      "chirp_noise", "superposition", "zero"])
    def test_scalar_and_0d_input(self, kind):
        import mpmath

        x = zero_signal() if kind == "zero" else _mp_definitions(mpmath.mp)[kind][0]
        ts = np.array([-1.3, 0.0, 0.4])
        values = x.derivatives(0, ts)[0]
        for t, value in zip(ts, values):
            for arg in (float(t), np.float64(t), np.array(t)):
                got = x.derivatives(0, arg)
                assert np.shape(got) == (1,)
                assert float(got[0]) == pytest.approx(value, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("kind", ["poisson", "gaussian", "cosine_modulated_poisson"])
    def test_order_zero_is_the_closed_form(self, kind):
        # bit for bit, on a block, a scalar and a 0-d argument, whatever kmax
        import mpmath

        x = _mp_definitions(mpmath.mp)[kind][0]
        ts = np.linspace(-30.0, 30.0, 2401).reshape(49, 49)
        for kmax in (0, 1, 16):
            np.testing.assert_array_equal(x.derivatives(kmax, ts)[0], closed_form(x, ts))
            for arg in (0.7, np.array(-2.5)):
                assert x.derivatives(kmax, arg)[0] == closed_form(x, arg)


class TestDerivative:
    @pytest.mark.parametrize("kind", ["poisson", "gaussian", "cosine_modulated_poisson",
                                      "chirp_noise", "superposition"])
    def test_against_mpmath_diff(self, kind):
        import mpmath

        mp = mpmath.mp.clone()
        mp.dps = 40
        x, f = _mp_definitions(mp)[kind]
        # 25 is far enough out that the chirp's band rule needs many panels
        ts = np.array([-1.3, 0.4, 2.7, 25.0])
        stack = x.derivatives(16, ts)
        for k in range(17):
            ref = np.array([float(mp.diff(f, mp.mpf(t), k)) for t in ts])
            got = stack[k]
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), k

    @pytest.mark.parametrize("kind", ["poisson", "gaussian", "cosine_modulated_poisson",
                                      "chirp_noise", "superposition"])
    def test_order_does_not_depend_on_kmax(self, kind):
        # the moment table reuses a taller stack for lower degrees
        import mpmath

        x, _ = _mp_definitions(mpmath.mp)[kind]
        ts = np.array([[-1.3, 0.4], [2.7, 25.0]])
        tall = x.derivatives(16, ts)
        for kmax in (0, 5, 12):
            np.testing.assert_array_equal(x.derivatives(kmax, ts), tall[:kmax + 1])

    def test_zero_signal(self):
        ts = np.linspace(-1, 1, 5)
        stack = zero_signal().derivatives(16, ts)
        assert stack.shape == (17, 5)
        np.testing.assert_array_equal(stack, 0.0)

    def test_shape_follows_input(self):
        import mpmath

        ts = np.linspace(-1, 1, 6).reshape(2, 3)
        for x, _ in _mp_definitions(mpmath.mp).values():
            assert x.derivatives(3, ts).shape == (4, 2, 3)

    @pytest.mark.parametrize("a", [0.05, 0.2, 1.0, 1.5, 3.5])
    def test_poisson_powers_against_40_digits(self, a):
        # (-1)^k k! Im[(t - i a)^-(k+1)] / pi at 40 digits; t = a tan(theta)
        # for uniform theta puts nodes on every peak of every order, down
        # to the a / k scale of the high orders at small a
        import mpmath

        from horizon.signals import _poisson_derivatives

        mp = mpmath.mp.clone()
        mp.dps = 40
        ts = a * np.tan(np.linspace(-1.0, 1.0, 301) * math.atan(25.0 / a))
        stack = _poisson_derivatives(a, 16, ts)
        for k in range(17):
            ref = np.array([float((mp.factorial(k) * (-1) ** k / (mp.mpf(t) - mp.mpc(0, a)) ** (k + 1)).imag
                                  / mp.pi) for t in ts])
            assert np.max(np.abs(stack[k] - ref)) <= 5e-15 * np.max(np.abs(ref)), k


def _energy(x, r):
    """int e^{r|omega|} |X|^2 domega on the grid beta is taken on, X in log form."""
    _, weights, values = _adequate_grid(lambda om: np.exp(r * np.abs(om) + 2.0 * _log_abs_spectrum(x, om)),
                                        r, x.spectral_kinks, math.inf)
    return float(values @ weights)


class TestClassNorm:
    def test_poisson_closed_form(self):
        rep = class_norm(poisson_signal(1.5), 2.0)
        assert rep.norm**2 == pytest.approx(0.4, abs=1e-12)
        assert rep.member

    def test_poisson_against_grid_quadrature(self):
        x = poisson_signal(1.5)
        grid = frequency_grid(default_omega_max(2.0), 4096)
        integrand = np.exp(-2.0 * np.abs(grid.nodes)) * np.abs(x.spectrum(grid.nodes)) ** 2
        assert class_norm(x, 2.0).norm ** 2 == pytest.approx(float(integrand @ grid.weights), rel=1e-10)

    def test_energy_weight_membership_boundary(self):
        # beta, under the growing weight, is finite iff 2a >= r.  At the edge
        # 2a = r the weight cancels |X|^2 = e^{-2a|omega|}, so beta is
        # ||Q||_2^2 = 2 pi ||q||_2^2 = 2 pi (2 / tau) L_0 (Parseval)
        assert math.isfinite(beta_energy(_KERNEL, poisson_signal(1.5), 2.0))
        with pytest.raises(ClassMembershipError, match="diverges"):
            beta_energy(_KERNEL, poisson_signal(0.9), 2.0)
        parseval = 2.0 * math.pi * (2.0 / _KERNEL.width) * _BUMP_L2_RATIOS[0]
        assert beta_energy(_KERNEL, poisson_signal(1.0), 2.0) == pytest.approx(parseval, rel=2e-15)

    def test_energy_weight_value(self):
        # 2 / (2a - r), on beta's grid and in the closed form at s = r
        assert _energy(poisson_signal(1.5), 2.0) == pytest.approx(2.0, rel=1e-12)
        assert _poisson_norm_sq(1.5, 0.0, 2.0) == pytest.approx(2.0, rel=1e-15)

    def test_any_positive_rate_is_member_under_decaying_weight(self):
        for a in (0.1, 0.9, 3.0):
            assert class_norm(poisson_signal(a), 2.0).member

    def test_requires_spectrum(self):
        # every signal carries its spectrum: one without is not a signal
        with pytest.raises(TypeError, match="spectrum"):
            Signal(kind="opaque", params={},
                   derivatives=lambda kmax, t: np.zeros((kmax + 1, *np.shape(t))))

    @pytest.mark.filterwarnings("error")
    def test_energy_weight_where_the_weight_overflows(self):
        # e^{r omega} overflows past omega = 354, and the spectrum e^{-1.005
        # omega} underflows to 0 past omega = 741, where the integrand
        # e^{-0.01 omega} still holds 6e-4 of the mass: log|X| keeps it
        x = cosine_modulated_poisson(1.005, 0.0)
        assert x.spectrum(np.array([800.0]))[0] == 0.0
        assert _log_abs_spectrum(x, np.array([800.0]))[0] == pytest.approx(-804.0, rel=1e-15)
        assert _energy(x, 2.0) == pytest.approx(200.0, rel=1e-13)  # 2 / (2a - r)
        sigma = 0.05  # int e^{2|omega|} e^{-sigma^2 omega^2} domega
        exact = math.exp(1.0 / sigma**2) * math.sqrt(math.pi) / sigma * (1.0 + math.erf(1.0 / sigma))
        assert _energy(gaussian_signal(sigma), 2.0) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a, omega0, s", [
        (1.3, 3.0, -2.0), (1.3, 3.0, 2.0), (5.656, 5.0, 4.0),  # 0.00224273, 380.400, 4.90186e7
        (0.3, 0.0, -3.0), (0.3, 0.0, 0.59), (4.0, 0.5, -0.4), (0.7, 9.0, 0.5), (5.0, 100.0, 4.0),
    ])
    def test_poisson_kinds_against_mpmath(self, a, omega0, s):
        # int e^{s|omega|} X^2 domega in closed form, at either sign of the weight;
        # the class norm is the closed form at s = -r
        import mpmath

        mp = mpmath.mp.clone()
        mp.dps = 30
        a_, w0, s_ = mp.mpf(a), mp.mpf(omega0), mp.mpf(s)
        spec = lambda w: (mp.exp(-a_ * abs(w - w0)) + mp.exp(-a_ * abs(w + w0))) / 2  # noqa: E731
        ref = 2 * mp.quad(lambda w: mp.exp(s_ * w) * spec(w) ** 2, [0, w0, mp.inf] if omega0 else [0, mp.inf])
        assert _poisson_norm_sq(a, omega0, s) == pytest.approx(float(ref), rel=1e-13)
        if s < 0:
            rep = class_norm(cosine_modulated_poisson(a, omega0), -s)
            assert rep.member and rep.norm**2 == pytest.approx(float(ref), rel=1e-13)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("r", [2.0, 4.0, 8.0])
    def test_chirp_closed_form_against_mpmath(self, r, sign):
        # 2 A^2 int_lo^hi e^{s omega} domega; a grid sized by r missed the
        # band [6, 12] (r = 8: 0 against 3.56e-22 and 1.23e41), so the
        # grid of beta covers the chirp's kinks
        import mpmath

        mp = mpmath.mp.clone()
        mp.dps = 30
        s = mp.mpf(sign * r)
        ref = 2 * mp.mpf(0.7) ** 2 * (mp.exp(12 * s) - mp.exp(6 * s)) / s
        x = chirp_noise((6.0, 12.0), 0.7)
        closed = 2.0 * 0.7**2 * _exp_integral(sign * r * 6.0, sign * r, 6.0)
        assert closed == pytest.approx(float(ref), rel=1e-13)
        if sign < 0:
            rep = class_norm(x, r)
            assert rep.member and rep.norm**2 == pytest.approx(float(ref), rel=1e-13)
        else:
            assert _energy(x, r) == pytest.approx(float(ref), rel=1e-13)

    @pytest.mark.filterwarnings("error")
    def test_member_with_norm_past_double_range(self):
        # 2a > r, but the weight at the modulation peak is e^{4 * 200}:
        # beta is refused, not returned as inf
        with pytest.raises(BoundRangeError, match="double range"):
            beta_energy(_KERNEL, cosine_modulated_poisson(5.0, 200.0), 4.0)
        # the chirp's weight at the band edge is e^{100 * 12}
        with pytest.raises(BoundRangeError, match="double range"):
            beta_energy(_KERNEL, chirp_noise((6.0, 12.0), 1.0), 100.0)


class TestNoiseNorm:
    """Closed-form L1 and L2 norms of every noise kind a config can name, against 30-digit quadrature."""

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("spec, breaks", [
        ({"kind": "chirp_noise", "params": {"band": [6.0, 12.0], "amplitude": 0.7}}, [6, 12]),
        ({"kind": "chirp_noise", "params": {"band": [0.0, 2.5], "amplitude": -3.0}}, [0, 2.5]),
        ({"kind": "poisson", "params": {"a": 1.7}}, [0]),
        ({"kind": "gaussian", "params": {"sigma": 0.6}}, [0]),
        ({"kind": "cosine_modulated_poisson", "params": {"a": 1.3, "omega0": 0.0}}, [0]),
        ({"kind": "cosine_modulated_poisson", "params": {"a": 1.3, "omega0": 3.0}}, [0, 3]),
        ({"kind": "cosine_modulated_poisson", "params": {"a": 0.4, "omega0": -3.0}}, [0, 3]),
    ], ids=["chirp", "chirp-from-0-negative-amplitude", "poisson", "gaussian", "cmp-omega0-0",
            "cmp-omega0-3", "cmp-omega0-minus-3"])
    def test_against_mpmath(self, spec, breaks, p):
        import mpmath

        mp = mpmath.mp.clone()
        mp.dps = 30
        prm = {k: mp.mpf(v) for k, v in spec["params"].items() if k != "band"}
        spectra = {
            "chirp_noise": lambda w: abs(prm["amplitude"]),
            "poisson": lambda w: mp.exp(-prm["a"] * w),
            "gaussian": lambda w: mp.exp(-(prm["sigma"] * w) ** 2 / 2),
            "cosine_modulated_poisson": lambda w: (mp.exp(-prm["a"] * abs(w - prm["omega0"]))
                                                   + mp.exp(-prm["a"] * abs(w + prm["omega0"]))) / 2,
        }
        upper = [] if spec["kind"] == "chirp_noise" else [mp.inf]
        ref = 2 * mp.quad(lambda w: spectra[spec["kind"]](w) ** p, [mp.mpf(b) for b in breaks] + upper)
        ref = ref if p == 1 else mp.sqrt(ref)
        eta = ExperimentConfig.from_dict({"noise": spec}).build_noise()
        assert noise_norm(eta, p) == pytest.approx(float(ref), rel=1e-14, abs=0)

    def test_kind_without_closed_form_raises(self):
        with pytest.raises(ValueError, match="superposition"):
            noise_norm(superposition([poisson_signal(1.0)]), 2)
        with pytest.raises(ValueError, match="p must be"):
            noise_norm(poisson_signal(1.0), 3)


class TestSuperposition:
    def test_linear_combination(self):
        x1, x2 = poisson_signal(1.0), gaussian_signal(0.5)
        combo = superposition([x1, x2], [2.0, -0.5])
        ts = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(combo.derivatives(0, ts)[0],
                                   2.0 * x1.derivatives(0, ts)[0] - 0.5 * x2.derivatives(0, ts)[0], rtol=1e-14)
        om = np.linspace(-4, 4, 9)
        np.testing.assert_allclose(
            combo.spectrum(om), 2.0 * x1.spectrum(om) - 0.5 * x2.spectrum(om), rtol=1e-14)

    def test_decay_is_minimum(self):
        combo = superposition([poisson_signal(1.0), gaussian_signal(0.5)])
        assert combo.spectral_decay == 1.0


class TestSerialization:
    @pytest.mark.parametrize("make", [
        lambda: poisson_signal(1.5),
        lambda: gaussian_signal(0.7),
        lambda: cosine_modulated_poisson(1.0, 4.0),
        lambda: chirp_noise((6.0, 12.0), 0.5),
    ])
    def test_roundtrip(self, make):
        x = make()
        back = ExperimentConfig.from_dict({"signal": {"kind": x.kind, "params": x.params}}).build_signal()
        assert back.kind == x.kind and back.params == x.params
        ts = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(back.derivatives(0, ts)[0], x.derivatives(0, ts)[0], rtol=1e-14)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"signal": {"kind": "brownian", "params": {}}})
