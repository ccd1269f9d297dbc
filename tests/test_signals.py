import math

import numpy as np
import pytest

from horizon import (
    Signal,
    SpectralGrid,
    add_noise,
    chirp_noise,
    class_norm,
    cosine_modulated_poisson,
    fourier_transform_at,
    gaussian_signal,
    noise_norm,
    poisson_signal,
    superposition,
    zero_signal,
)


class TestPoisson:
    def test_peak_value(self):
        x = poisson_signal(1.0)
        assert x(0.0)[()] == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_mass_equals_spectrum_at_zero(self):
        x = poisson_signal(1.5)
        assert x.spectrum(np.array([0.0]))[0] == pytest.approx(1.0)

    def test_grid_ft_matches_spectrum(self):
        x = poisson_signal(1.0)
        omegas = np.array([0.1, 0.5, 1.0, 2.0, 5.0])
        F = fourier_transform_at(x.time, (-1e3, 1e3), omegas)
        np.testing.assert_allclose(F, x.spectrum(omegas), rtol=1e-4)


class TestGaussian:
    def test_spectrum_pair(self):
        x = gaussian_signal(0.8)
        omegas = np.array([0.1, 1.0, 3.0])
        F = fourier_transform_at(x.time, (-12.0, 12.0), omegas)
        np.testing.assert_allclose(F, x.spectrum(omegas), rtol=1e-4)

    def test_always_member(self):
        for r in (0.5, 2.0, 8.0):
            assert class_norm(gaussian_signal(1.0), r).member
            assert class_norm(gaussian_signal(1.0), r, sign=+1).member


class TestCosineModulatedPoisson:
    def test_spectrum_pair(self):
        # off the kink at omega0, where time truncation leaves a flat tail
        x = cosine_modulated_poisson(1.0, 3.0)
        omegas = np.array([0.5, 2.0, 4.0, 4.5])
        F = fourier_transform_at(x.time, (-2e3, 2e3), omegas)
        np.testing.assert_allclose(F, x.spectrum(omegas), rtol=2e-4)

    def test_real_even_spectrum(self):
        x = cosine_modulated_poisson(1.2, 2.0)
        om = np.linspace(-6, 6, 41)
        X = x.spectrum(om)
        np.testing.assert_allclose(X, np.conj(X[::-1]), rtol=1e-12)


class TestChirpNoise:
    def test_time_value_at_zero(self):
        eta = chirp_noise((6.0, 12.0), 2.0)
        assert eta(0.0)[()] == pytest.approx(2.0 / math.pi * 6.0, rel=1e-12)

    def test_spectrum_pair_inside_band(self):
        eta = chirp_noise((6.0, 12.0), 1.0)
        omegas = np.array([8.0, 9.0, 10.0])
        F = fourier_transform_at(eta.time, (-5e3, 5e3), omegas, base_panels=64)
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
        assert np.isrealobj(x(ts))
        om = np.linspace(-10, 10, 21)
        X = x.spectrum(om)
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
        # carries the rounding of its argument, condition number 1.3e3
        assert np.max(np.abs(x.time(ts) - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind", ["poisson", "gaussian", "cosine_modulated_poisson",
                                      "chirp_noise", "superposition", "zero"])
    def test_scalar_and_0d_input(self, kind):
        import mpmath

        x = zero_signal() if kind == "zero" else _mp_definitions(mpmath.mp)[kind][0]
        ts = np.array([-1.3, 0.0, 0.4])
        values = x.time(ts)
        for t, value in zip(ts, values):
            for arg in (float(t), np.float64(t), np.array(t)):
                got = x.time(arg)
                assert np.shape(got) == ()
                assert float(got) == pytest.approx(value, rel=1e-15, abs=0.0)
            assert float(x(float(t))) == pytest.approx(value, rel=1e-15, abs=0.0)


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

    def test_superposition_needs_every_part(self):
        bare = Signal(kind="samples", params={}, time=lambda t: np.zeros_like(t))
        assert superposition([poisson_signal(1.0), bare]).derivatives is None


class TestClassNorm:
    def test_poisson_closed_form(self):
        rep = class_norm(poisson_signal(1.5), 2.0)
        assert rep.norm_sq == pytest.approx(0.4, abs=1e-12)
        assert rep.member and rep.unit_ball

    def test_poisson_against_grid_quadrature(self):
        x = poisson_signal(1.5)
        grid = SpectralGrid.for_rate(2.0, 4096)
        integrand = np.exp(-2.0 * np.abs(grid.nodes)) * np.abs(x.spectrum(grid.nodes)) ** 2
        assert rep_norm_sq(x, 2.0) == pytest.approx(float(integrand @ grid.weights), rel=1e-10)

    def test_energy_weight_membership_boundary(self):
        # finite iff 2a > r under the growing weight
        assert class_norm(poisson_signal(1.5), 2.0, sign=+1).member
        rep = class_norm(poisson_signal(0.9), 2.0, sign=+1)
        assert not rep.member
        assert rep.norm == math.inf and rep.norm_sq == math.inf

    def test_energy_weight_value(self):
        rep = class_norm(poisson_signal(1.5), 2.0, sign=+1)
        assert rep.norm_sq == pytest.approx(2.0, rel=1e-12)  # 2 / (2a - r)

    def test_any_positive_rate_is_member_under_decaying_weight(self):
        for a in (0.1, 0.9, 3.0):
            assert class_norm(poisson_signal(a), 2.0).member

    def test_requires_spectrum(self):
        bare = Signal(kind="opaque", params={}, time=lambda t: np.zeros_like(t))
        with pytest.raises(ValueError):
            class_norm(bare, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_energy_weight_where_the_weight_overflows(self):
        # e^{r omega} overflows past omega = 354 while these spectra do not
        # vanish there; the integrand is taken in log space, as beta's is
        rep = class_norm(cosine_modulated_poisson(1.005, 0.0), 2.0, sign=+1)
        # omega0 = 0 gives the Poisson spectrum, 2 / (2a - r) = 200; the
        # spectrum underflows to 0 past omega = 741, where the integrand
        # e^{-0.01 omega} still holds 6e-4 of the mass
        assert rep.member and rep.norm_sq == pytest.approx(200.0, rel=1e-3)
        sigma = 0.05  # int e^{2|omega|} e^{-sigma^2 omega^2} domega
        exact = math.exp(1.0 / sigma**2) * math.sqrt(math.pi) / sigma * (1.0 + math.erf(1.0 / sigma))
        rep = class_norm(gaussian_signal(sigma), 2.0, sign=+1)
        assert rep.member and rep.norm_sq == pytest.approx(exact, rel=1e-12)


def rep_norm_sq(x, r):
    return class_norm(x, r).norm_sq


class TestSuperposition:
    def test_linear_combination(self):
        x1, x2 = poisson_signal(1.0), gaussian_signal(0.5)
        combo = superposition([x1, x2], [2.0, -0.5])
        ts = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(combo(ts), 2.0 * x1(ts) - 0.5 * x2(ts), rtol=1e-14)
        om = np.linspace(-4, 4, 9)
        np.testing.assert_allclose(
            combo.spectrum(om), 2.0 * x1.spectrum(om) - 0.5 * x2.spectrum(om), rtol=1e-14)

    def test_decay_is_minimum(self):
        combo = superposition([poisson_signal(1.0), gaussian_signal(0.5)])
        assert combo.spectral_decay == 1.0


class TestAddNoise:
    def test_zero_intensity_returns_base(self):
        x0 = poisson_signal(1.5)
        assert add_noise(x0, chirp_noise((6, 12), 1.0), 0.0, 2) is x0

    def test_l2_normalization_self_check(self):
        grid = SpectralGrid.for_rate(2.0, 2048)
        x0 = poisson_signal(1.5)
        eta = chirp_noise((6.0, 12.0), 1.0)
        noisy = add_noise(x0, eta, 0.25, 2, grid)
        parts = noisy.params["parts"]
        assert parts[1]["kind"] == "chirp_noise"
        scaled = superposition([eta], [noisy.params["weights"][1]])
        assert noise_norm(scaled, 2, grid) == pytest.approx(0.25, rel=1e-8)

    def test_l1_normalization_self_check(self):
        grid = SpectralGrid.for_rate(2.0, 2048)
        eta = chirp_noise((6.0, 12.0), 1.0)
        noisy = add_noise(poisson_signal(1.5), eta, 0.1, 1, grid)
        scaled = superposition([eta], [noisy.params["weights"][1]])
        assert noise_norm(scaled, 1, grid) == pytest.approx(0.1, rel=1e-8)

    def test_scaling_homogeneity(self):
        grid = SpectralGrid.for_rate(2.0, 2048)
        x0 = poisson_signal(1.5)
        eta = chirp_noise((6.0, 12.0), 1.0)
        n1 = add_noise(x0, eta, 0.1, 2, grid)
        n2 = add_noise(x0, eta, 0.2, 2, grid)
        assert n2.params["weights"][1] == pytest.approx(2.0 * n1.params["weights"][1], rel=1e-14)

    def test_zero_spectrum_rejected(self):
        with pytest.raises(ValueError):
            add_noise(poisson_signal(1.0), zero_signal(), 0.1, 2)


class TestSerialization:
    @pytest.mark.parametrize("make", [
        lambda: poisson_signal(1.5),
        lambda: gaussian_signal(0.7),
        lambda: cosine_modulated_poisson(1.0, 4.0),
        lambda: chirp_noise((6.0, 12.0), 0.5),
    ])
    def test_roundtrip(self, make):
        x = make()
        back = Signal.from_json(x.to_json())
        assert back.kind == x.kind and back.params == x.params
        ts = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(back(ts), x(ts), rtol=1e-14)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Signal.from_spec({"kind": "brownian"})
