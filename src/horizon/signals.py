"""Analytic test processes with exact Fourier transforms.

Every generator returns a real-valued signal carrying a vectorized time
evaluator, its closed-form spectrum X(i omega) where one exists, the
exponential decay rate of |X| (np.inf for compact or super-exponential
spectra), and one all-orders evaluator ``derivatives(kmax, t)`` that
returns the ``(kmax + 1, *t.shape)`` stack of x, x', ..., x^(kmax), from
which every prediction is made (derivative transfer).  Each kind shares
its work across orders: chirp noise forms cos and sin of omega t once
per line, the Poisson kinds take powers of 1 / (t - i a) by repeated
multiplication and form the modulation phase once, and the Gaussian
emits every step of its Hermite recurrence.  Order k of the stack does
not depend on kmax.  Chirp noise also exposes its frequency rule as
``lines(t_scale)``: (omega_j, c_j) with x(t) = Re sum_j c_j e^{i omega_j t}
for |t| <= t_scale, which the prediction path reads in place of the stack.

The Poisson time evaluator forms its result in place, so a block of
arguments costs one block-sized array, with the same bits as the plain
expression; a scalar or 0-d argument gives a 0-d result.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .spectral_core import _adequate_grid, _exp_weighted_square, _time_rule
from .weighted_space import _tail_is_divergent


@dataclass(frozen=True)
class Signal:
    kind: str
    params: dict = field(repr=True)
    time: Callable = field(repr=False)
    derivatives: Callable = field(repr=False)
    spectrum: Optional[Callable] = field(repr=False, default=None)
    spectral_decay: float = 0.0
    lines: Optional[Callable] = field(repr=False, default=None)

    def __call__(self, t):
        return self.time(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class ClassReport:
    """Membership report for the exponentially weighted spectral class."""

    r: float
    norm: float
    member: bool
    unit_ball: bool

    @property
    def norm_sq(self):
        return self.norm * self.norm if math.isfinite(self.norm) else math.inf


def _poisson_time(a, t):
    """(a / pi) / (a^2 + t^2), formed in its result array (0-d for a scalar t)."""
    t = np.asarray(t, dtype=float)
    out = np.multiply(t, t, out=np.empty_like(t))
    out += a * a
    return np.divide(a / np.pi, out, out=out)


def zero_signal():
    return Signal(
        kind="zero",
        params={},
        time=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        spectrum=lambda om: np.zeros_like(np.asarray(om, dtype=float), dtype=complex),
        spectral_decay=np.inf,
        derivatives=lambda kmax, t: np.zeros((kmax + 1, *np.shape(t))),
    )


def _poisson_derivatives(a, kmax, t):
    """Orders 0..kmax of (1/pi) a / (a^2 + t^2) = Im[z] / pi, z = 1 / (t - i a).

    (-1)^k k! Im[z^(k+1)] / pi, the powers of z formed by repeated
    multiplication.
    """
    z = 1.0 / (np.asarray(t, dtype=float) - 1j * a)
    power = z.copy()
    out = np.empty((kmax + 1, *z.shape))
    for k in range(kmax + 1):
        np.multiply(power.imag, (-1) ** k * math.factorial(k) / np.pi, out=out[k])
        power *= z
    return out


def poisson_signal(a):
    """x(t) = (1/pi) a / (a^2 + t^2) with X(i omega) = e^{-a|omega|}."""
    if a <= 0:
        raise ValueError("a must be positive")
    a = float(a)

    def spectrum(om):
        return np.exp(-a * np.abs(om)).astype(complex)

    return Signal(
        kind="poisson",
        params={"a": a},
        time=lambda t: _poisson_time(a, t),
        spectrum=spectrum,
        spectral_decay=a,
        derivatives=lambda kmax, t: _poisson_derivatives(a, kmax, t),
    )


def gaussian_signal(sigma):
    """Unit-mass Gaussian; X(i omega) = e^{-sigma^2 omega^2 / 2}."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    sigma = float(sigma)
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))

    def time(t):
        return norm * np.exp(-t * t / (2.0 * sigma * sigma))

    def spectrum(om):
        return np.exp(-0.5 * (sigma * om) ** 2).astype(complex)

    def derivatives(kmax, t):
        # x^(k) = (-1/sigma)^k He_k(t/sigma) x(t), probabilists' Hermite He_k
        t = np.asarray(t, dtype=float)
        z = t / sigma
        x = time(t)
        out = np.empty((kmax + 1, *t.shape))
        he_prev, he = np.zeros_like(z), np.ones_like(z)
        for k in range(kmax + 1):
            if k:
                he_prev, he = he, z * he - (k - 1) * he_prev
            out[k] = (-1.0 / sigma) ** k * he * x
        return out

    return Signal(
        kind="gaussian",
        params={"sigma": sigma},
        time=time,
        spectrum=spectrum,
        spectral_decay=np.inf,
        derivatives=derivatives,
    )


def _add_cos_shift(out, m, c, s, scale, factor=None):
    """out += scale cos(x + m pi/2) (times ``factor``), given c = cos x and s = sin x.

    cos(x + m pi/2) cycles through (c, -s, -c, s); the sign is taken by
    the update, so the result is exact in the quarter turn.
    """
    term = scale * (s if m % 2 else c)
    if factor is not None:
        term *= factor
    if m % 4 in (1, 2):
        out -= term
    else:
        out += term


def cosine_modulated_poisson(a, omega0):
    """Poisson envelope modulated by cos(omega0 t); spectrum is the
    half-sum of the envelope spectrum shifted to +-omega0."""
    if a <= 0:
        raise ValueError("a must be positive")
    a, omega0 = float(a), float(omega0)

    def time(t):
        return (a / np.pi) / (a * a + t * t) * np.cos(omega0 * t)

    def spectrum(om):
        om = np.asarray(om, dtype=float)
        return 0.5 * (np.exp(-a * np.abs(om - omega0)) + np.exp(-a * np.abs(om + omega0))).astype(complex)

    def derivatives(kmax, t):
        # Leibniz: sum_j C(k, j) p^(j)(t) omega0^(k-j) cos(omega0 t + (k-j) pi/2)
        t = np.asarray(t, dtype=float)
        envelope = _poisson_derivatives(a, kmax, t)
        phase = omega0 * t
        c, s = np.cos(phase), np.sin(phase)
        out = np.zeros((kmax + 1, *t.shape))
        for k in range(kmax + 1):
            for j in range(k + 1):
                m = k - j
                _add_cos_shift(out[k], m, c, s, math.comb(k, j) * omega0**m, envelope[j])
        return out

    return Signal(
        kind="cosine_modulated_poisson",
        params={"a": a, "omega0": omega0},
        time=time,
        spectrum=spectrum,
        spectral_decay=a,
        derivatives=derivatives,
    )


def chirp_noise(band, amplitude):
    """Flat band-limited noise: X = amplitude on band <= |omega| <= band.

    Time profile (amplitude/pi) (sin(hi t) - sin(lo t)) / t; the compact
    spectrum makes the L1/L2 noise norms exact.
    """
    lo, hi = float(band[0]), float(band[1])
    if not 0 <= lo < hi:
        raise ValueError("band must satisfy 0 <= lo < hi")
    amplitude = float(amplitude)

    def time(t):
        t = np.asarray(t, dtype=float)
        # sin(b t)/t = b sinc(b t / pi)
        return (amplitude / np.pi) * (hi * np.sinc(hi * t / np.pi) - lo * np.sinc(lo * t / np.pi))

    def spectrum(om):
        om = np.abs(np.asarray(om, dtype=float))
        return (amplitude * ((om >= lo) & (om <= hi))).astype(complex)

    def lines(t_scale):
        # x(t) = (amplitude/pi) int_lo^hi cos(omega t) domega on a rule resolving |t| <= t_scale
        om_nodes, om_weights = _time_rule((lo, hi), t_scale, 1)
        return om_nodes, (amplitude / np.pi) * om_weights

    def derivatives(kmax, t):
        # x^(k)(t) = sum_j c_j omega_j^k cos(omega_j t + k pi/2) over the lines;
        # cos and sin of omega_j t are formed once per line and serve every order
        t = np.asarray(t, dtype=float)
        out = np.zeros((kmax + 1, *t.shape))
        for om, c in zip(*lines(float(np.max(np.abs(t))) if t.size else 0.0)):
            phase = om * t
            cos, sin = np.cos(phase), np.sin(phase)
            for k in range(kmax + 1):
                _add_cos_shift(out[k], k, cos, sin, c * om**k)
        return out

    return Signal(
        kind="chirp_noise",
        params={"band": [lo, hi], "amplitude": amplitude},
        time=time,
        spectrum=spectrum,
        spectral_decay=np.inf,
        derivatives=derivatives,
        lines=lines,
    )


def class_norm(x, r, sign=-1):
    """Weighted spectral norm of a signal and class membership.

    sign=-1 is the defining weight of the class; sign=+1 probes the
    spectral-energy weight of the error bound, where membership requires
    the spectrum to decay strictly faster than e^{-r|omega|/2}.  The
    Poisson kinds (``_poisson_norm_sq``) and chirp noise,
    2 A^2 int_lo^hi e^{s omega} domega with s = sign r, are taken in closed
    form, every other kind by quadrature on a grid sized from its decay.
    A closed form past the double range reads as a member of norm inf.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    if x.spectrum is None:
        raise ValueError("signal carries no exact spectrum")
    if sign not in (-1, 1):
        raise ValueError("sign must be -1 or +1")

    rho = x.spectral_decay
    if sign > 0 and math.isfinite(rho) and 2.0 * rho <= r:
        return ClassReport(r=r, norm=math.inf, member=False, unit_ball=False)

    prm, s = x.params, sign * r
    if x.kind in ("poisson", "cosine_modulated_poisson", "chirp_noise"):
        try:
            if x.kind == "chirp_noise":
                lo, hi = prm["band"]
                norm_sq = 2.0 * prm["amplitude"] ** 2 * _exp_integral(s * lo, s, hi - lo)
            else:
                norm_sq = _poisson_norm_sq(prm["a"], abs(prm.get("omega0", 0.0)), s)
        except OverflowError:  # e^{s omega}: finite, but past the double range
            norm_sq = math.inf
    else:
        grid, integrand = _adequate_grid(lambda om: _exp_weighted_square(s * np.abs(om), np.abs(x.spectrum(om))),
                                         r if sign < 0 else 2.0 * rho - r, r)
        if not np.all(np.isfinite(integrand)) or (
                sign > 0 and _tail_is_divergent(integrand, grid.nodes)):
            return ClassReport(r=r, norm=math.inf, member=False, unit_ball=False)
        norm_sq = float(integrand @ grid.weights)
    norm = math.sqrt(norm_sq)
    return ClassReport(r=r, norm=norm, member=True, unit_ball=norm <= 1.0)


def _exp_integral(c0, b, w):
    """int_0^w e^{c0 + b omega} domega: the integrand's value at its larger end times
    int_0^w e^{-|b| u} du, so no factor overflows where the result is finite."""
    return math.exp(c0 + max(b, 0.0) * w) * (math.expm1(-abs(b) * w) / -abs(b) if b else w)


def _poisson_norm_sq(a, omega0, s):
    """int e^{s|omega|} X^2 domega for X = (e^{-a|omega - omega0|} + e^{-a|omega + omega0|}) / 2, 2a > s.

    Twice the half-line, where X^2 = (E1^2 + E2^2 + 2 E1 E2) / 4 with
    E1 = e^{-a|omega - omega0|} and E2 = e^{-a (omega + omega0)}; each piece
    is an exponential on [0, omega0] and on [omega0, inf).  omega0 = 0 is
    the Poisson spectrum, 2 / (2a - s).
    """
    c, low = 2.0 * a - s, -2.0 * a * omega0
    j1 = (math.exp(low) + math.exp(s * omega0)) / c + _exp_integral(low, s + 2.0 * a, omega0)
    j2 = 2.0 * (_exp_integral(low, s, omega0) + math.exp(low + s * omega0) / c)
    return 0.5 * (j1 + j2)


def noise_norm(eta, p):
    """||N(i .)||_{L_p} of a noise signal, in closed form for every kind a config can name.

    Any other kind raises ValueError.
    """
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    prm = eta.params
    if eta.kind == "zero":
        return 0.0
    if eta.kind == "chirp_noise":
        amp, width = abs(prm["amplitude"]), prm["band"][1] - prm["band"][0]
        return 2.0 * amp * width if p == 1 else amp * math.sqrt(2.0 * width)
    if eta.kind == "gaussian":  # int e^{-p sigma^2 omega^2 / 2} domega = sqrt(2 pi / p) / sigma
        norm_p = math.sqrt(2.0 * math.pi / p) / prm["sigma"]
    elif eta.kind in ("poisson", "cosine_modulated_poisson"):  # L2 squared: weight exponent s = 0
        a, omega0 = prm["a"], abs(prm.get("omega0", 0.0))
        norm_p = 2.0 / a if p == 1 else _poisson_norm_sq(a, omega0, 0.0)
    else:
        raise ValueError(f"no closed-form noise norm for signal kind {eta.kind!r}")
    return norm_p if p == 1 else math.sqrt(norm_p)
