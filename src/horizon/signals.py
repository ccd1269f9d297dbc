"""Analytic test processes with exact Fourier transforms.

Every generator checks its params against their domains
(``config.check_signal_params``, the check a config runs at load) and
returns a real, even signal carrying its closed-form
spectrum X(i omega), real and even too, the exponential decay rate of |X| (np.inf for
compact or super-exponential spectra), the frequencies omega >= 0 where
|X| is not smooth (its kinks, panel edges of every grid over the
spectrum), and one all-orders evaluator ``derivatives(kmax, t)`` that
returns the ``(kmax + 1, *t.shape)`` stack of x, x', ..., x^(kmax): the
signal's only evaluator in time, from which the target and every
prediction are made (derivative transfer).  Order 0 is the kind's plain
closed form, formed in place; each kind shares its work across the
higher orders: chirp noise forms cos and sin of omega t once per line,
the Poisson kinds take powers of 1 / (t - i a) by repeated
multiplication and form the modulation phase once, and the Gaussian
emits every step of its Hermite recurrence.  Order k of the stack does
not depend on kmax.  Chirp noise also exposes its frequency rule as
``lines(t_scale)``: (omega_j, c_j) with x(t) = Re sum_j c_j e^{i omega_j t}
for |t| <= t_scale, which the target and the prediction read in place of
the stack.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .config import check_signal_params
from .spectral_core import _adequate_grid, _time_rule


@dataclass(frozen=True)
class Signal:
    kind: str
    params: dict = field(repr=True)
    derivatives: Callable = field(repr=False)
    spectrum: Callable = field(repr=False)
    spectral_decay: float = 0.0
    spectral_kinks: tuple = ()
    lines: Optional[Callable] = field(repr=False, default=None)


@dataclass(frozen=True)
class ClassReport:
    """Membership report for the exponentially weighted spectral class."""

    norm: float
    member: bool


def zero_signal():
    return Signal(
        kind="zero",
        params={},
        spectrum=lambda om: np.zeros_like(np.asarray(om, dtype=float)),
        spectral_decay=np.inf,
        derivatives=lambda kmax, t: np.zeros((kmax + 1, *np.shape(t))),
    )


def _poisson_derivatives(a, kmax, t):
    """Orders 0..kmax of (1/pi) a / (a^2 + t^2) = Im[z] / pi, z = 1 / (t - i a).

    Order 0 is the closed form, formed in its row; order k >= 1 is
    (-1)^k k! Im[z^(k+1)] / pi, the powers of z formed by repeated
    multiplication.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty((kmax + 1, *t.shape))
    x = out[0, ...]  # a view of row 0 even for a 0-d t
    np.multiply(t, t, out=x)
    x += a * a
    np.divide(a / np.pi, x, out=x)
    if kmax:
        z = 1.0 / (t - 1j * a)
        power = z * z
        for k in range(1, kmax + 1):
            np.multiply(power.imag, (-1) ** k * math.factorial(k) / np.pi, out=out[k, ...])
            power *= z
    return out


def poisson_signal(a):
    """x(t) = (1/pi) a / (a^2 + t^2) with X(i omega) = e^{-a|omega|}."""
    check_signal_params("poisson", a)
    a = float(a)

    def spectrum(om):
        return np.exp(-a * np.abs(om))

    return Signal(
        kind="poisson",
        params={"a": a},
        spectrum=spectrum,
        spectral_decay=a,
        derivatives=lambda kmax, t: _poisson_derivatives(a, kmax, t),
    )


def gaussian_signal(sigma):
    """Unit-mass Gaussian; X(i omega) = e^{-sigma^2 omega^2 / 2}."""
    check_signal_params("gaussian", sigma)
    sigma = float(sigma)
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))

    def spectrum(om):
        return np.exp(-0.5 * (sigma * om) ** 2)

    def derivatives(kmax, t):
        # x^(k) = (-1/sigma)^k He_k(t/sigma) x(t), probabilists' Hermite He_k
        t = np.asarray(t, dtype=float)
        out = np.empty((kmax + 1, *t.shape))
        x = out[0, ...]  # norm e^{-t^2 / (2 sigma^2)}, formed in its row
        np.multiply(t, t, out=x)
        x /= -(2.0 * sigma * sigma)
        np.exp(x, out=x)
        x *= norm
        if kmax:
            z = t / sigma
            he_prev, he = np.zeros_like(z), np.ones_like(z)
            for k in range(1, kmax + 1):
                he_prev, he = he, z * he - (k - 1) * he_prev
                out[k] = (-1.0 / sigma) ** k * he * x
        return out

    return Signal(
        kind="gaussian",
        params={"sigma": sigma},
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
    check_signal_params("cosine_modulated_poisson", a, omega0)
    a, omega0 = float(a), float(omega0)

    def spectrum(om):
        om = np.asarray(om, dtype=float)
        return 0.5 * (np.exp(-a * np.abs(om - omega0)) + np.exp(-a * np.abs(om + omega0)))

    def derivatives(kmax, t):
        # Leibniz: sum_j C(k, j) p^(j)(t) omega0^(k-j) cos(omega0 t + (k-j) pi/2)
        t = np.asarray(t, dtype=float)
        envelope = _poisson_derivatives(a, kmax, t)
        phase = omega0 * t
        c = np.cos(phase)
        if not kmax:  # the envelope times cos(omega0 t), in place
            return np.multiply(envelope, c, out=envelope)
        s = np.sin(phase)
        out = np.zeros((kmax + 1, *t.shape))
        for k in range(kmax + 1):
            for j in range(k + 1):
                m = k - j
                _add_cos_shift(out[k, ...], m, c, s, math.comb(k, j) * omega0**m, envelope[j])
        return out

    return Signal(
        kind="cosine_modulated_poisson",
        params={"a": a, "omega0": omega0},
        spectrum=spectrum,
        spectral_decay=a,
        spectral_kinks=(abs(omega0),),
        derivatives=derivatives,
    )


def chirp_noise(band, amplitude):
    """Flat band-limited noise: X = amplitude on band <= |omega| <= band.

    Time profile (amplitude/pi) (sin(hi t) - sin(lo t)) / t; the compact
    spectrum makes the L1/L2 noise norms exact.
    """
    lo, hi = float(band[0]), float(band[1])
    check_signal_params("chirp_noise", (lo, hi), amplitude)
    amplitude = float(amplitude)

    def spectrum(om):
        om = np.abs(np.asarray(om, dtype=float))
        return amplitude * ((om >= lo) & (om <= hi))

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
                _add_cos_shift(out[k, ...], k, cos, sin, c * om**k)
        return out

    return Signal(
        kind="chirp_noise",
        params={"band": [lo, hi], "amplitude": amplitude},
        spectrum=spectrum,
        spectral_decay=np.inf,
        spectral_kinks=(lo, hi),
        derivatives=derivatives,
        lines=lines,
    )


def class_norm(x, r):
    """Weighted spectral norm (int e^{-r|omega|} |X|^2 domega)^(1/2) of a signal and class membership.

    The Poisson kinds (``_poisson_norm_sq``) and chirp noise,
    2 A^2 int_lo^hi e^{-r omega} domega, are taken in closed form, every
    other kind by quadrature on the grid of every weighted spectral
    energy (``_adequate_grid``); a member is a signal of finite norm.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    prm = x.params
    if x.kind == "chirp_noise":
        lo, hi = prm["band"]
        norm_sq = 2.0 * prm["amplitude"] ** 2 * _exp_integral(-r * lo, -r, hi - lo)
    elif x.kind in ("poisson", "cosine_modulated_poisson"):
        norm_sq = _poisson_norm_sq(prm["a"], abs(prm.get("omega0", 0.0)), -r)
    else:
        _, weights, values = _adequate_grid(lambda om: np.exp(-r * np.abs(om)) * np.abs(x.spectrum(om)) ** 2,
                                            r, x.spectral_kinks, math.inf)
        norm_sq = float(values @ weights)
    norm = math.sqrt(norm_sq)
    return ClassReport(norm=norm, member=math.isfinite(norm))


def _log_abs_spectrum(x, om):
    """log|X(i omega)|: in closed form for the Poisson kinds, whose spectrum
    underflows to 0 past |omega| = 745 / a, and -inf where X is 0."""
    if x.kind in ("poisson", "cosine_modulated_poisson"):
        a, omega0 = x.params["a"], abs(x.params.get("omega0", 0.0))
        w = np.abs(om)
        near = np.abs(w - omega0)  # X = e^{-a near} (1 + e^{-a (w + omega0 - near)}) / 2
        return np.log1p(np.exp(-a * (w + omega0 - near))) - a * near - math.log(2.0)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(x.spectrum(om)))


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
