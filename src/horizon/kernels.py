"""Smooth compactly supported target kernels and their exact derivatives.

The base shape is the standard bump exp(-1/(1-u^2)) on (-1, 1).  Its k-th
derivative is P_k(u) (1-u^2)^(-2k) exp(-1/(1-u^2)) where P_k satisfies the
integer-coefficient recurrence

    P_{k+1} = P_k' (1-u^2)^2 + P_k (4 k u (1-u^2) - 2u),   P_0 = 1.

P_k is built once in exact integer arithmetic.  Its monomial coefficients
reach 1e20 at k = 16 and cancel in floating point, so for evaluation it
is rewritten, by an exact integer Taylor shift, in the edge-distance
basis P_k(u) = E(delta) + u O(delta) with delta = 1 - u^2; double
precision then holds every order up to ``D_MAX``.  Finite differences
are useless past k ~ 6 because the derivative magnitudes grow
factorially; the recurrence is exact.  A scalar extended-precision
evaluator (``TargetKernel.derivative_mp``) is kept for the test oracles;
no library route calls it.

High-order derivatives concentrate into wavepackets near the support
endpoints whose local frequency diverges like 1/delta^2 (delta the
distance to the edge in the unit coordinate).  ``derivative_panel_edges``
builds quadrature panels by marching inward so that the log-variation of
the envelope per panel stays bounded; every convolution against these
kernels must use such panels.
"""

import math
from functools import lru_cache

import numpy as np

from . import _mp
from ._accel import bump_derivative_values
from .spectral_core import PANEL_DEGREE, fourier_transform_at, gauss_legendre_rule, laplace_transform

D_MAX = 16


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_add(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]


def _poly_diff(p):
    return [i * p[i] for i in range(1, len(p))] or [0]


@lru_cache(maxsize=None)
def bump_poly_exact(k):
    """Integer coefficients of P_k, ascending powers."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return (1,)
    p = list(bump_poly_exact(k - 1))
    sq = (1, 0, -2, 0, 1)  # (1-u^2)^2
    t1 = _poly_mul(_poly_diff(p), sq)
    t2 = _poly_mul(p, _poly_add([0, -2], [0, 4 * (k - 1), 0, -4 * (k - 1)]))
    out = _poly_add(t1, t2)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _shift_to_delta(coeffs):
    """Coefficients of c(1 - delta) in ascending powers of delta, exactly."""
    out = [0] * max(1, len(coeffs))
    for j, c in enumerate(coeffs):
        for m in range(j + 1):
            out[m] += (-1) ** m * math.comb(j, m) * c
    return np.array(out, dtype=np.float64)


@lru_cache(maxsize=None)
def _bump_poly_edge(k):
    """(E, O) with P_k(u) = E(1 - u^2) + u O(1 - u^2), ascending float coefficients."""
    p = bump_poly_exact(k)
    return _shift_to_delta(p[0::2]), _shift_to_delta(p[1::2])


def _bump_fk_mp(u, k):
    """f^(k)(u) for the unit bump, scalar, extended precision."""
    delta = 1 - u * u
    if delta <= 0:
        return _mp.ctx.mpf(0)
    p = _mp.ctx.mpf(0)
    for c in reversed(bump_poly_exact(k)):
        p = p * u + c
    if p == 0:
        return _mp.ctx.mpf(0)
    return p * _mp.ctx.exp(-2 * k * _mp.ctx.log(delta) - 1 / delta)


@lru_cache(maxsize=1)
def _raw_bump_mass():
    """integral of exp(-1/(1-u^2)) over (-1, 1) in double precision."""
    n, w = gauss_legendre_rule(-1.0, 1.0, 32)
    return float(bump_derivative_values(n, _bump_poly_edge(0), 0) @ w)


@lru_cache(maxsize=1)
def _gl_mp(degree=PANEL_DEGREE):
    """Gauss-Legendre nodes/weights at extended precision (Newton on P_n)."""
    n = degree
    xs, ws = [], []
    for i in range(1, n + 1):
        x = _mp.ctx.mpf(math.cos(math.pi * (i - 0.25) / (n + 0.5)))
        for _ in range(60):
            p0, p1 = _mp.ctx.mpf(1), x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = n * (x * p1 - p0) / (x * x - 1)
            dx = p1 / dp
            x = x - dx
            if abs(dx) < _mp.ctx.mpf(10) ** (-_mp.ctx.dps - 2):
                break
        xs.append(x)
        ws.append(2 / ((1 - x * x) * dp * dp))
    return list(reversed(xs)), list(reversed(ws))


@lru_cache(maxsize=1)
def _raw_bump_mass_mp():
    x, w = _gl_mp()
    total = _mp.ctx.mpf(0)
    edges = [_mp.ctx.mpf(-1) + _mp.ctx.mpf(i) / 16 for i in range(33)]
    for i in range(32):
        mid = (edges[i] + edges[i + 1]) / 2
        half = (edges[i + 1] - edges[i]) / 2
        for xi, wi in zip(x, w):
            total += half * wi * _bump_fk_mp(mid + half * xi, 0)
    return total


def derivative_panel_edges(width, k, dg_max=2.0):
    """Panel edges on [0, width] resolving the order-k derivative wavepacket.

    Edges march inward from each endpoint keeping the per-panel variation
    of g = -1/delta - 2k log(delta) below ``dg_max``, then mirror.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    inv_delta_max = 60.0 + 6.0 * k

    def gprime(s):
        u = -1.0 + 2.0 * s / width
        delta = max(1e-12, 1.0 - u * u)
        dd = abs(2.0 * u) * (2.0 / width)
        return (1.0 / delta**2 + 2.0 * k / delta) * dd + 1e-30

    s0 = 0.5 * width * (1.0 - math.sqrt(max(0.0, 1.0 - 1.0 / inv_delta_max)))
    edges = [0.0, s0]
    s = s0
    cap = width / 24.0
    half_w = 0.5 * width
    while s < half_w:
        s = min(s + min(dg_max / gprime(s), cap), half_w)
        edges.append(s)
    mirrored = [width - e for e in reversed(edges[:-1])]
    return np.array(edges + mirrored)


class TargetKernel:
    """Unit-mass C-infinity bump kernel h supported on [-T, theta].

    T is the anticausal reach (prediction horizon), theta the causal tail.
    q(t) = h(t - T) is then causal with support [0, T + theta].
    """

    d_max = D_MAX

    def __init__(self, T, theta):
        if T <= 0:
            raise ValueError("prediction horizon T must be positive")
        if theta < 0:
            raise ValueError("causal tail theta must be nonnegative")
        if T + theta <= 0:
            raise ValueError("degenerate support")
        self.T = float(T)
        self.theta = float(theta)
        self._mass_mp = None
        self.normalization = 2.0 / (self.width * _raw_bump_mass())

    @property
    def width(self):
        return self.T + self.theta

    @property
    def support(self):
        return (-self.T, self.theta)

    def _to_unit(self, t):
        return (2.0 * t - (self.theta - self.T)) / self.width

    def __call__(self, t):
        return self.derivative(0, t)

    def derivative(self, k, t):
        """k-th derivative of h at t (vectorized); exact zero off support."""
        if not 0 <= k <= self.d_max:
            raise ValueError(f"derivative order {k} outside [0, {self.d_max}]")
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        vals = bump_derivative_values(self._to_unit(t), _bump_poly_edge(k), k)
        out = vals * self.normalization * (2.0 / self.width) ** k
        return float(out[0]) if scalar else out

    def derivative_mp(self, t, k):
        """Scalar k-th derivative in the extended context."""
        if not 0 <= k <= self.d_max:
            raise ValueError(f"derivative order {k} outside [0, {self.d_max}]")
        tm = _mp.ctx.mpf(t)
        u = (2 * tm - (_mp.ctx.mpf(self.theta) - _mp.ctx.mpf(self.T))) / _mp.ctx.mpf(self.width)
        scale = 2 / (_mp.ctx.mpf(self.width) * self._mass_mp_value())
        return _bump_fk_mp(u, k) * scale * (2 / _mp.ctx.mpf(self.width)) ** k

    def _mass_mp_value(self):
        if self._mass_mp is None:
            self._mass_mp = _raw_bump_mass_mp()
        return self._mass_mp

    def mass(self):
        """integral of h over its support."""
        nodes, weights = gauss_legendre_rule(*self.support, 32)
        return float(self(nodes) @ weights)


def bump_kernel(T, theta):
    """Unit-mass bump kernel on [-T, theta]."""
    return TargetKernel(T, theta)


def q_transform(h, z, base_panels=32):
    """Q(z) = int_0^{T+theta} e^{-z t} h(t - T) dt (entire in z)."""
    return laplace_transform(lambda t: h(t - h.T), (0.0, h.width), z, base_panels)


def q_spectrum(h, omegas, base_panels=32):
    """Q(i omega) on an array of frequencies via the oscillatory rule."""
    return fourier_transform_at(lambda t: h(t - h.T), (0.0, h.width), omegas, base_panels)


def h_spectrum(h, omegas, base_panels=32):
    """H(i omega) = F h, the transform of the kernel itself."""
    return fourier_transform_at(h, h.support, omegas, base_panels)
