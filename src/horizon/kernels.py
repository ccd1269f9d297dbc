"""Smooth compactly supported target kernels.

The base shape is the standard bump exp(-1/(1-u^2)) on (-1, 1).  Its k-th
derivative is P_k(u) (1-u^2)^(-2k) exp(-1/(1-u^2)) where P_k satisfies the
integer-coefficient recurrence

    P_{k+1} = P_k' (1-u^2)^2 + P_k (4 k u (1-u^2) - 2u),   P_0 = 1.

No command reads a derivative of the kernel: predictions take the
signal's derivatives (``predictor.moment_table``) and the noise bounds
take the bump's norm tables (``predictor._BUMP_L1_RATIOS`` and
``_BUMP_L2_RATIOS``), so ``TargetKernel`` evaluates h at order 0 only.
P_k is built once in exact integer arithmetic (``bump_poly_exact``) for
the scalar extended-precision evaluator ``TargetKernel.derivative_mp``,
which the test oracles and the benchmark's metrics read; no command
calls it, so none imports mpmath: its 40-digit context (``_mp``) is
built on first use.  ``q_spectrum`` gives the transform Q(i omega) of
the causal kernel q(t) = h(t - T), which the beta integrand reads.

High-order derivatives concentrate into wavepackets near the support
endpoints whose local frequency diverges like 1/delta^2 (delta the
distance to the edge in the unit coordinate).  ``derivative_panel_edges``
builds quadrature panels by marching inward so that the log-variation of
the envelope per panel stays bounded; the target rule is its order-0
case, and the oracles read its panels of higher order.
"""

import math
from functools import lru_cache

import numpy as np

from ._accel import bump_derivative_values
from .config import D_MAX
from .spectral_core import fourier_transform_at, gauss_legendre_rule

#: largest variation of the log envelope g across one panel of ``derivative_panel_edges``
_DG_MAX = 2.0


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


#: P_0 = 1 in the edge basis of ``_accel.bump_derivative_values``: the bump itself
_ORDER_0 = (np.array([1.0]), np.array([0.0]))


@lru_cache(maxsize=1)
def _mp():
    """(ctx, mass): a private mpmath context at 40 digits and the unit bump's mass in it.

    A clone, so the library never mutates the global ``mpmath.mp``; the
    mass int exp(-1/(1-u^2)) du over (-1, 1) is mpmath's tanh-sinh
    quadrature, good to about 1e-41 relative.
    """
    from mpmath import mp

    ctx = mp.clone()
    ctx.dps = 40
    return ctx, ctx.quad(lambda u: ctx.exp(-1 / (1 - u * u)), [-1, 1])


def _bump_fk_mp(u, k):
    """f^(k)(u) for the unit bump, scalar, extended precision.

    P_k is summed by Horner on its integer coefficients with 25 digits
    to spare, since the sum cancels up to 20 digits near the edges at
    k = 16.
    """
    ctx = _mp()[0]
    delta = 1 - u * u
    if delta <= 0:
        return ctx.mpf(0)
    with ctx.extradps(25):
        p = ctx.mpf(0)
        for c in reversed(bump_poly_exact(k)):
            p = p * u + c
    if p == 0:
        return ctx.mpf(0)
    return p * ctx.exp(-2 * k * ctx.log(delta) - 1 / delta)


@lru_cache(maxsize=1)
def _raw_bump_mass():
    """integral of exp(-1/(1-u^2)) over (-1, 1) in double precision."""
    n, w = gauss_legendre_rule(-1.0, 1.0, 32)
    return float(bump_derivative_values(n, _ORDER_0, 0) @ w)


def derivative_panel_edges(width, k):
    """Panel edges on [0, width] resolving the order-k derivative wavepacket.

    Edges march inward from each endpoint keeping the per-panel variation
    of g = -1/delta - 2k log(delta) below ``_DG_MAX``, then mirror.
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
        s = min(s + min(_DG_MAX / gprime(s), cap), half_w)
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
        if not 0 < T < math.inf:
            raise ValueError("prediction horizon T must be positive and finite")
        if not 0 <= theta < math.inf:
            raise ValueError("causal tail theta must be nonnegative and finite")
        self.T = float(T)
        self.theta = float(theta)
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
        """h at t (vectorized); exact zero off support."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        out = bump_derivative_values(self._to_unit(np.atleast_1d(t)), _ORDER_0, 0) * self.normalization
        return float(out[0]) if scalar else out

    def derivative_mp(self, t, k):
        """Scalar k-th derivative in the extended context."""
        if not 0 <= k <= self.d_max:
            raise ValueError(f"derivative order {k} outside [0, {self.d_max}]")
        ctx, mass = _mp()
        width = ctx.mpf(self.width)
        u = (2 * ctx.mpf(t) - (ctx.mpf(self.theta) - ctx.mpf(self.T))) / width
        return _bump_fk_mp(u, k) * (2 / (width * mass)) * (2 / width) ** k


def q_spectrum(h, omegas):
    """Q(i omega) on an array of frequencies via the oscillatory rule."""
    return fourier_transform_at(lambda t: h(t - h.T), (0.0, h.width), omegas)
