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
built on first use.  Both divide by one mass, the literal ``_BUMP_MASS``.
``q_spectrum`` gives the transform Q(i omega) of the causal kernel
q(t) = h(t - T), which the beta integrand reads.
"""

import math
from functools import lru_cache

import numpy as np

from ._accel import bump_derivative_values
from .config import D_MAX
from .spectral_core import fourier_transform_at


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


#: int exp(-1/(1-u^2)) du over (-1, 1), the unit bump's mass, to 55 digits
#: (mpmath ``quad`` at 60 and at 80 digits agree to every one)
_BUMP_MASS = "0.4439938161680794378230489211705526637612017890456974973"


@lru_cache(maxsize=1)
def _mp():
    """(ctx, mass): a private mpmath context at 40 digits and ``_BUMP_MASS`` in it.

    A clone, so the library never mutates the global ``mpmath.mp``.
    """
    from mpmath import mp

    ctx = mp.clone()
    ctx.dps = 40
    return ctx, ctx.mpf(_BUMP_MASS)


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
        self.normalization = 2.0 / (self.width * float(_BUMP_MASS))

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
        out = bump_derivative_values(self._to_unit(np.atleast_1d(t))) * self.normalization
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
