"""Exponentially weighted L2 machinery: norms and closed-form moments.

All moments are exact gamma-integral identities; quadrature appears only
as a test oracle.  The Gram matrices assembled from these moments are
Hankel-like and severely ill-conditioned.  The projection still runs on
the double moments (Gram-Schmidt twice holds to degree 16); the
extended-precision variants serve the closed-form alpha expansion, whose
terms cancel catastrophically once alpha is small.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _mp


@dataclass(frozen=True)
class WeightedNorm:
    """Weight e^{sign * r |omega|}; sign=-1 is the approximation weight,
    sign=+1 shows up in the spectral-energy factor of the error bound."""

    r: float
    sign: int = -1

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("decay rate r must be positive")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be -1 or +1")

    def weight(self, omegas):
        return np.exp(self.sign * self.r * np.abs(omegas))


def _tail_is_divergent(integrand, nodes):
    """True when the integrand grows toward the grid edge (divergence knee)."""
    pos = nodes > 0
    vals = integrand[pos]
    n = vals.size
    if n < 16:
        return False
    tail = vals[int(0.8 * n):]
    head = tail[: tail.size // 2]
    back = tail[tail.size // 2:]
    return float(np.mean(back)) > float(np.mean(head)) > 0.0


def weighted_norm_sq(u, norm, grid):
    """int e^{sign r |omega|} |u(omega)|^2 domega over the truncated grid."""
    vals = np.asarray(u(grid.nodes))
    integrand = norm.weight(grid.nodes) * np.abs(vals) ** 2
    if not np.all(np.isfinite(integrand)):
        raise ValueError("weight/decay mismatch")
    if norm.sign > 0 and _tail_is_divergent(integrand, grid.nodes):
        raise ValueError("weight/decay mismatch")
    return float(integrand @ grid.weights)


def monomial_moment(k, r, signed=False):
    """int |omega|^k e^{-r|omega|} domega = 2 k! / r^(k+1).

    With ``signed=True`` the integrand is omega^k, which vanishes for odd k.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if r <= 0:
        raise ValueError("r must be positive")
    if signed and k % 2 == 1:
        return 0.0
    return 2.0 * math.factorial(k) / r ** (k + 1)


def exponential_moment(k, r, T):
    """int omega^k e^{i omega T} e^{-r|omega|} domega, split at omega = 0:

    k! * [ (r - iT)^-(k+1) + (-1)^k (r + iT)^-(k+1) ].
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if r <= 0:
        raise ValueError("r must be positive")
    fk = math.factorial(k)
    return fk * ((r - 1j * T) ** (-(k + 1)) + (-1) ** k * (r + 1j * T) ** (-(k + 1)))


def monomial_moment_mp(k, r, signed=False):
    """Extended-precision monomial moment (40 significant digits)."""
    if signed and k % 2 == 1:
        return _mp.ctx.mpf(0)
    return 2 * _mp.ctx.factorial(k) / _mp.ctx.mpf(r) ** (k + 1)


def exponential_moment_mp(k, r, T):
    """Extended-precision exponential moment (40 significant digits)."""
    rm = _mp.ctx.mpf(r)
    Tm = _mp.ctx.mpf(T)
    fk = _mp.ctx.factorial(k)
    return fk * ((rm - 1j * Tm) ** (-(k + 1)) + (-1) ** k * (rm + 1j * Tm) ** (-(k + 1)))
