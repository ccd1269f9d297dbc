"""Polynomial approximations of the periodic exponent e^{i omega T}.

Two constructions sit behind one interface:

* ``taylor_psi`` truncates the series of e^{Tz}; it converges in the
  weighted norm only in the short-horizon regime T < r.
* ``projection_psi`` orthogonally projects e^{i omega T} onto degree-d
  polynomials in the e^{-r|omega|}-weighted space.  It is optimal at
  every degree, and covers horizons the Taylor route cannot reach.

The projection and its error alpha share one exact moment helper
(``weighted_space.unit_rate_moments``), work in exact integers and round
each result to double once.  In double, the projection's Hankel normal
equations (condition growing exponentially in d; Beckermann, Numer.
Math. 85, 2000) and alpha's cancelling expansion both lose every digit
at small T.  The tests check that alpha falls with d and stays below the
Taylor alpha down to T = 0.05, where it nears 5e-40.
"""

import math
import numbers
from dataclasses import dataclass

from .weighted_space import unit_rate_moments


@dataclass(frozen=True)
class Polynomial:
    """Real-coefficient polynomial psi(z) = sum_k a_k z^k."""

    coeffs: tuple

    def __post_init__(self):
        if any(isinstance(c, numbers.Complex) and not isinstance(c, numbers.Real) for c in self.coeffs):
            raise ValueError("polynomial coefficients must be real")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("need at least one coefficient")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, z):
        import numpy as np
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for c in reversed(self.coeffs):
            out *= z
            out += c
        return complex(out) if out.ndim == 0 else out

    def at_iw(self, omegas):
        """psi(i omega) on a real frequency array."""
        import numpy as np
        return self(1j * np.asarray(omegas, dtype=float))


def taylor_psi(T, d):
    """Truncated series of e^{Tz}: a_k = T^k / k!."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d > 170:
        raise ValueError("degree too large: factorial overflows float64")
    return Polynomial(tuple(T**k / math.factorial(k) for k in range(d + 1)))


def taylor_alpha_bound(T, r, d):
    """Decay envelope 2 T^d / r^(d-1) valid in the regime T < r."""
    return 2.0 * T**d / r ** (d - 1)


def _solve_integer(A, b):
    """``(x, det)`` with A (x / det) = b, for an integer A whose leading minors are positive.

    Fraction-free elimination (Bareiss) without pivoting: every division
    is exact, and the last pivot is det A.
    """
    n = len(b)
    rows = [row + [bi] for row, bi in zip(A, b)]
    prev = 1
    for k in range(n - 1):
        pivot = rows[k][k]
        for row in rows[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n + 1):
                row[j] = (row[j] * pivot - lead * rows[k][j]) // prev
        prev = pivot
    det = rows[n - 1][n - 1]
    x = [0] * n
    for i in reversed(range(n)):
        x[i] = (det * rows[i][n] - sum(rows[i][j] * x[j] for j in range(i + 1, n))) // rows[i][i]
    return x, det


def projection_psi(T, r, d):
    """L2-weighted orthogonal projection of e^{i omega T}, as psi(z), exact and rounded once.

    The weight is even, so the normal equations split by parity.  At unit
    rate (``unit_rate_moments``) the real unknowns v_k = abar_k / (i^(k mod 2) r^k)
    of the omega-coefficients abar_k solve sum_l m[k + l] v_l = e[k] / den,
    k and l of one parity: the integer factorial Hankels [(2i + 2j)!] and
    [(2i + 2j + 2)!], Gram matrices with positive leading minors.  Each
    is solved in integers; the z-coefficients a_k = abar_k i^-k =
    (-1)^(k // 2) r^k v_k are real by construction and rounded once
    (0.1 to 0.4 ms for d = 16, longer as T / r takes more bits).
    """
    m, e, den = unit_rate_moments(T, r, d)
    rn, rd = float(r).as_integer_ratio()
    a = [0.0] * (d + 1)
    for parity in (0, 1):
        ks = range(parity, d + 1, 2)
        if ks:
            x, det = _solve_integer([[m[i + j] for j in ks] for i in ks], [e[k] for k in ks])
            for k, xk in zip(ks, x):
                a[k] = (-1) ** (k // 2) * rn**k * xk / (rd**k * det * den)
    return Polynomial(tuple(a))


def alpha_closed_form(psi, T, r):
    """alpha = ||psi(i omega) - e^{i omega T}||^2 from the moment expansion, exact and rounded once.

    At unit rate (``unit_rate_moments``), with v_k = (-1)^(k // 2) a_k / r^k,

        alpha = (2 / r) [1 + sum_{j,k} m[j + k] v_j v_k - 2 sum_k v_k e[k] / den].

    The bracket's terms are of order 1 while the taylor alpha at T = 0.05,
    r = 4 is below 1e-39 from d = 11 on, so it is summed in exact integers
    over the common denominator of the a_k, and the correctly rounded
    alpha is one integer division (about 0.1 ms for d = 16).
    """
    d = psi.degree
    m, e, den = unit_rate_moments(T, r, d)
    rn, rd = float(r).as_integer_ratio()
    ratios = [a.as_integer_ratio() for a in psi.coeffs]
    scale = math.lcm(*(q for _, q in ratios))
    v_den = scale * rn**d  # v_k = w[k] / v_den
    w = [(-1) ** (k // 2) * p * (scale // q) * rd**k * rn ** (d - k) for k, (p, q) in enumerate(ratios)]
    quad = sum(m[n] * sum(w[j] * w[n - j] for j in range(max(0, n - d), min(n, d) + 1))
               for n in range(0, 2 * d + 1, 2))
    cross = sum(wk * ek for wk, ek in zip(w, e))
    total = (v_den * v_den + quad) * den - 2 * v_den * cross
    return max(0, 2 * rd * total) / (rn * v_den * v_den * den)
