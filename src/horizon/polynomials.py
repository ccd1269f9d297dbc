"""Polynomial approximations of the periodic exponent e^{i omega T}.

Two constructions sit behind one interface:

* ``taylor_psi`` truncates the series of e^{Tz}; it converges in the
  weighted norm only in the short-horizon regime T < r.
* ``projection_psi`` orthogonally projects e^{i omega T} onto degree-d
  polynomials in the e^{-r|omega|}-weighted space.  It is optimal at
  every degree, and covers horizons the Taylor route cannot reach.

The projection runs modified Gram-Schmidt, with one re-orthogonalization
pass, over unit-normalized monomials with exact closed-form moments, in
double precision at every degree.  The underlying Gram matrix is
Hankel-like with factorially growing entries, but Gram-Schmidt twice is
near-optimal (Giraud, Langou & Rozloznik, Comput. Math. Appl. 50, 2005):
up to degree 16 its coefficients agree with an 80-digit solve of the
normal equations within 1e-12 of the largest coefficient, which the
tests check.  alpha, which
cancels catastrophically once small, is evaluated in extended precision
by ``alpha_closed_form`` for both constructions.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _mp
from .weighted_space import (
    exponential_moment,
    exponential_moment_mp,
    monomial_moment,
    monomial_moment_mp,
)

_IMAG_ZERO_TOL = 1e-10


@dataclass(frozen=True)
class Polynomial:
    """Complex-coefficient polynomial psi(z) = sum_k a_k z^k."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("need at least one coefficient")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for c in reversed(self.coeffs):
            out = out * z + c
        return complex(out) if out.ndim == 0 else out

    def at_iw(self, omegas):
        """psi(i omega) on a real frequency array."""
        return self(1j * np.asarray(omegas, dtype=float))

    def omega_coeffs(self):
        """Coefficients of p(omega) = psi(i omega) as a polynomial in omega."""
        return np.array([c * (1j) ** k for k, c in enumerate(self.coeffs)])

    def is_real(self, tol=_IMAG_ZERO_TOL):
        return all(abs(c.imag) <= tol for c in self.coeffs)


@dataclass(frozen=True)
class ApproxReport:
    """Weighted squared approximation error of one construction."""

    d: int
    alpha: float
    method: str
    r: float
    T: float

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")


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


def _project_double(T, r, d):
    """omega-coefficients of the projection, by Gram-Schmidt twice in double."""
    G = np.empty((d + 1, d + 1))
    for j in range(d + 1):
        for k in range(d + 1):
            G[j, k] = monomial_moment(j + k, r, signed=True)
    scale = 1.0 / np.sqrt(np.diag(G))
    Gn = G * scale[:, None] * scale[None, :]
    b = np.array([exponential_moment(k, r, T) for k in range(d + 1)]) * scale

    basis = []
    for j in range(d + 1):
        w = np.zeros(d + 1)
        w[j] = 1.0
        for _ in range(2):  # one re-orthogonalization pass
            for q in basis:
                w = w - (q @ Gn @ w) * q
        nrm_sq = float(w @ Gn @ w)
        if not np.isfinite(nrm_sq) or nrm_sq <= 0.0:
            raise ValueError("Gram matrix numerically singular: lower d")
        basis.append(w / math.sqrt(nrm_sq))
    Q = np.array(basis)
    return ((Q @ b) @ Q) * scale


def projection_psi(T, r, d):
    """L2-weighted orthogonal projection of e^{i omega T}, as psi(z).

    The projection is computed over monomials in omega, then the
    coefficients are rotated onto powers of z = i omega (a_k = abar_k i^-k).
    By even/odd symmetry of the weight the z-coefficients are real up to
    roundoff; imaginary residue below 1e-10 is zeroed, anything larger is
    kept and reported via a warning.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    a = _project_double(T, r, d) * (-1j) ** np.arange(d + 1)
    cleaned = []
    for k, c in enumerate(a):
        if abs(c.imag) < _IMAG_ZERO_TOL:
            cleaned.append(complex(c.real, 0.0))
        else:
            warnings.warn(f"projection coefficient {k} keeps imaginary part {c.imag:.3e}")
            cleaned.append(complex(c))
    return Polynomial(tuple(cleaned))


def projection_alpha(T, r, d):
    """alpha of the degree-d projection."""
    return alpha_closed_form(projection_psi(T, r, d), T, r)


def _alpha_tail_guard(psi, T, r, grid):
    om_edge = np.max(np.abs(grid.nodes))
    p_edge = abs(complex(psi(1j * om_edge)))
    edge = math.exp(-r * om_edge) * (p_edge + 1.0) ** 2
    scale = 2.0 / r  # integrand is ~O(1) near omega = 0 in these units
    if edge > 1e-14 * scale:
        raise ValueError(
            f"grid truncation inadequate for alpha: integrand at the edge is {edge:.2e}"
        )


def alpha_of(psi, T, r, grid):
    """alpha = int e^{-r|omega|} |psi(i omega) - e^{i omega T}|^2 domega.

    Grid quadrature of the (pointwise nonnegative) integrand; the grid
    must truncate where the integrand is negligible, which is checked.
    """
    _alpha_tail_guard(psi, T, r, grid)
    om = grid.nodes
    diff = psi.at_iw(om) - np.exp(1j * om * T)
    integrand = np.exp(-r * np.abs(om)) * (diff.real**2 + diff.imag**2)
    return float(integrand @ grid.weights)


def alpha_closed_form(psi, T, r):
    """alpha from the moment expansion, in extended precision.

    Expanding |psi - e|^2 against the weight gives a quadratic form in the
    omega-coefficients with monomial-moment Gram entries and
    exponential-moment cross terms.  The expansion cancels catastrophically
    in double once alpha is small, so it is always evaluated in the
    extended context.
    """
    abar = [_mp.ctx.mpc(c) for c in psi.omega_coeffs()]
    size = len(abar)
    total = _mp.ctx.mpf(0)
    for j in range(size):
        for k in range(size):
            total += (abar[j] * _mp.ctx.conj(abar[k]) * monomial_moment_mp(j + k, r, signed=True)).real
    cross = _mp.ctx.fsum(
        (abar[k] * _mp.ctx.conj(exponential_moment_mp(k, r, T))).real for k in range(size)
    )
    total += -2 * cross + monomial_moment_mp(0, r)
    return float(max(_mp.ctx.mpf(0), total))


def alpha_grid_bound(T, r, d):
    """Frequency truncation adequate for the alpha integrand at degree d.

    The tail behaves like (T omega)^(2d) / (d!)^2 e^{-r omega}; solve for
    the point where it falls below 1e-30 by fixed-point iteration.
    """
    target = -30.0 * math.log(10.0)
    lgd = math.lgamma(d + 1)
    om = 60.0 / r
    for _ in range(40):
        om_new = (2 * d * math.log(max(T * om, 1.0)) - 2 * lgd - target) / r
        om = max(om_new, 10.0 / r)
    return max(om, 60.0 / r)


def approx_report(method, T, r, d):
    """Build one ApproxReport for either construction."""
    if method == "taylor":
        psi = taylor_psi(T, d)
    elif method == "projection":
        psi = projection_psi(T, r, d)
    else:
        raise ValueError(f"unknown method {method!r}")
    return psi, ApproxReport(d=d, alpha=alpha_closed_form(psi, T, r), method=method, r=r, T=T)
