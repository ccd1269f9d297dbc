"""Shared numerical substrate: frequency grids, quadrature and the Fourier transform.

Frequency grids are composite Gauss-Legendre panel rules mirrored about
omega = 0, so the kink of the weight e^{+-r|omega|} always falls on a
panel boundary, and so do the kinks of the spectrum; ``_adequate_grid``,
one rule, sizes the grid of every weighted spectral energy (beta and the
class norm).  ``fourier_transform_at``, the one quadrature against
e^{-i omega t} at any frequencies, gives beta's Q (``kernels.q_spectrum``)
and H at a signal's lines (``predictor._convolutions``).  The forward
transform convention is

    F(i omega) = integral e^{-i omega t} f(t) dt,

and the inverse carries the 1/(2 pi); every module uses this single
convention.
"""

import numpy as np

from ._accel import panel_transform

#: panel degree used by every composite Gauss-Legendre rule
PANEL_DEGREE = 16

#: max phase (rad) of e^{-i omega t} allowed across one panel
_PHASE_PER_PANEL = 6.0

#: default truncation picks e^{-r omega_max} < 1e-16
_LOG_WEIGHT_CUTOFF = 16.0 * np.log(10.0)

#: uniform panels on each half [0, omega_max] of a frequency grid
_HALF_PANELS = 128

#: fewest panels of the time rule of ``fourier_transform_at``
_BASE_PANELS = 32

#: the PANEL_DEGREE-point Gauss-Legendre rule on [-1, 1], the eigenvalue
#: solution of Golub & Welsch (Math. Comp. 23, 1969) as numpy's
#: ``polynomial.legendre.leggauss(16)`` rounds it; the rule is symmetric
#: about 0, so the positive half is listed
_HALF_NODES = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
               0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499)
_HALF_WEIGHTS = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
                 0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176)
_GL_NODES = np.concatenate([-np.array(_HALF_NODES[::-1]), _HALF_NODES])
_GL_WEIGHTS = np.concatenate([_HALF_WEIGHTS[::-1], _HALF_WEIGHTS])


def gauss_legendre_rule(a, b, n_panels):
    """Composite Gauss-Legendre nodes/weights on [a, b] with uniform panels."""
    if not (np.isfinite(a) and np.isfinite(b)) or b <= a:
        raise ValueError(f"invalid interval [{a}, {b}]")
    return gauss_legendre_edges(np.linspace(a, b, n_panels + 1))


def gauss_legendre_edges(edges):
    """Composite Gauss-Legendre rule on explicitly supplied panel edges."""
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    return (mid + half * _GL_NODES[None, :]).ravel(), (half * _GL_WEIGHTS[None, :]).ravel()


def default_omega_max(r):
    """Truncation bound at which the weight e^{-r|omega|} is below 1e-16."""
    if r <= 0:
        raise ValueError("r must be positive")
    return _LOG_WEIGHT_CUTOFF / r


def _adequate_grid(integrand, r, kinks, top):
    """(nodes, weights, values) of a weighted spectral energy int integrand(omega) domega, or None.

    ``integrand`` is even.  The grid is a composite Gauss-Legendre rule
    mirrored about 0: ``_HALF_PANELS`` uniform panels on [0, omega_max],
    split at the ``kinks`` inside it, the points where the integrand is
    not smooth (0, the kink of the weight, is always an edge).
    omega_max starts at the cut of the weight e^{-r|omega|}
    (``default_omega_max``) and doubles, up to ``top``, until every kink
    lies inside the grid and the integrand at its edge is within 1e-16
    of its peak.  None if that has not happened at ``top``: a truncated
    grid is never returned.
    """
    omega, last_kink = default_omega_max(r), max(kinks, default=0.0)
    while True:
        omega_max = min(omega, top)
        # a sorted set, not np.union1d, whose sort pulls 2 MB into the resident set
        edges = sorted({*np.linspace(0.0, omega_max, _HALF_PANELS + 1).tolist(), *(k for k in kinks if k < omega_max)})
        pos_n, pos_w = gauss_legendre_edges(edges)
        nodes, weights = np.concatenate([-pos_n[::-1], pos_n]), np.concatenate([pos_w[::-1], pos_w])
        values = integrand(nodes)
        peak = float(np.max(values))
        if omega_max > last_kink and (peak == 0.0 or values[-1] <= 1e-16 * peak):
            return nodes, weights, values
        if omega_max >= top:
            return None
        omega *= 2.0


def _panel_count(support, omega_scale, base_panels):
    a, b = support
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("support must be finite")
    if b <= a:
        raise ValueError("empty support")
    return max(base_panels, int(np.ceil((b - a) * omega_scale / _PHASE_PER_PANEL)))


def _time_rule(support, omega_scale, base_panels):
    return gauss_legendre_rule(*support, _panel_count(support, omega_scale, base_panels))


def fourier_transform_at(f, support, omegas):
    """F(i omega) = int_a^b e^{-i omega t} f(t) dt at arbitrary frequencies.

    Gauss-Legendre on uniform panels of half-width h puts node i of
    panel p at m_p + h x_i, so the phase factors (``panel_transform``).
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    omega_scale = float(np.max(np.abs(omegas))) if omegas.size else 0.0
    n_panels = _panel_count(support, omega_scale, _BASE_PANELS)
    half = 0.5 * (support[1] - support[0]) / n_panels
    mids = support[0] + half * (2.0 * np.arange(n_panels) + 1.0)
    f_vals = np.asarray(f((mids[:, None] + half * _GL_NODES).ravel()), dtype=float)
    if np.any(np.isnan(f_vals)):
        raise ValueError("f returned NaN on the integration nodes")
    return panel_transform(mids, half * _GL_NODES, f_vals.reshape(n_panels, -1) * (half * _GL_WEIGHTS),
                           omegas)
