"""Shared numerical substrate: grids, quadrature and the Fourier transform.

Frequency grids are composite Gauss-Legendre panel rules mirrored about
omega = 0, so the kink of the weight e^{-r|omega|} always falls on a
panel boundary; ``_adequate_grid`` sizes the grid of a weighted spectral
energy (beta and the class norm).  The forward transform convention is

    F(i omega) = integral e^{-i omega t} f(t) dt,

and the inverse carries the 1/(2 pi); every module uses this single
convention.
"""

from dataclasses import dataclass, field

import numpy as np

from ._accel import panel_transform

#: panel degree used by every composite Gauss-Legendre rule
PANEL_DEGREE = 16

#: max phase (rad) of e^{-i omega t} allowed across one panel
_PHASE_PER_PANEL = 6.0

#: default truncation picks e^{-r omega_max} < 1e-16
_LOG_WEIGHT_CUTOFF = 16.0 * np.log(10.0)

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


def _exp_weighted_square(log_weight, mag):
    """e^{log_weight} mag^2, taken as exp(log_weight + 2 log mag) where that
    product is not finite (the weight overflows, perhaps against mag^2 = 0)."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = np.exp(log_weight) * mag**2
        bad = ~np.isfinite(out)
        out[bad] = np.exp(log_weight[bad] + 2.0 * np.log(mag[bad]))
    return out


@dataclass(frozen=True)
class SpectralGrid:
    """Symmetric truncated frequency grid with attached quadrature rule."""

    omega_max: float
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, omega_max, n_points=4096):
        """Mirrored composite Gauss-Legendre rule on [-omega_max, omega_max].

        ``n_points`` is rounded up to a multiple of 2 * PANEL_DEGREE.
        """
        if omega_max <= 0:
            raise ValueError("omega_max must be positive")
        per_half = max(1, -(-n_points // (2 * PANEL_DEGREE)))
        pos_n, pos_w = gauss_legendre_rule(0.0, omega_max, per_half)
        nodes = np.concatenate([-pos_n[::-1], pos_n])
        weights = np.concatenate([pos_w[::-1], pos_w])
        nodes.flags.writeable = False
        weights.flags.writeable = False
        return cls(omega_max=float(omega_max), nodes=nodes, weights=weights)

    @classmethod
    def for_rate(cls, r, n_points=4096):
        """Grid truncated where the weight e^{-r|omega|} drops below 1e-16."""
        return cls.build(default_omega_max(r), n_points)


def _adequate_grid(integrand, rate, r):
    """(grid, integrand on its nodes) for a weighted spectral energy int integrand(omega) domega.

    ``integrand`` is even and decays like e^{-rate |omega|}: a finite rate
    truncates where that falls below 1e-16 (``SpectralGrid.for_rate``).
    An infinite rate, a compact or super-exponential spectrum, starts at
    the cut of the weight e^{-r |omega|} and doubles it, up to 8 grids,
    until the integrand at the edge is within 1e-16 of its peak.
    """
    if np.isfinite(rate):
        grid = SpectralGrid.for_rate(rate)
        return grid, integrand(grid.nodes)
    omega = default_omega_max(r)
    for _ in range(8):
        grid = SpectralGrid.build(omega)
        values = integrand(grid.nodes)
        peak = float(np.max(values))
        if peak == 0.0 or values[-1] <= 1e-16 * peak:
            break
        omega *= 2.0
    return grid, values


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [t_min, t_max]."""

    t_min: float
    t_max: float
    n_points: int

    def __post_init__(self):
        if not self.t_min < self.t_max:
            raise ValueError("t_min must be < t_max")
        if self.n_points < 2:
            raise ValueError("need at least two time points")

    @property
    def nodes(self):
        return np.linspace(self.t_min, self.t_max, self.n_points)


def _panel_count(support, omega_scale, base_panels):
    a, b = support
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("support must be finite")
    if b <= a:
        raise ValueError("empty support")
    return max(base_panels, int(np.ceil((b - a) * omega_scale / _PHASE_PER_PANEL)))


def _time_rule(support, omega_scale, base_panels):
    return gauss_legendre_rule(*support, _panel_count(support, omega_scale, base_panels))


def fourier_transform_at(f, support, omegas, base_panels=32):
    """F(i omega) = int_a^b e^{-i omega t} f(t) dt at arbitrary frequencies.

    Gauss-Legendre on uniform panels of half-width h puts node i of
    panel p at m_p + h x_i, so the phase factors (``panel_transform``).
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    omega_scale = float(np.max(np.abs(omegas))) if omegas.size else 0.0
    n_panels = _panel_count(support, omega_scale, base_panels)
    half = 0.5 * (support[1] - support[0]) / n_panels
    mids = support[0] + half * (2.0 * np.arange(n_panels) + 1.0)
    f_vals = np.asarray(f((mids[:, None] + half * _GL_NODES).ravel()), dtype=float)
    if np.any(np.isnan(f_vals)):
        raise ValueError("f returned NaN on the integration nodes")
    return panel_transform(mids, half * _GL_NODES, f_vals.reshape(n_panels, -1) * (half * _GL_WEIGHTS),
                           omegas)
