"""Shared numerical substrate: grids, quadrature and transforms.

Frequency grids are composite Gauss-Legendre panel rules mirrored about
omega = 0, so the kink of the weight e^{-r|omega|} always falls on a
panel boundary.  The forward transform convention is

    F(i omega) = integral e^{-i omega t} f(t) dt,

and the inverse carries the 1/(2 pi); every module uses this single
convention.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._accel import panel_transform

#: panel degree used by every composite Gauss-Legendre rule
PANEL_DEGREE = 16

#: max phase (rad) of e^{-i omega t} allowed across one panel
_PHASE_PER_PANEL = 6.0

#: default truncation picks e^{-r omega_max} < 1e-16
_LOG_WEIGHT_CUTOFF = 16.0 * np.log(10.0)


@lru_cache(maxsize=32)
def _leggauss(deg):
    x, w = np.polynomial.legendre.leggauss(deg)
    return x, w


def gauss_legendre_rule(a, b, n_panels, degree=PANEL_DEGREE):
    """Composite Gauss-Legendre nodes/weights on [a, b] with uniform panels."""
    if not (np.isfinite(a) and np.isfinite(b)) or b <= a:
        raise ValueError(f"invalid interval [{a}, {b}]")
    return gauss_legendre_edges(np.linspace(a, b, n_panels + 1), degree)


def gauss_legendre_edges(edges, degree=PANEL_DEGREE):
    """Composite Gauss-Legendre rule on explicitly supplied panel edges."""
    edges = np.asarray(edges, dtype=float)
    x, w = _leggauss(degree)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    return (mid + half * x[None, :]).ravel(), (half * w[None, :]).ravel()


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

    @property
    def n_points(self):
        return self.nodes.size

    @classmethod
    def build(cls, omega_max, n_points=4096, degree=PANEL_DEGREE):
        """Mirrored composite Gauss-Legendre rule on [-omega_max, omega_max].

        ``n_points`` is rounded up to a multiple of 2 * degree.
        """
        if omega_max <= 0:
            raise ValueError("omega_max must be positive")
        per_half = max(1, -(-n_points // (2 * degree)))
        pos_n, pos_w = gauss_legendre_rule(0.0, omega_max, per_half, degree)
        nodes = np.concatenate([-pos_n[::-1], pos_n])
        weights = np.concatenate([pos_w[::-1], pos_w])
        nodes.flags.writeable = False
        weights.flags.writeable = False
        return cls(omega_max=float(omega_max), nodes=nodes, weights=weights)

    @classmethod
    def for_rate(cls, r, n_points=4096):
        """Grid truncated where the weight e^{-r|omega|} drops below 1e-16."""
        return cls.build(default_omega_max(r), n_points)

    def integrate(self, values):
        return values @ self.weights


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
    def step(self):
        return (self.t_max - self.t_min) / (self.n_points - 1)

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
    x, w = _leggauss(PANEL_DEGREE)
    half = 0.5 * (support[1] - support[0]) / n_panels
    mids = support[0] + half * (2.0 * np.arange(n_panels) + 1.0)
    f_vals = np.asarray(f((mids[:, None] + half * x).ravel()), dtype=float)
    if np.any(np.isnan(f_vals)):
        raise ValueError("f returned NaN on the integration nodes")
    return panel_transform(mids, half * x, f_vals.reshape(n_panels, -1) * (half * w), omegas)


def fourier_transform(f, support, grid, base_panels=32):
    """Forward transform of a compactly supported function on a grid."""
    return fourier_transform_at(f, support, grid.nodes, base_panels)


def laplace_transform(f, support, z, base_panels=32):
    """int_0^b e^{-z t} f(t) dt for a causal f supported on [0, b].

    The support is compact, so the transform is entire; z anywhere in the
    complex plane is accepted.
    """
    a, b = support
    if a < 0:
        raise ValueError("causal support must start at t >= 0")
    if not np.isfinite(b):
        raise ValueError("unbounded support")
    z = complex(z)
    t_nodes, t_weights = _time_rule((a, b), abs(z), base_panels)
    f_vals = np.asarray(f(t_nodes), dtype=float)
    if np.any(np.isnan(f_vals)):
        raise ValueError("f returned NaN on the integration nodes")
    return complex(np.exp(-z * t_nodes) @ (t_weights * f_vals))


def parseval_check(f, support, grid, base_panels=32):
    """Relative gap between ||f||^2 in time and (1/2pi)||F||^2 on the grid.

    Large values flag an inadequate frequency truncation.
    """
    t_nodes, t_weights = _time_rule(support, 0.0, base_panels)
    f_vals = np.asarray(f(t_nodes), dtype=float)
    norm_t = float((f_vals * f_vals) @ t_weights)
    if norm_t == 0.0:
        raise ValueError("zero function: relative discrepancy undefined")
    F = fourier_transform(f, support, grid, base_panels)
    norm_w = float((np.abs(F) ** 2) @ grid.weights) / (2.0 * np.pi)
    return abs(norm_t - norm_w) / norm_t
