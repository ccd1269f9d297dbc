"""Limited-memory predictor assembly, evaluation and error bounds.

The predicting kernel is assembled in the time domain as

    hhat_d(t) = sum_k a_k q^(k)(t),    q(t) = h(t - T),

so its transform is psi_d(i omega) Q(i omega) = e^{-i omega T} psi_d H
exactly; the property tests enforce that identity.

Both prediction routes read a table of moments that does not depend on
d: with hhat_d = sum_k a_k q^(k) and x real,

    y_hat_d(t) = Re int_0^tau hhat_d(u) x(t - u) du = sum_k Re(a_k) S[k, t],
    S[k, t] = int q^(k)(u) x(t - u) du.

Below the switch S is the sample-moment table: x sampled on the panel
rule of the top order, times each weight vector w q^(k)(s).  High-degree
assemblies are numerically brutal, though: hhat_12 for the canonical
configuration carries an L1 mass near 3.5e15 while its convolutions are
O(0.1), so a quadrature against it cancels some 16 orders of magnitude.
Once the L1 mass makes double-precision roundoff exceed the quadrature
budget (``needs_extended``) the moments are taken otherwise.  Every
derivative of q vanishes at 0 and at tau, so integrating by parts gives
exactly

    S[k, t] = int q(u) x^(k)(t - u) du = M[k, t],

the same causal window and value, but a quadrature against the positive
unit-mass bump with no cancellation.  Past the switch signals that carry
a derivative evaluator are predicted from this derivative-transfer table
M; a signal given only as samples, and the transform of the assembled
kernel (``PredictorKernel.spectrum``), are refused there rather than
returned at a roundoff floor of ~1e-16 times the L1 mass.  A signal made
of lines, x(t) = Re sum_j c_j e^{i omega_j t} (chirp noise, its
frequency rule), gives the same double sum over nodes s and lines j
taken over s first: one transcendental per line and per time, not per
(time, node, line).

The degree sweep, a list of predictors of one kernel, is the unit of
work.  Only alpha depends on d, so each degree-free quantity is computed
once per sweep and returned per predictor: ``moment_tables`` builds one
table per route, up to the top degree of the sweep members on that
route, from one ``x.time`` block or one ``x.derivatives`` stack per row
block, or one read of the lines; ``error_bound_parts`` integrates beta
once; ``transfer_norms`` builds the p = 1 band or ||H||_2 once.  Every
quantity here is computed in double precision; only alpha
(``alpha_closed_form``), whose expansion cancels catastrophically, is
summed in exact rationals.
"""

import math

import numpy as np

from ._accel import oscillatory_transform
from .kernels import derivative_panel_edges, q_spectrum
from .polynomials import alpha_closed_form
from .spectral_core import SpectralGrid, _exp_weighted_square, default_omega_max, gauss_legendre_edges
from .weighted_space import _tail_is_divergent

#: quadrature budget (absolute) for prediction integrals
EPS_QUAD = 1e-10


class ClassMembershipError(ValueError):
    """The signal lies outside the spectral class the bound requires."""


class BoundRangeError(ValueError):
    """The signal is in the class, but its error bound exceeds the double range."""


class PredictorKernel:
    """Causal bounded-support kernel; memory window is exactly [0, T+theta]."""

    def __init__(self, h, psi):
        if psi.degree > h.d_max:
            raise ValueError(f"polynomial degree {psi.degree} exceeds kernel d_max {h.d_max}")
        self.h = h
        self.psi = psi
        self.d = psi.degree
        self.tau = h.width
        self.real_coeffs = psi.is_real()
        self._table = None

    # -- assembly ---------------------------------------------------------

    def __call__(self, t):
        """hhat_d(t), complex in general; zero off [0, tau] by construction."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        out = np.zeros(t.shape, dtype=complex)
        for k, a in enumerate(self.psi.coeffs):
            if a != 0:
                out += a * self.h.derivative(k, t - self.h.T)
        return complex(out[0]) if scalar else out

    # -- quadrature tables -------------------------------------------------

    def _double_table(self):
        if self._table is None:
            edges = derivative_panel_edges(self.tau, self.d)
            nodes, weights = gauss_legendre_edges(edges)
            values = self(nodes)
            l1 = float(weights @ np.abs(values))
            self._table = (nodes, weights, values, l1)
        return self._table

    @property
    def l1_mass(self):
        """Quadrature estimate of int |hhat_d|; sets the roundoff floor of the node table."""
        return self._double_table()[3]

    def needs_extended(self):
        """True once roundoff of a quadrature against hhat_d (~1e-15 l1_mass)
        exceeds a tenth of the quadrature budget: the node table is unusable."""
        return self.l1_mass * 1e-15 > 0.1 * EPS_QUAD

    def _roundoff_error(self, what):
        return ValueError(
            f"{what} at d={self.d} would be roundoff: l1_mass {self.l1_mass:.2e} "
            f"times 1e-15 exceeds a tenth of the quadrature budget {EPS_QUAD:.0e}")

    # -- transform of the assembled kernel ----------------------------------

    def spectrum(self, omegas):
        """F[hhat_d](i omega) by quadrature of the assembled time kernel.

        This is the independent route; psi(i omega) Q(i omega) is the
        closed one.  Their agreement is the central identity.  Refused
        where ``needs_extended`` holds.
        """
        if self.needs_extended():
            raise self._roundoff_error("the assembled-kernel transform")
        omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
        nodes, weights, values, _ = self._double_table()
        re = oscillatory_transform(nodes, weights, np.ascontiguousarray(values.real), omegas)
        if self.real_coeffs:
            return re
        im = oscillatory_transform(nodes, weights, np.ascontiguousarray(values.imag), omegas)
        return re + 1j * im


def build_predictor(h, psi):
    """Assemble the order-d predicting kernel from a target kernel and psi."""
    return PredictorKernel(h, psi)


# -- convolutions ------------------------------------------------------------


def _target_rule(h):
    edges = derivative_panel_edges(h.width, 0) + h.support[0]
    return gauss_legendre_edges(edges)


#: bound on the (time points x nodes) block evaluated at once
_BLOCK_ELEMENTS = 1 << 18


def _row_blocks(n_rows, n_cols, depth=1):
    """Row slices of about ``_BLOCK_ELEMENTS`` elements over ``depth`` stacked (rows x cols) arrays.

    Each block is a whole multiple of 16 rows, at least 16: that keeps the BLAS
    matrix-vector kernel's row unrolling, so a blocked product sums each row
    exactly as one full product does.
    """
    step = max(16, _BLOCK_ELEMENTS // (n_cols * depth) // 16 * 16)
    return [slice(i, min(i + step, n_rows)) for i in range(0, n_rows, step)]


def _blocked(ts, nodes, evaluate, out, depth=1):
    """out[..., rows] = evaluate(t - s) over the row blocks of the (times x nodes) argument matrix.

    t - s is written into one buffer allocated once per call, each block a
    C-contiguous leading slice of it: a block-sized array allocated and
    freed per block is handed back to the operating system and faulted in
    again page by page.  ``depth`` is the number of (rows x nodes) arrays
    ``evaluate`` holds at once, so its whole stack stays near one block.
    """
    blocks = _row_blocks(ts.size, nodes.size, depth)
    buf = np.empty((blocks[0].stop if blocks else 0, nodes.size))
    for rows in blocks:
        args = np.subtract(ts[rows, None], nodes, out=buf[:rows.stop - rows.start])
        out[..., rows] = evaluate(args)
    return out


def target_values(h, x, ts):
    """y(t) = int h(u) x(t-u) du over u in [-T, theta] at ``ts``: the anticausal target."""
    ts = np.asarray(ts, dtype=float)
    nodes, weights = _target_rule(h)
    hw = h(nodes) * weights
    return _blocked(ts, nodes, lambda args: x.time(args) @ hw, np.empty(ts.size))


def moment_tables(pks, x, ts):
    """The moment table of each predictor's route at ``ts``, one table built per route.

    The route is derivative transfer (``_moment_table``) where
    ``pk.needs_extended()`` holds, refused for a signal without a
    derivative evaluator, and the sample moments (``_sample_table``)
    otherwise.  Each route's table goes up to the top degree of the
    predictors on it, and every predictor on the route reads it.
    """
    ts = np.asarray(ts, dtype=float)
    routes = [pk.needs_extended() for pk in pks]
    if x.derivatives is None and any(routes):
        pk = pks[routes.index(True)]
        raise pk._roundoff_error(f"the sample path of signal {x.kind!r} (no derivative)")
    tables = {}
    for transfer in set(routes):
        kmax = max(pk.d for pk, route in zip(pks, routes) if route == transfer)
        build = _moment_table if transfer else _sample_table
        tables[transfer] = build(pks[0].h, x, ts, kmax)
    return [tables[route] for route in routes]


def predict_values(pk, table):
    """Predictions sum_k Re(a_k) table[k] from pk's entry of ``moment_tables``.

    Summed in k order over the nonzero Re(a_k); x is real, so
    Re(a_k x^(k)) = Re(a_k) x^(k).
    """
    out = np.zeros(table.shape[1])
    for k, a in enumerate(pk.psi.coeffs):
        if a.real != 0.0:
            out += a.real * table[k]
    return out


def _sample_table(h, x, ts, kmax):
    """S[k, t] = int q^(k)(u) x(t - u) du for k <= kmax, on the order-kmax panel rule.

    One ``x.time`` block per row block, times each weight vector
    w q^(k)(s) by a matrix-vector product, so row blocks sum each row as
    one full product does.  A table serves degrees up to kmax only on its
    own rule, so it is rebuilt, not sliced, for another kmax.
    """
    nodes, weights = gauss_legendre_edges(derivative_panel_edges(h.width, kmax))
    qw = [h.derivative(k, nodes - h.T) * weights for k in range(kmax + 1)]

    def evaluate(args):
        block = x.time(args)
        return [block @ w for w in qw]

    return _blocked(ts, nodes, evaluate, np.empty((kmax + 1, ts.size)))


def _moment_table(h, x, ts, kmax):
    """M[k, t] = int h(s) x^(k)(t - T - s) ds for k <= kmax, on the target rule.

    One ``x.derivatives(kmax, .)`` stack per row block, the blocks sized by
    the whole (kmax + 1)-deep stack.  The arguments
    t - T - s stay inside the causal window (t - tau, t).  Row k does not
    depend on kmax.  With lines resolving every argument, M[k, t] =
    Re sum_j c_j (i omega_j)^k Q_j e^{i omega_j t}, Q_j = sum_s h(s) w_s
    e^{-i omega_j (s + T)}.
    """
    nodes, weights = _target_rule(h)
    hw = h(nodes) * weights
    tt = ts - h.T
    if x.lines is None:
        return _blocked(tt, nodes, lambda args: [d @ hw for d in x.derivatives(kmax, args)],
                        np.empty((kmax + 1, ts.size)), depth=kmax + 1)
    om, c = x.lines(max(np.max(tt) - np.min(nodes), np.max(nodes) - np.min(tt)))
    q = np.exp(-1j * np.outer(om, nodes + h.T)) @ hw
    b = (c * q)[:, None] * (1j * om[:, None]) ** np.arange(kmax + 1)
    out = np.empty((kmax + 1, ts.size))
    for rows in _row_blocks(ts.size, om.size):
        phases = np.exp(1j * np.outer(ts[rows], om))
        for k in range(kmax + 1):
            out[k, rows] = (phases @ b[:, k]).real
    return out


# -- bounds ------------------------------------------------------------------


def _beta_grid(x, h, r, n_points=4096):
    """(grid, beta integrand on it), the grid sized from the signal's decay."""
    rho = x.spectral_decay
    if math.isfinite(rho):
        if 2.0 * rho <= r:
            raise ClassMembershipError("signal outside class: beta integral diverges")
        grid = SpectralGrid.for_rate(2.0 * rho - r, n_points)
        return grid, _beta_integrand(x, h, r, grid)
    omega = default_omega_max(r)
    for _ in range(7):
        grid = SpectralGrid.build(omega, n_points)
        integrand = _beta_integrand(x, h, r, grid)
        peak = float(np.max(integrand))
        if peak == 0.0 or integrand[-1] <= 1e-16 * peak:
            break
        omega *= 2.0
    return grid, integrand


def _q_on_grid(h, grid):
    """Q(i omega) on the grid's nodes.

    q is real, so Q(-i omega) = conj Q(i omega): every grid is mirrored
    about 0 (``SpectralGrid.build``), so only the upper half is transformed.
    """
    q_pos = q_spectrum(h, grid.nodes[grid.nodes.size // 2:])
    return np.concatenate([np.conj(q_pos[::-1]), q_pos])


def _beta_integrand(x, h, r, grid):
    """e^{r|omega|} |Q X|^2 on the grid's nodes, in log space where it overflows."""
    return _exp_weighted_square(r * np.abs(grid.nodes), np.abs(_q_on_grid(h, grid) * x.spectrum(grid.nodes)))


def beta_energy(h, x, r, grid=None):
    """beta = int e^{r|omega|} |Q(i omega) X(i omega)|^2 domega.

    Refused as outside the class when the integral diverges, and with
    ``BoundRangeError`` when it converges (2 x.spectral_decay > r) but
    exceeds the double range.
    """
    if x.spectrum is None:
        raise ValueError("signal carries no exact spectrum")
    if grid is None:
        grid, integrand = _beta_grid(x, h, r)
    else:
        integrand = _beta_integrand(x, h, r, grid)
    finite = bool(np.all(np.isfinite(integrand)))
    diverges = _tail_is_divergent(integrand, grid.nodes) if finite else 2.0 * x.spectral_decay <= r
    if diverges:
        raise ClassMembershipError("signal outside class: beta integral diverges")
    beta = float(integrand @ grid.weights) if finite else math.inf
    if not math.isfinite(beta):
        raise BoundRangeError(f"bound exceeds double range: beta overflows at r={r}")
    return beta


def error_bound_parts(pks, x, r):
    """(alpha, beta, bound) of each predictor, bound = sqrt(alpha beta) / (2 pi).

    beta depends on the kernel and the signal only, so it is integrated once.
    """
    beta = beta_energy(pks[0].h, x, r)
    parts = []
    for pk in pks:
        alpha = alpha_closed_form(pk.psi, pk.h.T, r)
        parts.append((alpha, beta, math.sqrt(alpha * beta) / (2.0 * math.pi)))
    return parts


#: top of the p = 1 transfer band
_SCAN_OMEGA_MAX = 16384.0
#: FFT frequencies per crest period 2 pi / tau of |Q| (zero-padding factor)
_BAND_PAD = 128
#: complex values per group of short band transforms, and frequencies per sup chunk
_BAND_GROUP, _SUP_CHUNK = _BLOCK_ELEMENTS >> 2, _BLOCK_ELEMENTS >> 4


def _band_spectrum(h):
    """(step, |Q(i omega)|) at omega = step * arange(n_omega) <= _SCAN_OMEGA_MAX, once per sweep.

    q(t) = h(t - T) is sampled on n + 1 uniform points of [0, tau] at a
    step of at most pi / (2 _SCAN_OMEGA_MAX), twice the Nyquist rate of
    the band.  |Q| is the DFT X of the samples zero-padded to m, a power
    of two at least ``_BAND_PAD`` (n + 1) long, so at least ``_BAND_PAD``
    frequencies fall on each crest of |Q|.  With m = L P, L the smallest
    power of two >= n + 1, X[l P + p] = FFT_L(x_j e^{-2 pi i p j / m})[l]:
    P transforms of length L in groups of about ``_BAND_GROUP`` values,
    each keeping its outputs in the band.  The phase factor comes from two
    tables, e^{-2 pi i p (j mod P) / m} and e^{-2 pi i p (j div P) / L},
    each entry its own exp (a recurrence in p loses digits where |Q| is
    small).  Memory is the stored band plus about one group.  q and all
    its derivatives vanish at 0 and tau, so this trapezoid rule is
    spectrally accurate below Nyquist (Trefethen & Weideman, SIAM Review
    56, 2014).
    """
    n = math.ceil(2.0 * _SCAN_OMEGA_MAX * h.width / math.pi)
    dt = h.width / n
    m = 1 << (_BAND_PAD * (n + 1) - 1).bit_length()
    step = 2.0 * math.pi / (m * dt)
    n_omega = int(_SCAN_OMEGA_MAX / step) + 1
    L, P = 1 << n.bit_length(), m >> n.bit_length()
    x = np.zeros((-(-L // P), P))  # x[j div P, j mod P]
    x.flat[:n + 1] = h(np.arange(n + 1) * dt - h.T)
    lo_tab = np.exp(-2j * math.pi / m * np.outer(np.arange(P), np.arange(P)))
    hi_tab = np.exp(-2j * math.pi / L * np.outer(np.arange(P), np.arange(len(x))))
    keep, rows = -(-n_omega // P), max(1, _BAND_GROUP // L)
    q_abs = np.empty((keep, P))
    for g in range(0, P, rows):
        mod = x * lo_tab[g:g + rows, None, :]
        mod *= hi_tab[g:g + rows, :, None]
        spectra = mod.reshape(len(mod), -1)[:, :L]
        q_abs[:, g:g + rows] = np.abs(np.fft.fft(spectra, out=spectra)[:, :keep]).T
    q_abs = q_abs.reshape(-1)[:n_omega]
    q_abs *= dt
    return step, q_abs


def _transfer_sup(pk, band):
    """sup |psi_d Q| over the transfer band [0, _SCAN_OMEGA_MAX].

    |Q| is the ``band`` of ``_band_spectrum`` (once per sweep, shared by
    every degree), within 1e-15 absolute of 30-digit values; |psi_d Q| is
    maxed over chunks of ``_SUP_CHUNK`` frequencies.  Far up the band |Q|
    itself falls below that roundoff while psi_d(i omega) grows like
    omega^d, so at high degree the largest product on the band is
    |psi_d| times roundoff, above the true sup, which |psi_d Q| reaches
    well inside the resolved band (omega ~ 1e3 at d = 10 for the
    canonical kernel).  The sup is therefore capped by the exact
    inequality sup |Hhat_d| <= int |hhat_d| = ``pk.l1_mass``, a positive
    sum with no cancellation, so the reported norm never exceeds a bound
    that holds.
    """
    step, q_abs = band
    starts = range(0, q_abs.size, _SUP_CHUNK)
    sup = max(float(np.max(np.abs(pk.psi.at_iw(step * np.arange(i, i + c.size))) * c))
              for i, c in zip(starts, np.split(q_abs, starts[1:])))
    return min(sup, pk.l1_mass)


def _l2_time_norm_sq(pk):
    """int |hhat_d|^2 dt from the double node table.

    The integrand is nonnegative, so the sum does not cancel; the node
    values are accurate to every degree through the edge-basis kernel
    derivatives.
    """
    nodes, weights, values, _ = pk._double_table()
    return float(weights @ (np.abs(values) ** 2))


def transfer_norms(pks, p):
    """(||Hhat_d||_{L_q}, ||H||_{L_q}) of each predictor, q dual to p.

    |H(i omega)| = |Q(i omega)| since the e^{i omega T} factor is
    unimodular.  The L2 norms come from time-domain Parseval (exact, no
    truncation) and the sup norms from ``_transfer_sup`` over the band of
    short FFTs, built once for the sweep and freed on return, in the
    stored band plus about one chunk of memory.
    """
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    h = pks[0].h
    if p == 1:
        band = _band_spectrum(h)
        n_h = float(np.max(band[1]))
        return [(_transfer_sup(pk, band), n_h) for pk in pks]
    two_pi = 2.0 * math.pi
    nodes, weights = _target_rule(h)
    n_h = math.sqrt(two_pi * float((h(nodes) ** 2) @ weights))
    return [(math.sqrt(two_pi * _l2_time_norm_sq(pk)), n_h) for pk in pks]
