"""Limited-memory predictors: evaluation and error bounds.

The predicting kernel is

    hhat_d(t) = sum_k a_k q^(k)(t),    q(t) = h(t - T),

so its transform is psi_d(i omega) Q(i omega) = e^{-i omega T} psi_d H
exactly; the property tests enforce that identity.

Every prediction reads one table of moments that does not depend on d.
The direct form,

    y_hat_d(t) = int_0^tau hhat_d(u) x(t - u) du
               = sum_k a_k int q^(k)(u) x(t - u) du,

is numerically brutal at high degree: hhat_12 for the canonical
configuration carries an L1 mass near 3.5e15 while its convolutions are
O(0.1), so a quadrature against it cancels some 16 orders of magnitude,
and even at d <= 4 its roundoff reaches 1e-13 on a dense grid.  Every
derivative of q vanishes at 0 and at tau, so integrating by parts gives
exactly

    int q^(k)(u) x(t - u) du = int q(u) x^(k)(t - u) du = M[k, t],

the same causal window and value, but a quadrature against the positive
unit-mass bump with no cancellation.  So every degree is predicted from
this derivative-transfer table M (``moment_table``), read from the
signal's derivative stack.  The target is the same convolution at order
0 and unshifted times, int h(u) x(t - u) du = M[0, t + T]: one builder
(``_convolutions``) serves both, so the target and the prediction read x
by one route.  No route here integrates hhat_d itself: psi_d Q is its
transform, and the quadrature of the assembled kernel, the other side of
the transfer identity, is a test oracle.  A signal made of lines,
x(t) = Re sum_j c_j e^{i omega_j t} (chirp noise, its frequency rule),
has the moments Re sum_j c_j (i omega_j)^k H(i omega_j) e^{i omega_j t},
H from ``spectral_core.fourier_transform_at``, sized by the top line.

The derivative stack of a signal without lines is separated from the
kernel the same way.  A signal of the class is analytic in a strip about
the real line, so on a kernel window of half-length l, s -> x(t - s) is
resolved to double precision by its Chebyshev interpolant on
M ~ 16 / log10(rho) points, rho = a/l + sqrt(1 + (a/l)^2) for a strip
of half-width a (Bernstein-ellipse convergence; Trefethen, Approximation
Theory and Approximation Practice, SIAM 2013, Thm 8.2).  Each sum over
the nodes s_j of the kernel's trapezoid rule (``_target_rule``) is then
sum_j v_j x(t - s_j) = sum_i x(t - sigma_i) (L.T v)_i, with L the
barycentric Lagrange basis of the window points sigma_i at the nodes,
so x is read at (time x M) points in place of (time x node) points.
Each row takes the first M, from a floor set by x's spectrum
(``_first_window``) doubling, at which the last Chebyshev coefficients
of its samples are within 4 eps of its largest sample, 4 (k + 1) eps
for order k of a derivative stack (the tail test, ``_window_table``).
Rows that never pass it, near a sharp Gaussian say, and a table of too
few times for the interpolant to pay are read on the nodes themselves,
the direct sum.

The degree sweep, a list of predictors of one kernel, is the unit of
work.  Only alpha depends on d, so each degree-free quantity is computed
once per sweep: ``moment_table`` builds one table up to the top degree
of the sweep, from one ``x.derivatives`` stack per row block and window
or one read of the lines, and every predictor reads it;
``error_bound_parts`` integrates beta once; ``transfer_norms`` builds
the p = 1 band once, and sums the p = 2 norms in closed form from the
bump's constants ``_BUMP_L2_RATIOS``.  Every quantity here is computed in
double precision.  The coefficients a_k and alpha come from
``polynomials``, where the projection and alpha share one exact moment
helper (``weighted_space.unit_rate_moments``), are solved or summed in
exact integers and are rounded to double once.
"""

import math
from typing import NamedTuple, Optional

import numpy as np

from ._accel import _BLOCK_ELEMENTS, _row_blocks
from .config import BoundRangeError, ClassMembershipError
from .kernels import q_spectrum
from .polynomials import alpha_closed_form
from .signals import _log_abs_spectrum
from .spectral_core import _adequate_grid, fourier_transform_at


class PredictorKernel:
    """Causal bounded-support kernel hhat_d = sum_k a_k q^(k); memory window is exactly [0, T+theta]."""

    def __init__(self, h, psi):
        if psi.degree > h.d_max:
            raise ValueError(f"polynomial degree {psi.degree} exceeds kernel d_max {h.d_max}")
        self.h = h
        self.psi = psi
        self.d = psi.degree
        self.tau = h.width

    def needs_extended(self):
        """True once forming hhat_d in double rounds off more than 1e-11: 1e-15 sum_k |a_k| ||q^(k)||_1 > 1e-11.

        ||q^(k)||_1 = (2 / tau)^k c_k (``_BUMP_L1_RATIOS``).  The sum bounds
        the L1 mass l1 of hhat_d, whose l1 > 1e4 switches the assembled-kernel
        test oracles; the two rules differ only where l1 < 1e4 <= the bound
        (at most 2.1 l1 over 7 kernels; T = 0.2, theta = 2, taylor d = 12 has
        l1 = 9,804 and a bound of 11,577).  On the canonical kernel they
        agree at every degree.
        """
        scale = 2.0 / self.tau
        bound = sum(abs(a) * c * scale**k for k, (a, c) in enumerate(zip(self.psi.coeffs, _BUMP_L1_RATIOS.tolist())))
        return 1e-15 * bound > 1e-11


# -- convolutions ------------------------------------------------------------


def _rule_intervals(m):
    """ceil(tau Omega / (2 pi) + m / pi), tau Omega / (2 pi) = ``_CUT_SCALE`` / pi (364) on every kernel."""
    return math.ceil((_CUT_SCALE + m) / math.pi)


def _target_rule(h, m):
    """The trapezoid rule of n = ``_rule_intervals(m)`` intervals on [-T, theta]: nodes -T + j tau / n, 0 < j < n.

    h and all its derivatives vanish at both ends, so its only error is
    the alias of the spectrum H * X of s -> h(s) x(t - s) at the rate
    2 pi n / tau >= Omega + 2 m / tau (Trefethen & Weideman, SIAM Review
    56, 2014): |H| is below 1e-16 past the band cut Omega (``_band_cut``)
    and |X| below 1e-16 of its peak past 2 m / tau (``_first_window``).
    """
    n = _rule_intervals(m)
    return h.support[0] + (h.width / n) * np.arange(1, n), np.full(n - 1, h.width / n)


#: fewest points of a window interpolant, and most nodes of a target rule (``_first_window``)
_FIRST_WINDOW, _MAX_NODES = 16, 1 << 16
#: the tail test: the last ``_TAIL_COEFFS`` Chebyshev coefficients of each
#: row of order k at most (k + 1) ``_TAIL_EPS`` (4 eps) times the row's
#: largest sample, since order k of a derivative stack carries about k + 1
#: roundings (the powers of 1 / (t - i a), the Hermite recurrence)
_TAIL_COEFFS, _TAIL_EPS = 4, 4.0 * np.finfo(float).eps
#: cost of one entry of the Lagrange basis, in signal values
_BASIS_COST = 4
#: bound on the (nodes x window points) chunk of the Lagrange basis formed at once
_BASIS_ELEMENTS = 1 << 18


def _first_window(x, width):
    """``_FIRST_WINDOW`` doubled until M > Omega width / 2, past which |X(i omega)| is below 1e-16 of its peak.

    M Chebyshev points on a window of that width resolve frequencies up
    to about 2 M / width (pi points per period), so no row's samples
    step over a feature of x and pass the tail test by missing it.  |X|
    peaks at 0 or at a kink and falls monotonically past the last kink
    (every kind in ``signals``), so M suffices once 2 M / width lies past
    the last kink and |X| there is below the floor.  ``BoundRangeError``
    before the target rule of 2 M would pass ``_MAX_NODES`` nodes: on the
    canonical kernel, for a Gaussian sharper than sigma = 2e-5.
    """
    kinks = [0.0, *x.spectral_kinks]
    floor = 1e-16 * float(np.max(np.abs(x.spectrum(np.array(kinks)))))
    m = _FIRST_WINDOW
    while 2.0 * m / width <= max(kinks) or abs(float(x.spectrum(np.array(2.0 * m / width)))) > floor:
        if _rule_intervals(2 * m) - 1 > _MAX_NODES:
            raise BoundRangeError(f"signal not resolved by the kernel's rule: its band needs over {_MAX_NODES} nodes")
        m *= 2
    return m


def _window_rule(window, m, nodes, v):
    """(points, L.T v, tail): m first-kind Chebyshev points inside the window, their weights and the tail matrix.

    L[j, i] is the barycentric Lagrange polynomial l_i at nodes[j], with
    barycentric weights (-1)^i sin theta_i (Berrut & Trefethen, SIAM
    Review 46, 2004), formed in chunks of about ``_BASIS_ELEMENTS``
    entries (2 MB) and summed in an order that does not depend on the
    row blocks of the times.  ``tail`` takes samples at the points to
    their last ``_TAIL_COEFFS`` Chebyshev coefficients; its angles are
    reduced modulo 2 pi in integers, since cos(k theta_j) formed directly
    is off by about k eps, which puts the coefficients of a resolved row
    near 10 eps instead of 1.
    """
    lo, hi = window
    j = np.arange(m)
    theta = (2 * j + 1) * (math.pi / (2 * m))
    points = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta)
    k = np.arange(m - _TAIL_COEFFS, m)
    tail = (2.0 / m) * np.cos(math.pi / (2 * m) * (np.outer(2 * j + 1, k) % (4 * m)))
    barycentric = np.where(j % 2, -1.0, 1.0) * np.sin(theta)
    weights = np.zeros(m)
    chunk = max(1, _BASIS_ELEMENTS // m)
    for i in range(0, nodes.size, chunk):
        rows = slice(i, i + chunk)
        basis = np.subtract.outer(nodes[rows], points)
        hit = basis == 0.0
        basis[hit] = 1.0
        np.divide(barycentric, basis, out=basis)
        basis /= basis.sum(axis=1, keepdims=True)
        on_point = hit.any(axis=1)
        basis[on_point] = hit[on_point]
        weights += v[rows] @ basis
    return points, weights, tail


def _block_sums(samples, v, tail):
    """(samples @ v, the rows that fail the tail test), the second None for ``tail`` None.

    ``samples`` is a stack of (rows x points) blocks, one per order k,
    overwritten here with its absolute values.  The tail test holds the
    ``tail`` coefficients of each row of order k to (k + 1) ``_TAIL_EPS``
    times the row's largest sample; a row fails if one of its orders does.
    """
    sums = samples @ v
    if tail is None:
        return sums, None
    coeffs = np.abs(samples @ tail)
    flat = np.abs(samples, out=samples).reshape(-1)
    # reduceat, not max(axis=-1), which is slow on rows of a few dozen points
    peak = np.maximum.reduceat(flat, np.arange(0, flat.size, samples.shape[-1]))
    peak = peak.reshape(samples.shape[:-1]) * (np.arange(1, len(samples) + 1) * _TAIL_EPS)[:, None]
    return sums, ~(coeffs <= peak[..., None]).all(axis=2).all(axis=0)


def _blocked(ts, at, rule, sample, depth, out):
    """Write out[k, i] = sample(ts[i] - points)[k] @ v for i in ``at`` (None: all); return the i that fail.

    ``rule`` is (points, v, tail) (``_block_sums``): a row that fails the
    tail test is left unwritten; with ``tail`` None every row passes and
    its sums are added to ``out``.  A block under the tail test is padded
    to whole groups of four rows with copies of its last: BLAS sums a
    matrix-vector product four rows at a time and the rows left over by
    another kernel, so a row's bits do not depend on the other times of
    its pass.  t - s is written into one buffer allocated once per call,
    each block a leading slice of it: a block-sized array allocated per
    block is faulted in again page by page.  Blocks are sized for
    ``depth`` (rows x points) arrays, one more under the tail test.
    """
    points, v, tail = rule
    tt = ts if at is None else ts[at]
    blocks = _row_blocks(tt.size, points.size, depth + (tail is not None))
    buf = np.empty((max((rows.stop - rows.start for rows in blocks), default=0) + 3, points.size))
    failed = [np.empty(0, dtype=int)]
    for rows in blocks:
        n = rows.stop - rows.start
        args = buf[:n if tail is None else n + -n % 4]
        np.subtract(tt[rows, None], points, out=args[:n])
        args[n:] = args[n - 1]
        sums, fail = _block_sums(sample(args), v, tail)
        cols = np.arange(rows.start, rows.stop) if at is None else at[rows]
        if fail is None:
            out[:, cols] += sums
        else:
            out[:, cols[~fail[:n]]] = sums[:, :n][:, ~fail[:n]]
            failed.append(cols[fail[:n]])
    return np.concatenate(failed)


def _window_table(ts, window, nodes, sample, v, depth, m):
    """(table, M): table[k, t] = sum_j v_j y_k(t - s_j) over the nodes s_j, y read on at most M points per time.

    ``sample(args)`` returns the stack of y_k, k < depth, at a
    (rows x points) block of arguments (``_block_sums``); y(t - s) is
    read through its Chebyshev interpolant on the window (Trefethen,
    Approximation Theory and Approximation Practice, Thm 8.2; the module
    docstring).  Each row takes the first M, from ``m`` doubling, at
    which it passes the tail test; the rows still failing move on to 2M,
    and M is the largest any row read.  Once M would reach the node
    count N, or the signal values per point of the whole table (times x
    depth, not the rows left: a row takes the same M and bits in every
    table whose cutoff lies past that M) drop to ``_BASIS_COST``, the rows
    left are read on the nodes themselves: the direct sum, past which the
    N x M basis costs more signal values than the sum reads.  It takes the
    nodes in column blocks of about ``_BLOCK_ELEMENTS`` per row block,
    added in node order: one block for the target and for a 5 x 368 x 17
    stack (250 KB), more for more nodes.
    """
    out, left = np.empty((depth, ts.size)), None
    while m < nodes.size and _BASIS_COST * m < ts.size * depth:
        left = _blocked(ts, left, _window_rule(window, m, nodes, v), sample, depth, out)
        if not left.size:
            return out, m
        m *= 2
    rows = _row_blocks(ts.size if left is None else left.size, nodes.size, depth)[0]
    cols = max(1, _BLOCK_ELEMENTS // ((rows.stop - rows.start) * depth))
    out[:, slice(None) if left is None else left] = 0.0
    for i in range(0, nodes.size, cols):
        _blocked(ts, left, (nodes[i:i + cols], v[i:i + cols], None), sample, depth, out)
    return out, nodes.size


class MomentTable(NamedTuple):
    """A moment table and the most points it read x on for one time (a direct sum's: the rule's nodes; lines: None)."""

    values: np.ndarray
    window_points: Optional[int]


def _convolutions(h, x, tt, kmax):
    """The MomentTable of int h(s) x^(k)(t - s) ds, k <= kmax, at the times ``tt``: on the target rule, or from lines.

    One ``x.derivatives(kmax, .)`` stack at the points of the window
    interpolant on [-T, theta] (``_window_table``) per row block, the
    blocks sized by the whole (kmax + 1)-deep stack and the tail test
    passed by every order; each order times L.T (h w).  Row k depends on
    kmax only through the window points M.  With lines resolving every
    argument t - s, the row is Re sum_j c_j (i omega_j)^k H(i omega_j)
    e^{i omega_j t}, H from ``fourier_transform_at`` (no window and no
    target rule is read), and the (times x lines) phases are formed in
    row blocks of their exponent and exponential (four doubles an entry).
    """
    if x.lines is None:
        nodes, weights = _target_rule(h, m := _first_window(x, h.width))
        return MomentTable(*_window_table(tt, h.support, nodes, lambda args: x.derivatives(kmax, args),
                                          h(nodes) * weights, kmax + 1, m))
    om, c = x.lines(max(np.max(tt) + h.T, h.theta - np.min(tt)))
    b = (c * fourier_transform_at(h, h.support, om))[:, None] * (1j * om[:, None]) ** np.arange(kmax + 1)
    out = np.empty((kmax + 1, tt.size))
    for rows in _row_blocks(tt.size, om.size, depth=4):
        phases = np.exp(1j * np.outer(tt[rows], om))
        for k in range(kmax + 1):
            out[k, rows] = (phases @ b[:, k]).real
    return MomentTable(out, None)


def target_values(h, x, ts):
    """y(t) = int h(u) x(t-u) du over u in [-T, theta] at ``ts``: the anticausal target."""
    return _convolutions(h, x, np.asarray(ts, dtype=float), 0).values[0]


def moment_table(h, x, ts, kmax):
    """M[k, t] = int h(s) x^(k)(t - T - s) ds for k <= kmax: the convolutions at t - T.

    Every predictor of a sweep up to degree kmax reads this one table
    (``predict_values``).  The arguments t - T - s stay inside the
    causal window (t - tau, t).
    """
    return _convolutions(h, x, np.asarray(ts, dtype=float) - h.T, kmax)


def predict_values(pk, table):
    """Predictions sum_k a_k table.values[k] from a ``moment_table`` up to degree >= pk.d.

    Summed in k order over the nonzero a_k.
    """
    values = table.values
    out = np.zeros(values.shape[1])
    for k, a in enumerate(pk.psi.coeffs):
        if a != 0.0:
            out += a * values[k]
    return out


# -- bounds ------------------------------------------------------------------


def _q_mirrored(h, om):
    """Q(i omega) at frequencies om mirrored about 0 (``_adequate_grid``).

    q is real, so Q(-i omega) = conj Q(i omega): only the upper half of om
    is transformed.  A function of its own, so that the half is freed
    before the integrand's temporaries are formed.
    """
    q_pos = q_spectrum(h, om[om.size // 2:])
    return np.concatenate([np.conj(q_pos[::-1]), q_pos])


def _beta_integrand(x, h, r, om):
    """e^{r|omega|} |Q X|^2 at mirrored frequencies om.

    Where that product leaves the normal double range (the weight
    overflows, or |Q X|^2 is subnormal or 0) it is taken as
    exp(r|omega| + 2 log|Q| + 2 log|X|), log|X| from
    ``_log_abs_spectrum``: neither the overflow of the weight nor the
    underflow of X, past |omega| = 745 / a for the Poisson kinds, drops
    a finite part of beta.
    """
    q, weight = _q_mirrored(h, om), r * np.abs(om)
    with np.errstate(all="ignore"):
        sq = np.abs(q * x.spectrum(om)) ** 2
        out = np.exp(weight) * sq
        bad = ~np.isfinite(out) | (sq < np.finfo(float).tiny)
        out[bad] = np.exp(weight[bad] + 2.0 * (np.log(np.abs(q[bad])) + _log_abs_spectrum(x, om[bad])))
    return out


def beta_energy(h, x, r):
    """beta = int e^{r|omega|} |Q(i omega) X(i omega)|^2 domega.

    Refused as outside the class when the integral diverges, exactly when
    2 x.spectral_decay < r.  At the class edge 2 x.spectral_decay = r the
    weight only cancels the signal's decay, and |Q|^2, decaying faster
    than any power, keeps the integral finite.  beta is taken on the grid
    of every weighted spectral energy (``_adequate_grid``), split at the
    kinks of |X|, and refused with ``BoundRangeError`` when it overflows,
    or when the integrand has not decayed by the band cut
    (``_band_cut``), past which Q is roundoff.
    """
    if 2.0 * x.spectral_decay < r:
        raise ClassMembershipError("signal outside class: beta integral diverges")
    top = _band_cut(h)
    grid = _adequate_grid(lambda om: _beta_integrand(x, h, r, om), r, x.spectral_kinks, top)
    if grid is None:
        raise BoundRangeError(f"beta integrand has not decayed at omega = {top:.4g}, past which Q is roundoff")
    _, weights, integrand = grid
    beta = float(integrand @ weights)
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


#: c_m = ||f^(m)||_1 / ||f||_1, m = 0..24, for the unit bump f(u) = exp(-1 / (1 - u^2)),
#: so ||q^(m)||_1 = (2 / tau)^m c_m for every kernel (||q||_1 = 1); from
#: ``bump_l1_ratios_mp(24)`` of tests/oracles.py at 40 digits, rounded to double
_BUMP_L1_RATIOS = np.array([
    1.0, 1.6571376797382102, 7.19316101043483, 80.28764953832483,
    2423.747952905456, 134116.38598067735, 11974461.062135434, 1571233582.371358,
    284629205296.00507, 68052540459639.54, 2.0759088580491124e+16, 7.867910202269655e+18,
    3.627004660169873e+21, 1.9983823928054495e+24, 1.2968840047559757e+27, 9.791035886657985e+29,
    8.508111616836402e+32, 8.43132994519369e+35, 9.451378095936156e+38, 1.1899204731760348e+42,
    1.6718385389248314e+45, 2.606411091096106e+48, 4.485678151784235e+51, 8.482529142015842e+54,
    1.7550625191322163e+58])
#: L_m = ||f^(m)||_2^2 / ||f||_1^2, m = 0..16, for the same f, so ||q^(m)||_2^2 =
#: (2 / tau)^(2m + 1) L_m; from ``bump_l2_ratios_mp()`` of tests/oracles.py at 60
#: digits, rounded to double
_BUMP_L2_RATIOS = (
    0.6751168130096975, 2.0777456683667412, 54.95987342394815, 16247.68429241585,
    24009139.678582437, 109290421435.79396, 1193002465426261.5, 2.6658338978904863e+19,
    1.0930240100863688e+24, 7.588514242929948e+28, 8.389128441762926e+33, 1.4067216494557633e+39,
    3.439763868590272e+44, 1.187230872336866e+50, 5.627764822043304e+55, 3.57924709240391e+61,
    2.9933297176855146e+67)
#: the band stops where |Q| <= ||q^(m)||_1 omega^-m is at most this, double roundoff
_BAND_FLOOR = 1e-16
#: Omega tau / 2, the same for every bump: the smallest x with c_m x^-m <= _BAND_FLOOR
#: for some 1 <= m <= 16 (1143.18, at m = 16); over m <= 24 it is 0.9 % lower, which
#: would move every band frequency
_CUT_SCALE = float(np.min((_BUMP_L1_RATIOS[1:17] / _BAND_FLOOR) ** (1.0 / np.arange(1, 17))))
#: ||q^(m)||_1 Omega^-m = c_m _CUT_SCALE^-m: |Q(i omega)| <= this times (Omega / omega)^m for every omega
_CUT_DECAY = _BUMP_L1_RATIOS / _CUT_SCALE ** np.arange(_BUMP_L1_RATIOS.size)
#: FFT frequencies per crest period 2 pi / tau of |Q| (zero-padding factor)
_BAND_PAD = 128
#: complex values per group of short band transforms
_BAND_GROUP = _BLOCK_ELEMENTS >> 2


def _band_cut(h):
    """Omega, the top of the p = 1 band: past it |Q| <= min_m ||q^(m)||_1 omega^-m <= ``_BAND_FLOOR``.

    |Q(i omega)| <= ||q^(m)||_1 / omega^m for every m, since q^(m) has
    transform (i omega)^m Q; Omega is the smallest omega at which one of
    these bounds, m <= 16, reaches ``_BAND_FLOOR``.  It scales as 1 / tau:
    3,811 for the canonical kernel, 915 for T = 2, theta = 0.5.
    """
    return 2.0 * _CUT_SCALE / h.width


def _band_spectrum(h):
    """|Q(i omega)| at omega = step * i <= Omega (``_band_cut``), one group of transforms at a time.

    q(t) = h(t - T) is sampled on n + 1 uniform points of [0, tau] at a
    step of at most pi / (2 Omega), twice the Nyquist rate of the band.
    |Q| is the DFT X of the samples zero-padded to m, a power of two at
    least ``_BAND_PAD`` (n + 1) long, so at least ``_BAND_PAD``
    frequencies fall on each crest of |Q|, and step = 2 pi / (m dt).
    With m = L P, L the smallest power of two >= n + 1,
    X[l P + p] = FFT_L(x_j e^{-2 pi i p j / m})[l]: P transforms of
    length L in groups of about ``_BAND_GROUP`` values, each formed in
    one buffer.  Omega tau is the same for every bump, so n = 1456,
    L = 2048 and P = 128 whatever the kernel's width.  The phase factor
    comes from two factors formed per group, e^{-2 pi i p (j mod P) / m}
    and e^{-2 pi i p (j div P) / L}, each entry its own exp (a recurrence
    in p loses digits where |Q| is small).  This trapezoid rule is
    spectrally accurate below Nyquist, as ``_target_rule`` is; its aliases
    lie past 3 Omega.

    Yields (omegas, q_abs) per group, a block of rows p and columns l:
    omegas = step (l P + p), q_abs = |Q(i omegas)|, each frequency once;
    only the last column runs past the band.  Nothing band-sized is
    stored: memory is about one group.
    """
    omega_max = _band_cut(h)
    n = math.ceil(2.0 * omega_max * h.width / math.pi)
    dt = h.width / n
    m = 1 << (_BAND_PAD * (n + 1) - 1).bit_length()
    step = 2.0 * math.pi / (m * dt)
    n_omega = int(omega_max / step) + 1
    L, P = 1 << n.bit_length(), m >> n.bit_length()
    x = np.zeros((-(-L // P), P))  # x[j div P, j mod P]
    x.flat[:n + 1] = h(np.arange(n + 1) * dt - h.T)
    keep, rows = -(-n_omega // P), min(P, max(1, _BAND_GROUP // L))
    columns = P * np.arange(keep, dtype=float)
    mod = np.empty((rows, *x.shape), dtype=complex)
    spectra = mod.reshape(rows, -1)[:, :L]
    for g in range(0, P, rows):
        p = np.arange(g, g + rows)[:, None]
        np.multiply(x, np.exp(-2j * math.pi / m * (p * np.arange(P)))[:, None, :], out=mod)
        mod *= np.exp(-2j * math.pi / L * (p * np.arange(len(x))))[:, :, None]
        q_abs = np.abs(np.fft.fft(spectra, out=spectra)[:, :keep])
        q_abs *= dt
        yield step * (columns + np.arange(g, g + rows, dtype=float)[:, None]), q_abs


def transfer_norms(pks, p):
    """(||Hhat_d||_{L_q}, ||H||_{L_q}) of each predictor, q dual to p.

    |H(i omega)| = |Q(i omega)| since the e^{i omega T} factor is
    unimodular.  The L2 norms come from time-domain Parseval in closed
    form: q and its derivatives vanish at 0 and tau, so by parts
    int q^(j) q^(k) = (-1)^((k - j)/2) ||q^(m)||_2^2, m = (j + k) / 2, for
    even j + k (0 for odd), and ||q^(m)||_2^2 = L_m (2 / tau)^(2m + 1), L_m
    from ``_BUMP_L2_RATIOS``; ||H||_2^2 = 2 pi L_0 (2 / tau) is the m = 0
    term.  The form does not cancel (sum |terms| <= 1.49 sum over 5 kernels,
    both methods and d <= 16), and ``math.fsum`` rounds it once: within
    1e-15 of 40 digits.  ||H||_inf = H(0) = 1, as h >= 0 has unit mass.
    ||Hhat_d||_inf is maxed over the band [0, Omega] of short FFTs
    (``_band_spectrum``), built once for the sweep: each group of
    transforms is folded into every predictor's sup |psi_d Q| and
    dropped, so memory is about one group.  |Q| is
    first clipped at its exact envelope min_m ||q^(m)||_1 omega^-m =
    min_m ``_CUT_DECAY[m]`` (Omega / omega)^m, 1 <= m <= 24, so roundoff
    near the cut Omega (``_band_cut``), where the envelope is 8.5e-17,
    cannot lift a sup above what holds.  At Omega / 2 it is 3e-12, far
    above that roundoff, so only the upper half of each group's columns
    is clipped (omega = 0 stays out), at the orders from the one
    minimizing at the group's largest Omega / omega up (higher orders
    fall faster as the ratio falls).  Past Omega, for any d <= m <= 24,

        |psi_d(i omega) Q(i omega)| <= sum_k |a_k| ||q^(m)||_1 omega^(k - m),

    each term non-increasing in omega since k <= d <= m; so its value at
    Omega, minimized over m (m = 18 on every kernel measured), bounds
    the tail exactly (the last column's clipped values past Omega lie
    under it), and the sup is the larger of the band's and the tail's.
    """
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    h = pks[0].h
    if p == 1:
        top, sups = _band_cut(h), [0.0] * len(pks)
        log_decay = np.log(_CUT_DECAY[1:]).tolist()  # [j] for order j + 1
        for omegas, q_abs in _band_spectrum(h):
            upper = np.s_[:, q_abs.shape[1] // 2:]
            log_ratio = np.log(top / omegas[upper])
            largest = float(log_ratio[0, 0])
            # picked in Python: np.argmin, run by no other step, pages in ~0.1 MB of numpy's code
            m = min(range(len(log_decay)), key=lambda j: log_decay[j] + (j + 1) * largest)
            log_env = log_decay[m] + (m + 1) * log_ratio
            for j in range(m + 1, len(log_decay)):
                np.minimum(log_env, log_decay[j] + (j + 1) * log_ratio, out=log_env)
            np.minimum(q_abs[upper], np.exp(log_env), out=q_abs[upper])
            sups = [max(sup, float(np.max(np.abs(pk.psi.at_iw(omegas)) * q_abs))) for sup, pk in zip(sups, pks)]
        tails = [float(np.abs(pk.psi.coeffs) @ top ** np.arange(pk.d + 1)) * float(np.min(_CUT_DECAY[pk.d:]))
                 for pk in pks]
        return [(max(sup, tail), 1.0) for sup, tail in zip(sups, tails)]
    scale = 2.0 / h.width
    l2 = [ratio * scale ** (2 * m + 1) for m, ratio in enumerate(_BUMP_L2_RATIOS)]  # ||q^(m)||_2^2
    n_h, out = math.sqrt(2.0 * math.pi * l2[0]), []
    for pk in pks:
        a = pk.psi.coeffs
        gram = math.fsum(a[j] * a[k] * (-1) ** (abs(k - j) // 2) * l2[(j + k) // 2]
                         for j in range(len(a)) for k in range(j % 2, len(a), 2))
        out.append((math.sqrt(2.0 * math.pi * gram), n_h))
    return out
