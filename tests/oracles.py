"""Independent numerical oracles used by the test suite.

These deliberately avoid the library's own quadrature machinery:
adaptive Simpson for integrals, Richardson-extrapolated central
differences for derivatives, mpmath at 70-80 digits for the high-degree
kernel derivatives, predictions and the weighted projection, at 120
digits for the closed-form alpha expansion, the 40-digit node tables
of the kernel transforms, one long zero-padded FFT for the p = 1
transfer band, the bump derivatives' L1 norms, summed between the
roots of P_m at 40 digits, their L2 norms by tanh-sinh at 60 digits
(``bump_l2_ratios_mp``) and the Gram sum of ||Hhat_d||_2 on them at 40
(``gram_l2_norm_sq_mp``), and beta on fixed fine panels with edges at
the spectrum's kinks (``beta_fine_panels``).  It also holds the
reference routes that no command runs: alpha by grid quadrature
(``alpha_of``) on a numpy Gauss-Legendre frequency grid
(``frequency_grid``), the kernel's derivatives of every order in double
(``kernel_derivative``, on the edge basis ``_bump_poly_edge``), the
assembled predictor kernel and its node table (``assembled_kernel``,
``assembled_table``), the transform of the target kernel itself
(``h_spectrum``), the transform of the assembled predictor kernel
(``assembled_spectrum``), a weighted sum of signals (``superposition``)
and each signal kind's closed form in time (``closed_form``).
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np


def adaptive_simpson(f, a, b, tol=1e-12, max_depth=48):
    """Recursive adaptive Simpson quadrature, complex-capable."""

    def simpson(fa, fm, fb, a_, b_):
        return (b_ - a_) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a_, b_, fa, fm, fb, whole, tol_, depth):
        m = 0.5 * (a_ + b_)
        lm = 0.5 * (a_ + m)
        rm = 0.5 * (m + b_)
        flm = f(lm)
        frm = f(rm)
        left = simpson(fa, flm, fm, a_, m)
        right = simpson(fm, frm, fb, m, b_)
        if depth >= max_depth:
            return left + right
        if abs(left + right - whole) <= 15.0 * tol_:
            return left + right + (left + right - whole) / 15.0
        return (recurse(a_, m, fa, flm, fm, left, tol_ / 2.0, depth + 1)
                + recurse(m, b_, fm, frm, fb, right, tol_ / 2.0, depth + 1))

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(fa, fm, fb, a, b)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def simpson_fourier(f, a, b, omega, tol=1e-12):
    """Adaptive-Simpson oracle for int_a^b e^{-i omega t} f(t) dt.

    Splits into oscillation-sized chunks so the recursion converges fast.
    """
    n_chunks = max(1, int(np.ceil(abs(omega) * (b - a) / (2.0 * np.pi))))
    edges = np.linspace(a, b, n_chunks + 1)
    total = 0.0 + 0.0j
    for lo, hi in zip(edges[:-1], edges[1:]):
        total += adaptive_simpson(lambda t: np.exp(-1j * omega * t) * f(t), lo, hi, tol)
    return total


def richardson_derivative(f, x, h=1e-5):
    """First derivative by Richardson-extrapolated central differences."""
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + h / 2.0) - f(x - h / 2.0)) / h
    return (4.0 * d2 - d1) / 3.0


def bump_derivative_mp(u, k, dps=80):
    """k-th derivative of the unit bump exp(-1/(1-u^2)) at ``dps`` digits.

    Horner on the exact integer coefficients of P_k: the monomial sum
    cancels about 20 digits at k = 16, which 80 digits absorb.
    """
    import mpmath

    from horizon.kernels import bump_poly_exact

    ctx = mpmath.mp.clone()
    ctx.dps = dps
    um = ctx.mpf(u)
    delta = (1 - um) * (1 + um)
    if delta <= 0:
        return ctx.mpf(0)
    p = ctx.mpf(0)
    for c in reversed(bump_poly_exact(k)):
        p = p * um + c
    return p * ctx.exp(-2 * k * ctx.log(delta) - 1 / delta)


def _shift_to_delta(coeffs):
    """Coefficients of c(1 - delta) in ascending powers of delta, exactly."""
    out = [0] * max(1, len(coeffs))
    for j, c in enumerate(coeffs):
        for m in range(j + 1):
            out[m] += (-1) ** m * math.comb(j, m) * c
    return np.array(out, dtype=np.float64)


@lru_cache(maxsize=None)
def _bump_poly_edge(k):
    """(E, O) with P_k(u) = E(1 - u^2) + u O(1 - u^2), ascending float coefficients.

    P_k's monomial coefficients reach 1e20 at k = 16 and cancel in
    double; rewritten by an exact integer Taylor shift in the
    edge-distance basis delta = 1 - u^2, where the leading coefficients
    dominate near the edges, double holds every order up to 16.
    """
    from horizon.kernels import bump_poly_exact

    p = bump_poly_exact(k)
    return _shift_to_delta(p[0::2]), _shift_to_delta(p[1::2])


def kernel_derivative(h, k, t):
    """h^(k)(t) in double (vectorized), by ``_accel.bump_derivative_values`` on the edge basis; zero off support."""
    from horizon._accel import bump_derivative_values

    t = np.asarray(t, dtype=float)
    vals = bump_derivative_values(h._to_unit(np.atleast_1d(t)), _bump_poly_edge(k), k)
    out = vals * h.normalization * (2.0 / h.width) ** k
    return float(out[0]) if t.ndim == 0 else out


def assembled_kernel(pk, t):
    """hhat_d(t) = sum_k a_k q^(k)(t), q(t) = h(t - T), in double; zero off [0, tau]."""
    t = np.asarray(t, dtype=float)
    s = np.atleast_1d(t) - pk.h.T
    out = np.zeros(s.shape)
    for k, a in enumerate(pk.psi.coeffs):
        if a != 0:
            out += a * kernel_derivative(pk.h, k, s)
    return float(out[0]) if t.ndim == 0 else out


def assembled_table(pk):
    """(nodes, weights, values, l1): hhat_d on the order-d derivative panels of [0, tau], and its L1 mass."""
    from horizon.kernels import derivative_panel_edges
    from horizon.spectral_core import gauss_legendre_edges

    nodes, weights = gauss_legendre_edges(derivative_panel_edges(pk.tau, pk.d))
    values = assembled_kernel(pk, nodes)
    return nodes, weights, values, float(weights @ np.abs(values))


#: L1 mass of a double node table past which its roundoff, ~1e-15 of the
#: mass, exceeds 1e-11 and the 40-digit table takes over
_EXTENDED_L1 = 1e4


def _bump_tanh_sinh(ctx, step):
    """(u, w * exp(-1/(1-u^2))) on (-1, 1): trapezoid in tau after
    u = tanh(pi/2 sinh tau).  1 - u^2 = sech^2(pi/2 sinh tau) is formed
    without cancellation; past |tau| = 2 the bump is below 1e-9000."""
    n = int(ctx.ceil(2 / step))
    out = []
    for i in range(-n, n + 1):
        tau = i * step
        g = ctx.pi / 2 * ctx.sinh(tau)
        ch = ctx.cosh(g)
        bump = ctx.exp(-ch * ch)
        out.append((ctx.tanh(g), step * ctx.pi / 2 * ctx.cosh(tau) / (ch * ch) * bump))
    return out


def transfer_prediction_mp(coeffs, T, theta, a, ts, dps=70, step=1 / 32):
    """Derivative-transfer prediction of the Poisson signal at ``dps`` digits.

    sum_k a_k int h(s) x^(k)(t - T - s) ds, with h the unit-mass bump
    on [-T, theta] taken from its definition, x^(k) the closed form
    (-1)^k k! Im[(t - i a)^-(k+1)] / pi, and a tanh-sinh rule unrelated
    to the library's panels.  The rule is checked against half its step.
    """
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.dps = dps
    re_a = [ctx.mpf(complex(c).real) for c in coeffs]
    am = ctx.mpf(a)
    mid = (ctx.mpf(theta) - ctx.mpf(T)) / 2
    half = (ctx.mpf(theta) + ctx.mpf(T)) / 2

    def evaluate(rule):
        mass = ctx.fsum(w for _, w in rule)
        out = []
        for t in ts:
            total = ctx.mpf(0)
            for u, w in rule:
                inv = 1 / (ctx.mpf(t) - ctx.mpf(T) - (mid + half * u) - 1j * am)
                power, fact = inv, ctx.mpf(1)
                acc = ctx.mpf(0)
                for k, c in enumerate(re_a):
                    if k:
                        power *= inv
                        fact *= -k
                    acc += c * fact * power.imag
                total += w * acc
            out.append(total / (mass * ctx.pi))
        return out

    coarse = evaluate(_bump_tanh_sinh(ctx, ctx.mpf(step)))
    fine = evaluate(_bump_tanh_sinh(ctx, ctx.mpf(step) / 2))
    gap = max(abs(c - f) for c, f in zip(coarse, fine))
    if gap > ctx.mpf(10) ** (-dps // 3):
        raise ArithmeticError(f"tanh-sinh rule not converged: {mpmath.nstr(gap, 3)}")
    return [float(v) for v in fine]


#: (T, theta, dps, step) -> {omega: int h(s) e^{-i omega s} ds}, shared by every degree
_BUMP_TRANSFORMS = {}


def chirp_transfer_prediction_mp(coeffs, T, theta, band, amplitude, ts, dps=70, step=1 / 32):
    """Derivative-transfer prediction of chirp noise at ``dps`` digits.

    x^(k)(u) = (amplitude/pi) Re int_lo^hi (i omega)^k e^{i omega u} domega,
    so sum_k a_k int h(s) x^(k)(t - T - s) ds equals

        (amplitude/pi) Re int_lo^hi P(i omega) e^{i omega (t - T)} B(omega) domega,

    P(z) = sum_k a_k z^k and B(omega) = int h(s) e^{-i omega s} ds for
    the unit-mass bump h on [-T, theta].  B is taken on the tanh-sinh rule
    of ``transfer_prediction_mp`` and the outer integral by mpmath's
    Gauss-Legendre quadrature: the frequency integral is done last, the
    reverse of the library's order.  The rule is checked against half its
    step, relative to the largest value.
    """
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.dps = dps
    poly = [ctx.mpf(complex(c).real) for c in reversed(coeffs)]
    lo, hi = ctx.mpf(band[0]), ctx.mpf(band[1])
    mid = (ctx.mpf(theta) - ctx.mpf(T)) / 2
    half = (ctx.mpf(theta) + ctx.mpf(T)) / 2

    def evaluate(h_step):
        rule = _bump_tanh_sinh(ctx, h_step)
        mass = ctx.fsum(w for _, w in rule)
        cache = _BUMP_TRANSFORMS.setdefault((T, theta, dps, h_step), {})

        def bump_transform(om):
            if om not in cache:
                cache[om] = ctx.fsum(w * ctx.expj(-om * (mid + half * u)) for u, w in rule) / mass
            return cache[om]

        out = []
        for t in ts:
            shift = ctx.mpf(t) - ctx.mpf(T)
            integrand = lambda om: ctx.re(  # noqa: E731
                ctx.polyval(poly, ctx.mpc(0, om)) * ctx.expj(om * shift) * bump_transform(om))
            out.append(ctx.mpf(amplitude) / ctx.pi * ctx.quad(integrand, [lo, hi], method="gauss-legendre"))
        return out

    coarse = evaluate(ctx.mpf(step))
    fine = evaluate(ctx.mpf(step) / 2)
    gap = max(abs(c - f) for c, f in zip(coarse, fine))
    if gap > ctx.mpf(10) ** (-dps // 3) * max(1, max(abs(f) for f in fine)):
        raise ArithmeticError(f"tanh-sinh rule not converged: {mpmath.nstr(gap, 3)}")
    return [float(v) for v in fine]


def bump_transform_mp(omega, width, dps=30):
    """|Q(i omega)| of the unit-mass bump kernel of support ``width``, at ``dps`` digits.

    Q(i omega) = e^{-i omega c} int bump(u) e^{-i a u} du / int bump,
    a = omega width / 2, c the support midpoint; the bump is even, so its
    modulus is |int_0^1 bump(u) cos(a u) du| / int_0^1 bump, integrated
    by mpmath on panels of about half an oscillation.
    """
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.dps = dps
    a = ctx.mpf(omega) * ctx.mpf(width) / 2
    bump = lambda u: ctx.exp(-1 / ((1 - u) * (1 + u)))  # noqa: E731
    panels = ctx.linspace(0, 1, max(16, int(a / ctx.pi) + 2))
    transform = ctx.quad(lambda u: bump(u) * ctx.cos(a * u), panels)
    mass = ctx.quad(bump, ctx.linspace(0, 1, 16))
    return float(abs(transform / mass))


def bump_l1_ratios_mp(m_max=16, dps=40):
    """c_m = ||f^(m)||_1 / ||f||_1 for the unit bump f(u) = exp(-1/(1-u^2)), m = 0..m_max.

    f^(m) = P_m(u) (1-u^2)^(-2m) f(u) keeps its sign between consecutive
    real roots z_i of P_m in (-1, 1), and f^(m-1) vanishes at +-1, so
    ||f^(m)||_1 = sum_i |f^(m-1)(z_{i+1}) - f^(m-1)(z_i)| over
    -1 = z_0 < roots < z_last = 1 with no quadrature at all; a root
    without a sign change only splits an interval.  The roots come from
    mpmath's ``polyroots`` on the exact integer coefficients and ||f||_1
    from tanh-sinh, both at ``dps`` digits.
    """
    import mpmath

    from horizon.kernels import bump_poly_exact

    ctx = mpmath.mp.clone()
    ctx.dps = dps
    mass = ctx.quad(lambda u: ctx.exp(-1 / ((1 - u) * (1 + u))), [-1, 0, 1])
    out = [1.0]
    for m in range(1, m_max + 1):
        coeffs = list(bump_poly_exact(m))
        while coeffs[-1] == 0:
            coeffs.pop()
        roots = ctx.polyroots(coeffs[::-1], maxsteps=500, extraprec=4 * dps)
        tiny = ctx.mpf(10) ** (-dps // 2)
        inner = sorted(ctx.re(z) for z in roots if abs(ctx.im(z)) < tiny and abs(ctx.re(z)) < 1)
        edges = [ctx.mpf(-1), *inner, ctx.mpf(1)]
        values = [bump_derivative_mp(u, m - 1, dps) for u in edges]
        out.append(float(ctx.fsum(abs(b - a) for a, b in zip(values, values[1:])) / mass))
    return out


@lru_cache(maxsize=None)
def bump_l2_ratios_mp(m_max=16, dps=60, step=1 / 128):
    """L_m = ||f^(m)||_2^2 / ||f||_1^2 for the unit bump f(u) = exp(-1/(1-u^2)), m = 0..m_max, at ``dps`` digits.

    Both integrals on one trapezoid in tau after u = tanh(pi/2 sinh tau),
    as ``_bump_tanh_sinh`` takes them, with 1 / (1 - u^2) =
    cosh^2(pi/2 sinh tau) formed without cancellation and
    f^(m) = P_m(u) (1-u^2)^(-2m) f(u), P_m by Horner on its exact integer
    coefficients with 25 digits to spare.  Step 1/128 at 60 digits agrees
    with step 1/512 at 70 digits to 3e-30 at m = 16; it takes about 0.7 s,
    where mpmath's adaptive ``quad`` took 534 s.
    """
    import mpmath

    from horizon.kernels import bump_poly_exact

    ctx = mpmath.mp.clone()
    ctx.dps = dps
    h, polys = ctx.mpf(step), [bump_poly_exact(m) for m in range(m_max + 1)]
    mass, sums = ctx.mpf(0), [ctx.mpf(0)] * (m_max + 1)
    n = int(ctx.ceil(2 / h))
    for i in range(-n, n + 1):
        tau = i * h
        g = ctx.pi / 2 * ctx.sinh(tau)
        inv_delta = ctx.cosh(g) ** 2
        u, w, bump = ctx.tanh(g), h * ctx.pi / 2 * ctx.cosh(tau) / inv_delta, ctx.exp(-inv_delta)
        mass += w * bump
        with ctx.extradps(25):
            for m, poly in enumerate(polys):
                p = ctx.mpf(0)
                for c in reversed(poly):
                    p = p * u + c
                sums[m] += w * (p * inv_delta ** (2 * m) * bump) ** 2
    return tuple(total / mass**2 for total in sums)


def gram_l2_norm_sq_mp(h, coeffs, dps=40):
    """int hhat_d^2 dt for hhat_d = sum_k a_k q^(k), q(t) = h(t - T), at ``dps`` digits.

    q and its derivatives vanish at both ends of the support, so
    integrating by parts gives int q^(j) q^(k) = (-1)^((k-j)/2) ||q^(m)||_2^2
    with m = (j + k) / 2 when j + k is even, and 0 when it is odd, and
    ||q^(m)||_2^2 = L_m (2 / tau)^(2m + 1) with L_m from
    ``bump_l2_ratios_mp``; the double a_k and tau are taken exactly.
    """
    ctx = mp_context(dps)
    ratios, scale = bump_l2_ratios_mp(), 2 / ctx.mpf(h.width)
    a = [ctx.mpf(c) for c in coeffs]
    return ctx.fsum(a[j] * a[k] * (-1) ** (abs(k - j) // 2) * ratios[(j + k) // 2] * scale ** (j + k + 1)
                    for j in range(len(a)) for k in range(j % 2, len(a), 2))


def padded_band_spectrum(h, omega_max, pad):
    """(step, |Q(i omega)|) at omega = step * arange(n) on [0, omega_max] by one long FFT.

    The same trapezoid samples as ``predictor._band_spectrum``: q(t) =
    h(t - T) on n + 1 uniform points of [0, tau] at a step of at most
    pi / (2 omega_max), transformed by one ``rfft`` zero-padded to the
    power of two m >= pad (n + 1) (2^18 points at the band cut Omega).
    """
    n = math.ceil(2.0 * omega_max * h.width / math.pi)
    dt = h.width / n
    m = 1 << (pad * (n + 1) - 1).bit_length()
    step = 2.0 * math.pi / (m * dt)
    q_abs = np.abs(np.fft.rfft(h(np.arange(n + 1) * dt - h.T), m)[:int(omega_max / step) + 1])
    return step, q_abs * dt


def _projection_mp(T, r, d, dps):
    """(context, z-coefficients, alpha) of the degree-d weighted projection at ``dps`` digits.

    Solves the normal equations G abar = b by LU with pivoting, with the
    moments written out here: G_jk = int omega^(j+k) e^{-r|omega|} and
    b_k = int omega^k e^{i omega T} e^{-r|omega|}.  alpha is the
    Pythagoras remainder ||e^{i omega T}||^2 - b^H abar.  The
    z-coefficients a_k = abar_k i^-k are real; their imaginary parts are
    zero to the working precision and are dropped.
    """
    ctx = mp_context(dps)
    rm, Tm, size = ctx.mpf(r), ctx.mpf(T), d + 1
    G = ctx.matrix(size, size)
    for j in range(size):
        for k in range(size):
            if (j + k) % 2 == 0:
                G[j, k] = 2 * ctx.factorial(j + k) / rm ** (j + k + 1)
    b = ctx.matrix([ctx.factorial(k) * ((rm - 1j * Tm) ** -(k + 1)
                                        + (-1) ** k * (rm + 1j * Tm) ** -(k + 1))
                    for k in range(size)])
    abar = ctx.lu_solve(G, b)
    alpha = 2 / rm - ctx.re(ctx.fsum(ctx.conj(b[k]) * abar[k] for k in range(size)))
    return ctx, [ctx.re(abar[k] * (-1j) ** k) for k in range(size)], alpha


def projection_mp(T, r, d, dps=80):
    """(z-coefficients, alpha) of the degree-d projection at ``dps`` digits, each rounded to double once."""
    _, coeffs, alpha = _projection_mp(T, r, d, dps)
    return [float(c) for c in coeffs], float(alpha)


def projection_rounding_floor_mp(T, r, d, dps=80):
    """||delta||^2 in the weighted space, delta = psi rounded to double minus psi, psi the projection.

    psi is the orthogonal projection and delta is a polynomial of degree
    d, so by Pythagoras this is exactly what rounding psi's coefficients
    to double adds to its alpha.  In omega-coefficients i^k delta_k the
    norm is sum over even j + k of delta_j delta_k (-1)^((j - k) / 2)
    times the monomial moment of order j + k.
    """
    ctx, coeffs, _ = _projection_mp(T, r, d, dps)
    delta = [ctx.mpf(float(c)) - c for c in coeffs]
    return float(ctx.fsum(delta[j] * delta[k] * (-1) ** (abs(j - k) // 2) * monomial_moment_mp(ctx, j + k, r)
                          for j in range(d + 1) for k in range(j % 2, d + 1, 2)))


def mp_context(dps):
    """A private mpmath context at ``dps`` significant digits."""
    import mpmath

    ctx = mpmath.mp.clone()
    ctx.dps = dps
    return ctx


def monomial_moment_mp(ctx, k, r):
    """int omega^k e^{-r|omega|} domega in the mpmath context ``ctx``: 2 k! / r^(k+1), 0 for odd k."""
    if k % 2 == 1:
        return ctx.mpf(0)
    return 2 * ctx.factorial(k) / ctx.mpf(r) ** (k + 1)


def exponential_moment_mp(ctx, k, r, T):
    """k! [(r - iT)^-(k+1) + (-1)^k (r + iT)^-(k+1)] in the mpmath context ``ctx``."""
    rm = ctx.mpf(r)
    Tm = ctx.mpf(T)
    fk = ctx.factorial(k)
    return fk * ((rm - 1j * Tm) ** (-(k + 1)) + (-1) ** k * (rm + 1j * Tm) ** (-(k + 1)))


def weighted_moments(T, r, d):
    """The weight's moments as doubles, from the library's exact ``unit_rate_moments``, each rounded once.

    ``(mono, expo)``: mono[n] = int omega^n e^{-r|omega|} domega for
    n <= 2d, and expo[k] = int omega^k e^{i omega T} e^{-r|omega|} domega
    for k <= d, which is real for even k and imaginary for odd k.
    """
    from fractions import Fraction

    from horizon.weighted_space import unit_rate_moments

    m, e, den = unit_rate_moments(T, r, d)
    rq = Fraction(r)
    mono = [float(2 * m[n] / rq ** (n + 1)) for n in range(2 * d + 1)]
    expo = []
    for k in range(d + 1):
        value = float(Fraction(2 * e[k], den) / rq ** (k + 1))
        expo.append(complex(0.0, value) if k % 2 else complex(value))
    return mono, expo


def alpha_closed_form_mp(psi, T, r, dps=120):
    """alpha from the moment expansion of ``alpha_closed_form``, summed at ``dps`` digits.

    The same quadratic form in psi's omega-coefficients i^k a_k, on the moments
    above, clamped at 0 and rounded to double.  At small T the terms are
    of order 2 / r, so at 40 digits the alphas below about 1e-25 lose
    digits to cancellation (8.5 % of 5.1e-40 at T = 0.05, r = 4, taylor d = 16);
    120 digits leave some 80 of them.
    """
    ctx = mp_context(dps)
    abar = [ctx.mpf(a) * ctx.j**k for k, a in enumerate(psi.coeffs)]
    size = len(abar)
    total = ctx.mpf(0)
    for j in range(size):
        for k in range(size):
            total += (abar[j] * ctx.conj(abar[k]) * monomial_moment_mp(ctx, j + k, r)).real
    cross = ctx.fsum((abar[k] * ctx.conj(exponential_moment_mp(ctx, k, r, T))).real
                     for k in range(size))
    total += -2 * cross + monomial_moment_mp(ctx, 0, r)
    return float(max(ctx.mpf(0), total))


@lru_cache(maxsize=1)
def _gauss_legendre_mp():
    """The 16-point Gauss-Legendre nodes and weights in the kernels' 40-digit context (Newton on P_16)."""
    from horizon.kernels import _mp

    ctx, n = _mp()[0], 16
    xs, ws = [], []
    for i in range(1, n + 1):
        x = ctx.mpf(math.cos(math.pi * (i - 0.25) / (n + 0.5)))
        for _ in range(60):
            p0, p1 = ctx.mpf(1), x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = n * (x * p1 - p0) / (x * x - 1)
            dx = p1 / dp
            x = x - dx
            if abs(dx) < ctx.mpf(10) ** (-ctx.dps - 2):
                break
        xs.append(x)
        ws.append(2 / ((1 - x * x) * dp * dp))
    return list(reversed(xs)), list(reversed(ws))


def _extended_table(pk):
    """40-digit (nodes, weights, values) of hhat_d on the library's derivative panels."""
    from horizon.kernels import _mp, derivative_panel_edges

    ctx = _mp()[0]
    edges = derivative_panel_edges(pk.tau, pk.d)
    x, w = _gauss_legendre_mp()
    coeffs = [ctx.mpf(c) for c in pk.psi.coeffs]
    Tm = ctx.mpf(pk.h.T)
    nodes, weights, values = [], [], []
    for i in range(edges.size - 1):
        mid = (ctx.mpf(edges[i]) + ctx.mpf(edges[i + 1])) / 2
        half = (ctx.mpf(edges[i + 1]) - ctx.mpf(edges[i])) / 2
        for xi, wi in zip(x, w):
            u = mid + half * xi
            nodes.append(u)
            weights.append(half * wi)
            values.append(ctx.fsum(a * pk.h.derivative_mp(u - Tm, k)
                                   for k, a in enumerate(coeffs) if a != 0))
    return nodes, weights, values


def _mp_transform(table, omegas):
    from horizon.kernels import _mp

    ctx = _mp()[0]
    out = []
    for om in np.atleast_1d(np.asarray(omegas, dtype=float)):
        om_m = ctx.mpf(float(om))
        out.append(complex(ctx.fsum(wi * vi * ctx.expj(-om_m * ui) for ui, wi, vi in table)))
    return np.array(out)


def assembled_spectrum_mp(pk, omegas):
    """F[hhat_d](i omega) by 40-digit quadrature of the assembled time kernel."""
    return _mp_transform(list(zip(*_extended_table(pk))), omegas)


def assembled_spectrum(pk, omegas):
    """F[hhat_d](i omega) by quadrature of the assembled time kernel hhat_d.

    The independent side of the transfer identity, whose closed side is
    psi_d(i omega) Q(i omega).  The double node table (``assembled_table``)
    serves until its L1 mass passes ``_EXTENDED_L1``; past it the 40-digit
    table does, the switch ``derivative_spectrum`` makes for one order.
    """
    nodes, weights, values, l1 = assembled_table(pk)
    if l1 > _EXTENDED_L1:
        return assembled_spectrum_mp(pk, omegas)
    from horizon._accel import oscillatory_transform

    return oscillatory_transform(nodes, weights, values, np.atleast_1d(np.asarray(omegas, dtype=float)))


def derivative_spectrum(h, k, omegas):
    """F[h^(k)](i omega) by direct quadrature of the k-th derivative.

    Independent of the closed route (i omega)^k F[h]; their agreement is a
    consistency invariant.  The integrand's L1 mass grows factorially with
    k while the transform stays O(omega^k |H|), so the quadrature runs in
    the 40-digit context once double-precision roundoff would exceed the
    cancellation headroom.
    """
    from horizon._accel import oscillatory_transform
    from horizon.kernels import _mp, derivative_panel_edges
    from horizon.spectral_core import gauss_legendre_edges

    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    edges = derivative_panel_edges(h.width, k) + h.support[0]
    nodes, weights = gauss_legendre_edges(edges)
    vals = kernel_derivative(h, k, nodes)
    if float(weights @ np.abs(vals)) <= _EXTENDED_L1:
        return oscillatory_transform(nodes, weights, vals, omegas)
    ctx = _mp()[0]
    x, w = _gauss_legendre_mp()
    table = []
    for i in range(edges.size - 1):
        mid = (ctx.mpf(edges[i]) + ctx.mpf(edges[i + 1])) / 2
        half = (ctx.mpf(edges[i + 1]) - ctx.mpf(edges[i])) / 2
        for xi, wi in zip(x, w):
            u = mid + half * xi
            table.append((u, half * wi, h.derivative_mp(u, k)))
    return _mp_transform(table, omegas)


def direct_table(h, x, ts, kmax=None):
    """(table, vectors, samples): a convolution as the direct panel sum, one full product per order.

    The signal is read at every (time, quadrature node) pair, with no
    window interpolant and no row blocks; ``vectors`` is the one weight
    vector h(s) w_s of the target rule and ``samples`` the stack of
    signal values, for the error scales of the comparisons.

    - ``kmax`` None: the target y(t) = sum_s h(s) w_s x(t - s), a one-row
      table;
    - otherwise the derivative-transfer moments
      M[k, t] = sum_s h(s) w_s x^(k)(t - T - s), k <= kmax.
    """
    from horizon.predictor import _target_rule

    ts = np.asarray(ts, dtype=float)
    nodes, weights = _target_rule(h)
    vectors = [h(nodes) * weights]
    if kmax is None:
        samples = x.derivatives(0, ts[:, None] - nodes)
    else:
        samples = x.derivatives(kmax, (ts - h.T)[:, None] - nodes)
    return np.array([s @ vectors[0] for s in samples]), vectors, samples


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


class FrequencyGrid(NamedTuple):
    nodes: np.ndarray
    weights: np.ndarray


def frequency_grid(omega_max, n_points=4096):
    """Composite 16-point Gauss-Legendre rule (numpy's ``leggauss``) on [-omega_max, omega_max].

    Uniform panels mirrored about 0, so omega = 0 is a panel edge;
    ``n_points`` is rounded up to whole panels on each half.
    """
    per_half = max(1, -(-n_points // 32))
    x, w = np.polynomial.legendre.leggauss(16)
    half = 0.5 * omega_max / per_half
    mids = half * (2.0 * np.arange(per_half) + 1.0)
    pos_n, pos_w = (mids[:, None] + half * x).ravel(), np.tile(half * w, per_half)
    return FrequencyGrid(np.concatenate([-pos_n[::-1], pos_n]), np.concatenate([pos_w[::-1], pos_w]))


def _log_weighted_spectrum(x, r, om):
    """r |omega| + 2 log|X(i omega)|: for the Poisson kinds as a log-sum of the
    two shifted envelopes, so that no factor underflows where e^{r|omega|} |X|^2 does not."""
    w = np.abs(om)
    if x.kind in ("poisson", "cosine_modulated_poisson"):
        a, w0 = x.params["a"], x.params.get("omega0", 0.0)
        return r * w + 2.0 * (np.logaddexp(-a * np.abs(w - w0), -a * np.abs(w + w0)) - math.log(2.0))
    with np.errstate(divide="ignore"):
        return r * w + 2.0 * np.log(np.abs(x.spectrum(om)))


def beta_fine_panels(h, xs, r):
    """beta = int e^{r|omega|} |Q X|^2 domega of each signal of ``xs``, on fixed fine panels.

    16-point Gauss-Legendre (``leggauss``) on panels of width 0.25 up to
    omega = 64, where the spectra vary fastest, then of width
    max(0.25, 0.5 / tau), 1 / 12 of a crest period of |Q|, up to
    900 / tau, past which |Q|^2 < 1e-21; each signal's kinks are extra
    panel edges, and the result is twice the half-line.  The integrand
    is exp(r omega + 2 log|X| + 2 log|Q|), with log|X| of the Poisson
    kinds formed without X, which underflows past omega = 745 / a.  Q
    is taken once per set of edges.
    """
    from horizon.kernels import q_spectrum

    x_gl, w_gl = np.polynomial.legendre.leggauss(16)
    top, step = 900.0 / h.width, max(0.25, 0.5 / h.width)
    uniform = np.union1d(np.arange(0.0, 64.0, 0.25), np.arange(64.0, top + 0.5 * step, step))
    out, cache = [], {}
    for x in xs:
        edges = np.union1d(uniform, [k for k in x.spectral_kinks if k < uniform[-1]])
        key = edges.tobytes()
        if key not in cache:
            mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
            nodes = (mid[:, None] + half[:, None] * x_gl).ravel()
            with np.errstate(divide="ignore"):
                log_q = 2.0 * np.log(np.abs(q_spectrum(h, nodes)))
            cache[key] = nodes, (half[:, None] * w_gl).ravel(), log_q
        nodes, weights, log_q = cache[key]
        out.append(2.0 * float(np.exp(_log_weighted_spectrum(x, r, nodes) + log_q) @ weights))
    return out


def h_spectrum(h, omegas):
    """H(i omega) = F h, the transform of the kernel itself."""
    from horizon.spectral_core import fourier_transform_at

    return fourier_transform_at(h, h.support, omegas)


def closed_form(x, t):
    """x(t) in the plain closed form of its kind: the reference for order 0 of ``x.derivatives``.

    The Poisson, Gaussian and cosine-modulated Poisson forms are the
    expressions order 0 of their stacks is formed from, in the same
    order, so the two agree bit for bit.  Chirp noise is its sinc form
    (amplitude / pi) (sin(hi t) - sin(lo t)) / t, which the library never
    evaluates (it reads the chirp's lines); a superposition is the
    weighted sum of its parts.
    """
    return _closed_form(x.kind, x.params, np.asarray(t, dtype=float))


def _closed_form(kind, prm, t):
    if kind == "poisson":
        return (prm["a"] / np.pi) / (prm["a"] * prm["a"] + t * t)
    if kind == "gaussian":
        sigma = prm["sigma"]
        return 1.0 / (sigma * math.sqrt(2.0 * math.pi)) * np.exp(-t * t / (2.0 * sigma * sigma))
    if kind == "cosine_modulated_poisson":
        return _closed_form("poisson", prm, t) * np.cos(prm["omega0"] * t)
    if kind == "chirp_noise":
        (lo, hi), amplitude = prm["band"], prm["amplitude"]
        # sin(b t)/t = b sinc(b t / pi)
        return (amplitude / np.pi) * (hi * np.sinc(hi * t / np.pi) - lo * np.sinc(lo * t / np.pi))
    if kind == "superposition":
        return sum(w * _closed_form(part["kind"], part["params"], t)
                   for w, part in zip(prm["weights"], prm["parts"]))
    if kind == "zero":
        return np.zeros_like(t)
    raise ValueError(f"no closed form for signal kind {kind!r}")


def superposition(signals, weights=None):
    """Weighted sum of signals: spectra combine, kinks join."""
    from horizon.signals import Signal

    signals = list(signals)
    if not signals:
        raise ValueError("need at least one component")
    weights = [1.0] * len(signals) if weights is None else [float(w) for w in weights]
    if len(weights) != len(signals):
        raise ValueError("one weight per component")

    def spectrum(om):
        return sum(w * s.spectrum(om) for w, s in zip(weights, signals))

    def derivatives(kmax, t):
        return sum(w * s.derivatives(kmax, t) for w, s in zip(weights, signals))

    return Signal(
        kind="superposition",
        params={"parts": [{"kind": s.kind, "params": s.params} for s in signals],
                "weights": weights},
        spectrum=spectrum,
        spectral_decay=min(s.spectral_decay for s in signals),
        spectral_kinks=tuple(sorted({k for s in signals for k in s.spectral_kinks})),
        derivatives=derivatives,
    )
