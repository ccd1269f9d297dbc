"""Independent numerical oracles used by the test suite.

These deliberately avoid the library's own quadrature machinery:
adaptive Simpson for integrals, Richardson-extrapolated central
differences for derivatives, and mpmath at 70-80 digits for the
high-degree kernel derivatives and predictions.
"""

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

    sum_k Re(a_k) int h(s) x^(k)(t - T - s) ds, with h the unit-mass bump
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
