"""Exponentially weighted L2 machinery: the exact moments of the weight.

Substituting omega = w / r takes every moment of e^{-r|omega|} to unit
rate and horizon rho = T / r, where they are integers over one common
denominator.  The projection and its error alpha (``polynomials``) both
read them here and work in exact integers.
"""

import math


def unit_rate_moments(T, r, d):
    """The weight's moments up to degree d as exact integers ``(m, e, den)``:

        int omega^n e^{-r|omega|} domega = 2 m[n] / r^(n+1),  n <= 2d,
        int omega^k e^{i omega T} e^{-r|omega|} domega = 2 i^(k mod 2) e[k] / (den r^(k+1)),  k <= d,

    m[n] = n! for even n and 0 for odd n, and e[k] / den = k! times the real
    (even k) or imaginary (odd k) part of (1 - i rho)^-(k+1), rho = T / r.
    T and r are doubles, hence rationals; with rho = p / q in lowest terms,
    (1 - i rho)^-1 = q (q + i p) / (p^2 + q^2), so den = (p^2 + q^2)^(d+1).
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if r <= 0:
        raise ValueError("r must be positive")
    tn, td = float(T).as_integer_ratio()
    rn, rd = float(r).as_integer_ratio()
    p, q = tn * rd, td * rn
    g = math.gcd(p, q)
    p, q = p // g, q // g
    s = p * p + q * q
    m = [math.factorial(n) if n % 2 == 0 else 0 for n in range(2 * d + 1)]
    e = []
    x, y = q * q, q * p  # q^(k+1) (q + i p)^(k+1)
    for k in range(d + 1):
        e.append(math.factorial(k) * (y if k % 2 else x) * s ** (d - k))
        x, y = x * q * q - y * q * p, x * q * p + y * q * q
    return m, e, s ** (d + 1)
