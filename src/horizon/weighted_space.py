"""Exponentially weighted L2 machinery: closed-form moments.

All moments are exact gamma-integral identities; quadrature appears only
as a test oracle.  The Gram matrices assembled from these moments are
Hankel-like and severely ill-conditioned.  The projection still runs on
the double moments (Gram-Schmidt twice holds to degree 16); the
closed-form alpha expansion, whose terms cancel catastrophically once
alpha is small, forms the same moments in exact rationals
(``polynomials.alpha_closed_form``).
"""

import math


def monomial_moment(k, r):
    """int omega^k e^{-r|omega|} domega: 2 k! / r^(k+1) for even k, 0 for odd k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if r <= 0:
        raise ValueError("r must be positive")
    if k % 2 == 1:
        return 0.0
    return 2.0 * math.factorial(k) / r ** (k + 1)


def exponential_moment(k, r, T):
    """int omega^k e^{i omega T} e^{-r|omega|} domega, split at omega = 0:

    k! * [ (r - iT)^-(k+1) + (-1)^k (r + iT)^-(k+1) ].
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if r <= 0:
        raise ValueError("r must be positive")
    fk = math.factorial(k)
    return fk * ((r - 1j * T) ** (-(k + 1)) + (-1) ** k * (r + 1j * T) ** (-(k + 1)))
