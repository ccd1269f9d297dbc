"""Private extended-precision context.

A cloned mpmath context pinned at 40 significant digits, so the library
never mutates the global ``mpmath.mp`` state.  It serves the Hankel-like
Gram-Schmidt of the weighted projection and the closed-form alpha
expansion, and the independent quadrature routes of the transform
cross-checks (``PredictorKernel.spectrum`` and ``derivative_spectrum``
with ``precision="extended"``).  No prediction, node table or transfer
norm of a CLI command runs in it.
"""

from mpmath import mp

ctx = mp.clone()
ctx.dps = 40


def to_mpf(x):
    return ctx.mpf(x)


def to_mpc(x):
    return ctx.mpc(x)
