"""Private extended-precision context, built on first read of ``_mp.ctx``.

A cloned mpmath context pinned at 40 significant digits, so the library
never mutates the global ``mpmath.mp`` state.  It serves only the scalar
kernel derivative ``TargetKernel.derivative_mp`` and the test oracles
built on it; no CLI command reads it, so none imports mpmath.  alpha,
whose expansion cancels past 40 digits, is summed in exact rationals
instead (``polynomials.alpha_closed_form``).
"""


def __getattr__(name):
    if name != "ctx":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from mpmath import mp

    global ctx
    ctx = mp.clone()
    ctx.dps = 40
    return ctx
