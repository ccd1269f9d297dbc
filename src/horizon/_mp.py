"""Private extended-precision context, built on first read of ``_mp.ctx``.

A cloned mpmath context pinned at 40 significant digits, so the library
never mutates the global ``mpmath.mp`` state.  It serves the closed-form
alpha expansion (``alpha_closed_form``), which cancels catastrophically
in double once alpha is small, and the scalar kernel derivative
``TargetKernel.derivative_mp`` that the test oracles build on.  Importing
the package, the class gate and ``predict`` never import mpmath.
"""


def __getattr__(name):
    if name != "ctx":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from mpmath import mp

    global ctx
    ctx = mp.clone()
    ctx.dps = 40
    return ctx
