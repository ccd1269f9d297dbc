"""Private extended-precision context.

A cloned mpmath context pinned at 40 significant digits, so the library
never mutates the global ``mpmath.mp`` state.  It serves the closed-form
alpha expansion (``alpha_closed_form``), which cancels catastrophically
in double once alpha is small, and the scalar kernel derivative
``TargetKernel.derivative_mp`` that the test oracles build on.  No
projection, prediction, node table or transfer norm runs in it.
"""

from mpmath import mp

ctx = mp.clone()
ctx.dps = 40
