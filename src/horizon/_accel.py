"""Hot numeric kernels: the bump's values and the oscillatory transforms.

All are vectorized numpy; they back every kernel evaluation over
quadrature nodes (the bump at order 0 only, under the name the
benchmark's metrics read) and every transform over frequency grids.  The
(rows x columns) transients of the transforms here and of the
convolutions in ``predictor`` are formed in the row blocks of
``_row_blocks``, about one 256 KB block at a time unless the rows are wide.
"""

import numpy as np

# exp(x) underflows to 0 below roughly -745; the bump is 0 where -1/delta <= this
_LOG_TINY = -740.0


def bump_derivative_values(u):
    """The unit bump exp(-1/(1-u^2)) on an array; exact zero off (-1, 1) and where it underflows.

    Only the edge distance delta = 1 - u^2 > 0 is inverted, so u = +-1
    raises no division warning.
    """
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros_like(u)
    delta = (1.0 - u) * (1.0 + u)
    inside = delta > 0.0
    logv = -1.0 / delta[inside]
    out[inside] = np.exp(np.where(logv > _LOG_TINY, logv, -np.inf))
    return out


#: bound on the elements of the (rows x columns) transients formed at once:
#: 2^15 doubles, 256 KB
_BLOCK_ELEMENTS = 1 << 15


def _row_blocks(n_rows, n_cols, depth):
    """Row slices of about ``_BLOCK_ELEMENTS`` elements over ``depth`` stacked (rows x cols) arrays.

    Each block but the last is a whole multiple of 16 rows, at least 16:
    that keeps the BLAS matrix-vector kernel's row unrolling.  A one-row
    tail is merged into the block before it, since numpy takes a one-row
    product through another kernel.  So with a one-thread BLAS a blocked
    product sums each row exactly as one full product does (a threaded
    BLAS splits each product's rows between its threads by its size).
    The 16-row floor lets blocks of wide rows exceed ``_BLOCK_ELEMENTS``:
    16 rows of a d <= 4 stack at 512 window points with its arguments are
    384 KiB.  The direct sum of a deep stack splits its nodes into column
    blocks instead (``predictor._window_table``).
    """
    step = max(16, _BLOCK_ELEMENTS // (n_cols * depth) // 16 * 16)
    starts = list(range(0, n_rows, step))
    if len(starts) > 1 and n_rows - starts[-1] == 1:
        starts.pop()
    return [slice(i, j) for i, j in zip(starts, starts[1:] + [n_rows])]


def oscillatory_transform(t_nodes, t_weights, f_vals, omegas):
    """sum_m w_m f_m exp(-i omega t_m) for each omega: one panel per node."""
    return panel_transform(t_nodes, np.zeros(1), (t_weights * f_vals)[:, None], omegas)


def panel_transform(mids, offsets, fw, omegas):
    """sum_{p,i} fw[p, i] exp(-i omega (mids[p] + offsets[i])) for each omega.

    Panels that share their node offsets (a uniform-panel rule) take one
    exponential per panel and per offset, not one per node.  The
    frequencies go in row blocks (``_row_blocks``) sized by the three
    complex (frequencies x panels) arrays held at once.
    """
    out = np.empty(omegas.size, dtype=np.complex128)
    for rows in _row_blocks(omegas.size, mids.size + offsets.size, depth=6):
        om = omegas[rows, None]
        inner = np.exp(-1j * om * offsets) @ fw.T
        inner *= np.exp(-1j * om * mids)
        out[rows] = inner.sum(axis=1)
    return out
