"""Hot numeric kernels: bump-derivative values and the oscillatory transform.

Both are vectorized numpy; they back every kernel evaluation over
quadrature nodes and every transform over frequency grids.
"""

import numpy as np

# exp(x) underflows to 0 below roughly -745; stay clear of inf/0 * nan traps
_LOG_TINY = -740.0
# below this distance from the support edge the bump and all its
# derivatives up to order ~20 underflow in float64
_DELTA_FLOOR = 1e-4


def _horner(coeffs, x):
    out = np.zeros_like(x)
    for c in coeffs[::-1]:
        out = out * x + c
    return out


def bump_derivative_values(u, edge, k):
    """Evaluate P_k(u) * (1-u^2)^(-2k) * exp(-1/(1-u^2)) on an array.

    ``edge`` is the pair (E, O) of coefficient arrays, ascending in
    delta = 1 - u^2, with P_k(u) = E(delta) + u O(delta).  Near the
    support edges, where high derivatives peak, delta is small and the
    leading coefficients dominate, so the sum does not cancel the way
    Horner on the monomial coefficients of P_k does.  Values are
    computed in log space so that the (1-u^2)^(-2k) blow-up never meets
    the exp underflow as inf * 0.
    """
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros_like(u)
    delta = (1.0 - u) * (1.0 + u)
    inside = delta > _DELTA_FLOOR
    if not np.any(inside):
        return out
    ui = u[inside]
    di = delta[inside]
    even, odd = edge
    p = _horner(even, di) + ui * _horner(odd, di)
    vals = np.zeros_like(ui)
    nz = p != 0.0
    logv = np.log(np.abs(p[nz])) - 2.0 * k * np.log(di[nz]) - 1.0 / di[nz]
    keep = logv > _LOG_TINY
    v = np.zeros_like(logv)
    v[keep] = np.sign(p[nz][keep]) * np.exp(logv[keep])
    vals[nz] = v
    out[inside] = vals
    return out


def oscillatory_transform(t_nodes, t_weights, f_vals, omegas, chunk=1024):
    """sum_m w_m f_m exp(-i omega t_m) for each omega, chunked to bound memory."""
    wf = t_weights * f_vals
    out = np.empty(omegas.size, dtype=np.complex128)
    for i in range(0, omegas.size, chunk):
        sl = slice(i, min(i + chunk, omegas.size))
        out[sl] = np.exp(-1j * np.outer(omegas[sl], t_nodes)) @ wf
    return out
