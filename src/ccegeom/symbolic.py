"""Bridge from sympy expressions to batched numpy closures.

Model metrics are written once as sympy matrices; this module turns them
(and their first two coordinate derivative arrays) into vectorized
callables mapping point batches (N, dim) to component arrays. Distinct
expressions are lambdified once and shared, so sparse tensors (mostly
zeros) stay cheap.
"""

from __future__ import annotations

import numpy as np
import sympy as sp

__all__ = [
    "lambdify_array",
    "derivative_arrays",
    "scalar_closures",
]


def lambdify_array(coords, exprs):
    """Compile a nested list / array of sympy expressions.

    Returns f(points) -> ndarray of shape (N, *shape) where shape is the
    shape of ``exprs``. Every distinct expression is lambdified exactly
    once; constants are broadcast without a function call.
    """
    arr = np.array(exprs, dtype=object)
    shape = arr.shape
    flat = arr.ravel()
    compiled = {}
    for e in flat:
        e = sp.sympify(e)
        if e in compiled:
            continue
        if e.is_number:
            compiled[e] = float(e)
        else:
            compiled[e] = sp.lambdify(coords, e, modules="numpy")
    entries = [compiled[sp.sympify(e)] for e in flat]

    def evaluate(points):
        pts = np.asarray(points, dtype=float)
        cols = [pts[:, k] for k in range(pts.shape[1])]
        n = pts.shape[0]
        out = np.empty((n, len(entries)), dtype=float)
        cache = {}
        for j, ent in enumerate(entries):
            key = id(ent)
            if key not in cache:
                if callable(ent):
                    val = np.asarray(ent(*cols), dtype=float)
                    cache[key] = np.broadcast_to(val, (n,))
                else:
                    cache[key] = np.full(n, ent)
            out[:, j] = cache[key]
        return out.reshape((n,) + shape)

    return evaluate


def derivative_arrays(coords, gmat):
    """Symbolic first and second derivative arrays of a metric matrix.

    dg[k][i][j] = d g_ij / d x_k,  d2g[k][l][i][j] = d^2 g_ij / dx_k dx_l.
    Every entry goes through sympy's cancel, which keeps rational
    components compact without the cost of full simplification.
    """
    d = len(coords)
    g = sp.Matrix(gmat)
    dg = [[[sp.cancel(sp.diff(g[i, j], coords[k])) for j in range(d)] for i in range(d)]
          for k in range(d)]
    d2g = [[[[sp.cancel(sp.diff(dg[k][i][j], coords[l])) for j in range(d)]
             for i in range(d)] for l in range(d)] for k in range(d)]
    return dg, d2g


def scalar_closures(coords, expr):
    """Closures (value, gradient, hessian) for a scalar sympy expression."""
    d = len(coords)
    grad = [sp.diff(expr, c) for c in coords]
    hess = [[sp.diff(grad[i], coords[j]) for j in range(d)] for i in range(d)]
    fv = lambdify_array(coords, [expr])
    fg = lambdify_array(coords, grad)
    fh = lambdify_array(coords, hess)

    def value(points):
        return fv(points)[:, 0]

    return value, fg, fh
