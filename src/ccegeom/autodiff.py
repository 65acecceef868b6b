"""Second-order forward-mode automatic differentiation on point batches.

A Jet holds values v (N,), gradients d (k, N) and Hessians h (k, k, N)
in k seed directions, the batch last, so each step works on whole rows.
+ - * /, real powers, sin, cos, exp and log carry all three by the chain
and product rules, so a function written once in these operations gives
its value and first two derivatives exactly, with no symbolic algebra
and no differencing (Griewank & Walther, Evaluating Derivatives, 2nd
ed., SIAM 2008). Each value is formed by the numpy operation the same
function applies to a plain array, so the value of a jet equals that
array result bitwise. On plain numbers and arrays the functions fall
through to numpy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Jet", "variable", "sin", "cos", "exp", "log", "diag", "field_jet"]


def _outer(a, b):
    return a[:, None] * b[None, :]


class Jet:
    """Values v (N,), gradients d (k, N) and Hessians h (k, k, N)."""

    __slots__ = ("v", "d", "h")
    # numpy scalars and arrays defer to the reflected operators below
    __array_ufunc__ = None

    def __init__(self, v, d, h):
        self.v, self.d, self.h = v, d, h

    def chain(self, f0, f1, f2):
        """f(self) from f, f' and f'' evaluated at self.v."""
        return Jet(f0, f1 * self.d, f1 * self.h + f2 * _outer(self.d, self.d))

    def chain_jet(self, f0, df):
        """f(self) from f evaluated at self.v and the jet df of f'(self)."""
        return Jet(f0, df.v * self.d, df.v * self.h + _outer(df.d, self.d))

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.v + other.v, self.d + other.d, self.h + other.h)
        return Jet(self.v + other, self.d, self.h)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.v, -self.d, -self.h)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.v * other, self.d * other, self.h * other)
        cross = _outer(self.d, other.d)
        return Jet(self.v * other.v,
                   self.d * other.v + self.v * other.d,
                   self.h * other.v + self.v * other.h + cross + np.swapaxes(cross, 0, 1))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            q = self * other ** -1
            return Jet(self.v / other.v, q.d, q.h)
        return Jet(self.v / other, self.d / other, self.h / other)

    def __rtruediv__(self, other):
        q = other / self.v
        return self.chain(q, -q / self.v, 2.0 * q / self.v**2)

    def __pow__(self, n):
        v = self.v
        if n in (0, 1):
            return self if n else 1.0
        return self.chain(v**n, n * v ** (n - 1), n * (n - 1) * v ** (n - 2))


def variable(x):
    """The jet of x itself in one seed direction: x (N,) -> d = 1, h = 0."""
    x = np.asarray(x, dtype=float)
    return Jet(x, np.ones((1, x.size)), np.zeros((1, 1, x.size)))


def sin(x):
    if not isinstance(x, Jet):
        return np.sin(x)
    s = np.sin(x.v)
    return x.chain(s, np.cos(x.v), -s)


def cos(x):
    if not isinstance(x, Jet):
        return np.cos(x)
    c = np.cos(x.v)
    return x.chain(c, -np.sin(x.v), -c)


def exp(x):
    if not isinstance(x, Jet):
        return np.exp(x)
    e = np.exp(x.v)
    return x.chain(e, e, e)


def log(x):
    if not isinstance(x, Jet):
        return np.log(x)
    r = 1.0 / x.v
    return x.chain(np.log(x.v), r, -r * r)


def diag(*entries):
    """Square matrix (nested lists) with the given diagonal, zero elsewhere."""
    n = len(entries)
    return [[entries[i] if i == j else 0.0 for j in range(n)] for i in range(n)]


def field_jet(func, axes, shape=()):
    """points (N, dim) -> value (N, *shape), gradient (N, dim, *shape) and
    hessian (N, dim, dim, *shape) of func, which takes the chart
    coordinates listed in axes and returns one expression (shape ()) or
    a square matrix of them as nested lists; entries may be numbers.
    Derivatives along the other axes are zero. Each is a batch-first view
    of batch-last storage, such as the gradient's (dim, *shape, N)."""
    ax = np.asarray(axes, dtype=int)
    k = ax.size

    def jet(pts):
        n, dim = pts.shape
        seeds = [Jet(pts[:, a], np.broadcast_to(np.eye(k)[:, [i]], (k, n)), np.zeros((k, k, n)))
                 for i, a in enumerate(axes)]
        out = func(*seeds)
        flat = [out] if shape == () else [c for row in out for c in row]
        val = np.empty((len(flat), n))
        grad = np.zeros((dim, len(flat), n))
        hess = np.zeros((dim, dim, len(flat), n))
        for j, c in enumerate(flat):
            if isinstance(c, Jet):
                val[j] = c.v
                grad[ax, j] = c.d
                hess[ax[:, None], ax, j] = c.h
            else:
                val[j] = c
        return tuple(np.moveaxis(a.reshape(lead + shape + (n,)), -1, 0)
                     for a, lead in ((val, ()), (grad, (dim,)), (hess, (dim, dim))))

    return jet
