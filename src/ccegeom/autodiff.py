"""Second-order forward-mode automatic differentiation on point batches.

A Jet holds values v (N,) and, in the k seed directions it depends on,
gradients d (k, N) and Hessians h (k, k, N), the batch last, so each
step works on whole rows. Its directions are a bit set dirs over the
seeds: a coordinate seed has one, and a result has the union of its
operands', so a component that reads two of four coordinates carries a
(2, 2, N) Hessian, not a (4, 4, N) one. + - * /, real powers, sin, cos,
exp and log carry all three by the chain and product rules, so a
function written once in these operations gives its value and first two
derivatives exactly, with no symbolic algebra and no differencing
(Griewank & Walther, Evaluating Derivatives, 2nd ed., SIAM 2008). Each
value is formed by the numpy operation the same function applies to a
plain array, so the value of a jet equals that array result bitwise.
Two jets combine by one dense rule over the union of their directions,
each lifted to it by zeros in the slots it lacks. A padded zero adds
nothing to a sum (x + 0 = x), so derivatives equal those of jets seeded
in every direction bitwise, up to the sign of zeros. On plain numbers
and arrays the functions fall through to numpy.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["Jet", "variable", "sin", "cos", "exp", "log", "diag", "field_jet"]


def _outer(a, b):
    return a[:, None] * b[None, :]


def _frozen(a):
    a.setflags(write=False)
    return a


# one entry per direction set met, so at most 2^k for k seeds; the arrays
# are shared by every caller and only index
@lru_cache(maxsize=None)
def _directions(dirs):
    """The seed indices in the bit set dirs, ascending."""
    return _frozen(np.array([i for i in range(dirs.bit_length()) if dirs >> i & 1]))


@lru_cache(maxsize=None)
def _slots(dirs, sub):
    """Positions of the directions of sub among those of dirs, a superset."""
    return _frozen(np.searchsorted(_directions(dirs), _directions(sub)))


def _lift(jet, dirs):
    """Gradient and Hessian of jet over dirs, a superset of its
    directions: its own arrays if it spans dirs, else embedded in zeros
    at the slots of its directions."""
    if jet.dirs == dirs:
        return jet.d, jet.h
    at, k = _slots(dirs, jet.dirs), dirs.bit_count()
    d, h = np.zeros((k,) + jet.d.shape[1:]), np.zeros((k, k) + jet.d.shape[1:])
    d[at], h[at[:, None], at] = jet.d, jet.h
    return d, h


class Jet:
    """Values v (N,), and gradients d (k, N) and Hessians h (k, k, N) in
    the k seed directions of the bit set dirs."""

    __slots__ = ("v", "d", "h", "dirs")
    # numpy scalars and arrays defer to the reflected operators below
    __array_ufunc__ = None

    def __init__(self, v, d, h, dirs):
        self.v, self.d, self.h, self.dirs = v, d, h, dirs

    def chain(self, f0, f1, f2):
        """f(self) from f, f' and f'' evaluated at self.v."""
        return Jet(f0, f1 * self.d, f1 * self.h + f2 * _outer(self.d, self.d), self.dirs)

    def chain_jet(self, f0, df):
        """f(self) from f evaluated at self.v and the jet df of f'(self),
        whose directions are among self's."""
        dirs = self.dirs | df.dirs
        (d, h), (dd, _) = _lift(self, dirs), _lift(df, dirs)
        return Jet(f0, df.v * d, df.v * h + _outer(dd, d), dirs)

    def __add__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.v + other, self.d, self.h, self.dirs)
        dirs = self.dirs | other.dirs
        (d1, h1), (d2, h2) = _lift(self, dirs), _lift(other, dirs)
        return Jet(self.v + other.v, d1 + d2, h1 + h2, dirs)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.v, -self.d, -self.h, self.dirs)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.v * other, self.d * other, self.h * other, self.dirs)
        dirs = self.dirs | other.dirs
        (d1, h1), (d2, h2) = _lift(self, dirs), _lift(other, dirs)
        cross = _outer(d1, d2)
        return Jet(self.v * other.v, d1 * other.v + self.v * d2,
                   h1 * other.v + self.v * h2 + cross + np.swapaxes(cross, 0, 1), dirs)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            q = self * other ** -1
            return Jet(self.v / other.v, q.d, q.h, q.dirs)
        return Jet(self.v / other, self.d / other, self.h / other, self.dirs)

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
    return Jet(x, np.ones((1, x.size)), np.zeros((1, 1, x.size)), 1)


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
    Seed i is the jet of axes[i] in direction i alone, and each component
    is written into the axes of its own directions; derivatives along the
    other axes are zero. Each is a batch-first view of batch-last
    storage, such as the gradient's (dim, *shape, N)."""
    ax = np.asarray(axes, dtype=int)

    def jet(pts):
        n, dim = pts.shape
        seeds = [Jet(pts[:, a], np.ones((1, n)), np.zeros((1, 1, n)), 1 << i)
                 for i, a in enumerate(axes)]
        out = func(*seeds)
        flat = [out] if shape == () else [c for row in out for c in row]
        val = np.empty((len(flat), n))
        grad = np.zeros((dim, len(flat), n))
        hess = np.zeros((dim, dim, len(flat), n))
        for j, c in enumerate(flat):
            if isinstance(c, Jet):
                val[j] = c.v
                at = ax[_directions(c.dirs)]
                grad[at, j] = c.d
                hess[at[:, None], at, j] = c.h
            else:
                val[j] = c
        return tuple(np.moveaxis(a.reshape(lead + shape + (n,)), -1, 0)
                     for a, lead in ((val, ()), (grad, (dim,)), (hess, (dim, dim))))

    return jet
