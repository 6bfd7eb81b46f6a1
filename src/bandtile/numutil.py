"""Shared numeric helpers: exact lattice trig, composite Gauss rules, the
integer and real-number rules for validated fields, and the pointwise
evaluator contract."""

import functools
import inspect
import math
import numbers

import numpy as np

ROW_BLOCK_ENTRIES = 4_000_000


def is_integer(x) -> bool:
    """True for a Python int or a NumPy integer, and False for a bool, so
    a validated field rejects True, 2.0 and "2" instead of coercing them."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def shift_count(k) -> int:
    """k as an int, so a shift by 1.5, True or "1" is rejected, not cut."""
    if not is_integer(k):
        raise ValueError(f"shift count must be an integer, got {k!r}")
    return int(k)


def is_finite_real(x) -> bool:
    """True for a real number whose float is finite, and False for a bool,
    a string, NaN, an infinity or a rational too large for a float, so a
    validated field rejects True, "0.5" and 10**400 instead of coercing
    them or raising OverflowError later."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # float(x) overflows
        return False


def pointwise(dtype=None):
    """Decorator for f(head, points, *rest): the body gets the points flat,
    of dtype (None keeps theirs); the caller gets their shape, or a scalar.
    A point that is not finite raises ValueError, naming the points."""
    def decorate(fn):
        @functools.wraps(fn)
        def evaluator(*args, **kwargs):
            if len(args) < 2:
                bound = inspect.signature(fn).bind(*args, **kwargs)
                args, kwargs = bound.args, bound.kwargs
            raw = np.asarray(args[1])
            # checked before the cast, which may drop an imaginary part
            finite = np.isfinite(raw) if raw.dtype.kind in "fc" else True
            if not np.all(finite):
                bad = raw[~finite]
                raise ValueError(f"points must be finite, got "
                                 f"{bad[:8].tolist()} ({bad.size} of "
                                 f"{raw.size} points)")
            arr = np.asarray(raw, dtype=dtype)
            out = fn(args[0], np.atleast_1d(arr).ravel(), *args[2:], **kwargs)
            return out.reshape(arr.shape) if arr.ndim else out[0].item()
        return evaluator
    return decorate


def block_rows(width: int) -> int:
    """Rows of `width` entries that one block of ROW_BLOCK_ENTRIES holds,
    at least one."""
    return max(1, ROW_BLOCK_ENTRIES // max(1, width))


def row_blocks(fn, points, width: int):
    """fn on the points, block_rows(width) rows at a time, joined."""
    rows = block_rows(width)
    if points.size <= rows:
        return fn(points)
    return np.concatenate([fn(points[i:i + rows])
                           for i in range(0, points.size, rows)])


def sinpi(x):
    """sin(pi*x) with exact zeros at integer x.

    Arguments are reduced to [-1/2, 1/2] before calling sin, so sinpi(k)
    is bit-exact 0.0 for every integer k that is exactly representable.
    """
    x = np.asarray(x, dtype=float)
    n = np.round(x)
    r = x - n
    sign = np.where(np.mod(n, 2.0) == 0.0, 1.0, -1.0)
    out = sign * np.sin(np.pi * r)
    return out if out.shape else float(out)


def cospi(x):
    """cos(pi*x) with exact zeros at half-integer x."""
    x = np.asarray(x, dtype=float)
    return sinpi(x + 0.5)


def cispi(x):
    """exp(i*pi*x) built from sinpi/cospi, exact on the lattice."""
    return cospi(x) + 1j * np.asarray(sinpi(x))


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(24)


def composite_gauss(lo: float, hi: float, panels: int):
    """Nodes and weights of a composite Gauss-Legendre rule on [lo, hi],
    24 nodes per panel."""
    if hi <= lo:
        raise ValueError("empty quadrature interval")
    edges = np.linspace(lo, hi, panels + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mids[:, None] + half[:, None] * _GAUSS_X[None, :]).ravel()
    w = (half[:, None] * _GAUSS_W[None, :]).ravel()
    return x, w


def frac(x):
    """Fractional part in [0, 1)."""
    x = np.asarray(x, dtype=float)
    out = x - np.floor(x)
    # floor(1.0 - tiny) rounding can leave exactly 1.0; fold it back
    out = np.where(out >= 1.0, out - 1.0, out)
    return out if out.shape else float(out)


def circle_dist(a, b=0.0):
    """Distance on the unit circle R/Z."""
    d = np.abs(frac(np.asarray(a, dtype=float) - b))
    d = np.minimum(d, 1.0 - d)
    return d if d.shape else float(d)
