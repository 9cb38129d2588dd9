"""Gaussian special functions, the input rules and the projection kernel.

The kernel K_d is the survival function of the length of the first coordinate
of a uniform unit vector in d dimensions: K_d(x) = P(|U_1| > x) with
U_1^2 ~ Beta(1/2, (d-1)/2) for d >= 2, and a unit step for d = 1 (where the
"direction" is just a sign).  It is what a spherically symmetric law sees of
an acceptance half-space.

How K_d is evaluated:

* d = 1: the step 1{x < 1};  d = 2: (2/pi) arccos x;  d = 3: 1 - x.
* 4 <= d <= 1000: K_d(x) = exp(g_d(x) + b log((1 - x)(1 + x))) with
  b = (d - 1)/2.  The excess g_d = log K_d - b log(1 - x^2) is analytic on
  [0, 1], so it is fitted once per d by a Chebyshev series in x
  (coefficients kept in a bounded cache) and summed by Clenshaw's
  recurrence over fixed-size chunks, at about a twenty-fifth of the cost
  of the incomplete beta.  The fit interpolates exact values at 129 Chebyshev
  points: the complemented incomplete beta for x < 0.9 (while it stays
  above e^-600), and beyond that the log-space form
  g_d(x) = log x - log(b B(b, 1/2)) + log 2F1(b + 1/2, 1; b + 1; 1 - x^2),
  which does not underflow.  The series is cut where its coefficients fall
  to round-off: degree 17-19 for d <= 20, 28 at d = 100, 47 at d = 1000.
  Against 50-digit values its relative error is below 1.2e-13 for
  x <= 0.99999 wherever K_d >= 1e-300.  The incomplete beta of x^2 loses up
  to 7e-11 there (d = 128), because x^2 rounds near x = 1.  kernel_K sums
  the series; W's integrand reads its cubic Hermite table of 1024-4096 equal
  pieces (within 1e-13 of it below d = 100, 1.1e-12 at d = 1000).
* d > 1000: the complemented incomplete beta of x^2.  There the fit's error
  grows with d (2.5e-13 at d = 2000) while the incomplete beta's falls
  (3e-14), as K_d underflows long before x^2 rounding matters.

The W table's integrand takes log(x^(d-1) K_d(z/x)) from (z, gap = x - z)
through _log_x_kernel, with x^2 - z^2 = gap (2z + gap) exact.
"""

from __future__ import annotations

import mmap
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from scipy import special as _sp

__all__ = ["gaussian_cdf", "gaussian_pdf", "kernel_K"]

_SQRT2PI = np.sqrt(2.0 * np.pi)

# Degree of the Chebyshev interpolant of g_d, also the largest degree kept.
_FIT_DEGREE = 128
# The series is cut where its coefficients fall to twice the largest of its
# last _FIT_TAIL, which sit at the round-off level of the fitted values.
_FIT_TAIL = 16
# Largest d evaluated through the fit; above it, the incomplete beta.
_FIT_MAX_D = 1000
# Points per Clenshaw pass (kernel_K): its four buffers (256 KB) stay in L2 cache.
_CHUNK = 8192
# At most this many pieces (128 KB) in a table of g_d, chosen for this error.
_MAX_PIECES, _TABLE_TOL = 4096, 1e-13


# The package's only copies of its input rules: counts, dimensions and their
# lists, finite positive values, and mu >= 0.  Each raises ValueError, or the
# subclass given as ``error``, before any computation.

def _checked_count(n, name: str, at_least: int, error=ValueError) -> int:
    """n as an int; raises unless n is an integer >= at_least."""
    if not (float(n) >= at_least and float(n).is_integer()):
        need = "a positive integer" if at_least == 1 else f"an integer >= {at_least}"
        raise error(f"{name} must be {need}, got {n}")
    return int(n)


def _checked_dimension(d, error=ValueError) -> int:
    """d as an int; raises unless d is a positive integer."""
    return _checked_count(d, "dimension", 1, error)


def _checked_dimension_list(dims, at_least: int, error=ValueError) -> list[int]:
    """dims as a list of at least ``at_least`` positive integers in strictly
    increasing order; raises otherwise."""
    dims = [_checked_dimension(d, error) for d in dims]
    if len(dims) < at_least:
        raise error(f"got {len(dims)} dimensions, need at least {at_least}")
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise error("dimensions must be strictly increasing")
    return dims


def _checked_positive(x, name: str, error=ValueError):
    """x as a float (for a scalar) or a float array whose every entry is
    finite and > 0; raises naming the first entry that is not."""
    arr = np.asarray(x, dtype=float)
    bad = arr[~(np.isfinite(arr) & (arr > 0.0))]
    if bad.size:
        raise error(f"{name} must be finite and positive, got {bad[0]}")
    return arr if arr.ndim else float(arr)


def _checked_nonnegative(x, name: str, finite: bool = False):
    """x as a float (for a scalar) or a float array whose every entry is
    >= 0 (which NaN is not) and, if ``finite``, finite; raises ValueError
    naming the first entry that is not."""
    arr = np.asarray(x, dtype=float)
    ok = (arr >= 0.0) & (arr < np.inf) if finite else arr >= 0.0
    bad = arr[~ok]
    if bad.size:
        rule = "finite and nonnegative" if finite else "nonnegative"
        raise ValueError(f"{name} must be {rule}, got {bad[0]}")
    return arr if arr.ndim else float(arr)


def gaussian_cdf(x):
    """Standard normal CDF, accurate to ~1e-16 absolute (erfc-based)."""
    return _sp.ndtr(x)


def gaussian_pdf(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / _SQRT2PI
    return out if out.ndim else float(out)


def _log_b_beta_half(b: float) -> float:
    """log(b B(b, 1/2)) without the cancellation of betaln at large b."""
    if b < 30.0:
        return float(np.log(b) + _sp.betaln(b, 0.5))
    # log Gamma(b + 1/2) - log Gamma(b), asymptotic series; the first
    # omitted term is below 1e-17 for b >= 30.
    z2 = 1.0 / (b * b)
    series = 1.0 - z2 * (1 / 24 - z2 * (1 / 80 - z2 * 17 / 1792))
    log_ratio = 0.5 * np.log(b) - series / (8.0 * b)
    return float(np.log(b) + 0.5 * np.log(np.pi) - log_ratio)


def _log1m_sq(x):
    """log(1 - x^2), accurate in relative terms on all of [0, 1]."""
    with np.errstate(divide="ignore"):
        return np.where(x < 0.5, np.log1p(-x * x), np.log((1.0 - x) * (1.0 + x)))


def _excess(d: int, x):
    """g_d(x) = log K_d(x) - b log(1 - x^2) from exact values, d >= 4."""
    b = 0.5 * (d - 1)
    with np.errstate(divide="ignore"):
        log_k = np.log(_sp.betaincc(0.5, b, x * x))
    g = log_k - b * _log1m_sq(x)
    far = (x >= 0.9) | (log_k < -600.0)
    xf = x[far]
    g[far] = (np.log(xf) - _log_b_beta_half(b)
              + np.log(_sp.hyp2f1(b + 0.5, 1.0, b + 1.0, (1.0 - xf) * (1.0 + xf))))
    return g


@lru_cache(maxsize=64)
def _excess_coeffs(d: int):
    """Chebyshev coefficients of g_d in t = 2x - 1, 4 <= d <= _FIT_MAX_D."""
    c = _cheb.chebinterpolate(lambda t: _excess(d, 0.5 * (1.0 + t)), _FIT_DEGREE)
    noise = np.abs(c[-_FIT_TAIL:]).max()
    keep = np.nonzero(np.abs(c) > 2.0 * noise)[0]
    c = c[:keep[-1] + 1]
    c.flags.writeable = False
    return c


def _clenshaw(c, t2, p, q, tmp):
    """sum_k c[k] T_k(t) at t = t2/2 by Clenshaw's recurrence, in the
    buffers p, q, tmp (each len(t2)); returns the buffer holding the sum."""
    p[:] = 0.0
    q[:] = 0.0
    for ck in c[:0:-1]:
        # b_k = c_k + 2t b_{k+1} - b_{k+2}, with p = b_{k+1}, q = b_{k+2}.
        np.multiply(t2, p, out=tmp)
        tmp -= q
        tmp += ck
        p, q, tmp = tmp, p, q
    np.multiply(t2, p, out=tmp)
    tmp *= 0.5
    tmp -= q
    tmp += c[0]
    return tmp


def _fitted_excess(coef, flat):
    """g_d at each point of a flat array in [0, 1], summed chunk by chunk."""
    out = np.empty_like(flat)
    n = min(flat.size, _CHUNK)
    p, q, tmp, t2 = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    for s in range(0, flat.size, _CHUNK):
        xs = flat[s:s + _CHUNK]
        m = xs.size
        # 2t with t = 2x - 1 the Chebyshev variable of [0, 1].
        np.multiply(xs, 4.0, out=t2[:m])
        t2[:m] -= 2.0
        out[s:s + m] = _clenshaw(coef, t2[:m], p[:m], q[:m], tmp[:m])
    return out


@lru_cache(maxsize=64)
def _excess_table(d: int):
    """(4, n) Horner coefficients in u of g_d's cubic Hermite interpolant on
    piece j, x = (j + u) / n in [0, 1]: n, a power of two up to _MAX_PIECES,
    meets _TABLE_TOL by the error bound max|g_d^(4)| / (384 n^4)."""
    c = _excess_coeffs(d)
    g4 = 16.0 * np.abs(_cheb.chebval(np.linspace(-1.0, 1.0, 1025), _cheb.chebder(c, 4))).max()
    n = min(_MAX_PIECES, 2 ** int(np.ceil(np.log2(g4 / (384.0 * _TABLE_TOL)) / 4.0)))
    t = np.linspace(-1.0, 1.0, n + 1)  # the knots j / n in t = 2x - 1
    v, m = _cheb.chebval(t, c), _cheb.chebval(t, _cheb.chebder(c)) * (2.0 / n)
    dv, m0, m1 = np.diff(v), m[:-1], m[1:]
    # Pages of its own: a lasting block in malloc's heap raised peak RSS.
    table = np.frombuffer(mmap.mmap(-1, 32 * n)).reshape(4, n)
    table[:] = [v[:-1], m0, 3.0 * dv - 2.0 * m0 - m1, m0 + m1 - 2.0 * dv]
    table.flags.writeable = False
    return table


def _tabled_excess(d: int, x, acc, row):
    """g_d at 1-d x in [0, 1] from _excess_table into acc, with x and row (same
    size) as scratch; x = 1 reads the last piece and NaN reads NaN."""
    table = _excess_table(d)
    n = table.shape[1]
    x *= n
    i = np.fmin(x, n - 1, out=row).astype(np.intp)  # fmin sends NaN to n - 1
    x -= i
    table[3].take(i, out=acc, mode="clip")
    for k in (2, 1, 0):
        acc *= x
        acc += table[k].take(i, out=row, mode="clip")
    return acc


def kernel_K(d: int, x):
    """Projection kernel K_d(x) = 1 - G_d(x^2) on x >= 0.

    G_d is the CDF of the squared first coordinate of a uniform direction:
    a point mass at 1 for d = 1 (so K_1 is the indicator of x < 1) and
    Beta(1/2, (d-1)/2) for d >= 2.  Values x >= 1 map to exactly 0, and
    K_d(0) = 1 exactly.

    d = 2 and d = 3 use their closed forms (2/pi) arccos x and 1 - x.  For
    4 <= d <= 1000 the value is exp(g_d(x) + b log(1 - x^2)), b = (d - 1)/2,
    with the analytic excess g_d fitted once per d by a Chebyshev series
    (see the module docstring): relative error below 1.2e-13 wherever
    K_d >= 1e-300, and on large arrays about 25 times faster than the
    incomplete beta.  For d > 1000 the complemented incomplete beta of x^2 is used directly.
    Neither path forms 1 - G_d, which would cancel catastrophically where
    K_d is tiny.
    """
    d = _checked_dimension(d)
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0) or np.any(np.isnan(x_arr)):
        raise ValueError("kernel_K requires x >= 0")
    if d == 1:
        out = (x_arr < 1.0).astype(float)
    elif d == 2:
        # (2/pi) * arccos(0) rounds to exactly 1.
        out = (2.0 / np.pi) * np.arccos(np.minimum(x_arr, 1.0))
    elif d == 3:
        out = np.maximum(1.0 - x_arr, 0.0)
    elif d <= _FIT_MAX_D:
        flat = np.minimum(x_arr, 1.0).ravel()
        out = np.exp(_fitted_excess(_excess_coeffs(d), flat) + _log1m_sq(flat) * (0.5 * (d - 1)))
        out[flat == 0.0] = 1.0
        out = np.minimum(out, 1.0).reshape(x_arr.shape)
    else:
        inside = x_arr < 1.0
        u = np.where(inside, x_arr, 0.0) ** 2
        out = np.where(inside, _sp.betaincc(0.5, 0.5 * (d - 1), u), 0.0)
    return out if out.ndim else float(out)


def _log_x_kernel(d: int, z, gap):
    """log(x^(d-1) K_d(z/x)) at x = z + gap, for 1-d arrays z >= 0, gap > 0.

    x^2 - z^2 = gap (2z + gap) is exact where 1 - (z/x)^2 would cancel.  For
    4 <= d <= 1000 x^(d-1) cancels into b log(x^2 - z^2) + g_d(z/x), g_d read
    from its table (_tabled_excess) with z and gap, overwritten, as scratch;
    d = 2 takes arccos(z/x) as atan2(sqrt(x^2 - z^2), z) and d = 3 x K_3 as gap.
    """
    x, x2_z2 = z + gap, gap * (2.0 * z + gap)
    with np.errstate(divide="ignore"):
        if d == 1:
            return np.zeros_like(x)
        if d == 2:
            return np.log(x) + np.log((2.0 / np.pi) * np.arctan2(np.sqrt(x2_z2), z))
        if d == 3:
            return np.log(x) + np.log(gap)
        if d <= _FIT_MAX_D:  # in place: fresh arrays cost more than the arithmetic
            np.log(x2_z2, out=x2_z2)
            x2_z2 *= 0.5 * (d - 1)
            x2_z2 += _tabled_excess(d, np.divide(z, x, out=x), z, gap)
            return x2_z2
        return (d - 1) * np.log(x) + np.log(_sp.betaincc(0.5, 0.5 * (d - 1), (z / x) ** 2))
