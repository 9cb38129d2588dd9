"""Gaussian and incomplete-beta special functions and the projection kernel.

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
  to 7e-11 there (d = 128), because x^2 rounds near x = 1.
* d > 1000: the complemented incomplete beta of x^2.  There the fit's error
  grows with d (2.5e-13 at d = 2000) while the incomplete beta's falls
  (3e-14), as K_d underflows long before x^2 rounding matters.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from scipy import special as _sp

__all__ = ["gaussian_cdf", "gaussian_pdf", "beta_cdf", "kernel_K"]

_SQRT2PI = np.sqrt(2.0 * np.pi)

# Degree of the Chebyshev interpolant of g_d, also the largest degree kept.
_FIT_DEGREE = 128
# The series is cut where its coefficients fall to twice the largest of its
# last _FIT_TAIL, which sit at the round-off level of the fitted values.
_FIT_TAIL = 16
# Largest d evaluated through the fit; above it, the incomplete beta.
_FIT_MAX_D = 1000
# Points per Clenshaw pass: small enough that its buffers stay in cache.
_CHUNK = 4096


# The package's only copies of its input rules: positive integer dimensions
# and dimension lists, finite positive values, and mu >= 0.  Each raises
# ValueError, or the subclass given as ``error``, before any computation.

def _checked_dimension(d, error=ValueError) -> int:
    """d as an int; raises unless d is a positive integer."""
    if not (float(d) >= 1.0 and float(d).is_integer()):
        raise error(f"dimension must be a positive integer, got {d}")
    return int(d)


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


def _checked_nonnegative(x, name: str):
    """x as a float (for a scalar) or a float array whose every entry is
    >= 0, which NaN is not; raises ValueError naming the first that is not."""
    arr = np.asarray(x, dtype=float)
    bad = arr[~(arr >= 0.0)]
    if bad.size:
        raise ValueError(f"{name} must be nonnegative, got {bad[0]}")
    return arr if arr.ndim else float(arr)


def gaussian_cdf(x):
    """Standard normal CDF, accurate to ~1e-16 absolute (erfc-based)."""
    return _sp.ndtr(x)


def gaussian_pdf(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / _SQRT2PI
    return out if out.ndim else float(out)


def beta_cdf(u, a: float, b: float):
    """Regularized incomplete beta function I_u(a, b).

    Continued-fraction evaluation (with the symmetry switch at
    u = (a+1)/(a+b+2)) via scipy's Cephes routine.  Raises ValueError for
    u outside [0, 1] or non-positive shape parameters.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"beta_cdf requires a > 0 and b > 0, got a={a}, b={b}")
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0.0) or np.any(u_arr > 1.0) or np.any(np.isnan(u_arr)):
        raise ValueError("beta_cdf requires u in [0, 1]")
    out = _sp.betainc(a, b, u_arr)
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


def _fitted_K(coef, b: float, x):
    """exp(g_d(x) + b log(1 - x^2)) for x >= 0, summed chunk by chunk."""
    flat = np.minimum(x, 1.0).ravel()
    out = np.empty_like(flat)
    n = min(flat.size, _CHUNK)
    p, q, tmp, t2 = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    for s in range(0, flat.size, _CHUNK):
        xs = flat[s:s + _CHUNK]
        m = xs.size
        # 2t with t = 2x - 1 the Chebyshev variable of [0, 1].
        np.multiply(xs, 4.0, out=t2[:m])
        t2[:m] -= 2.0
        g = _clenshaw(coef, t2[:m], p[:m], q[:m], tmp[:m])
        o = out[s:s + m]
        np.multiply(_log1m_sq(xs), b, out=o)
        o += g
        np.exp(o, out=o)
    out[flat == 0.0] = 1.0
    np.minimum(out, 1.0, out=out)
    return out.reshape(np.shape(x))


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
        out = _fitted_K(_excess_coeffs(d), 0.5 * (d - 1), x_arr)
    else:
        inside = x_arr < 1.0
        u = np.where(inside, x_arr, 0.0) ** 2
        out = np.where(inside, _sp.betaincc(0.5, 0.5 * (d - 1), u), 0.0)
    return out if out.ndim else float(out)
