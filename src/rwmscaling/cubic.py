"""Piecewise cubics with scipy's slopes and sums (tested).

Slopes are PchipInterpolator's (Fritsch & Butland 1984), bit for bit, for
the radial quantile and custom tables, or CubicSpline's not-a-knot ones to
rounding, for log W, by cyclic reduction in place of LAPACK's gtsv; pieces
are built and summed as PPoly does.  scipy.interpolate would load
scipy.sparse, .spatial and .fft, and scipy.linalg LAPACK, into every process.
"""

from __future__ import annotations

import numpy as np

# Points per evaluation pass: fresh arrays of a few 1e4 values cost more in
# page faults than the arithmetic, and smaller ones are reused.
_CHUNK = 8192


def _pchip_slopes(x, h, m):
    """Weighted harmonic means of the two slopes inside (0 at an extremum);
    at the ends a one-sided three-point slope kept to the data's shape."""
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d = np.zeros(x.size)
    d[1:-1][~flat] = 1.0 / whmean[~flat]
    h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
    e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    cap = (np.sign(m0) != np.sign(m1)) & (np.abs(e) > 3.0 * np.abs(m0))
    d[[0, -1]] = np.where(np.sign(e) != np.sign(m0), 0.0,
                          np.where(cap, 3.0 * m0, e))
    return d


def _solve_tridiagonal(a, b, c, r):
    """x with a_i x_i-1 + b_i x_i + c_i x_i+1 = r_i (a_0 and c_last unread),
    for |b_i| > |a_i| + |c_i|, which needs no pivoting: cyclic reduction,
    where at each level the odd rows absorb their even neighbours."""
    n = b.size
    if n & (n + 1):  # pad with rows x = 0 to 2^k - 1 rows, odd at every level
        pad = 2 ** n.bit_length() - 1 - n
        return _solve_tridiagonal(*(np.append(v, np.full(pad, e)) for v, e in
                                    zip((a, b, c, r), (0.0, 1.0, 0.0, 0.0))))[:n]
    if n == 1:
        return r / b
    lo, hi = -a[1::2] / b[:-1:2], -c[1::2] / b[2::2]
    x = np.zeros(n + 2)  # x_i at i + 1, between two zeros
    x[2:-1:2] = _solve_tridiagonal(
        lo * a[:-1:2], b[1::2] + lo * c[:-1:2] + hi * a[2::2], hi * c[2::2],
        r[1::2] + lo * r[:-1:2] + hi * r[2::2])
    x[1:-1:2] = (r[::2] - a[::2] * x[:-2:2] - c[::2] * x[2::2]) / b[::2]
    return x[1:-1]


def _not_a_knot_slopes(x, h, m):
    """CubicSpline's rows: C2 inside, C3 at the second and last-but-one knots.
    Each end row taken from its neighbour leaves a diagonally dominant
    system in the inner slopes; the end rows then give the outer two."""
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    r0 = ((h[0] + 2 * d0) * h[1] * m[0] + h[0] ** 2 * m[1]) / d0
    r1 = (h[-1] ** 2 * m[-2] + (2 * d1 + h[-1]) * h[-2] * m[-1]) / d1
    b, r = 2 * (h[:-1] + h[1:]), 3 * (h[1:] * m[:-1] + h[:-1] * m[1:])
    b[[0, -1]] -= d0, d1
    r[[0, -1]] -= r0, r1
    # Rows over their diagonals: as accurate as unscaled, and the
    # mc_expectation results in tests/chain_pins.json stay bitwise.
    s = _solve_tridiagonal(h[1:] / b, np.ones(b.size), h[:-1] / b, r / b)
    return np.concatenate([[(r0 - d0 * s[0]) / h[1]], s, [(r1 - d1 * s[-1]) / h[-2]]])


class PiecewiseCubic:
    """Cubic through (x_i, y_i), x strictly increasing with at least 4 knots,
    with slopes by rule ``slopes`` ("pchip" or "not-a-knot")."""

    def __init__(self, x, y, slopes: str):
        self.x = x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = np.diff(x)
        m = np.diff(y) / h
        d = (_pchip_slopes if slopes == "pchip" else _not_a_knot_slopes)(x, h, m)
        t = (d[:-1] + d[1:] - 2 * m) / h
        self._c = (t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1])
        self._knot_index = np.arange(x.size, dtype=float)

    def __call__(self, z):
        """The cubic at z clamped into [x_0, x_last]; NaN gives NaN."""
        z = np.asarray(z, dtype=float)
        values = np.clip(z, self.x[0], self.x[-1]).ravel()
        c0, c1, c2, c3 = self._c
        for lo in range(0, values.size, _CHUNK):
            out = values[lo:lo + _CHUNK]  # overwritten in place
            # Piece i with x_i <= z < x_i+1 (the last one at z = x_last, and
            # for NaN): a guided C search over the knot indices, floored.  The
            # fraction can round up onto the next knot; step those back.
            power = np.interp(out, self.x, self._knot_index)
            i = np.fmin(power, self.x.size - 2, out=power).astype(np.intp)
            s = self.x.take(i)
            up = s > out
            if up.any():
                i[up] -= 1
                self.x.take(i, out=s, mode="clip")
            np.subtract(out, s, out=s)
            # c3 + c2 s + c1 s^2 + c0 s^3 in PPoly's order.
            term = c2.take(i)
            c3.take(i, out=out, mode="clip")
            out += np.multiply(term, s, out=term)
            np.multiply(s, s, out=power)
            out += np.multiply(c1.take(i, out=term, mode="clip"), power, out=term)
            power *= s
            out += np.multiply(c0.take(i, out=term, mode="clip"), power, out=term)
        return values.reshape(z.shape)
