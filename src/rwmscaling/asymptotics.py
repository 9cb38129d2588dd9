"""Limiting behaviour of the walk as dimension grows.

For a spherically symmetric target whose rescaled radius |X|/k_d converges
to a mixing law R, the one-coordinate marginal converges to
Theta(x) = E[Phi(x/R)].  In the transformed scale mu = (1/2)(sqrt(d) k_y /
k_x) lambda the acceptance rate tends to 2 Theta(-mu) and the squared jump
distance (suitably normalized) to 2 mu^2 Theta(-mu).  The optimal transformed
scale solves the stationarity condition

    g(mu) = 2 Theta(-mu) - mu Theta'(-mu) = 0,

with Theta'(-mu) = E[(1/R) phi(mu/R)].  This module evaluates Theta and the
limiting curves, solves the fixed point (reporting when no finite optimum
exists), checks the 0.234 upper bound on the limiting optimal acceptance
rate, and maps the optimal transformed scale back to a concrete proposal
scale at finite dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.special import bdtrc, erfcx

from .quadrature import adaptive_quad
from .special import (_checked_count, _checked_dimension,
                      _checked_nonnegative, _checked_positive, gaussian_cdf,
                      gaussian_pdf)
from .targets import parse_target_spec, radial_from_density, sample_radius

__all__ = [
    "AsymptoticsError",
    "MixingDistribution",
    "AsymptoticOptimum",
    "BoundCheckReport",
    "mixing_point",
    "mixing_atoms",
    "mixing_density",
    "mixing_samples",
    "mixing_from_spec",
    "theta",
    "theta_prime_neg",
    "limit_ear",
    "limit_esjd",
    "limit_ear_general",
    "limit_esjd_general",
    "solve_aots",
    "aoa_bound_check",
    "aos",
    "transformed_scale",
    "POINT_MASS_MU_HAT",
    "POINT_MASS_AOA",
]


class AsymptoticsError(RuntimeError):
    """Raised when a limiting quantity cannot be computed reliably."""


# Optimal transformed scale and acceptance rate for a degenerate mixing law
# (R a point mass): the root of 2 Phi(-mu) = mu phi(mu) and 2 Phi(-mu_hat).
POINT_MASS_MU_HAT = 1.1906012483427703
POINT_MASS_AOA = 0.23381016133183664

_MU_MAX = 1e6  # solve_aots: top of the search grid
_FROM_TARGET_DRAWS = 200_000  # radii in a from-target: cloud
# mixing_density seeds its rule's panels this far apart in t = log r.  In t
# every kernel k(x, e^-t) is one shape shifted by log x, so one width cap
# resolves it at every x; the core refines only where the density needs it.
_T_STEP = 0.5
# Discrete laws are summed over blocks of _BLOCK_X points by _BLOCK_R values,
# so each temporary stays near 256 KB whatever the number of values.
_BLOCK_X = 8
_BLOCK_R = 4096
# Beyond z = mu/R = _Z_DEAD, exp(-z^2/2) underflows and _gap_kernel is exactly 0.
_Z_DEAD = 40.0
# _gap_kernel h(z) falls on [0, sqrt 3] to its minimum _H_MIN and rises to 0
# from below after.  Its rounding error is a few ULPs of A(z) = 2 Phi(-z) +
# z phi(z) <= 1 plus z^2/2 ULPs of |h|, and A <= 14 |h| outside _Z_ABS (h >=
# 0.075 on [0, 1]; Mills' ratio past sqrt 3).  Underflow loses ~1e-322 a term.
_Z_ABS = (1.0, np.sqrt(3.0))
_TINY = 1e-300
_GAP_BLOCKS = (1, 16, 128, 4096)  # run counts _gap_sign tries in turn
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
_ZERO_MASS_EPS = 1e-6


@dataclass(frozen=True)
class MixingDistribution:
    """Law of the limiting rescaled radius R (all mass on (0, inf)).

    Every law is discrete: its sorted ``values`` and their probabilities
    ``weights``, every expectation over it one weighted sum.  Kind ``atoms``
    is given atoms (the point mass included), ``samples`` a cloud of n radii
    each weighing 1/n, whatever order they were given in, and ``density``
    the nodes of the quadrature rule for a density (see mixing_density).
    Only the zero-mass rule and the general limits' standard error read the
    kind.
    """

    kind: str
    label: str
    values: np.ndarray
    weights: np.ndarray

    @property
    def support(self) -> tuple[float, float]:
        """Smallest and largest value of R: the values of positive weight."""
        live = self.values[self.weights > 0.0]
        return float(live[0]), float(live[-1])

    @property
    def is_point_mass(self) -> bool:
        lo, hi = self.support
        return lo == hi

    def mass_below(self, eps: float) -> float:
        """P(R <= eps), used to reject mixing laws with mass at zero."""
        return float(self.weights[self.values <= eps].sum())

    def scaled(self, c: float) -> "MixingDistribution":
        """The law of c R; used to test scale equivariance of the optimum."""
        c = _checked_positive(c, "scale factor")
        values = _checked_positive(c * self.values, "scaled values")
        return _validate_no_zero_mass(
            replace(self, label=f"{self.label}*{c:g}", values=values))

    def median(self) -> float:
        """The smallest value whose cumulative weight reaches 1/2."""
        return float(self.values[np.searchsorted(np.cumsum(self.weights), 0.5)])


def _validate_no_zero_mass(dist: MixingDistribution) -> MixingDistribution:
    # Atoms and clouds can carry genuine point mass near zero; a density's
    # rule only fails the intent of the rule (P(R <= eps) -> 0) when mass
    # persists at far smaller scales, so it is probed deeper --
    # otherwise merely rescaling a legitimate law (e.g. exp shrunk by half,
    # with P(R <= 1e-6) = 2e-6) would be rejected.
    eps = 1e-9 if dist.kind == "density" else _ZERO_MASS_EPS
    mass = dist.mass_below(eps)
    if dist.kind == "samples":
        # n radii resolve a mass only to about 1/n, so one radius below eps
        # in 200k is noise.  Reject only a count that a law with mass
        # _ZERO_MASS_EPS below eps would reach with probability under 1e-9.
        n = dist.values.size
        count = int(round(mass * n))
        has_atom = count > 0 and bdtrc(count - 1, n, _ZERO_MASS_EPS) < 1e-9
    else:
        has_atom = mass > _ZERO_MASS_EPS
    if has_atom:
        raise AsymptoticsError(
            f"mixing law {dist.label!r} carries mass {mass:.3g} below {eps:g}; "
            "laws with an atom at zero are not supported")
    return dist


def mixing_point(value: float = 1.0, *, label: str | None = None) -> MixingDistribution:
    """Point mass at ``value`` (the degenerate, thin-shell case)."""
    return mixing_atoms([value], [1.0], label=label or f"point:{value:g}")


def mixing_atoms(values, weights, *, label: str = "atoms") -> MixingDistribution:
    values = np.asarray(values, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    if values.size == 0 or values.size != weights.size:
        raise ValueError("atom values and weights must be equal-length and nonempty")
    values = _checked_positive(values, "atom locations")
    weights = _checked_nonnegative(weights, "atom weights")
    weights = weights / _checked_positive(weights.sum(), "total atom weight")
    order = np.argsort(values)
    dist = MixingDistribution(kind="atoms", label=label,
                              values=values[order], weights=weights[order])
    return _validate_no_zero_mass(dist)


def mixing_density(log_density: Callable, *, label: str = "density",
                   scan: tuple[float, float] = (1e-12, 1e12)) -> MixingDistribution:
    """Absolutely continuous R from an unnormalized, vectorized log-density
    on (0, inf), as the discrete law of its own quadrature rule: the Kronrod
    rule adaptive_quad accepts for r pdf(r) in t = log r (where a power-law
    tail decays exponentially) over the model's truncated support, to
    relative tolerance 1e-11.  Values e^t at its nodes, weights its weights
    times r pdf(r), summing to the truncated mass 1 - 1e-12."""
    model = radial_from_density(1, log_density, family="mixing", label=label,
                                scan=scan)
    t_lo, t_hi = np.log(model.r_lo), np.log(model.r_hi)

    def mass(t):
        r = np.exp(t)
        return r * model.radial_pdf(r)

    seeds = np.concatenate([np.arange(t_lo, t_hi, _T_STEP),
                            np.log(model.breakpoints())])
    rule = adaptive_quad(mass, t_lo, t_hi, epsabs=0.0, epsrel=1e-11,
                         points=seeds)
    order = np.argsort(rule.nodes)
    t = rule.nodes[order]
    dist = MixingDistribution(kind="density", label=label, values=np.exp(t),
                              weights=rule.weights[order] * mass(t))
    return _validate_no_zero_mass(dist)


def mixing_samples(radii, *, label: str = "samples") -> MixingDistribution:
    radii = np.asarray(radii, dtype=float).ravel()
    if radii.size < 100:
        raise ValueError("sample-based mixing laws need at least 100 radii")
    radii = np.sort(_checked_positive(radii, "sample radii"))
    dist = MixingDistribution(kind="samples", label=label, values=radii,
                              weights=np.full(radii.size, 1.0 / radii.size))
    return _validate_no_zero_mass(dist)


def mixing_from_spec(spec: str, *, seed: int = 0) -> MixingDistribution:
    """Parse a mixing-law string.

    Grammar: ``point:<c>`` | ``halfnormal`` | ``exp`` | ``lognormal`` |
    ``pareto:<alpha>`` | ``atoms:v@w,v@w,...`` | ``samples:<path>`` |
    ``from-target:<target-spec>:<d>``.  ``lognormal`` is the law with
    log R ~ N(1, 1) (the weak limit of the unimodal lognormal example);
    ``pareto:<alpha>``, alpha >= 0.05, has density proportional to r^-(alpha+1)
    on r > 1 and for alpha <= 2 exercises the no-finite-optimum path.
    ``from-target`` draws 200 000 radii from a finite-d example target,
    seeded by the integer seed >= 0, and rescales them by its k_d.
    """
    spec = spec.strip()
    if spec.startswith("point:"):
        return mixing_point(float(spec[6:]))
    if spec == "halfnormal":
        return mixing_density(lambda r: -0.5 * np.asarray(r) ** 2, label="halfnormal")
    if spec == "exp":
        return mixing_density(lambda r: -np.asarray(r), label="exp")
    if spec == "lognormal":
        return mixing_density(
            lambda r: -0.5 * (np.log(r) - 1.0) ** 2 - np.log(r), label="lognormal")
    if spec.startswith("pareto:"):
        alpha = _checked_positive(float(spec[7:]), "pareto exponent")
        if alpha < 0.05:  # keeps the scan top below a double's range
            raise ValueError("pareto exponent must be at least 0.05")

        def log_pareto(r):
            r = np.asarray(r, dtype=float)
            return np.where(r >= 1.0, -(alpha + 1.0) * np.log(np.maximum(r, 1.0)),
                            -np.inf)

        # A scan top that leaves ~1e-13 of the tail out; 1e14 for alpha >= 0.7601.
        top = 10.0 ** max(14.0, 10.65 / alpha)
        return mixing_density(log_pareto, label=spec, scan=(1.0, top))
    if spec.startswith("atoms:"):
        values, weights = [], []
        for part in spec[6:].split(","):
            v, _, w = part.partition("@")
            values.append(float(v))
            weights.append(float(w) if w else 1.0)
        return mixing_atoms(values, weights, label=spec)
    if spec.startswith("samples:"):
        radii = np.loadtxt(spec[8:], dtype=float).ravel()
        return mixing_samples(radii, label=spec)
    if spec.startswith("from-target:"):
        body = spec[len("from-target:"):]
        target_spec, _, d_str = body.rpartition(":")
        if not target_spec:
            raise ValueError(f"malformed mixing spec {spec!r}; "
                             "expected 'from-target:<target-spec>:<d>'")
        d = int(d_str)
        model = parse_target_spec(target_spec, d)
        if model.k is None:
            raise AsymptoticsError(
                f"target {target_spec!r} has no known radial scale k_d; "
                "cannot form the rescaled-radius sample")
        rng = np.random.default_rng(_checked_count(seed, "seed", 0))
        radii = sample_radius(model, _FROM_TARGET_DRAWS, rng) / model.k
        return mixing_samples(radii, label=spec)
    raise ValueError(f"unknown mixing-law spec {spec!r}")


def _mixing_expectation(dist: MixingDistribution, x: np.ndarray, kernel,
                        z_dead: float = np.inf) -> np.ndarray:
    """E[kernel(x, 1/R)] for each x: a weighted sum over the law's sorted
    values in _BLOCK_X x _BLOCK_R blocks, each row's block sums added
    pairwise (a cloud's mean stays within an ULP or so of the exactly
    rounded one).  The kernel must be exactly 0 where x/R > z_dead; values
    below x/z_dead are then skipped for the whole block of x (none when
    x <= 0, z_dead is inf or x is NaN)."""
    values, weights = dist.values, dist.weights
    inv = 1.0 / values
    out = np.zeros(x.size)
    for i in range(0, x.size, _BLOCK_X):
        xs = x[i:i + _BLOCK_X, None]
        cut = xs.min() / z_dead
        first = int(np.searchsorted(values, cut)) if cut > 0.0 else 0
        parts = []
        for j in range(first, values.size, _BLOCK_R):
            terms = kernel(xs, inv[None, j:j + _BLOCK_R])
            terms *= weights[j:j + _BLOCK_R]
            parts.append(terms.sum(axis=1))
        if parts:
            out[i:i + _BLOCK_X] = np.column_stack(parts).sum(axis=1)
    return out


def theta(dist: MixingDistribution, x) -> float | np.ndarray:
    """Limiting one-coordinate marginal CDF Theta(x) = E[Phi(x/R)]."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = _mixing_expectation(dist, x_arr, lambda xs, s: gaussian_cdf(xs * s))
    return out if np.ndim(x) else float(out[0])


def theta_prime_neg(dist: MixingDistribution, mu) -> float | np.ndarray:
    """Derivative Theta'(-mu) = E[(1/R) phi(mu/R)] for mu >= 0."""
    mu_arr = np.atleast_1d(_checked_nonnegative(mu, "mu"))
    out = _mixing_expectation(dist, mu_arr,
                              lambda ms, s: gaussian_pdf(ms * s) * s)
    return out if np.ndim(mu) else float(out[0])


def limit_ear(dist: MixingDistribution, mu) -> float | np.ndarray:
    """Limiting expected acceptance rate 2 Theta(-mu)."""
    return 2.0 * theta(dist, -_checked_nonnegative(mu, "mu"))


def limit_esjd(dist: MixingDistribution, mu) -> float | np.ndarray:
    """Limiting normalized squared jump distance 2 mu^2 Theta(-mu), for
    finite mu >= 0: at mu = inf it is 0 or inf by the law's tail."""
    mu = _checked_nonnegative(mu, "mu", finite=True)
    return mu * mu * limit_ear(dist, mu)


def _pair_expectation(r_dist: MixingDistribution, y_dist: MixingDistribution,
                      mu, weight_y2: bool) -> tuple[float, float]:
    """E[w(Y) 2 Phi(-mu Y / R)] with w = 1 or Y^2 (the ESJD's, which needs a
    finite mu), plus an error estimate: one weighted sum over Y's values."""
    mu = _checked_nonnegative(float(mu), "mu", finite=weight_y2)
    y = y_dist.values
    per = 2.0 * theta(r_dist, -mu * y) * (y * y if weight_y2 else 1.0)
    value = float((per * y_dist.weights).sum())
    if y_dist.kind == "samples":
        return value, float(per.std(ddof=1) / np.sqrt(per.size))
    return value, 1e-9


def limit_ear_general(r_dist: MixingDistribution, y_dist: MixingDistribution,
                      mu) -> tuple[float, float]:
    """Limiting EAR 2 E[Phi(-mu Y / R)] for a nondegenerate proposal-radius
    limit Y; returns (value, error estimate).  The error is the sampling
    standard error for a cloud Y and a nominal 1e-9 for atoms or a density
    (whose rule is good to ~1e-13).  It costs n_r x n_y kernel evaluations:
    ~12-27 ms for two densities of ~1.2k values each, about 13 min for two
    clouds of 200k radii."""
    return _pair_expectation(r_dist, y_dist, mu, weight_y2=False)


def limit_esjd_general(r_dist: MixingDistribution, y_dist: MixingDistribution,
                       mu) -> tuple[float, float]:
    """Limiting ESJD 2 mu^2 E[Y^2 Phi(-mu Y / R)] for finite mu >= 0;
    returns (value, error), with the error and the n_r x n_y cost of
    limit_ear_general."""
    val, err = _pair_expectation(r_dist, y_dist, mu, weight_y2=True)
    mu = float(mu)
    return mu * mu * val, mu * mu * err


@dataclass(frozen=True)
class AsymptoticOptimum:
    """Solution of the limiting stationarity condition for one mixing law.

    ``mu_hat`` is the smallest stationary point (the first local maximum of
    the limiting ESJD curve); ``roots`` lists every stationary point found
    and ``esjd_argmax_mu`` the one with the largest limiting ESJD.  When the
    curve keeps increasing past ``mu_max`` the optimum is flagged as not
    finite: ``mu_hat = inf`` and ``aoa = 0``.
    """

    mu_hat: float
    aoa: float
    limit_esjd_at_mu_hat: float
    roots: tuple[float, ...]
    esjd_argmax_mu: float
    residual: float
    no_finite_optimum: bool
    mu_max: float

    @property
    def finite(self) -> bool:
        return not self.no_finite_optimum


def _gap_kernel(mu, inv_r):
    """h(z) = 2 Phi(-z) - z phi(z) at z = mu/R, so that g(mu) = E[h(mu/R)]:
    exp(-z^2/2) (erfcx(z/sqrt 2) - z/sqrt(2 pi)), one erfcx and one exp."""
    z = mu * inv_r
    return np.exp(-0.5 * z * z) * (erfcx(z * _INV_SQRT2) - z * _INV_SQRT2PI)


_H_MIN = float(_gap_kernel(_Z_ABS[1], 1.0))


def _stationarity_gap(dist: MixingDistribution, mu) -> np.ndarray:
    """g(mu) = 2 Theta(-mu) - mu Theta'(-mu), in one pass over the law."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    return _mixing_expectation(dist, mu, _gap_kernel, z_dead=_Z_DEAD)


def _search_grid(dist: MixingDistribution) -> np.ndarray:
    """solve_aots's log grid: 48 points a decade from 1e-6 median to mu_max."""
    lo = 1e-6 * dist.median()
    if lo >= _MU_MAX:
        raise AsymptoticsError("mixing law's scale lies beyond the search grid's mu_max")
    return np.geomspace(lo, _MU_MAX, max(int(np.ceil(np.log10(_MU_MAX / lo) * 48)), 64))


def _gap_sign(dist: MixingDistribution, grid: np.ndarray) -> np.ndarray:
    """np.sign of the stationarity gap g on solve_aots's grid.

    g(mu) is the weighted sum of h(mu/R) over the law's sorted values.  Cut
    them into runs: for each count in _GAP_BLOCKS, that many runs of equal
    length, with the largest value a run of its own.  h is monotone on each
    side of sqrt 3, so a run of weight W whose z = mu/R span [z_lo, z_hi]
    adds at least W times h(z_hi), h(z_lo) or _H_MIN (the span below, above
    or across sqrt 3) and at most W max(h(z_lo), h(z_hi)).  Widened by
    1e-12 W times the bound's own size, or times 1 where the span meets
    _Z_ABS, the summed bounds hold for the rounded sum as well, so where
    they clear 0 by _TINY they fix the sign of the computed g.  Each count
    decides what it can and leaves the rest to the next; a later count
    over half the number of values costs more than averaging and is not
    tried.  g is 0 where every z > _Z_DEAD.  Only the points left open are
    averaged, a whole _BLOCK_X block of the grid at a time, so that each
    skips the same values as on the full grid and its g is bitwise the
    same."""
    values, weights = dist.values, dist.weights
    sign = np.zeros(grid.size)
    unknown = np.flatnonzero(grid / dist.support[1] <= _Z_DEAD)
    for blocks in _GAP_BLOCKS:
        if not unknown.size or (blocks > 1 and 2 * blocks > values.size):
            break
        size = -(-values.size // blocks)
        first = np.append(np.arange(0, values.size - 1, size), values.size - 1)
        last = np.append(first[1:] - 1, values.size - 1)
        mass = np.add.reduceat(weights, first)
        mu = grid[unknown, None]
        z_lo, z_hi = mu * (1.0 / values[last]), mu * (1.0 / values[first])
        h_lo, h_hi = _gap_kernel(z_lo, 1.0), _gap_kernel(z_hi, 1.0)
        low = np.where(z_hi <= _Z_ABS[1], h_hi,
                       np.where(z_lo >= _Z_ABS[1], h_lo, _H_MIN))
        high = np.maximum(h_lo, h_hi)
        absolute = (z_lo < _Z_ABS[1]) & (z_hi > _Z_ABS[0])
        lo = low @ mass - 1e-12 * (np.maximum(np.abs(low), absolute) @ mass)
        hi = high @ mass + 1e-12 * (np.maximum(np.abs(high), absolute) @ mass)
        sign[unknown] = np.select([lo > _TINY, hi < -_TINY], [1.0, -1.0], 0.0)
        unknown = unknown[sign[unknown] == 0.0]
    for i in np.unique(unknown // _BLOCK_X) * _BLOCK_X:
        block = grid[i:i + _BLOCK_X]
        sign[i:i + _BLOCK_X] = np.sign(_stationarity_gap(dist, block))
    return sign


def _brentq(f, xa, xb, xtol, rtol, maxiter=100) -> float:
    """A root of f between xa and xb, bitwise scipy.optimize.brentq's (tested):
    its C code (Brent 1973) step for step, errors included."""
    def call(x):
        if np.isnan(fx := f(x)):
            raise ValueError(f"the function value at x={x:.17g} is NaN")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if np.signbit(fpre) == np.signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and np.signbit(fpre) != np.signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        short = False  # else bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"failed to converge after {maxiter} iterations")


def solve_aots(dist: MixingDistribution) -> AsymptoticOptimum:
    """Solve for the asymptotically optimal transformed scale.

    Brackets every sign change of the stationarity gap g on a log grid with
    48 points per decade up to mu_max = 1e6 and polishes each with Brent's
    method.  If g stays positive on the whole grid (the limiting ESJD is
    still increasing at mu_max), the result is flagged
    ``no_finite_optimum`` — the optimal scale drifts to infinity and the
    optimal acceptance rate to zero.

    The grid needs only the sign of g.  The law's g is averaged only at
    grid points where bounds over sorted runs of its values leave that sign
    open (see _gap_sign): elsewhere the bounds, widened past any rounding of
    the weighted sum, fix it, so the signs, the brackets and the result are
    exactly those of the full average.
    """
    grid = _search_grid(dist)
    sign = _gap_sign(dist, grid)
    if not np.all(np.isfinite(sign)):
        raise AsymptoticsError("stationarity gap evaluated to a non-finite value")

    # Light-tailed laws underflow both terms of g to exactly zero well before
    # mu_max; drop that dead tail or every grid point on it would register as
    # a spurious sign change (and hence a phantom stationary point).
    nonzero = np.nonzero(sign)[0]
    if nonzero.size == 0:
        raise AsymptoticsError("stationarity gap underflowed to zero on the "
                               "whole search grid")
    grid, sign = grid[:nonzero[-1] + 1], sign[:nonzero[-1] + 1]

    gap = {}  # g where Brent evaluated it; the residual reads g(mu_hat) here

    def g(m):
        gap[m] = float(_stationarity_gap(dist, m)[0])
        return gap[m]

    sign_flip = np.nonzero(sign[:-1] != sign[1:])[0]
    roots = []
    for i in sign_flip:
        if sign[i] == 0.0:
            roots.append(float(grid[i]))
            continue
        try:
            root = _brentq(g, grid[i], grid[i + 1], xtol=1e-13, rtol=8.9e-16)
        except (ValueError, RuntimeError) as exc:
            raise AsymptoticsError(f"root refinement failed on "
                                   f"[{grid[i]:g}, {grid[i+1]:g}]: {exc}") from exc
        roots.append(float(root))
    roots = sorted(set(roots))

    if not roots:
        if np.all(sign > 0.0):
            return AsymptoticOptimum(
                mu_hat=np.inf, aoa=0.0, limit_esjd_at_mu_hat=np.inf,
                roots=(), esjd_argmax_mu=np.inf, residual=np.nan,
                no_finite_optimum=True, mu_max=_MU_MAX)
        raise AsymptoticsError(
            "stationarity gap is negative somewhere but never changes sign; "
            "the search grid is inconsistent")

    mu_hat = roots[0]
    ear_at = [float(limit_ear(dist, m)) for m in roots]
    esjd_at = [m * m * ear for m, ear in zip(roots, ear_at)]
    argmax = roots[int(np.argmax(esjd_at))]
    return AsymptoticOptimum(
        mu_hat=mu_hat,
        aoa=ear_at[0],
        limit_esjd_at_mu_hat=esjd_at[0],
        roots=tuple(roots),
        esjd_argmax_mu=argmax,
        residual=abs(gap[mu_hat] if mu_hat in gap else g(mu_hat)),
        no_finite_optimum=False,
        mu_max=_MU_MAX)


@dataclass(frozen=True)
class BoundCheckReport:
    """Outcome of checking the 0.234 upper bound for one mixing law."""

    label: str
    aoa: float
    bound: float
    gap: float
    is_point_mass: bool
    equality: bool


def aoa_bound_check(dist: MixingDistribution) -> BoundCheckReport:
    """Check that the limiting optimal acceptance rate does not exceed 0.2339.

    The supremum is attained exactly when R is degenerate (a point mass at
    any location — the optimum is scale equivariant), so the report carries
    both the gap to the point-mass value and whether equality holds to 1e-4.
    """
    bound = 0.2339
    opt = solve_aots(dist)
    if not opt.finite:
        raise AsymptoticsError(
            f"mixing law {dist.label!r} has no finite optimal scale; "
            "the bound check needs a finite optimum")
    aoa = opt.aoa
    if aoa > bound:
        raise AsymptoticsError(
            f"limiting optimal acceptance rate {aoa:.6f} exceeds {bound} "
            f"for {dist.label!r}; numerical failure")
    gap = POINT_MASS_AOA - aoa
    return BoundCheckReport(label=dist.label, aoa=aoa, bound=bound, gap=gap,
                            is_point_mass=dist.is_point_mass,
                            equality=abs(gap) <= 1e-4)


def aos(mu_hat: float, k_x: float, k_y: float, d: int) -> float:
    """Asymptotically optimal proposal scale at dimension d:
    lambda_hat = 2 mu_hat k_x / (sqrt(d) k_y), with k_x and k_y the radial
    scales of target and proposal at d."""
    d = _checked_dimension(d)
    mu_hat = _checked_positive(mu_hat, "mu_hat")
    k_x, k_y = (_checked_positive(k, "radial scale k") for k in (k_x, k_y))
    return 2.0 * mu_hat * k_x / (np.sqrt(d) * k_y)


def transformed_scale(lam: float, d: int, k_x: float, k_y: float) -> float:
    """Dimension-stabilized scale mu = (1/2) sqrt(d) (k_y / k_x) lambda."""
    d = _checked_dimension(d)
    lam = _checked_positive(lam, "lambda")
    k_x, k_y = (_checked_positive(k, "radial scale k") for k in (k_x, k_y))
    return 0.5 * np.sqrt(d) * k_y / k_x * lam
