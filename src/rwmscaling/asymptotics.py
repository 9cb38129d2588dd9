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

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq
from scipy.special import bdtrc, erfcx

from .quadrature import adaptive_quad
from .special import (_checked_dimension, _checked_nonnegative,
                      _checked_positive, gaussian_cdf, gaussian_pdf)
from .targets import RadialModel, radial_from_density, sample_radius

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
_DENSITY_CHUNK = 48
# Sample means run over blocks of _BLOCK_X values by _BLOCK_R radii, so each
# temporary stays near 256 KB whatever the number of radii.
_BLOCK_X = 8
_BLOCK_R = 4096
# Beyond z = mu/R = _Z_DEAD, exp(-z^2/2) underflows and _gap_kernel is exactly 0.
_Z_DEAD = 40.0
# _gap_kernel h(z) changes sign once, at z = POINT_MASS_MU_HAT; h' = phi(z)(z^2 - 3)
# makes h fall on [0, sqrt 3] and rise to 0 from below after.  So h >= 3.7e-3 for
# z < _Z_POS, and on (_Z_NEG, _Z_NORMAL] h < 0 with |h| >= |h(30)| = 4.4e-195,
# which stays a normal number after dividing by any number of radii.
_Z_POS = 0.99 * POINT_MASS_MU_HAT
_Z_NEG = 1.01 * POINT_MASS_MU_HAT
_Z_NORMAL = 30.0
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
_ZERO_MASS_EPS = 1e-6


@dataclass(frozen=True)
class MixingDistribution:
    """Law of the limiting rescaled radius R (all mass on (0, inf)).

    Three kinds are supported: ``atoms`` (finite discrete support, the
    point-mass case included), ``density`` (an absolutely continuous law
    given through its log-density, handled by quadrature on a normalized
    radial model), and ``samples`` (an empirical cloud of radii, handled by
    plug-in averages with standard errors).  Sample radii are stored sorted,
    so a law does not depend on the order its radii were given in.
    """

    kind: str
    label: str
    atom_values: np.ndarray | None = None
    atom_weights: np.ndarray | None = None
    model: RadialModel | None = None
    samples: np.ndarray | None = None

    @property
    def support(self) -> tuple[float, float]:
        """Smallest and largest value of R: the atoms of positive weight or
        the ends of the sorted samples; (0, inf) for a density."""
        if self.kind == "atoms":
            live = self.atom_values[self.atom_weights > 0.0]
            return float(live[0]), float(live[-1])
        if self.kind == "samples":
            return float(self.samples[0]), float(self.samples[-1])
        return 0.0, np.inf

    @property
    def is_point_mass(self) -> bool:
        lo, hi = self.support
        return lo == hi

    @property
    def is_point_mass_at_one(self) -> bool:
        return self.is_point_mass and abs(self.support[0] - 1.0) <= 1e-12

    def mass_below(self, eps: float) -> float:
        """P(R <= eps), used to reject mixing laws with mass at zero."""
        if self.kind == "atoms":
            return float(self.atom_weights[self.atom_values <= eps].sum())
        if self.kind == "density":
            return float(self.model.radial_cdf(eps))
        return float(np.mean(self.samples <= eps))

    def scaled(self, c: float) -> "MixingDistribution":
        """The law of c R; used to test scale equivariance of the optimum."""
        c = _checked_positive(c, "scale factor")
        if self.kind == "atoms":
            return mixing_atoms(c * self.atom_values, self.atom_weights,
                                label=f"{self.label}*{c:g}")
        if self.kind == "samples":
            return mixing_samples(c * self.samples, label=f"{self.label}*{c:g}")
        base = self.model.log_pi
        return mixing_density(lambda r: base(np.asarray(r) / c),
                              label=f"{self.label}*{c:g}")

    def median(self) -> float:
        if self.kind == "atoms":
            order = np.argsort(self.atom_values)
            cum = np.cumsum(self.atom_weights[order])
            return float(self.atom_values[order][np.searchsorted(cum, 0.5)])
        if self.kind == "density":
            return float(self.model.quantile(0.5))
        return float(np.median(self.samples))


def _validate_no_zero_mass(dist: MixingDistribution) -> MixingDistribution:
    # Atoms and samples can carry genuine point mass near zero; continuous
    # densities only fail the intent of the rule (P(R <= eps) -> 0) when
    # mass persists at far smaller scales, so they are probed deeper --
    # otherwise merely rescaling a legitimate law (e.g. exp shrunk by half,
    # with P(R <= 1e-6) = 2e-6) would be rejected.
    eps = _ZERO_MASS_EPS if dist.kind != "density" else 1e-9
    mass = dist.mass_below(eps)
    if dist.kind == "samples":
        # n radii resolve a mass only to about 1/n, so one radius below eps
        # in 200k is noise.  Reject only a count that a law with mass
        # _ZERO_MASS_EPS below eps would reach with probability under 1e-9.
        n = dist.samples.size
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
                              atom_values=values[order], atom_weights=weights[order])
    return _validate_no_zero_mass(dist)


def mixing_density(log_density: Callable, *, label: str = "density",
                   scan: tuple[float, float] = (1e-12, 1e12)) -> MixingDistribution:
    """Absolutely continuous R from an unnormalized, vectorized log-density
    on (0, inf)."""
    model = radial_from_density(1, log_density, family="mixing", label=label,
                                scan=scan)
    dist = MixingDistribution(kind="density", label=label, model=model)
    return _validate_no_zero_mass(dist)


def mixing_samples(radii, *, label: str = "samples") -> MixingDistribution:
    radii = np.asarray(radii, dtype=float).ravel()
    if radii.size < 100:
        raise ValueError("sample-based mixing laws need at least 100 radii")
    radii = _checked_positive(radii, "sample radii")
    dist = MixingDistribution(kind="samples", label=label, samples=np.sort(radii))
    return _validate_no_zero_mass(dist)


def mixing_from_spec(spec: str, *, seed: int = 0,
                     n_samples: int = 200_000) -> MixingDistribution:
    """Parse a mixing-law string.

    Grammar: ``point:<c>`` | ``halfnormal`` | ``exp`` | ``lognormal`` |
    ``pareto:<alpha>`` | ``atoms:v@w,v@w,...`` | ``samples:<path>`` |
    ``from-target:<target-spec>:<d>``.  ``lognormal`` is the law with
    log R ~ N(1, 1) (the weak limit of the unimodal lognormal example);
    ``pareto:<alpha>`` has density proportional to r^-(alpha+1) on r > 1 and
    for alpha <= 2 exercises the no-finite-optimum path.  ``from-target``
    draws radii from a finite-d example target and rescales by its k_d.
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

        def log_pareto(r):
            r = np.asarray(r, dtype=float)
            return np.where(r >= 1.0, -(alpha + 1.0) * np.log(np.maximum(r, 1.0)),
                            -np.inf)

        return mixing_density(log_pareto, label=spec, scan=(1.0, 1e14))
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
        from .targets import parse_target_spec

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
        rng = np.random.default_rng(seed)
        radii = sample_radius(model, n_samples, rng) / model.k
        return mixing_samples(radii, label=spec)
    raise ValueError(f"unknown mixing-law spec {spec!r}")


def _density_expectation(model: RadialModel, x: np.ndarray, kernel,
                         epsabs: float) -> np.ndarray:
    """E[kernel(x, 1/R)] for density-kind R, integrated in t = log r, to
    relative tolerance 1e-11.

    In t a power-law tail of R decays exponentially, so a heavy-tailed law
    needs few panels where in r it would need fine panels over many decades.
    x is chunked so that each adaptive integral carries few components of
    similar scale (a single wide-spanning vector integral would force one
    huge shared subdivision)."""
    out = np.empty(x.size)
    t_pts = np.log(model.breakpoints())
    for start in range(0, x.size, _DENSITY_CHUNK):
        block = x[start:start + _DENSITY_CHUNK]

        def f(t):
            r = np.exp(t)
            return ((r * model.radial_pdf(r))[:, None]
                    * kernel(block[None, :], 1.0 / r[:, None]))

        res = adaptive_quad(f, np.log(model.r_lo), np.log(model.r_hi),
                            epsabs=epsabs, epsrel=1e-11, points=t_pts)
        out[start:start + _DENSITY_CHUNK] = res.value
    return out


def _sample_mean(radii: np.ndarray, x: np.ndarray, kernel,
                 z_dead: float) -> np.ndarray:
    """Mean of kernel(x, 1/R) over sorted radii, in _BLOCK_X x _BLOCK_R blocks.

    The kernel must be exactly 0 where x/R > z_dead; radii below x/z_dead
    are then skipped (none when x <= 0, z_dead is inf or x is NaN)."""
    inv = 1.0 / radii
    out = np.zeros(x.size)
    for i in range(0, x.size, _BLOCK_X):
        xs = x[i:i + _BLOCK_X, None]
        cut = xs.min() / z_dead
        first = int(np.searchsorted(radii, cut)) if cut > 0.0 else 0
        for j in range(first, radii.size, _BLOCK_R):
            out[i:i + _BLOCK_X] += kernel(xs, inv[None, j:j + _BLOCK_R]).sum(axis=1)
    return out / radii.size


def _mixing_expectation(dist: MixingDistribution, x: np.ndarray, kernel,
                        epsabs: float, z_dead: float = np.inf) -> np.ndarray:
    """E[kernel(x, 1/R)] for each x: a weighted sum over atoms, a plug-in mean
    over samples, or a quadrature over a density."""
    if dist.kind == "atoms":
        return kernel(x[:, None], 1.0 / dist.atom_values[None, :]) @ dist.atom_weights
    if dist.kind == "samples":
        return _sample_mean(dist.samples, x, kernel, z_dead)
    return _density_expectation(dist.model, x, kernel, epsabs)


def theta(dist: MixingDistribution, x, *,
          epsabs: float = 1e-12) -> float | np.ndarray:
    """Limiting one-coordinate marginal CDF Theta(x) = E[Phi(x/R)]."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = _mixing_expectation(dist, x_arr, lambda xs, s: gaussian_cdf(xs * s),
                              epsabs)
    return out if np.ndim(x) else float(out[0])


def theta_prime_neg(dist: MixingDistribution, mu, *,
                    epsabs: float = 1e-12) -> float | np.ndarray:
    """Derivative Theta'(-mu) = E[(1/R) phi(mu/R)] for mu >= 0."""
    mu_arr = np.atleast_1d(_checked_nonnegative(mu, "mu"))
    out = _mixing_expectation(dist, mu_arr,
                              lambda ms, s: gaussian_pdf(ms * s) * s,
                              epsabs)
    return out if np.ndim(mu) else float(out[0])


def limit_ear(dist: MixingDistribution, mu) -> float | np.ndarray:
    """Limiting expected acceptance rate 2 Theta(-mu)."""
    return 2.0 * theta(dist, -_checked_nonnegative(mu, "mu"))


def limit_esjd(dist: MixingDistribution, mu) -> float | np.ndarray:
    """Limiting normalized squared jump distance 2 mu^2 Theta(-mu)."""
    mu_arr = np.asarray(mu, dtype=float)
    return mu_arr * mu_arr * limit_ear(dist, mu)


def _pair_expectation(r_dist: MixingDistribution, y_dist: MixingDistribution,
                      mu: float, weight_y2: bool) -> tuple[float, float]:
    """E[w(Y) 2 Phi(-mu Y / R)] with w = 1 or Y^2, plus an error estimate."""
    mu = _checked_nonnegative(mu, "mu")

    def inner(y: np.ndarray) -> np.ndarray:
        return np.asarray(2.0 * theta(r_dist, -mu * y))

    if y_dist.kind == "atoms":
        vals = inner(y_dist.atom_values)
        w = y_dist.atom_weights * (y_dist.atom_values ** 2 if weight_y2 else 1.0)
        return float(vals @ w), 1e-9
    if y_dist.kind == "samples":
        per = inner(y_dist.samples)
        if weight_y2:
            per = per * y_dist.samples ** 2
        n = per.size
        return float(per.mean()), float(per.std(ddof=1) / np.sqrt(n))
    model = y_dist.model

    def f(y):
        per = model.radial_pdf(y) * inner(y)
        if weight_y2:
            per = per * y * y
        return per

    res = adaptive_quad(f, model.r_lo, model.r_hi, epsabs=1e-10, epsrel=1e-9,
                        points=model.breakpoints())
    return float(res.value), float(res.error) + 1e-9


def limit_ear_general(r_dist: MixingDistribution, y_dist: MixingDistribution,
                      mu) -> tuple[float, float]:
    """Limiting EAR 2 E[Phi(-mu Y / R)] for a nondegenerate proposal-radius
    limit Y; returns (value, error estimate).  With both laws sample clouds
    it costs n_r x n_y kernel evaluations: about 13 min at 200k radii each."""
    return _pair_expectation(r_dist, y_dist, float(mu), weight_y2=False)


def limit_esjd_general(r_dist: MixingDistribution, y_dist: MixingDistribution,
                       mu) -> tuple[float, float]:
    """Limiting ESJD 2 mu^2 E[Y^2 Phi(-mu Y / R)]; returns (value, error).
    Two sample clouds cost n_r x n_y kernel evaluations, as in
    limit_ear_general."""
    mu = float(mu)
    val, err = _pair_expectation(r_dist, y_dist, mu, weight_y2=True)
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


def _stationarity_gap(dist: MixingDistribution, mu, *,
                      epsabs: float = 1e-12) -> np.ndarray:
    """g(mu) = 2 Theta(-mu) - mu Theta'(-mu), in one pass over the law."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    return _mixing_expectation(dist, mu, _gap_kernel, epsabs, z_dead=_Z_DEAD)


def _search_grid(dist: MixingDistribution) -> np.ndarray:
    """solve_aots's log grid: 48 points a decade from 1e-6 median to mu_max."""
    lo = 1e-6 * dist.median()
    if lo >= _MU_MAX:
        raise AsymptoticsError("mixing law's scale lies beyond the search grid's mu_max")
    return np.geomspace(lo, _MU_MAX, max(int(np.ceil(np.log10(_MU_MAX / lo) * 48)), 64))


def _gap_sign(dist: MixingDistribution, grid: np.ndarray) -> np.ndarray:
    """np.sign of the stationarity gap g on solve_aots's grid.

    For a sample law on [R_min, R_max], z = mu/R spans [mu/R_max, mu/R_min],
    and where that span fixes the sign of every term of the mean, it fixes
    the sign of g: + where every z < _Z_POS, - where every z > _Z_NEG and
    mu/R_max <= _Z_NORMAL, 0 where every z > _Z_DEAD.  Only the other points
    are averaged, a whole _BLOCK_X block of the grid at a time, so that each
    skips the same radii as on the full grid and its g is bitwise the same."""
    if dist.kind != "samples":
        return np.sign(_stationarity_gap(dist, grid, epsabs=1e-10))
    r_lo, r_hi = dist.support
    z_lo, z_hi = grid / r_hi, grid / r_lo
    sign = np.where(z_hi < _Z_POS, 1.0, 0.0)
    sign[(z_lo > _Z_NEG) & (z_lo <= _Z_NORMAL)] = -1.0
    unknown = np.flatnonzero((sign == 0.0) & (z_lo <= _Z_DEAD))
    for i in np.unique(unknown // _BLOCK_X) * _BLOCK_X:
        block = grid[i:i + _BLOCK_X]
        sign[i:i + _BLOCK_X] = np.sign(_stationarity_gap(dist, block, epsabs=1e-10))
    return sign


def solve_aots(dist: MixingDistribution) -> AsymptoticOptimum:
    """Solve for the asymptotically optimal transformed scale.

    Brackets every sign change of the stationarity gap g on a log grid with
    48 points per decade up to mu_max = 1e6 and polishes each with Brent's
    method.  If g stays positive on the whole grid (the limiting ESJD is
    still increasing at mu_max), the result is flagged
    ``no_finite_optimum`` — the optimal scale drifts to infinity and the
    optimal acceptance rate to zero.

    The grid needs only the sign of g.  A sample law's g is averaged only at
    grid points where its support does not fix that sign (see _gap_sign).
    Where the support fixes it, every term h(mu/R) of the mean has that sign
    and their sum cannot round to zero, so the signs, the brackets and the
    result are exactly those of the full average.
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

    sign_flip = np.nonzero(sign[:-1] != sign[1:])[0]
    roots = []
    for i in sign_flip:
        if sign[i] == 0.0:
            roots.append(float(grid[i]))
            continue
        try:
            root = brentq(lambda m: float(_stationarity_gap(dist, m)[0]),
                          grid[i], grid[i + 1], xtol=1e-13, rtol=8.9e-16)
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
        residual=float(abs(_stationarity_gap(dist, mu_hat)[0])),
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


def _k_value(k, d: int) -> float:
    return _checked_positive(k(d) if callable(k) else k, "radial scale k")


def aos(mu_hat: float, k_x, k_y, d: int) -> float:
    """Asymptotically optimal proposal scale at dimension d:
    lambda_hat = 2 mu_hat k_x(d) / (sqrt(d) k_y(d))."""
    d = _checked_dimension(d)
    mu_hat = _checked_positive(mu_hat, "mu_hat")
    return 2.0 * mu_hat * _k_value(k_x, d) / (np.sqrt(d) * _k_value(k_y, d))


def transformed_scale(lam: float, d: int, k_x, k_y) -> float:
    """Dimension-stabilized scale mu = (1/2) sqrt(d) (k_y / k_x) lambda."""
    d = _checked_dimension(d)
    lam = _checked_positive(lam, "lambda")
    return 0.5 * np.sqrt(d) * _k_value(k_y, d) / _k_value(k_x, d) * lam
