"""Radial representations of spherically symmetric probability laws.

A law pi(x) on R^d that depends on x only through |x| is summarized by its
radial density f(r) = a_d r^{d-1} pi(r) on r > 0, with a_d the surface area
of the unit (d-1)-sphere.  Everything downstream (acceptance-rate integrals,
samplers, asymptotic rescalings) consumes this one-dimensional object, so the
constructor here does the heavy lifting once per model: locate the mass,
normalize by adaptive quadrature in a numerically safe scaling, tabulate the
CDF, and expose quantiles for use as quadrature breakpoints and for
inverse-CDF sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import gammaln

from .quadrature import adaptive_quad, stacked_quad
from .special import _checked_dimension, _checked_positive

__all__ = [
    "RadialModel", "unit_sphere_area", "radial_from_density",
    "build_example_target", "parse_mixture_weight", "parse_target_spec",
    "sample_radius", "CustomRadialTable",
]

_QUANTILE_LEVELS = np.array([
    1e-9, 1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5,
    0.75, 0.9, 0.95, 0.99, 1 - 1e-3, 1 - 1e-4, 1 - 1e-6, 1 - 1e-9,
])
_TRUNC_TAIL = 1e-12  # model support is cut where the radial CDF passes 1 - this


def unit_sphere_area(d: int) -> float:
    """Surface area a_d = 2 pi^{d/2} / Gamma(d/2) of the unit sphere in R^d.

    a_1 = 2, a_2 = 2 pi, a_3 = 4 pi.
    """
    d = _checked_dimension(d)
    return float(np.exp(np.log(2.0) + 0.5 * d * np.log(np.pi) - gammaln(0.5 * d)))


@dataclass(eq=False)
class RadialModel:
    """A spherically symmetric law reduced to its radial density.

    log_pi is the (unnormalized) x-space log density as a function of the
    radius; log_norm is chosen so that exp((d-1) log r + log_pi(r) - log_norm)
    integrates to one over r > 0.  [r_lo, r_hi] is the truncated support used
    by the quadrature routines (tail mass beyond r_hi is below 1e-12).
    """

    d: int
    family: str
    label: str
    log_pi: Callable
    k: float | None
    limit_mixing: str | None
    log_norm: float
    r_lo: float
    r_hi: float
    _cdf_r: np.ndarray = field(repr=False)
    _cdf_p: np.ndarray = field(repr=False)
    _quantile_fn: PchipInterpolator = field(repr=False)
    _cdf_fn: PchipInterpolator = field(repr=False)
    _breakpoints: np.ndarray = field(repr=False)

    def log_radial_pdf(self, r):
        r = np.asarray(r, dtype=float)
        out = np.full(r.shape, -np.inf)
        pos = r > 0.0
        if np.any(pos):
            rp = r[pos]
            out[pos] = (self.d - 1) * np.log(rp) + self.log_pi(rp) - self.log_norm
        return out if out.ndim else float(out)

    def radial_pdf(self, r):
        out = np.exp(self.log_radial_pdf(np.asarray(r, dtype=float)))
        return out if np.ndim(out) else float(out)

    def radial_cdf(self, r):
        r = np.asarray(r, dtype=float)
        out = np.clip(self._cdf_fn(np.clip(r, self._cdf_r[0], self._cdf_r[-1])), 0.0, 1.0)
        out = np.where(r <= self._cdf_r[0], 0.0, out)
        out = np.where(r >= self._cdf_r[-1], 1.0, out)
        return out if out.ndim else float(out)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise ValueError("quantile levels must lie in [0, 1]")
        out = self._quantile_fn(np.clip(p, self._cdf_p[0], self._cdf_p[-1]))
        return out if out.ndim else float(out)

    def breakpoints(self) -> np.ndarray:
        """Radii at standard quantile levels; seeds for adaptive quadrature."""
        return self._breakpoints

    def sample_radius(self, n: int, rng) -> np.ndarray:
        return sample_radius(self, n, rng)

    def moment(self, p: float) -> float:
        cache = self.__dict__.setdefault("_moment_cache", {})
        key = float(p)
        if key not in cache:
            res = adaptive_quad(
                lambda r: np.exp(self.log_radial_pdf(r) + p * np.log(r)),
                self.r_lo, self.r_hi, epsabs=1e-11, epsrel=1e-10,
                points=self._breakpoints)
            cache[key] = float(res.value)
        return cache[key]


def radial_from_density(d: int, log_pi: Callable, *, family: str = "custom",
                        label: str | None = None, k: float | None = None,
                        limit_mixing: str | None = None,
                        scan: tuple[float, float] = (1e-14, 1e14),
                        extra_breakpoints=()) -> RadialModel:
    """Build a RadialModel from an unnormalized x-space log density of the radius.

    log_pi must be vectorized: given an array of radii it returns an array
    of log densities of the same shape.  The density is scanned on a wide
    log grid to locate its mass, normalized by stacked adaptive quadrature
    of exp(g - max g) with g(r) = (d-1) log r + log_pi(r), and tabulated.
    Raises ValueError when log_pi is not vectorized or when no integrable
    mass is found inside the scan window.
    """
    d = _checked_dimension(d)
    probe = np.array([0.5, 1.5])
    try:
        probe_shape = np.shape(log_pi(probe))
    except Exception as exc:
        raise ValueError("log density must be vectorized; on an array of "
                         f"radii it raised {exc!r}") from exc
    if probe_shape != probe.shape:
        raise ValueError("log density must be vectorized; on 2 radii it "
                         f"returned shape {probe_shape}")

    lo_s, hi_s = scan
    n_scan = int(400 * np.log10(hi_s / lo_s)) + 1
    r_scan = np.geomspace(lo_s, hi_s, n_scan)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g_scan = (d - 1) * np.log(r_scan) + np.asarray(log_pi(r_scan), dtype=float)
    finite = np.isfinite(g_scan)
    if not np.any(finite):
        raise ValueError("log density is nowhere finite on the scan window")
    m_big = np.nanmax(np.where(finite, g_scan, -np.inf))

    # Rough mass profile in the log coordinate (measure r d log r).
    w = np.where(finite, np.exp(np.clip(g_scan - m_big, -745.0, 0.0)), 0.0) * r_scan
    dt = np.diff(np.log(r_scan))
    seg = 0.5 * (w[:-1] + w[1:]) * dt
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    if not (total > 0.0) or not np.isfinite(total):
        raise ValueError("could not locate integrable mass on the scan window")
    if seg[-1] > 1e-13 * total:
        raise ValueError("density mass appears to extend beyond the scan window")
    i_lo = int(np.searchsorted(cum, 1e-16 * total, side="right"))
    i_hi = int(np.searchsorted(cum, (1.0 - 1e-16) * total, side="left"))
    i_lo = max(i_lo - 1, 0)
    i_hi = min(i_hi + 1, n_scan - 1)
    r_lo, r_hi_wide = r_scan[i_lo], r_scan[i_hi]

    extra = np.asarray(list(extra_breakpoints), dtype=float)
    extra = extra[(extra > r_lo) & (extra < r_hi_wide)] if extra.size else extra

    # Fine node set: quantile-spaced (from the rough profile) plus geometric.
    inv_levels = np.linspace(0.0, 1.0, 1401)[1:-1] * total
    nodes_q = np.interp(inv_levels, cum, r_scan)
    nodes = np.unique(np.concatenate([
        [r_lo, r_hi_wide],
        nodes_q[(nodes_q > r_lo) & (nodes_q < r_hi_wide)],
        np.geomspace(r_lo, r_hi_wide, 601),
        extra,
    ]))

    def scaled_pdf(r, _idx=None):
        rr = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            gg = (d - 1) * np.log(rr) + np.asarray(log_pi(rr), dtype=float) - m_big
        return np.where(np.isfinite(gg), np.exp(np.clip(gg, -745.0, 50.0)), 0.0)

    z_rough = float(np.trapezoid(scaled_pdf(nodes), nodes))
    n_panel = nodes.size - 1
    vals, _errs, _ = stacked_quad(
        scaled_pdf, nodes[:-1], nodes[1:],
        epsabs=max(z_rough, 1e-300) * 1e-13 / n_panel + 1e-300, epsrel=1e-12)
    z_scaled = float(vals.sum())
    if not (z_scaled > 0.0
            and np.isfinite(z_scaled)):
        raise ValueError("normalization failed")
    log_norm = m_big + np.log(z_scaled)
    p_knots = np.concatenate([[0.0], np.cumsum(vals)]) / z_scaled
    p_knots[-1] = 1.0

    # Strictly increasing CDF knots for the two interpolants.
    incr = np.concatenate([[True], np.diff(p_knots) > 1e-300])
    incr[-1] = True
    r_k, p_k = nodes[incr], p_knots[incr]
    p_k = np.maximum.accumulate(p_k)
    keep = np.concatenate([[True], np.diff(p_k) > 0.0])
    r_k, p_k = r_k[keep], p_k[keep]
    quantile_fn = PchipInterpolator(p_k, r_k, extrapolate=False)
    cdf_fn = PchipInterpolator(r_k, p_k, extrapolate=False)

    r_hi_trunc = float(quantile_fn(min(1.0 - _TRUNC_TAIL, p_k[-1])))
    bp_levels = _QUANTILE_LEVELS[(_QUANTILE_LEVELS > p_k[0]) & (_QUANTILE_LEVELS < p_k[-1])]
    bps = np.asarray(quantile_fn(bp_levels), dtype=float)
    bps = np.unique(np.concatenate([bps[np.isfinite(bps)], extra]))

    return RadialModel(
        d=d, family=family, label=label or family, log_pi=log_pi, k=k,
        limit_mixing=limit_mixing, log_norm=float(log_norm),
        r_lo=float(nodes[0]), r_hi=r_hi_trunc,
        _cdf_r=r_k, _cdf_p=p_k, _quantile_fn=quantile_fn, _cdf_fn=cdf_fn,
        _breakpoints=bps)


def sample_radius(model: RadialModel, n: int, rng) -> np.ndarray:
    """Inverse-CDF draws of the radius; deterministic given a seed."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    u = rng.random(int(n))
    u = np.clip(u, model._cdf_p[0], model._cdf_p[-1])
    return np.asarray(model._quantile_fn(u), dtype=float)


class CustomRadialTable:
    """Tabulated log density loaded from a two-column text file.

    Each non-comment line holds ``r  log_pi(r)`` with strictly increasing
    r > 0; '#' starts a comment.  Evaluation uses monotone-cubic (PCHIP)
    interpolation in r and returns -inf outside the tabulated range.
    """

    def __init__(self, path: str):
        data = np.loadtxt(path, comments="#", ndmin=2)
        if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 4:
            raise ValueError(
                f"custom radial table {path!r} must have >= 4 rows of 'r log_pi'")
        r = _checked_positive(data[:, 0], "custom table radii")
        logp = data[:, 1]
        if np.any(r[1:] <= r[:-1]):
            raise ValueError("custom table radii must be strictly increasing")
        if not np.all(np.isfinite(logp)):
            raise ValueError("custom table log densities must be finite")
        self.path = path
        self.r_min = float(r[0])
        self.r_max = float(r[-1])
        self._interp = PchipInterpolator(r, logp, extrapolate=False)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = np.full(r.shape, -np.inf)
        ok = (r >= self.r_min) & (r <= self.r_max)
        if np.any(ok):
            out[ok] = self._interp(r[ok])
        return out if out.ndim else float(out)


def _mixture_log_pi(d: int, p: float) -> Callable:
    log_p = np.log(p)
    log_1mp = np.log1p(-p)
    log_dd = d * np.log(d)
    inv2d2 = 1.0 / (2.0 * d * d)

    def log_pi(r):
        r = np.asarray(r, dtype=float)
        narrow = log_1mp - 0.5 * r * r
        wide = log_p - log_dd - r * r * inv2d2
        return np.logaddexp(narrow, wide)

    return log_pi


def _lognormal_log_pi(d: int) -> Callable:
    # -(1/2)(log r + d - 1)^2 less its constant -(d-1)^2 / 2, which would make
    # (d-1) log r + log_pi a difference of terms of size d^2 / 2 whose rounding
    # noise (7e-12 at d = 300) exceeds the normalizing quadrature's tolerance.
    edge = np.exp(-(d - 1.0))

    def log_pi(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            t = np.log(np.maximum(r, 1e-320))
        return np.where(r <= edge, 0.5 * (d - 1.0) ** 2, -t * (0.5 * t + (d - 1.0)))

    return log_pi


def parse_mixture_weight(expr: str, d: int) -> float:
    """Mixture weight grammar: a float literal, '1/d', or '1/d^k'.

    The result must be a proper mixing probability in (0, 1).
    """
    expr = expr.strip()
    if expr == "1/d":
        p = 1.0 / d
    elif expr.startswith("1/d^"):
        power = int(expr[len("1/d^"):])
        p = float(d) ** (-power)
    else:
        p = float(expr)
    if not 0.0 < p < 1.0:
        raise ValueError(f"mixture weight must lie in (0, 1), got {p} from {expr!r}")
    return p


def build_example_target(family: str, d: int, *,
                         mixture_p: float | str | None = None,
                         table_path: str | None = None) -> RadialModel:
    """Construct one of the built-in example laws at dimension d.

    family is ``gaussian``, ``exponential`` (alias ``laplace``),
    ``radial-gaussian``, ``radial-exponential``, ``lognormal``, ``mixture``
    or ``custom``; letter case is ignored.
    """
    family = family.lower()
    if family == "laplace":
        family = "exponential"

    if family == "gaussian":
        return radial_from_density(
            d, lambda r: -0.5 * np.asarray(r) ** 2, family="gaussian",
            label=f"gaussian(d={d})", k=float(np.sqrt(d)), limit_mixing="point:1")
    if family == "exponential":
        return radial_from_density(
            d, lambda r: -np.asarray(r, dtype=float), family="exponential",
            label=f"exponential(d={d})", k=float(d), limit_mixing="point:1")
    if family == "radial-gaussian":
        return radial_from_density(
            d, lambda r: -(d - 1) * np.log(np.asarray(r, dtype=float)) - 0.5 * np.asarray(r) ** 2,
            family="radial-gaussian", label=f"radial-gaussian(d={d})",
            k=1.0, limit_mixing="halfnormal")
    if family == "radial-exponential":
        return radial_from_density(
            d, lambda r: -(d - 1) * np.log(np.asarray(r, dtype=float)) - np.asarray(r, dtype=float),
            family="radial-exponential", label=f"radial-exponential(d={d})",
            k=1.0, limit_mixing="exp")
    if family == "lognormal":
        return radial_from_density(
            d, _lognormal_log_pi(d), family="lognormal",
            label=f"lognormal(d={d})", k=1.0, limit_mixing="lognormal",
            extra_breakpoints=[np.exp(-(d - 1.0))])
    if family == "mixture":
        if d < 2:
            raise ValueError("the two-component scale mixture is defined for d >= 2")
        if mixture_p is None:
            raise ValueError("mixture family requires a weight, e.g. 'mixture:p=0.2'")
        p = parse_mixture_weight(str(mixture_p), d)
        return radial_from_density(
            d, _mixture_log_pi(d, p), family="mixture",
            label=f"mixture:p={mixture_p}(d={d},p={p:.6g})", k=float(np.sqrt(d)),
            limit_mixing=None,
            extra_breakpoints=[np.sqrt(d), float(d), d * np.sqrt(d)])
    if family == "custom":
        if table_path is None:
            raise ValueError("custom family requires a table path")
        table = CustomRadialTable(table_path)
        return radial_from_density(
            d, table, family="custom", label=f"custom:{table_path}(d={d})",
            k=None, limit_mixing=None,
            scan=(table.r_min, table.r_max))
    raise ValueError(f"unknown family {family!r}")


def parse_target_spec(spec: str, d: int) -> RadialModel:
    """Parse a command-line target/proposal spec string.

    Grammar: ``gaussian`` | ``exponential`` | ``laplace`` |
    ``radial-gaussian`` | ``radial-exponential`` | ``lognormal`` |
    ``mixture:p=<w>`` | ``custom:<path>``.
    """
    spec = spec.strip()
    if spec.startswith("mixture:"):
        arg = spec[len("mixture:"):]
        if not arg.startswith("p="):
            raise ValueError(f"malformed mixture spec {spec!r}; expected 'mixture:p=<w>'")
        return build_example_target("mixture", d, mixture_p=arg[2:])
    if spec.startswith("custom:"):
        return build_example_target("custom", d, table_path=spec[len("custom:"):])
    return build_example_target(spec, d)


def _parse_pair(target_spec: str, proposal_spec: str, d: int):
    """(target, proposal) models at d; equal specs share one model."""
    target = parse_target_spec(target_spec, d)
    if proposal_spec == target_spec:
        return target, target
    return target, parse_target_spec(proposal_spec, d)
