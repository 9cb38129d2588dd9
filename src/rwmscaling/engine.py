"""Exact acceptance-rate and expected-squared-jump integrals.

For a spherically symmetric target with radial density f and a spherical
proposal with radial density rbar and scale lambda, the expected acceptance
rate and the expected squared jump distance are double integrals

    EAR(lambda)  = int_0^inf dy rbar(y) int_{lambda y/2}^inf dx f(x) K_d(lambda y / (2x)),
    ESJD(lambda) = lambda^2 int_0^inf dy rbar(y) y^2 [same inner integral],

where K_d is the projection kernel (special.kernel_K).  The inner integral
equals W(z) := 2 F_{1|d}(-z) at z = lambda y / 2, with F_{1|d} the CDF of one
coordinate of the target, which is also what the acceptance rate of an
infinitesimally informed observer of the radial chain sees.

Two evaluation routes are provided and are kept mutually checkable:

* ear_esjd, the reference: literal nested adaptive quadrature of the
  double integral (absolute error <= 1e-8; raises on budget exhaustion);
* the table route, behind curve, table_point and the optimizer: a
  per-target table of W (built once by stacked adaptive quadrature and kept
  on the target model, interpolated as a cubic spline of log W with a
  measured midpoint-error certificate), after which a whole lambda grid is
  one stacked 1-d integral over the proposal radius, one item per lambda,
  each with its own evaluation budget and its own failure flag;
  table_point is the one-lambda case.  Table and nested routes agree to
  < 1e-7 by test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .quadrature import QuadratureError, adaptive_quad, stacked_quad
from .special import _checked_positive, kernel_K
from .targets import RadialModel

__all__ = [
    "EngineError", "CurvePoint", "marginal_cdf", "MarginalTable",
    "get_marginal_table", "ear_esjd", "table_point", "curve",
    "closed_form_gaussian_1d", "closed_form_laplace_1d",
]

_LOG_FLOOR = -640.0  # log W below this is treated as exactly zero
_NESTED_MAX_EVALS = 1_000_000  # outer and total inner budget of ear_esjd
_POINT_MAX_EVALS = 1_000_000  # budget of each table-route curve point


class EngineError(RuntimeError):
    """A quadrature failure or a violated internal consistency check."""


def closed_form_gaussian_1d(lam: float) -> tuple[float, float]:
    """EAR and ESJD for standard-Gaussian target and Gaussian proposal, d = 1."""
    lam = _checked_positive(lam, "lambda")
    t = np.arctan(2.0 / lam)
    ear_v = (2.0 / np.pi) * t
    esjd_v = (2.0 * lam * lam / np.pi) * (t - 2.0 * lam / (lam * lam + 4.0))
    return float(ear_v), float(esjd_v)


def closed_form_laplace_1d(lam: float) -> tuple[float, float]:
    """EAR and ESJD for double-exponential target and proposal, d = 1."""
    lam = _checked_positive(lam, "lambda")
    ear_v = 2.0 / (lam + 2.0)
    esjd_v = 16.0 * lam * lam / (lam + 2.0) ** 3
    return float(ear_v), float(esjd_v)


def marginal_cdf(model: RadialModel, x1: float) -> float:
    """CDF of one coordinate of the spherically symmetric law, by quadrature.

    Uses the projection identity F_{1|d}(x1) = 1 - W(|x1|)/2 (x1 >= 0) with
    W the two-sided tail weight; absolute error well below 1e-10.
    """
    x1 = float(x1)
    z = abs(x1)
    if z == 0.0:
        return 0.5
    w, _, _ = _tail_weight_many(model, np.array([z]), epsabs=1e-12)
    half_w = 0.5 * min(float(w[0]), 2.0)
    return half_w if x1 < 0.0 else 1.0 - half_w


def _tail_weight_many(model: RadialModel, z: np.ndarray, *, epsabs=1e-14,
                      epsrel=1e-11, max_evals: int = 20_000_000):
    """W(z) = 2 F_{1|d}(-z) for a batch of z >= 0, by stacked quadrature.

    W(z) = int_z^inf fbar(x) K_d(z/x) dx, evaluated in the substituted
    variable x = z + u^2: at d = 2 the kernel has a square-root singularity
    at x = z that defeats plain bisection, and the substitution makes the
    integrand smooth there for every d.
    """
    d = model.d
    z = np.asarray(z, dtype=float)

    def integrand(u, idx):
        zi = z[idx]
        x = zi + u * u
        with np.errstate(divide="ignore", invalid="ignore"):
            arg = np.where(x > 0.0, zi / x, np.inf)
        return 2.0 * u * model.radial_pdf(x) * kernel_K(d, np.minimum(arg, 1.0))

    x_lo = np.maximum(z, model.r_lo)
    lo = np.sqrt(np.maximum(x_lo - z, 0.0))
    hi = np.sqrt(np.maximum(model.r_hi - z, 0.0))
    qs = model.breakpoints()
    x_pts = np.concatenate([
        np.column_stack([1.0009765625 * z, 1.02 * z, 1.2 * z, 2.0 * z, 4.0 * z]),
        np.broadcast_to(qs, (z.size, qs.size)),
    ], axis=1)
    pts = np.sqrt(np.clip(x_pts - z[:, None], 0.0, None))
    vals, errs, n = stacked_quad(integrand, lo, hi, epsabs=epsabs,
                                 epsrel=epsrel, points=pts,
                                 max_evals=max_evals)
    return np.clip(vals, 0.0, None), errs, n


class MarginalTable:
    """Tabulated W(z) = 2 F_{1|d}(-z) with splined log W.

    Built once per target model; evaluation is then vectorized and cheap.
    ``max_interp_rel_err`` records the measured interpolation error at panel
    midpoints (a certificate, not an estimate), in the scale-aware sense
    |error| / max(W, w_floor): relative wherever W >= w_floor and absolute
    (in units of w_floor) in the deep tail, where log W has a power-law
    singularity at the truncation radius that no spline tracks in relative
    terms and whose contribution to any curve integral is bounded by w_floor.
    ``certified`` says whether it met ``rel_tol``; when it did not, curve
    points read from the table carry a message (their error bars already
    include the certificate).

    The build computes each W value by quadrature once.  W is evaluated at
    about 800 initial knots (uniform and geometric grids over the quantiles,
    plus the model's breakpoints), and log W is splined through them.  Each
    round then checks the spline at the midpoint of every knot interval
    against W there; only midpoints not seen in an earlier round (those of
    intervals split in the round before) need a new quadrature.  Midpoints
    that miss ``rel_tol`` become knots, carrying the W already computed for
    them, and the spline is refitted, for at most ``max_rounds`` rounds.
    """

    rel_tol = 3e-9
    w_floor = 1e-10

    def __init__(self, model: RadialModel, *, max_rounds: int = 12):
        self.model = model
        q999 = float(model.quantile(0.999))
        q_small = float(model.quantile(1e-4))
        knots = np.unique(np.concatenate([
            [0.0],
            np.linspace(0.0, q999, 321)[1:],
            np.geomspace(max(model.r_lo, q_small * 1e-4), q999, 181),
            np.geomspace(q999, model.r_hi, 201),
            model.breakpoints(),
        ]))
        knots = knots[knots <= model.r_hi]
        w_vals, _, _ = _tail_weight_many(model, knots)
        # Every midpoint W computed so far, sorted by z.
        seen_z = seen_w = np.empty(0)
        self.max_interp_rel_err = np.inf
        for _ in range(max_rounds):
            knots, w_vals = self._fit(knots, w_vals)
            mids = 0.5 * (knots[:-1] + knots[1:])
            mids = mids[mids < self._z_last]
            new = mids[~np.isin(mids, seen_z)]
            if new.size:
                w_new, _, _ = _tail_weight_many(model, new)
                seen_z = np.concatenate([seen_z, new])
                seen_w = np.concatenate([seen_w, w_new])
                order = np.argsort(seen_z)
                seen_z, seen_w = seen_z[order], seen_w[order]
            w_true = seen_w[np.searchsorted(seen_z, mids)]
            rel = np.abs(self.w(mids) - w_true) / np.maximum(w_true, self.w_floor)
            self.max_interp_rel_err = float(rel.max()) if rel.size else 0.0
            if self.max_interp_rel_err <= self.rel_tol:
                break
            bad = rel > self.rel_tol
            knots = np.concatenate([knots, mids[bad]])
            w_vals = np.concatenate([w_vals, w_true[bad]])
            order = np.argsort(knots)
            knots, w_vals = knots[order], w_vals[order]
        self.certified = self.max_interp_rel_err <= self.rel_tol

    def _fit(self, knots, w_vals):
        """Spline log W through the knots, made non-increasing and cut after
        the last one above exp(_LOG_FLOOR); returns the knots kept and their
        W as given."""
        w_mono = np.minimum.accumulate(np.clip(w_vals, 0.0, None))
        last = int(np.nonzero(w_mono > np.exp(_LOG_FLOOR))[0][-1])
        self._z = knots = knots[:last + 1]
        self._logw = np.log(w_mono[:last + 1])
        self._spline = CubicSpline(knots, self._logw)
        self._z_last = knots[-1]
        return knots, w_vals[:last + 1]

    def w(self, z):
        """Vectorized W(z); exact zero beyond the tabulated support."""
        z = np.asarray(z, dtype=float)
        out = np.zeros(z.shape)
        inside = z < self._z_last
        if np.any(inside):
            out[inside] = np.exp(self._spline(z[inside]))
        out = np.where(z <= 0.0, 1.0, out)
        return out if out.ndim else float(out)


def get_marginal_table(model: RadialModel) -> MarginalTable:
    """The model's W table: built on first use and kept on the model, so it
    lives exactly as long as the model does."""
    cache = vars(model)
    if "_marginal_table" not in cache:
        cache["_marginal_table"] = MarginalTable(model)
    return cache["_marginal_table"]


def ear_esjd(target: RadialModel, proposal: RadialModel, lam: float):
    """EAR and ESJD at one scale by nested adaptive quadrature.

    Outer integral over the proposal radius y, inner over the target radius x
    from lambda y / 2 to the target truncation, with seeded splits at
    x = lambda y / 2 and x = lambda y.  Returns (ear, esjd, ear_err,
    esjd_err).  Raises EngineError if the evaluation budget is exhausted.
    """
    lam = _checked_positive(lam, "lambda")
    _check_dimensions(target, proposal)
    budget = [_NESTED_MAX_EVALS]

    def inner(y_nodes):
        z = 0.5 * lam * y_nodes
        vals, _, n = _tail_weight_many(target, z, epsabs=1e-13, epsrel=3e-11,
                                       max_evals=budget[0])
        budget[0] -= n
        if budget[0] <= 0:
            raise QuadratureError("inner-integral budget exhausted")
        return vals

    y_hi = min(proposal.r_hi, 2.0 * target.r_hi / lam)
    if y_hi <= proposal.r_lo:
        return 0.0, 0.0, 0.0, 0.0

    def outer(y):
        w = inner(y)
        base = proposal.radial_pdf(y) * w
        return np.stack([base, lam * lam * y * y * base], axis=-1)

    pts = np.concatenate([proposal.breakpoints(),
                          (2.0 / lam) * target.breakpoints()])
    try:
        res = adaptive_quad(outer, proposal.r_lo, y_hi, epsabs=1e-9,
                            points=pts, max_evals=_NESTED_MAX_EVALS)
    except QuadratureError as exc:
        raise EngineError(f"nested quadrature failed at lambda={lam}: {exc}") from exc
    value = np.asarray(res.value)
    err = np.broadcast_to(np.asarray(res.error), (2,))
    return float(value[0]), float(value[1]), float(err[0]), float(err[1])


@dataclass
class CurvePoint:
    lam: float
    ear: float
    esjd: float
    ear_err: float
    esjd_err: float
    ok: bool = True
    message: str = ""


def _table_points(table: MarginalTable, proposal: RadialModel,
                  lams: np.ndarray) -> list[CurvePoint]:
    """Curve points at every lambda through the tabulated-W route, as one
    stacked integral: item i is the integral over the proposal radius y of
    rbar(y) W(lam_i y / 2) and of lam_i^2 y^2 times it, with its own
    budget, so a failure flags only its own point."""
    target = table.model
    _check_dimensions(target, proposal)
    y_hi = np.minimum(proposal.r_hi, 2.0 * target.r_hi / lams)
    active = y_hi > proposal.r_lo  # the others are exact zero points
    points = [CurvePoint(float(lam), 0.0, 0.0, 0.0, 0.0) for lam in lams]
    if not active.any():
        return points
    lam = lams[active]

    def f(y, i):
        li = lam[i]
        base = proposal.radial_pdf(y) * table.w(0.5 * li * y)
        return np.stack([base, li * li * y * y * base], axis=-1)

    pts = np.column_stack([np.tile(proposal.breakpoints(), (lam.size, 1)),
                           (2.0 / lam)[:, None] * target.breakpoints()])
    try:
        values, errors, _ = stacked_quad(
            f, np.full(lam.size, proposal.r_lo), y_hi[active], epsabs=2e-10,
            points=pts, max_evals=np.full(lam.size, _POINT_MAX_EVALS))
        failures = {}
    except QuadratureError as exc:
        (values, errors, _), failures = exc.result, exc.failures
    # |dW| <= cert * (W + w_floor) pointwise, integrated against the
    # proposal radial density and lam^2 y^2 times it respectively.
    cert = table.max_interp_rel_err
    floor = table.w_floor
    ear_err = errors + cert * (np.abs(values[:, 0]) + floor)
    esjd_err = errors + cert * (np.abs(values[:, 1])
                                + lam * lam * proposal.moment(2) * floor)
    message = "" if table.certified else (
        f"W table certificate {cert:.3g} above its target {table.rel_tol:.3g}")
    for j, i in enumerate(np.nonzero(active)[0]):
        if j in failures:
            points[i] = CurvePoint(points[i].lam, np.nan, np.nan, np.nan,
                                   np.nan, ok=False, message=failures[j])
        else:
            points[i] = CurvePoint(points[i].lam, float(values[j, 0]),
                                   float(values[j, 1]), float(ear_err[j]),
                                   float(esjd_err[j]), message=message)
    return points


def table_point(table: MarginalTable, proposal: RadialModel, lam: float) -> CurvePoint:
    """One curve point through the tabulated-W route: the one-lambda case
    of curve's stacked integral."""
    return _table_points(table, proposal,
                         np.array([_checked_positive(lam, "lambda")]))[0]


def _sampled_ear_esjd(target: RadialModel, lam: float, radii: np.ndarray):
    """EAR and ESJD averaged over draws r of the proposal radius: the means
    and standard errors of W(lam r / 2), clipped at 2, and of lam^2 r^2 W,
    with W from the target's table.  Returns (ear, ear_se, esjd, esjd_se)."""
    tail = np.minimum(get_marginal_table(target).w(0.5 * lam * radii), 2.0)
    out = []
    for draws in (tail, lam * lam * radii * radii * tail):
        out += [float(draws.mean()), float(draws.std(ddof=1) / np.sqrt(draws.size))]
    return tuple(out)


def _check_dimensions(target: RadialModel, proposal: RadialModel) -> None:
    """ValueError unless target and proposal share a dimension."""
    if target.d != proposal.d:
        raise ValueError("target and proposal dimensions differ")


def curve(target: RadialModel, proposal: RadialModel, lambdas, *,
          method: str = "table") -> list[CurvePoint]:
    """EAR/ESJD along a grid of scales; per-point failures are flagged, not fatal.

    lambdas must be a 1-d sequence of finite positive scales, and target and
    proposal must share a dimension (else ValueError).  The table route
    integrates the whole grid as one stacked integral; the nested route
    takes one lambda at a time.  The computed acceptance rates are checked
    to be non-increasing in lambda (a structural property of the exact
    integrals); violation beyond the numerical tolerance raises EngineError.
    """
    lambdas = _checked_positive(lambdas, "lambda values")
    if np.ndim(lambdas) != 1:
        raise ValueError("lambda values must form a 1-d sequence")
    if method == "table":
        points = _table_points(get_marginal_table(target), proposal, lambdas)
    elif method == "nested":
        points = []
        for lam in lambdas:
            try:
                points.append(CurvePoint(float(lam), *ear_esjd(target, proposal, lam)))
            except EngineError as exc:
                points.append(CurvePoint(float(lam), np.nan, np.nan, np.nan,
                                         np.nan, ok=False, message=str(exc)))
    else:
        raise ValueError(f"unknown method {method!r}")

    good = [(p.lam, p.ear) for p in points if p.ok]
    good.sort()
    ears = np.array([e for _, e in good])
    if ears.size >= 2:
        rise = np.diff(ears)
        slack = 1e-7 + 1e-7 * ears[:-1]
        if np.any(rise > slack):
            i = int(np.argmax(rise - slack))
            raise EngineError(
                f"acceptance rate increased with lambda near lambda={good[i][0]:.6g}"
                " (numerical consistency violation)")
    return points
