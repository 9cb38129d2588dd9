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
  double integral, f K_d through kernel_K (absolute error <= 1e-8; raises
  on budget exhaustion);
* the table route, behind curve, table_point and the optimizer: a per-target
  table of W (built once by stacked adaptive quadrature of an integrand
  written apart, in log space, and kept on the target model, interpolated as
  a cubic spline of log W with a measured midpoint-error certificate).  A
  geometric lambda grid, curve's or the optimizer's, is then one log-space
  correlation of W (_log_grid_points), with a bar at each point; any other
  grid is one stacked 1-d integral over the proposal radius, one item per
  lambda, each with its own evaluation budget and failure flag, and
  table_point is its one-lambda case.  Table and nested routes, so
  independent code, agree to < 1e-7 by test.  Every quadrature over a
  radial law, inner and outer, seeds at that law's RadialModel.breakpoints()
  and nowhere else, the package's one seed rule; in the outer integral the
  target's are scaled by 2/lambda.

The sampled estimate is the outer integral done by Monte Carlo over draws
of the proposal radius (of |Y_*| for an elliptical target), with W from the
table; it serves both Monte Carlo oracles, mc_expectation and
elliptical_ear_esjd.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cubic import PiecewiseCubic
from .quadrature import QuadratureError, adaptive_quad, stacked_quad
from .special import _checked_count, _checked_positive, _log_x_kernel, kernel_K
from .targets import _TRUNC_TAIL, RadialModel, sample_radius

__all__ = [
    "EngineError", "CurvePoint", "MCExpectation", "MarginalTable",
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


def _tail_weight_many(model: RadialModel, z: np.ndarray, *, epsabs: float,
                      epsrel: float, max_evals: int = 20_000_000, literal=False):
    """W(z) = 2 F_{1|d}(-z) for a batch of z >= 0, by stacked quadrature to
    max(epsabs, epsrel W), both from the caller (the table's 0.1 rel_tol
    max(W, w_floor), the nested route's max(1e-13, 3e-11 W)), seeded at the
    model's breakpoints() alone.

    W(z) = int_z^inf fbar(x) K_d(z/x) dx, evaluated in the substituted
    variable x = z + u^2: at d = 2 the kernel has a square-root singularity
    at x = z that defeats plain bisection, and the substitution makes the
    integrand smooth there for every d, so x = z needs no seeds of its own.

    The table's integrand is 2u exp(log(x^(d-1) K_d(z/x)) + log pi(x) -
    log_norm), with x^2 - z^2 = u^2 (2z + u^2) exact and K_d's excess g_d read
    from its cubic table (special._log_x_kernel), x and z in units of the
    median radius s so no term of size d log x rounds near the mass.
    ``literal`` gives the nested route its own 2u fbar(x) K_d(z/x) through
    kernel_K, which sums g_d's Chebyshev series, so the routes check each other.
    """
    d = model.d
    z = np.asarray(z, dtype=float)
    s = float(model.quantile(0.5))
    log_c = model.log_norm - (d - 1) * np.log(s)

    def literal_form(u, idx):  # x > 0: where z = 0, u starts at sqrt(r_lo)
        zi = z[idx]
        x = zi + u * u
        return 2.0 * u * model.radial_pdf(x) * kernel_K(d, np.minimum(zi / x, 1.0))

    def fused_form(u, idx):
        zi, gap = z[idx], u * u
        out = _log_x_kernel(d, zi / s, gap / s)
        gap += zi  # x, in place like the rest
        out += model.log_pi(gap)
        out -= log_c
        np.exp(out, out=out)
        out *= 2.0 * u
        return out

    x_lo = np.maximum(z, model.r_lo)
    lo = np.sqrt(np.maximum(x_lo - z, 0.0))
    hi = np.sqrt(np.maximum(model.r_hi - z, 0.0))
    pts = np.sqrt(np.clip(model.breakpoints() - z[:, None], 0.0, None))
    vals, errs, n = stacked_quad(literal_form if literal else fused_form, lo, hi,
                                 epsabs=epsabs, epsrel=epsrel, points=pts,
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

    The build computes each W value by quadrature once, to an error of
    0.1 rel_tol max(W, w_floor), a tenth of what the certificate allows there.
    W is evaluated at about 530 initial knots (321 uniform from 0 to the
    0.999 quantile, 201 geometric from there to r_hi, and the model's
    breakpoints), and log W is splined through them.  Each round then
    checks the spline at the midpoint of every knot interval against W
    there; only midpoints not seen in an earlier round (those of intervals
    split in the round before) need a new quadrature.  Midpoints that miss
    ``rel_tol`` become knots, carrying the W already computed for them, and
    the spline is refitted, for at most ``max_rounds`` rounds; so the
    certificate, not a fixed grid, places the knots below the bulk.
    """

    rel_tol = 3e-9
    w_floor = 1e-10
    max_rounds = 20

    def __init__(self, model: RadialModel):
        self.model = model
        q999 = float(model.quantile(0.999))
        knots = np.unique(np.concatenate([
            np.linspace(0.0, q999, 321),
            np.geomspace(q999, model.r_hi, 201),
            model.breakpoints(),
        ]))
        knots = knots[knots <= model.r_hi]
        tol = {"epsabs": 0.1 * self.rel_tol * self.w_floor, "epsrel": 0.1 * self.rel_tol}
        w_vals, _, _ = _tail_weight_many(model, knots, **tol)
        # Every midpoint W computed so far, sorted by z.
        seen_z = seen_w = np.empty(0)
        self.max_interp_rel_err = np.inf
        for _ in range(self.max_rounds):
            knots, w_vals = self._fit(knots, w_vals)
            mids = 0.5 * (knots[:-1] + knots[1:])
            new = mids[~np.isin(mids, seen_z)]
            if new.size:
                w_new, _, _ = _tail_weight_many(model, new, **tol)
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
        self._message = "" if self.certified else (  # on every curve point read from it
            f"W table certificate {self.max_interp_rel_err:.3g} above its target "
            f"{self.rel_tol:.3g}")

    def _fit(self, knots, w_vals):
        """Spline log W through the knots, made non-increasing and cut after
        the last one above exp(_LOG_FLOOR); returns the knots kept and their
        W as given."""
        w_mono = np.minimum.accumulate(np.clip(w_vals, 0.0, None))
        last = int(np.nonzero(w_mono > np.exp(_LOG_FLOOR))[0][-1])
        knots = knots[:last + 1]
        self._spline = PiecewiseCubic(knots, np.log(w_mono[:last + 1]), "not-a-knot")
        self._z_last = knots[-1]
        return knots, w_vals[:last + 1]

    def w(self, z):
        """W(z), vectorized: 1 at z <= 0, 0 from the last knot on, NaN at NaN."""
        z = np.asarray(z, dtype=float)
        out = self._spline(z)  # clamped into [0, z_last]
        np.exp(out, out=out)
        out[z <= 0.0] = 1.0
        out[z >= self._z_last] = 0.0
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

    Outer integral over the proposal radius y, seeded by _outer_seeds, of
    the inner one, W(lambda y / 2) by _tail_weight_many's literal integrand.
    Returns (ear, esjd, ear_err, esjd_err), errors counting both quadratures
    and both truncations; raises EngineError if the budget is exhausted.
    """
    lam = _checked_positive(lam, "lambda")
    _check_dimensions(target, proposal)
    budget = [_NESTED_MAX_EVALS]
    w_err = [0.0]  # the largest inner error estimate

    def inner(y_nodes):
        z = 0.5 * lam * y_nodes
        vals, errs, n = _tail_weight_many(target, z, epsabs=1e-13, epsrel=3e-11,
                                          max_evals=budget[0], literal=True)
        budget[0] -= n
        if budget[0] <= 0:
            raise QuadratureError("inner-integral budget exhausted")
        w_err[0] = max(w_err[0], float(errs.max(initial=0.0)))
        return vals

    y_hi = min(proposal.r_hi, 2.0 * target.r_hi / lam)
    if y_hi <= proposal.r_lo:  # only the two cuts' mass is left
        return (0.0, 0.0, *map(float, _cut_errors(target, proposal, lam, 0.0)))

    def outer(y):
        base = proposal.radial_pdf(y) * inner(y)
        return np.stack([base, lam * lam * y * y * base], axis=-1)

    pts = _outer_seeds(target, proposal, np.array([lam]))
    try:
        res = adaptive_quad(outer, proposal.r_lo, y_hi, epsabs=1e-9,
                            points=pts, max_evals=_NESTED_MAX_EVALS)
    except QuadratureError as exc:
        raise EngineError(f"nested quadrature failed at lambda={lam}: {exc}") from exc
    value = np.asarray(res.value)
    err = np.asarray(res.error) + _cut_errors(target, proposal, lam, w_err[0])
    return float(value[0]), float(value[1]), float(err[0]), float(err[1])


def _outer_seeds(target: RadialModel, proposal: RadialModel, lams: np.ndarray):
    """The outer integral's seeds in y, one row per lambda: each law's
    breakpoints(), the target's times 2/lambda."""
    return np.column_stack([np.tile(proposal.breakpoints(), (lams.size, 1)),
                            np.outer(2.0 / lams, target.breakpoints())])


def _cut_errors(target: RadialModel, proposal: RadialModel, lam, w_err):
    """EAR and ESJD errors from an absolute error w_err on W and from the two
    cuts, each past _TRUNC_TAIL of a law's mass: W misses the target's past its
    r_hi, and the outer integral the proposal's, where W <= 1 and, by
    Chebyshev's inequality on one coordinate, y^2 W(lam y / 2) <= 4 E|X|^2 / (d lam^2)."""
    w_err = w_err + _TRUNC_TAIL
    return (w_err + _TRUNC_TAIL, lam * lam * proposal.moment(2) * w_err
            + 4.0 * _TRUNC_TAIL * target.moment(2) / target.d)


@dataclass(slots=True)
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
    active = y_hi > proposal.r_lo
    points = [None] * lams.size
    for i in np.nonzero(~active)[0]:  # zero but for the cuts
        points[i] = CurvePoint(float(lams[i]), 0.0, 0.0, *map(
            float, _cut_errors(target, proposal, float(lams[i]), 0.0)))
    if not active.any():
        return points
    lam = lams[active]

    def f(y, i):
        li = lam[i]
        base = proposal.radial_pdf(y) * table.w(0.5 * li * y)
        return np.stack([base, li * li * y * y * base], axis=-1)

    pts = _outer_seeds(target, proposal, lam)
    try:
        values, errors, _ = stacked_quad(
            f, np.full(lam.size, proposal.r_lo), y_hi[active], epsabs=2e-10,
            points=pts, max_evals=np.full(lam.size, _POINT_MAX_EVALS))
        failures = {}
    except QuadratureError as exc:
        (values, errors, _), failures = exc.result, exc.failures
    # |dW| <= cert * (W + w_floor) pointwise, plus the cuts.
    cert = table.max_interp_rel_err
    cut = _cut_errors(target, proposal, lam, cert * table.w_floor)
    ear_err, esjd_err = (errors + cert * np.abs(values[:, i]) + cut[i] for i in (0, 1))
    for j, i in enumerate(np.nonzero(active)[0]):
        points[i] = (CurvePoint(float(lam[j]), np.nan, np.nan, np.nan, np.nan,
                                ok=False, message=failures[j]) if j in failures else
                     CurvePoint(float(lam[j]), float(values[j, 0]), float(values[j, 1]),
                                float(ear_err[j]), float(esjd_err[j]), message=table._message))
    return points


def _log_nodes(proposal: RadialModel, h: float, m: int):
    """Trapezoid nodes y_k = r_lo e^(k h / m) past r_hi, weights g_k: int rbar F ~ sum g_k F."""
    n_q = int(np.ceil(np.log(proposal.r_hi / proposal.r_lo) / h)) + 1
    y = proposal.r_lo * np.exp(np.arange(n_q * m) * (h / m))
    g = proposal.radial_pdf(y) * y * (h / m)
    g[[0, -1]] *= 0.5
    return y, g


def _log_grid_pass(table: MarginalTable, proposal: RadialModel, lams: np.ndarray, m: int):
    """EAR and ESJD on a geometric lambda grid of log step h: EAR = int rbar(e^s) e^s
    W(e^(t + s) / 2) ds, s = log y, t = log lambda, is a correlation, so one W vector
    serves every lambda; _log_nodes' sum at step h / m, by np.correlate."""
    h = np.log(lams[-1] / lams[0]) / (lams.size - 1)
    y, g = _log_nodes(proposal, h, m)
    u = np.arange((lams.size - 1) * m + y.size) * (h / m)
    w = table.w(0.5 * lams[0] * proposal.r_lo * np.exp(u)).reshape(-1, m)
    ear, esjd = (sum(np.correlate(w[:, r], f[r::m], "valid") for r in range(m))
                 for f in (g, g * y * y))
    return ear, lams * lams * esjd


def _log_grid_points(table: MarginalTable, proposal: RadialModel, lams: np.ndarray):
    """(ear, esjd, m, ear_err, esjd_err), m doubling from 2 until the ESJD at m / 2 and
    m agree to 1e-10 of its maximum; None, for the stacked route, if not by m = 64 or if
    _ear_rise.  A bar is |v_m - v_(m/2)|, floored by n eps |v| (the rounding of n terms
    >= 0), plus _table_points' cert |v| and _cut_errors."""
    _check_dimensions(table.model, proposal)
    steps = np.log(proposal.r_hi / proposal.r_lo) * (lams.size - 1) / np.log(lams[-1] / lams[0])
    if steps > 2048:
        return None  # a proposal over 2048 grid steps wide: 2^17 s nodes at m = 64
    vals = _log_grid_pass(table, proposal, lams, 2)
    for m in (4, 8, 16, 32, 64):
        prev, vals = vals, _log_grid_pass(table, proposal, lams, m)
        if np.abs(vals[1] - prev[1]).max() <= 1e-10 * vals[1].max():
            cert, n_eps = table.max_interp_rel_err, (steps + 2.0) * m * np.finfo(float).eps
            cut = _cut_errors(table.model, proposal, lams, cert * table.w_floor)
            return None if _ear_rise(vals[0]) is not None else (*vals, m, *(
                np.maximum(np.abs(v - p), n_eps * np.abs(v)) + cert * np.abs(v) + c
                for v, p, c in zip(vals, prev, cut)))
    return None


def table_point(table: MarginalTable, proposal: RadialModel, lam: float) -> CurvePoint:
    """One curve point through the tabulated-W route: the one-lambda case
    of curve's stacked integral."""
    return _table_points(table, proposal,
                         np.array([_checked_positive(lam, "lambda")]))[0]


@dataclass(frozen=True)
class MCExpectation:
    """Monte Carlo estimate of the acceptance/jump expectations."""

    ear: float
    ear_se: float
    esjd: float
    esjd_se: float
    n_samples: int
    seed: int


_NORMAL_BLOCK = 2 ** 18  # most standard normals held at once for directions


def _sampled_expectation(core: RadialModel, proposal: RadialModel, lam: float,
                         n: int, seed: int, nus=None) -> MCExpectation:
    """EAR and ESJD with the outer integral over the proposal radius done by
    Monte Carlo: means and standard errors of W(lam r / 2), from the core's
    table, and of lam^2 r^2 W over n draws r.  One Generator seeded with
    ``seed`` draws the proposal radii first; given eigenvalues ``nus`` (an
    elliptical target), each is then multiplied by |nu . U| for a uniform
    direction U, drawn in blocks of at most _NORMAL_BLOCK normals so memory
    does not grow with d."""
    lam = _checked_positive(lam, "lambda")
    seed = _checked_count(seed, "seed", 0)
    _check_dimensions(core, proposal)
    rng = np.random.default_rng(seed)
    radii = sample_radius(proposal, n, rng)
    if nus is not None:
        rows = max(1, _NORMAL_BLOCK // nus.size)
        for i in range(0, n, rows):
            z = rng.standard_normal((min(rows, n - i), nus.size))
            radii[i:i + rows] *= (np.linalg.norm(z * nus, axis=1)
                                  / np.linalg.norm(z, axis=1))
    tail = get_marginal_table(core).w(0.5 * lam * radii)
    out = []
    for draws in (tail, lam * lam * radii * radii * tail):
        out += [float(draws.mean()), float(draws.std(ddof=1) / np.sqrt(draws.size))]
    return MCExpectation(*out, n_samples=n, seed=seed)


def _check_dimensions(target: RadialModel, proposal: RadialModel) -> None:
    """ValueError unless target and proposal share a dimension."""
    if target.d != proposal.d:
        raise ValueError("target and proposal dimensions differ")


def curve(target: RadialModel, proposal: RadialModel, lambdas, *,
          method: str = "table") -> list[CurvePoint]:
    """EAR/ESJD along a grid of scales, each point with its error bar.

    lambdas must be a 1-d sequence of finite positive scales, and target and
    proposal must share a dimension (else ValueError).  The table route reads
    a geometric grid (log steps equal to 1e-12 relative) as one log-space
    correlation of W, else, or if that does not converge, as one stacked
    integral whose failed points are flagged alone; the nested route goes one
    lambda at a time.  EAR rising with lambda beyond the numerical tolerance
    (the exact integrals cannot) raises EngineError.
    """
    lambdas = _checked_positive(lambdas, "lambda values")
    if np.ndim(lambdas) != 1:
        raise ValueError("lambda values must form a 1-d sequence")
    if method == "table":
        table = get_marginal_table(target)
        steps = np.diff(np.log(lambdas))
        if (steps.size and steps.min() > 0.0 and np.ptp(steps) <= 1e-12 * steps.min()
                and (fast := _log_grid_points(table, proposal, lambdas)) is not None):
            ear, esjd, _, ear_err, esjd_err = fast  # EAR checked there
            rows = np.column_stack([lambdas, ear, esjd, ear_err, esjd_err]).tolist()
            return [CurvePoint(*row, message=table._message) for row in rows]
        points = _table_points(table, proposal, lambdas)
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
    return _ear_checked(points)


def _ear_checked(points: list[CurvePoint]) -> list[CurvePoint]:
    """The points, once their EAR is checked not to rise with lambda (EngineError)."""
    good = sorted((p.lam, p.ear) for p in points if p.ok)
    if (i := _ear_rise(np.array([e for _, e in good]))) is not None:
        raise EngineError(f"acceptance rate increased with lambda near lambda={good[i][0]:.6g}"
                          " (numerical consistency violation)")
    return points


def _ear_rise(ears: np.ndarray) -> int | None:
    """Where EAR, in increasing lambda, rises most past 1e-7 + 1e-7 EAR, or None."""
    excess = np.diff(ears) - (1e-7 + 1e-7 * ears[:-1])
    return int(np.argmax(excess)) if np.any(excess > 0.0) else None
