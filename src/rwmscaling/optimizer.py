"""Locate proposal scales that maximize expected squared jump distance.

Every ESJD value comes from the target's W table.  A fixed log-spaced grid
of 512 points over the search range, one log-space correlation of W
(engine._log_grid_points, else the stacked engine._table_points), brackets
every interior local maximum; Chebyshev fits in log(lambda) polish all
brackets at once on its trapezoid sum (else stacked quadrature), and only
each polished scale, read alone (engine.table_point), is reported.  The
global optimum breaks ties toward the smaller scale and carries the table's
message when the table missed its certificate.  default_search_range is the
one rule for where to search: a dimension sweep is optimize with that
default window at each dimension, and a drift diagnostic classifies how the
optimal transformed scale behaves as dimension grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from .asymptotics import (aos, mixing_from_spec, solve_aots, transformed_scale,
                          POINT_MASS_MU_HAT)
from .engine import (EngineError, _ear_checked, _log_grid_points, _log_nodes,
                     _table_points, get_marginal_table, table_point)
from .quadrature import QuadratureError
from .special import _checked_dimension_list, _checked_positive
from .targets import RadialModel, _parse_pair, parse_target_spec

__all__ = [
    "OptimizerError",
    "LocalMaximum",
    "ScalingOptimum",
    "SweepRow",
    "DimensionSweep",
    "DriftReport",
    "default_search_range",
    "optimize",
    "sweep_dimension",
    "peak_drift_diagnostic",
]

_GRID = 512  # scales in the bracketing grid
_REL_TOL = 1e-5  # a polished peak beats its neighbours at log(lambda) +- this
_TIE_REL = 1e-6  # maxima within this relative ESJD of the best tie with it
_POLISH_ROUNDS = 8  # each round's failed peaks narrow fourfold and retry


class OptimizerError(RuntimeError):
    """Raised when no trustworthy interior maximum can be reported."""


@dataclass(frozen=True)
class LocalMaximum:
    """One interior local maximum of the ESJD curve."""

    lam: float
    ear: float
    esjd: float


@dataclass(frozen=True)
class ScalingOptimum:
    """Global ESJD optimum plus every detected local maximum.

    ``lambda_hat`` is always a member of ``local_maxima``; when several
    maxima agree in ESJD to the tie tolerance the smallest scale is the
    canonical answer.  ``message`` is the champion point's: non-empty when
    the W table behind it missed its certificate.  ``lambda_err`` is lambda_hat
    (sqrt(2 esjd_err / |ESJD_tt|) + 1e-5): the log-scale shift that drops ESJD by
    its error bar, plus the polish tolerance; inf where the fit is not concave.
    """

    lambda_hat: float
    ear_hat: float
    esjd_hat: float
    local_maxima: tuple[LocalMaximum, ...]
    canonical_rule: str = "smallest-lambda-among-argmax"
    message: str = ""
    lambda_err: float = np.inf

    @property
    def n_local_maxima(self) -> int:
        return len(self.local_maxima)


def default_search_range(target: RadialModel,
                         proposal: RadialModel) -> tuple[float, float]:
    """A search window centred on the asymptotic point-mass prediction
    2 mu_hat k_x / (sqrt(d) k_y) when the radial scales are known, spanning
    three decades each way.  A mixture's wide component (scale d) peaks
    near d times the centre, so its top reaches at least 3 d times it."""
    center = 1.0
    if target.k is not None and proposal.k is not None:
        center = aos(POINT_MASS_MU_HAT, target.k, proposal.k, target.d)
    span = 1e3
    top = max(span, 3.0 * target.d) if target.family == "mixture" else span
    return center / span, center * top


def _settled_sum(table, proposal, h, t):
    """(ESJD as a function of t, its values at t): lam^2 sum_k g_k y_k^2 W(lam y_k / 2) on
    engine._log_nodes, m doubling until it meets m / 2's (its even nodes) to 1e-10 of its
    maximum at t, or None if not by m = 64.  End nodes under 1e-16 of the summed weight
    are dropped, which moves ESJD by less than that share, as W <= 1."""
    for m in (4, 8, 16, 32, 64):
        y, g = _log_nodes(proposal, h, m)
        g *= y * y
        c = np.cumsum(g)
        keep = np.nonzero((c >= 1e-16 * c[-1]) & (c[-1] - c + g >= 1e-16 * c[-1]))[0]
        coarse, even = np.r_[2.0 * g[:-2:2], g[-2]], keep % 2 == 0  # m / 2's weights
        y, g = y[keep], g[keep]
        w = table.w(0.5 * np.exp(t)[..., None] * y) * np.exp(2.0 * t)[..., None]
        if np.abs((f := w @ g) - w[..., even] @ coarse[keep[even] // 2]).max() <= 1e-10 * f.max():
            return lambda t: np.exp(2.0 * t) * (table.w(0.5 * np.exp(t)[..., None] * y) @ g), f


def _polish(table, proposal, h, lo, hi, seen_t, seen_s):
    """Maximize ESJD over t = log(lambda) in every bracket [lo, hi] at once.

    ESJD is _settled_sum's, else (unsettled) one stacked call a read.  A round
    fits each open bracket's Chebyshev interpolant, runs Newton on its
    derivative from the best node, and reads each fit's t* and t* +- _REL_TOL.
    A peak is done when t* beats its neighbours, the nodes and the best point
    seen (seen_t, seen_s, updated in place; the grid point at first); else its
    bracket shrinks fourfold about that point.  Returns seen_t and each peak's
    ESJD_tt at its last fit's t*.
    """
    def stacked(t):  # failed points read 0, below any interior maximum
        pts = _table_points(table, proposal, np.exp(t.ravel()))
        return np.array([p.esjd if p.ok else 0.0 for p in pts]).reshape(t.shape)

    # to_coef @ f(nodes) = interpolant coefficients, der @ them the derivative's (not
    # der @ to_coef, which mixes the constant's rounding in); made here, not at import
    nodes, deg = np.cos(np.pi * (np.arange(9) + 0.5) / 9), np.arange(9)[:, None]
    to_coef = chebvander(nodes, 8).T * np.r_[1.0, [2.0] * 8][:, None] / 9
    der = np.where((deg.T > deg) & ((deg.T - deg) % 2 == 1), (2 - (deg == 0)) * deg.T, 0.0)
    mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    curv, todo = np.zeros(mid.size), np.arange(mid.size)
    t = mid + half * nodes[:, None]
    esjd, f = _settled_sum(table, proposal, h, t) or (stacked, stacked(t))
    for _ in range(_POLISH_ROUNDS):
        c = der @ (to_coef @ f)
        d = np.stack([c, der @ c])  # the fit's first and second derivatives
        x = nodes[np.argmax(f, axis=0)]
        for _ in range(8):
            p1, p2 = (d * np.cos(deg * np.arccos(x))).sum(1)  # T_deg(x) = cos(deg acos x)
            concave = p2 < 0.0
            x = np.where(concave, np.clip(x - p1 / np.where(concave, p2, -1.0), -1, 1), x)
        curv[todo] = (d[1] * np.cos(deg * np.arccos(x))).sum(0) / half[todo] ** 2
        t3 = mid[todo] + half[todo] * x + _REL_TOL * np.array([[0.0], [-1.0], [1.0]])
        tt, ss = np.vstack([t3, t]), np.vstack([esjd(t3), f])
        k, cols = np.argmax(ss, axis=0), np.arange(todo.size)
        better = ss[k, cols] >= seen_s[todo]
        seen_t[todo] = np.where(better, tt[k, cols], seen_t[todo])
        seen_s[todo] = np.maximum(ss[k, cols], seen_s[todo])
        mid[todo], half[todo] = seen_t[todo], half[todo] / 4.0
        todo = todo[~(better & (k == 0))]
        if not todo.size:
            break
        f = esjd(t := mid[todo] + half[todo] * nodes[:, None])
    return seen_t, curv


def optimize(target: RadialModel, proposal: RadialModel, *, lam_lo: float | None = None,
             lam_hi: float | None = None) -> ScalingOptimum:
    """Maximize the ESJD curve over [lam_lo, lam_hi].

    Every grid point (engine._log_grid_points, else _table_points with curve's
    errors) exceeding both neighbours brackets a peak; _polish refines all
    peaks on the grid's trapezoid sum until each beats its neighbours at
    relative distance 1e-5, ending at the best point it saw, grid point
    included; each reported point, with lambda_err, is table_point there.
    An argmax on the boundary raises OptimizerError — the window is too
    narrow to claim an interior optimum.
    """
    if lam_lo is None or lam_hi is None:
        auto_lo, auto_hi = default_search_range(target, proposal)
        lam_lo = auto_lo if lam_lo is None else lam_lo
        lam_hi = auto_hi if lam_hi is None else lam_hi
    lam_lo, lam_hi = _checked_positive([lam_lo, lam_hi], "lam_lo and lam_hi")
    if not lam_lo < lam_hi:
        raise ValueError("need 0 < lam_lo < lam_hi")
    table = get_marginal_table(target)

    lam_g = np.geomspace(lam_lo, lam_hi, _GRID)
    if (fast := _log_grid_points(table, proposal, lam_g)) is not None:
        s_g = fast[1]
    else:
        good = [p for p in _ear_checked(_table_points(table, proposal, lam_g))
                if p.ok and np.isfinite(p.esjd)]
        if len(good) < _GRID // 4:
            raise OptimizerError(
                f"only {len(good)} of {_GRID} grid evaluations succeeded; "
                "cannot trust the landscape")
        lam_g, s_g = np.array([(p.lam, p.esjd) for p in good]).T

    if s_g.max() <= 0.0:
        raise OptimizerError("ESJD vanished on the whole search range")
    top = int(np.argmax(s_g))
    if top in (0, s_g.size - 1):
        raise OptimizerError(
            f"ESJD argmax sits at the search boundary lambda={lam_g[top]:.6g}; "
            "widen the range")

    left, mid, right = s_g[:-2], s_g[1:-1], s_g[2:]
    peaks = np.nonzero((mid >= left) & (mid >= right) & ((mid > left) | (mid > right)))[0] + 1
    # collapse plateau neighbours to the leftmost index
    peaks = peaks[np.diff(peaks, prepend=-1) > 1]
    if not peaks.size:
        raise OptimizerError("no interior local maximum on the grid")

    t_g, h = np.log(lam_g), np.log(lam_hi / lam_lo) / (_GRID - 1)  # h: the grid's log step
    t_best, curv = _polish(table, proposal, h, t_g[peaks - 1], t_g[peaks + 1],
                           t_g[peaks], s_g[peaks])
    candidates = sorted(((table_point(table, proposal, float(np.exp(t))), c)
                         for t, c in zip(t_best, curv)), key=lambda pc: pc[0].lam)

    # merge polished peaks that converged onto the same maximum
    merged = []
    for p, c in candidates:
        if merged and abs(np.log(p.lam / merged[-1][0].lam)) <= 4.0 * _REL_TOL:
            if p.esjd > merged[-1][0].esjd:
                merged[-1] = (p, c)
        else:
            merged.append((p, c))

    best_esjd = max(p.esjd for p, _ in merged)
    champion, c = min((pc for pc in merged if pc[0].esjd >= best_esjd * (1.0 - _TIE_REL)),
                      key=lambda pc: pc[0].lam)
    lambda_err = (champion.lam * (np.sqrt(2.0 * champion.esjd_err / -c) + _REL_TOL)
                  if c < 0.0 else np.inf)
    return ScalingOptimum(
        lambda_hat=champion.lam, ear_hat=champion.ear, esjd_hat=champion.esjd,
        local_maxima=tuple(LocalMaximum(p.lam, p.ear, p.esjd) for p, _ in merged),
        message=champion.message, lambda_err=float(lambda_err))


@dataclass(frozen=True)
class SweepRow:
    """Per-dimension outcome of a sweep (flagged rather than fatal on error);
    ``message`` is the error, or the optimum's warning on a successful row."""

    d: int
    ok: bool
    optimum: ScalingOptimum | None
    corollary_lambda: float | None
    k_x: float | None
    k_y: float | None
    message: str = ""


@dataclass(frozen=True)
class DimensionSweep:
    """Optimal scaling as a function of dimension for one target family."""

    target_spec: str
    proposal_spec: str
    dims: tuple[int, ...]
    rows: tuple[SweepRow, ...]
    limit_mu_hat: float | None
    limit_aoa: float | None


def _limit_optimum(limit_mixing: str | None):
    if limit_mixing is None:
        return None, None
    opt = solve_aots(mixing_from_spec(limit_mixing))
    return opt.mu_hat, opt.aoa


def sweep_dimension(target_spec: str, proposal_spec: str, dims) -> DimensionSweep:
    """Run the optimizer at each dimension of a strictly increasing list.

    Each row is ``optimize(target, proposal)`` at that d, with
    its default window (default_search_range), so a row's optimum is what
    optimize gives at that dimension.  ``corollary_lambda`` is the
    asymptotic prediction for the family's limiting mixing law (the
    point-mass one when there is none); it does not steer the search.
    A failure at one dimension is recorded as a flagged row, not raised;
    a limit law that fails to solve raises.
    """
    dims = _checked_dimension_list(dims, 1)

    probe = parse_target_spec(target_spec, dims[0])
    limit_mu, limit_aoa = _limit_optimum(probe.limit_mixing)

    def run_one(d: int) -> SweepRow:
        try:
            target, proposal = _parse_pair(target_spec, proposal_spec, d)
            pred = None
            if target.k is not None and proposal.k is not None:
                mu_ref = limit_mu if limit_mu is not None else POINT_MASS_MU_HAT
                pred = aos(mu_ref, target.k, proposal.k, d)
            opt = optimize(target, proposal)
            return SweepRow(d=d, ok=True, optimum=opt, corollary_lambda=pred,
                            k_x=target.k, k_y=proposal.k, message=opt.message)
        except (OptimizerError, EngineError, QuadratureError, ValueError) as exc:
            return SweepRow(d=d, ok=False, optimum=None, corollary_lambda=None,
                            k_x=None, k_y=None, message=str(exc))

    return DimensionSweep(target_spec=target_spec, proposal_spec=proposal_spec,
                          dims=tuple(dims), rows=tuple(run_one(d) for d in dims),
                          limit_mu_hat=limit_mu, limit_aoa=limit_aoa)


@dataclass(frozen=True)
class DriftReport:
    """Classification of how the optimal transformed scale moves with d.

    ``per_dim`` holds (d, mu_hat, all local-maximum mu values); the
    classification is one of ``bounded-argmax`` (mu_hat settles), saying the
    finite-d optima converge to the limit-curve optimum, ``drifting-argmax``
    (mu_hat grows without levelling off, the no-finite-optimum situation),
    or ``peak-swap`` (the global optimum jumps between separated branches).
    """

    classification: str
    per_dim: tuple[tuple[int, float, tuple[float, ...]], ...]


def peak_drift_diagnostic(sweep: DimensionSweep) -> DriftReport:
    """Classify the dimension trend of the optimal transformed scale.

    Heuristic thresholds: a sweep whose mu_hat grows eightfold
    overall while never shrinking more than 20% per step is drifting; an
    isolated jump by a factor of five in either direction between adjacent
    dimensions marks a swap between ESJD branches; anything else is bounded.
    """
    per_dim = []
    mus = []
    for row in sweep.rows:
        if not row.ok or row.k_x is None or row.k_y is None:
            continue
        mu_hat = transformed_scale(row.optimum.lambda_hat, row.d, row.k_x, row.k_y)
        locals_mu = tuple(transformed_scale(m.lam, row.d, row.k_x, row.k_y)
                          for m in row.optimum.local_maxima)
        per_dim.append((row.d, mu_hat, locals_mu))
        mus.append(mu_hat)
    if len(mus) < 2:
        raise OptimizerError("drift diagnostic needs at least two successful dims")

    mus = np.array(mus)
    steps = mus[1:] / mus[:-1]
    if mus[-1] >= 8.0 * mus[0] and np.all(steps >= 0.8):
        cls = "drifting-argmax"
    elif np.any(steps >= 5.0) or np.any(steps <= 0.2):
        cls = "peak-swap"
    else:
        cls = "bounded-argmax"
    return DriftReport(classification=cls, per_dim=tuple(per_dim))
