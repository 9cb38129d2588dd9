"""Locate proposal scales that maximize expected squared jump distance.

Every ESJD value comes from the target's W table.  A log-spaced grid over
the search range, evaluated as one stacked integral (engine.curve),
brackets every interior local maximum of the ESJD curve; each bracket is
polished by golden-section search in log-scale coordinates, one
engine.table_point at a time, and the global optimum is reported with ties
broken toward the smaller scale, carrying the table's message when the
table missed its certificate.  default_search_range is the one rule for
where to search: a dimension sweep is optimize with that default window at
each dimension, and a drift diagnostic classifies how the optimal
transformed scale behaves as dimension grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotics import (aos, mixing_from_spec, solve_aots, transformed_scale,
                          POINT_MASS_MU_HAT)
from .engine import (CurvePoint, EngineError, curve, get_marginal_table,
                     table_point)
from .quadrature import QuadratureError
from .special import _checked_count, _checked_dimension_list, _checked_positive
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

_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_REL_TOL = 1e-5  # golden-section tolerance on log(lambda)
_TIE_REL = 1e-6  # maxima within this relative ESJD of the best tie with it


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
    the W table behind it missed its certificate.
    """

    lambda_hat: float
    ear_hat: float
    esjd_hat: float
    local_maxima: tuple[LocalMaximum, ...]
    canonical_rule: str = "smallest-lambda-among-argmax"
    message: str = ""

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


def _golden_refine(fun, t_lo: float, t_hi: float, tol: float) -> CurvePoint:
    """Golden-section maximization of ESJD over t = log(lambda); ties move
    the bracket left so the smaller scale wins."""
    a, b = t_lo, t_hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > tol:
        if fc.esjd >= fd.esjd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = fun(d)
    return fc if fc.esjd >= fd.esjd else fd


def optimize(target: RadialModel, proposal: RadialModel, *,
             lam_lo: float | None = None, lam_hi: float | None = None,
             grid: int = 512) -> ScalingOptimum:
    """Maximize the ESJD curve over [lam_lo, lam_hi].

    Every grid point exceeding both neighbours seeds a golden-section
    refinement to relative scale tolerance 1e-5; refinement keeps the
    better of the grid value and the polished value, so the reported optimum
    never falls below the grid-stage best.  An argmax on the range boundary
    raises OptimizerError — the window is too narrow to claim an interior
    optimum.
    """
    if lam_lo is None or lam_hi is None:
        auto_lo, auto_hi = default_search_range(target, proposal)
        lam_lo = auto_lo if lam_lo is None else lam_lo
        lam_hi = auto_hi if lam_hi is None else lam_hi
    lam_lo, lam_hi = _checked_positive([lam_lo, lam_hi], "lam_lo and lam_hi")
    if not lam_lo < lam_hi:
        raise ValueError("need 0 < lam_lo < lam_hi")
    grid = _checked_count(grid, "grid", 64)
    table = get_marginal_table(target)

    lambdas = np.geomspace(lam_lo, lam_hi, grid)
    pts = curve(target, proposal, lambdas)
    good = [p for p in pts if p.ok and np.isfinite(p.esjd)]
    if len(good) < max(16, grid // 4):
        raise OptimizerError(
            f"only {len(good)} of {grid} grid evaluations succeeded; "
            "cannot trust the landscape")
    lam_g = np.array([p.lam for p in good])
    s_g = np.array([p.esjd for p in good])

    if s_g.max() <= 0.0:
        raise OptimizerError("ESJD vanished on the whole search range")
    top = int(np.argmax(s_g))
    if top in (0, s_g.size - 1):
        raise OptimizerError(
            f"ESJD argmax sits at the search boundary lambda={lam_g[top]:.6g}; "
            "widen the range")

    peaks = [i for i in range(1, s_g.size - 1)
             if s_g[i] >= s_g[i - 1] and s_g[i] >= s_g[i + 1]
             and (s_g[i] > s_g[i - 1] or s_g[i] > s_g[i + 1])]
    # collapse plateau neighbours to the leftmost index
    peaks = [i for j, i in enumerate(peaks) if j == 0 or i - peaks[j - 1] > 1]
    if not peaks:
        raise OptimizerError("no interior local maximum on the grid")

    def fun(t: float) -> CurvePoint:
        return table_point(table, proposal, float(np.exp(t)))

    candidates: list[CurvePoint] = []
    t_g = np.log(lam_g)
    for i in peaks:
        best = _golden_refine(fun, t_g[i - 1], t_g[i + 1], _REL_TOL)
        if good[i].esjd > best.esjd:
            best = good[i]
        candidates.append(best)

    # merge refinements that converged onto the same maximum
    candidates.sort(key=lambda p: p.lam)
    merged: list[CurvePoint] = []
    for p in candidates:
        if merged and abs(np.log(p.lam / merged[-1].lam)) <= 4.0 * _REL_TOL:
            if p.esjd > merged[-1].esjd:
                merged[-1] = p
        else:
            merged.append(p)

    best_esjd = max(p.esjd for p in merged)
    winners = [p for p in merged if p.esjd >= best_esjd * (1.0 - _TIE_REL)]
    champion = min(winners, key=lambda p: p.lam)
    return ScalingOptimum(
        lambda_hat=champion.lam, ear_hat=champion.ear, esjd_hat=champion.esjd,
        local_maxima=tuple(LocalMaximum(p.lam, p.ear, p.esjd) for p in merged),
        message=champion.message)


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


def sweep_dimension(target_spec: str, proposal_spec: str, dims, *,
                    grid: int = 512) -> DimensionSweep:
    """Run the optimizer at each dimension of a strictly increasing list.

    Each row is ``optimize(target, proposal, grid=grid)`` at that d, with
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
            opt = optimize(target, proposal, grid=grid)
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
