"""Ground-truth oracles: random walk Metropolis chains and direct Monte
Carlo evaluation of the acceptance/jump-distance expectations.

Only ``run_rwm`` is independent of the quadrature path: it runs up to 1000
short lanes in lockstep, each from an exact stationary draw and each
keeping only its radii over the groups of equal eigenvalues (its radius on
a spherical target), and groups them into 50 superchains (error bars from
the spread of their means, nested R-hat to flag lanes that never mixed).
Its one kernel writes every step's accepts and radii into its arrays.
``mc_expectation`` samples the proposal radius but averages the same
tabulated one-coordinate marginal W as the analytic route, so against
quadrature it checks only the outer integral over the proposal radius;
it is engine's sampled estimator, shared with elliptical_ear_esjd."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from .engine import (MCExpectation, _NORMAL_BLOCK, _check_dimensions,
                     _sampled_expectation)
from .elliptical import EllipticalSpec
from .special import _checked_count, _checked_positive
from .targets import RadialModel, sample_radius

__all__ = ["ChainStats", "run_rwm", "mc_expectation"]

_BLOCK = 65_536
_N_SUPER = 50
_RHAT_MAX = 1.01
_Z_MAX = 5.0


@dataclass(frozen=True)
class ChainStats:
    """Summary of one random walk Metropolis run over 50 superchains.

    ``n_iters`` is the total over the lanes, every step counted.  ``esjd``
    is the mean Mahalanobis-squared displacement per iteration (rejections
    contribute zero).  Standard errors are the spread of the 50 independent
    superchain means.  ``mean_sq_radius`` is the average of the
    stationary-metric squared radius, and ``rhat`` is the nested R-hat of
    that series over the superchains (Margossian et al., arXiv:2110.13017).
    ``flag`` is empty for a healthy run and carries a short message when
    the acceptance rate is degenerate (near 0 or near 1), when nested R-hat
    exceeds 1.01, or when the radii fail run_rwm's stationarity check.
    """

    target: str
    proposal: str
    d: int
    lam: float
    n_iters: int
    seed: int
    accept_rate: float
    accept_se: float
    esjd: float
    esjd_se: float
    mean_sq_radius: float
    rhat: float
    flag: str = ""

    def __post_init__(self):
        if not 0.0 <= self.accept_rate <= 1.0:
            raise ValueError("acceptance rate must lie in [0, 1]")
        if self.accept_se < 0.0 or self.esjd_se < 0.0:
            raise ValueError("standard errors must be nonnegative")

    def record(self) -> dict:
        """The chain record: its first ten fields, ``lam`` as ``lambda``."""
        return {"lambda" if f.name == "lam" else f.name: getattr(self, f.name)
                for f in fields(self)[:10]}


def _group_draws(rng, sizes, m, lanes):
    """Split m x ``lanes`` uniform directions Z / |Z| in R^d over coordinate
    groups of ``sizes`` d_g, those with d_g > 1 first: z (m, k, lanes)
    normals, Z's component along an axis of each group; c (m, n, lanes)
    chi-square(d_g - 1) draws, the rest of the n groups with d_g > 1; and
    sq = z^2 (+ c), each group's part of |Z|^2 = sum sq."""
    big = sizes[sizes > 1]
    z = rng.standard_normal((m, len(sizes), lanes))
    c = rng.chisquare((big - 1.0)[:, None], (m, len(big), lanes))
    sq = np.square(z)
    sq[:, :len(big)] += c
    return z, c, sq


def _group_steps(rng, proposal, lam, nus, sizes, jumps):
    """One block of steps lam R_Y Z / |Z| for the lanes of ``jumps`` (m, K),
    seen through the groups' eigenvalues ``nus``: group g moves s_g z_g along
    its radius and s_g sqrt(c_g) across, s_g = nu_g lam R_Y / |Z|.  Writes
    the Mahalanobis jumps sum_g s_g^2 sq_g to ``jumps``; returns s z, s^2 c
    and the log uniforms."""
    m, lanes = jumps.shape
    s = lam * sample_radius(proposal, m * lanes, rng).reshape(m, lanes)
    z, c, sq = _group_draws(rng, sizes, m, lanes)
    norm = sq.sum(axis=1)
    s /= np.sqrt(norm, out=norm)
    np.einsum("g,tgk->tk", np.square(nus), sq, out=norm)
    np.square(s, out=jumps)
    c *= jumps[:, None]
    c *= np.square(nus[:c.shape[1], None])
    jumps *= norm
    z *= s[:, None]
    z *= nus[:, None]
    return z, c, np.log(rng.random(out=norm), out=norm)


def _grouped_lockstep(rho, r, lp, sz, q, log_u, log_pi, accepts, radii):
    """Advance K lanes, returning their group radii ``rho`` (k, K) after the
    last step (a group of one coordinate kept by its signed value); their
    radii ``r`` = |rho| and log densities ``lp`` (K,) are updated in place.
    Step t proposes x_g = rho_g + sz[t, g], and rho_g' = sqrt(x_g^2 +
    q[t, g]) in the first n = len(q[t]) groups, accepted when log_u[t] <=
    log_pi(r') - log_pi(r), and writes ``accepts[t]`` and ``radii[t]``."""
    n = q.shape[1]
    x, sq = np.empty((2, *rho.shape))
    rs, ratio = np.empty((2, len(r)))
    for t in range(len(sz)):
        np.add(rho, sz[t], out=x)
        np.square(x, out=sq)
        sq[:n] += q[t]
        # r'^2 sums the groups' rows; a lone group's row is its own sum.
        np.sqrt(sq[0] if len(sq) == 1 else np.add.reduce(sq, axis=0, out=rs), out=rs)
        lps = log_pi(rs)
        a = np.less_equal(log_u[t], np.subtract(lps, lp, out=ratio), out=accepts[t])
        np.sqrt(sq[:n], out=x[:n])
        rho = np.where(a, x, rho)
        np.copyto(r, rs, where=a)
        np.copyto(lp, lps, where=a)
        radii[t] = r
    return rho


def _n_lanes(n_iters: int, k: int) -> int:
    """K = 50 M lanes, M = n_iters // 10^4 in [1, 20] (each lane keeps ~200
    steps or more) and M <= _NORMAL_BLOCK // (50 k) for k eigenvalue groups."""
    return _N_SUPER * max(1, min(20, n_iters // (_N_SUPER * 200),
                                 _NORMAL_BLOCK // (_N_SUPER * k)))


def _nested_rhat(draws: np.ndarray) -> float:
    """Nested R-hat of ``draws`` (N, M, S), N steps of M lanes in each of S
    superchains: sqrt(1 + B / W), B the variance of the superchain means, W
    the mean over superchains of the variance of their lane means (0 when
    M = 1) plus their mean within-lane variance (0 when N = 1).  nan when
    every draw is equal, huge when every lane is frozen and M = 1."""
    n, m, _ = draws.shape
    lane_means = draws.mean(axis=0)
    super_means = lane_means.mean(axis=0)
    within = np.zeros_like(super_means)
    if m > 1:
        within += lane_means.var(axis=0, ddof=1)
    if n > 1:
        within += draws.var(axis=0, ddof=1).mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.sqrt(1.0 + super_means.var(ddof=1) / within.mean()))


def run_rwm(target: Union[RadialModel, EllipticalSpec], proposal: RadialModel,
            lam: float, *, n_iters: int = 100_000, seed: int = 0) -> ChainStats:
    """Simulate random walk Metropolis lanes in 50 superchains; summarize.

    The target may be spherically symmetric (any RadialModel, mixtures
    included) or elliptical (an EllipticalSpec, whose eigenvalues scale the
    axes of the spherical core).  A lane lives where the target is spherical
    and a proposal step is the eigenvalues times a spherical step, keeping
    only its radii in its k groups of coordinates that share an eigenvalue
    (k = 1 if spherical): a step costs O(k) at any d.  The proposal is
    spherically symmetric in the original coordinates with radial law
    ``proposal`` and overall scale ``lam``; for an elliptical target it must
    be the spec's own ``proposal_core`` object (else ValueError), the law
    elliptical_ear_esjd reads too.  ``n_iters`` is a total over K lanes
    (_n_lanes; 1000 at 200k steps), whose lengths differ by at most one
    step; lane c is in superchain c % 50.  Each lane starts from its own
    exact stationary draw, so there is no burn-in and every step counts; the
    ESJD uses the target's Mahalanobis metric, so it is invariant under the
    axis scaling.  The run is flagged "not mixed" when nested R-hat exceeds
    1 + delta, Margossian et al.'s delta = 0.01: at stationarity R-hat^2 - 1
    is about one over a superchain's effective draws, so 1.01 asks for ~50
    each, and lanes held in separate modes keep it above 1.01 at any length.
    It is also flagged when the squared radii drift: if the kernel keeps the
    target, each lane's final and starting squared radius are both exact
    stationary draws, so the K independent differences average zero within 5
    standard errors.  The output is a fixed function of ``seed``.
    """
    lam = _checked_positive(lam, "lambda")
    n_iters = _checked_count(n_iters, "n_iters", 100)
    seed = _checked_count(seed, "seed", 0)

    if isinstance(target, EllipticalSpec):
        if proposal is not target.proposal_core:
            raise ValueError("an elliptical target's chain must propose from "
                             "its spec's proposal_core; pass that model")
        core = target.spherical_core
        nus, sizes = np.unique(target.eigenvalues, return_counts=True)
        label = f"elliptical({core.label})"
    else:
        core, nus, sizes, label = target, np.ones(1), np.array([target.d]), target.label
    _check_dimensions(core, proposal)
    order = np.argsort(sizes == 1, kind="stable")
    nus, sizes = nus[order], sizes[order]

    k = _n_lanes(n_iters, len(sizes))
    rng = np.random.default_rng(seed)
    r = sample_radius(core, k, rng)
    lp, start_sq = np.array(core.log_pi(r), dtype=float), np.square(r)
    sq = _group_draws(rng, sizes, 1, k)[2][0]
    rho = r * np.sqrt(sq / sq.sum(axis=0))

    # Lane step i = t * k + c is lane c's step t.  Only i < n_iters counts,
    # so lanes c >= over run one step over.  A block has <= _NORMAL_BLOCK normals.
    n_steps = -(-n_iters // k)
    over = n_iters - (n_steps - 1) * k
    accepts = np.empty((n_steps, k), dtype=bool)
    jumps = np.empty((n_steps, k))
    radii = np.empty((n_steps, k))
    block = max(1, min(_BLOCK // k, _NORMAL_BLOCK // (k * len(sizes))))
    for t0 in range(0, n_steps, block):
        rows = slice(t0, min(t0 + block, n_steps))
        rho = _grouped_lockstep(rho, r, lp, *_group_steps(
            rng, proposal, lam, nus, sizes, jumps[rows]),
            core.log_pi, accepts[rows], radii[rows])
    accepts[-1, over:] = False
    np.copyto(jumps, 0.0, where=~accepts)
    radii_sq = np.square(radii, out=radii)
    radii_sq[-1, over:] = 0.0
    n_kept = n_steps - (np.arange(k) >= over)
    super_kept = n_kept.reshape(-1, _N_SUPER).sum(axis=0)

    def mean_and_se(values):
        sums = values.sum(axis=0).reshape(-1, _N_SUPER).sum(axis=0)
        return (float(sums.sum() / n_iters),
                float((sums / super_kept).std(ddof=1) / math.sqrt(_N_SUPER)))

    rate, rate_se = mean_and_se(accepts)
    esjd, esjd_se = mean_and_se(jumps)
    rhat = _nested_rhat(radii_sq[:n_kept.min()].reshape(-1, k // _N_SUPER, _N_SUPER))
    drift = np.square(r) - start_sq
    with np.errstate(divide="ignore", invalid="ignore"):
        z_drift = drift.mean() / drift.std(ddof=1) * math.sqrt(k)

    flags = []
    if rate < 1e-3:
        flags.append("acceptance rate near 0: increase iterations or shrink lambda")
    elif rate > 1.0 - 1e-3:
        flags.append("acceptance rate near 1: lambda is in the small-step regime")
    if rhat > _RHAT_MAX:
        flags.append(f"superchains disagree (nested R-hat = {rhat:.5g}): not mixed")
    if abs(z_drift) > _Z_MAX:
        flags.append(f"squared radii drift from their starts by {z_drift:.3g} SE: "
                     "the kernel does not keep the target")
    return ChainStats(
        target=label, proposal=proposal.label, d=core.d, lam=lam,
        n_iters=n_iters, seed=seed,
        accept_rate=rate, accept_se=rate_se, esjd=esjd, esjd_se=esjd_se,
        mean_sq_radius=mean_and_se(radii_sq)[0], rhat=rhat,
        flag="; ".join(flags))


def mc_expectation(target: RadialModel, proposal: RadialModel, lam: float, *,
                   n_samples: int = 100_000, seed: int = 0) -> MCExpectation:
    """Monte Carlo version of the acceptance/jump-distance expectations.

    Samples the proposal radius |Y| and averages the exact one-coordinate
    marginal of the target (2 F(-lam |Y| / 2) for the acceptance rate,
    2 lam^2 |Y|^2 F(-lam |Y| / 2) for the squared jump distance), with
    plug-in standard errors.
    """
    return _sampled_expectation(target, proposal, lam,
                                _checked_count(n_samples, "n_samples", 10_000), seed)
