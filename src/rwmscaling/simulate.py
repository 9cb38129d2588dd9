"""Ground-truth oracles: random walk Metropolis chains and direct Monte
Carlo evaluation of the acceptance/jump-distance expectations.

Both oracles deliberately avoid the projection-kernel quadrature path so
that three-way agreement (chain vs. sampled expectation vs. quadrature) is
a genuine consistency check rather than a tautology: ``run_rwm`` simulates
50 independent d-dimensional chains in lockstep (error bars from the
spread of their means, split-R-hat to flag chains that never mixed), and
``mc_expectation`` samples the proposal radius and averages the tabulated
one-coordinate marginal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import ndtri

from .engine import _check_dimensions, _sampled_ear_esjd
from .elliptical import EllipticalSpec
from .special import _checked_positive
from .targets import RadialModel

__all__ = ["ChainStats", "MCExpectation", "run_rwm", "mc_expectation"]

_BLOCK = 65_536
_N_CHAINS = 50
_RHAT_MAX = 1.01


@dataclass(frozen=True)
class ChainStats:
    """Summary of one random walk Metropolis run over 50 chains.

    ``n_iters`` and ``burn_in`` are totals over the chains.  ``esjd`` is the
    mean Mahalanobis-squared displacement per iteration (rejections
    contribute zero), measured after burn-in.  Standard errors are the
    spread of the 50 independent chain means.  ``mean_sq_radius`` is the
    average of the stationary-metric squared radius, kept for stationarity
    sanity checks, and ``rhat`` is the rank-normalized split-R-hat of that
    series across the chains (nan when a chain keeps fewer than 4 steps).
    ``flag`` is empty for a healthy run and carries a short message when
    the acceptance rate is degenerate (near 0 or near 1) or when the
    chains disagree (R-hat above 1.01).
    """

    target: str
    proposal: str
    d: int
    lam: float
    n_iters: int
    burn_in: int
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
        if self.n_iters <= self.burn_in:
            raise ValueError("n_iters must exceed burn_in")

    def record(self) -> dict:
        """The chain record: its fields, in output order."""
        return {
            "target": self.target,
            "proposal": self.proposal,
            "d": self.d,
            "lambda": self.lam,
            "n_iters": self.n_iters,
            "seed": self.seed,
            "accept_rate": self.accept_rate,
            "accept_se": self.accept_se,
            "esjd": self.esjd,
            "esjd_se": self.esjd_se,
        }


@dataclass(frozen=True)
class MCExpectation:
    """Monte Carlo estimate of the acceptance/jump expectations."""

    ear: float
    ear_se: float
    esjd: float
    esjd_se: float
    n_samples: int
    seed: int


def _lockstep(x, lp, steps, log_u, log_pi):
    """Advance K chains, states ``x`` (K, d) and log densities ``lp`` (K,),
    in place through the proposals ``steps`` (T, K, d).  A proposal is
    accepted when ``log_u`` (T, K) <= log_pi(r') - log_pi(r), r = |x|.
    Returns the (T, K) accept mask and the proposed radii."""
    acc = np.empty(log_u.shape, dtype=bool)
    rs = np.empty(log_u.shape)
    for t in range(len(steps)):
        xs = x + steps[t]
        r = np.sqrt(np.einsum("ij,ij->i", xs, xs), out=rs[t])
        lps = log_pi(r)
        a = np.less_equal(log_u[t], lps - lp, out=acc[t])
        np.copyto(x, xs, where=a[:, None])
        np.copyto(lp, lps, where=a)
    return acc, rs


def _split_rhat(series: np.ndarray) -> float:
    """Rank-normalized split-R-hat of the columns of ``series`` (Vehtari,
    Gelman, Simpson, Carpenter & Buerkner 2021).

    Each chain is cut into halves (dropping a middle draw when the length
    is odd), all draws are replaced by the normal scores of their pooled
    ranks (ties share their average rank), and the classic between/within
    variance ratio is taken over the halves.  Returns nan when a half holds
    fewer than 2 draws or every draw is tied, and is huge when every
    chain is frozen at its own value.
    """
    n = len(series) // 2
    if n < 2:
        return math.nan
    halves = np.concatenate([series[:n], series[-n:]], axis=1)
    # Average ranks, as scipy.stats.rankdata gives them; importing
    # scipy.stats would add about 0.4 s and 19 MB to the package import.
    order = np.argsort(halves, axis=None)
    ordered = halves.ravel()[order]
    ranks = np.empty(halves.size)
    ranks[order] = (np.searchsorted(ordered, ordered, "left")
                    + np.searchsorted(ordered, ordered, "right") + 1) / 2
    z = ndtri((ranks.reshape(halves.shape) - 0.375) / (halves.size + 0.25))
    within = z.var(axis=0, ddof=1).mean()
    between = z.mean(axis=0).var(ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.sqrt(((n - 1) / n * within + between) / within))


def run_rwm(target: Union[RadialModel, EllipticalSpec], proposal: RadialModel,
            lam: float, *, n_iters: int = 100_000, burn_in: int | None = None,
            seed: int = 0) -> ChainStats:
    """Simulate 50 random walk Metropolis chains and summarize them.

    The target may be spherically symmetric (any RadialModel, including the
    two-component mixtures) or elliptical (an EllipticalSpec, whose
    eigenvalues scale the axes of the spherical core).  The proposal is
    spherically symmetric in the original coordinates with radial law
    ``proposal`` and overall scale ``lam``; for an elliptical target it must
    be the spec's own ``proposal_core`` object (else ValueError), the law
    elliptical_ear_esjd reads too.  ``n_iters`` and ``burn_in``
    are totals: the chains' lengths, and their burn-ins, differ by at most
    one step.  Each chain starts from its own exact stationary draw (radial
    inverse-CDF times a uniform direction), and the reported ESJD uses the
    Mahalanobis metric of the target, so it is invariant under the axis
    scaling.  The output is a fixed function of ``seed``.
    """
    lam = _checked_positive(lam, "lambda")
    n_iters = int(n_iters)
    if n_iters < 100:
        raise ValueError("need at least 100 iterations")
    burn = n_iters // 10 if burn_in is None else int(burn_in)
    if not 0 <= burn <= n_iters - _N_CHAINS:
        raise ValueError(f"burn_in must lie in [0, n_iters - {_N_CHAINS}]")

    if isinstance(target, EllipticalSpec):
        if proposal is not target.proposal_core:
            raise ValueError("an elliptical target's chain must propose from "
                             "its spec's proposal_core; pass that model")
        core = target.spherical_core
        nus = np.asarray(target.eigenvalues, dtype=float)
        label = f"elliptical({core.label})"
    else:
        core = target
        nus = None
        label = core.label
    _check_dimensions(core, proposal)
    d = core.d

    k = _N_CHAINS
    rng = np.random.default_rng(int(seed))
    u0 = rng.standard_normal((k, d))
    u0 /= np.linalg.norm(u0, axis=1, keepdims=True)
    r0 = core.sample_radius(k, rng)
    # The chains live in the coordinates where the target is spherical,
    # x_* = nu * x: a proposal step that is spherical in the original
    # coordinates becomes nu * step there, and its squared length is the
    # Mahalanobis jump |nu * step|^2.
    x = r0[:, None] * u0
    lp = np.array(core.log_pi(r0), dtype=float)
    cur_r = r0

    # Chain step i = t * k + c is chain c's step t.  Only the first n_iters
    # count (the last row may run over), and the first `burn` are burn-in.
    n_steps = -(-n_iters // k)
    accepts = np.empty((n_steps, k), dtype=bool)
    jumps = np.empty((n_steps, k))
    radii_sq = np.empty((n_steps, k))
    for t0 in range(0, n_steps, _BLOCK // k):
        m = min(_BLOCK // k, n_steps - t0)
        z = rng.standard_normal((m, k, d))
        z /= np.linalg.norm(z, axis=2, keepdims=True)
        ry = lam * proposal.sample_radius(m * k, rng).reshape(m, k)
        steps = ry[..., None] * z
        if nus is None:
            mah_sq = ry * ry
        else:
            steps *= nus
            mah_sq = np.square(steps).sum(axis=2)
        log_u = np.log(rng.random((m, k)))
        acc, rs = _lockstep(x, lp, steps, log_u, core.log_pi)
        # The radius after step t is that of the last accepted proposal.
        last = np.maximum.accumulate(
            np.where(acc, np.arange(1, m + 1)[:, None], 0), axis=0)
        held = np.take_along_axis(np.vstack([cur_r, rs]), last, axis=0)
        cur_r = held[-1]
        radii_sq[t0:t0 + m] = held * held
        accepts[t0:t0 + m] = acc
        jumps[t0:t0 + m] = np.where(acc, mah_sq, 0.0)

    index = np.arange(n_steps * k).reshape(n_steps, k)
    kept = (index >= burn) & (index < n_iters)
    n_kept = kept.sum(axis=0)

    def mean_and_se(values):
        sums = np.where(kept, values, 0.0).sum(axis=0)
        return (float(sums.sum() / n_kept.sum()),
                float((sums / n_kept).std(ddof=1) / math.sqrt(k)))

    rate, rate_se = mean_and_se(accepts)
    esjd, esjd_se = mean_and_se(jumps)
    first = burn // k + (np.arange(k) < burn % k)
    series = np.take_along_axis(
        radii_sq, first + np.arange(n_kept.min())[:, None], axis=0)
    rhat = _split_rhat(series)

    flags = []
    if rate < 1e-3:
        flags.append("acceptance rate near 0: increase iterations or shrink lambda")
    elif rate > 1.0 - 1e-3:
        flags.append("acceptance rate near 1: lambda is in the small-step regime")
    if rhat > _RHAT_MAX:
        flags.append(f"chains disagree (R-hat = {rhat:.5g}): not mixed")
    return ChainStats(
        target=label, proposal=proposal.label, d=d, lam=lam,
        n_iters=n_iters, burn_in=burn, seed=int(seed),
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
    lam = _checked_positive(lam, "lambda")
    n = int(n_samples)
    if n < 10_000:
        raise ValueError("need at least 10000 samples")
    _check_dimensions(target, proposal)
    rng = np.random.default_rng(int(seed))
    ry = proposal.sample_radius(n, rng)
    ear, ear_se, esjd, esjd_se = _sampled_ear_esjd(target, lam, ry)
    return MCExpectation(ear=ear, ear_se=ear_se, esjd=esjd, esjd_se=esjd_se,
                         n_samples=n, seed=int(seed))
