"""Ground-truth oracles: a full random walk Metropolis chain and direct
Monte Carlo evaluation of the acceptance/jump-distance expectations.

Both oracles deliberately avoid the projection-kernel quadrature path so
that three-way agreement (chain vs. sampled expectation vs. quadrature) is
a genuine consistency check rather than a tautology: ``run_rwm`` simulates
the d-dimensional chain itself, and ``mc_expectation`` samples the proposal
radius and averages the tabulated one-coordinate marginal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .engine import _sampled_ear_esjd
from .elliptical import EllipticalSpec
from .targets import RadialModel

__all__ = ["ChainStats", "MCExpectation", "run_rwm", "mc_expectation"]

_BLOCK = 65_536
_N_BATCHES = 50


@dataclass(frozen=True)
class ChainStats:
    """Summary of one random walk Metropolis run.

    ``esjd`` is the mean Mahalanobis-squared displacement per iteration
    (rejections contribute zero), measured after burn-in.  Standard errors
    come from batch means with 50 batches.  ``mean_sq_radius`` is the chain
    average of the stationary-metric squared radius, kept for stationarity
    sanity checks.  ``flag`` is empty for a healthy run and carries a short
    message when the acceptance rate is degenerate (near 0 or near 1).
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

    def to_json(self) -> str:
        return json.dumps(self.record())


@dataclass(frozen=True)
class MCExpectation:
    """Monte Carlo estimate of the acceptance/jump expectations."""

    ear: float
    ear_se: float
    esjd: float
    esjd_se: float
    n_samples: int
    seed: int


def _batch_se(x: np.ndarray) -> float:
    """Batch-means standard error of the mean of a correlated series."""
    m = x.size // _N_BATCHES
    if m < 1:
        return float(x.std(ddof=1) / math.sqrt(max(x.size, 2)))
    means = x[: m * _N_BATCHES].reshape(_N_BATCHES, m).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(_N_BATCHES))


def run_rwm(target: Union[RadialModel, EllipticalSpec], proposal: RadialModel,
            lam: float, *, n_iters: int = 100_000, burn_in: int | None = None,
            seed: int = 0) -> ChainStats:
    """Simulate the random walk Metropolis chain and summarize it.

    The target may be spherically symmetric (any RadialModel, including the
    two-component mixtures) or elliptical (an EllipticalSpec, whose
    eigenvalues scale the axes of the spherical core).  The proposal is
    spherically symmetric in the original coordinates with radial law
    ``proposal`` and overall scale ``lam``.  The chain starts from an exact
    stationary draw (radial inverse-CDF times a uniform direction), and the
    reported ESJD uses the Mahalanobis metric of the target, so it is
    invariant under the axis scaling.
    """
    lam = float(lam)
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    n_iters = int(n_iters)
    if n_iters < 100:
        raise ValueError("need at least 100 iterations")
    burn = n_iters // 10 if burn_in is None else int(burn_in)
    if not 0 <= burn < n_iters:
        raise ValueError("burn_in must lie in [0, n_iters)")

    if isinstance(target, EllipticalSpec):
        core = target.spherical_core
        nus = np.asarray(target.eigenvalues, dtype=float)
        label = f"elliptical({core.label})"
    else:
        core = target
        nus = None
        label = core.label
    d = core.d
    if proposal.d != d:
        raise ValueError("proposal dimension must match the target")
    log_pi = core.log_pi

    rng = np.random.default_rng(int(seed))
    u0 = rng.standard_normal(d)
    u0 /= np.linalg.norm(u0)
    r0 = float(core.sample_radius(1, rng)[0])
    # The chain lives in the original coordinates: for an elliptical target
    # the stationary draw and the density argument go through the axis map
    # (x = nu^{-1} x_*, density at |nu * x|), while the proposal steps stay
    # spherical and the recorded jumps use the Mahalanobis metric |nu * dx|^2.
    x = r0 * u0 if nus is None else r0 * u0 / nus
    lp = float(log_pi(np.float64(r0)))
    cur_rsq = r0 * r0

    accepts = np.empty(n_iters, dtype=np.float64)
    jumps = np.empty(n_iters, dtype=np.float64)
    radii_sq = np.empty(n_iters, dtype=np.float64)

    done = 0
    while done < n_iters:
        m = min(_BLOCK, n_iters - done)
        z = rng.standard_normal((m, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        ry = proposal.sample_radius(m, rng)
        steps = lam * ry[:, None] * z
        if nus is None:
            mah_sq = np.einsum("ij,ij->i", steps, steps)
        else:
            scaled = steps * nus
            mah_sq = np.einsum("ij,ij->i", scaled, scaled)
        log_u = np.log(rng.random(m))
        for k in range(m):
            xs = x + steps[k]
            w = xs if nus is None else nus * xs
            rs = math.sqrt(float(w @ w))
            lps = float(log_pi(np.float64(rs)))
            i = done + k
            if log_u[k] <= lps - lp:
                accepts[i] = 1.0
                jumps[i] = float(mah_sq[k])
                x = xs
                lp = lps
                cur_rsq = rs * rs
            else:
                accepts[i] = 0.0
                jumps[i] = 0.0
            radii_sq[i] = cur_rsq
        done += m

    acc = accepts[burn:]
    jmp = jumps[burn:]
    rate = float(acc.mean())
    flag = ""
    if rate < 1e-3:
        flag = "acceptance rate near 0: increase iterations or shrink lambda"
    elif rate > 1.0 - 1e-3:
        flag = "acceptance rate near 1: lambda is in the small-step regime"
    return ChainStats(
        target=label, proposal=proposal.label, d=d, lam=lam,
        n_iters=n_iters, burn_in=burn, seed=int(seed),
        accept_rate=rate, accept_se=_batch_se(acc),
        esjd=float(jmp.mean()), esjd_se=_batch_se(jmp),
        mean_sq_radius=float(radii_sq[burn:].mean()), flag=flag)


def mc_expectation(target: RadialModel, proposal: RadialModel, lam: float, *,
                   n_samples: int = 100_000, seed: int = 0) -> MCExpectation:
    """Monte Carlo version of the acceptance/jump-distance expectations.

    Samples the proposal radius |Y| and averages the exact one-coordinate
    marginal of the target (2 F(-lam |Y| / 2) for the acceptance rate,
    2 lam^2 |Y|^2 F(-lam |Y| / 2) for the squared jump distance), with
    plug-in standard errors.
    """
    lam = float(lam)
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    n = int(n_samples)
    if n < 10_000:
        raise ValueError("need at least 10000 samples")
    if target.d != proposal.d:
        raise ValueError("target and proposal dimensions must match")
    rng = np.random.default_rng(int(seed))
    ry = proposal.sample_radius(n, rng)
    ear, ear_se, esjd, esjd_se = _sampled_ear_esjd(target, lam, ry)
    return MCExpectation(ear=ear, ear_se=ear_se, esjd=esjd, esjd_se=esjd_se,
                         n_samples=n, seed=int(seed))
