"""Elliptically symmetric targets via a linear change of coordinates.

An elliptical target is a spherical core seen through a diagonal linear map
T with eigenvalues nu_1..nu_d: X_* = T(X) is spherically symmetric.  A
spherical proposal Y in the original coordinates becomes the elliptical
Y_* = T(Y) in the transformed ones, so the acceptance rate and the
Mahalanobis squared jump distance reduce to the spherical formulas averaged
over the law of |Y_*| = R_Y |nu . U| with U uniform on the sphere.  The
module provides that averaging (engine's Monte Carlo estimator, the one
mc_expectation uses, over draws of |Y_*|), the eccentricity condition
nu_max^2 / sum nu_i^2 -> 0 under which the spherical limit theory carries
over, the corresponding optimal-scaling rule with its (mean square
eigenvalue)^{-1/2} correction, and a Monte Carlo check that |S(U)| for a
shell-concentrating U indeed concentrates when the condition holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .asymptotics import aos
from .engine import MCExpectation, _sampled_expectation
from .special import (_checked_count, _checked_dimension,
                      _checked_dimension_list, _checked_positive)
from .targets import RadialModel

__all__ = [
    "EllipticalError",
    "EllipticalSpec",
    "EccentricityReport",
    "ShellDeviationReport",
    "parse_eigenvalue_rule",
    "eccentricity_condition",
    "elliptical_ear_esjd",
    "elliptical_aos",
    "lemma5_numeric_check",
]

class EllipticalError(ValueError):
    """Invalid elliptical specification."""


@dataclass(frozen=True)
class EllipticalSpec:
    """A spherical core and proposal plus the eigenvalues of the map T.

    ``eigenvalues`` are the axis scalings nu_i applied to both the target
    and the proposal when moving to the coordinates in which the target is
    spherical.  ``mean_sq`` caches d^{-1} sum nu_i^2.
    """

    d: int
    eigenvalues: tuple[float, ...]
    spherical_core: RadialModel
    proposal_core: RadialModel
    mean_sq: float = field(init=False)

    def __post_init__(self):
        nus = _checked_eigenvalues(self.eigenvalues, self.d)
        if self.spherical_core.d != self.d or self.proposal_core.d != self.d:
            raise EllipticalError("core dimensions must match d")
        object.__setattr__(self, "eigenvalues", tuple(float(v) for v in nus))
        object.__setattr__(self, "mean_sq", float(np.mean(nus ** 2)))


def _checked_eigenvalues(nus, d: int) -> np.ndarray:
    """``nus`` as a float array, which must hold d finite, positive values."""
    nus = np.asarray(nus, dtype=float)
    if nus.shape != (d,):
        raise EllipticalError(f"need {d} eigenvalues, got {nus.size}")
    return _checked_positive(nus, "eigenvalues", EllipticalError)


def parse_eigenvalue_rule(rule: str, d: int) -> np.ndarray:
    """Eigenvalues for dimension d from a rule string.

    ``const:<c>`` gives nu_i = c, ``iota`` gives nu_i = i, ``spike:<c>``
    gives (1, ..., 1, c*d), and ``file:<path>`` reads one real per line
    (padded by repeating the last value, truncated if longer than d), so
    any sequence can be given as a file.  Every eigenvalue must come out
    finite and positive.
    """
    d = _checked_dimension(d, EllipticalError)
    rule = rule.strip()
    if rule == "iota":
        nus = np.arange(1, d + 1, dtype=float)
    elif rule.startswith("const:"):
        nus = np.full(d, float(rule.split(":", 1)[1]))
    elif rule.startswith("spike:"):
        nus = np.ones(d)
        nus[-1] = float(rule.split(":", 1)[1]) * d
    elif rule.startswith("file:"):
        path = rule.split(":", 1)[1]
        with open(path, "r", encoding="utf-8") as fh:
            vals = [float(line) for line in fh if line.strip()]
        if not vals:
            raise EllipticalError(f"no eigenvalues in {path!r}")
        nus = np.asarray(vals[:d], dtype=float)
        if nus.size < d:
            nus = np.concatenate([nus, np.full(d - nus.size, nus[-1])])
    else:
        raise EllipticalError(
            f"unknown eigenvalue rule {rule!r}; expected const:<c>, iota, "
            "spike:<c>, or file:<path>")
    return _checked_eigenvalues(nus, d)


@dataclass(frozen=True)
class EccentricityReport:
    """Trend of nu_max^2 / sum nu_i^2 along a dimension sequence."""

    rule: str
    dims: tuple[int, ...]
    ratios: tuple[float, ...]
    satisfied: bool


def eccentricity_condition(rule: str, dims: Sequence[int]) -> EccentricityReport:
    """Classify whether nu_max^2 / sum nu_i^2 tends to zero along dims.

    The ratio r is tabulated for every d and judged on the last three
    dimensions: satisfied means it falls at both steps and, from the first
    to the last, at least as fast as d^(-1/4) (halving over a 16-fold span),
    a rate per unit log d, so the verdict does not depend on the spacing.
    """
    dims = _checked_dimension_list(dims, 3, EllipticalError)
    ratios = []
    for d in dims:
        nus = parse_eigenvalue_rule(rule, d)
        ratios.append(float(nus.max() ** 2 / np.sum(nus ** 2)))
    r1, r2, r3 = ratios[-3:]
    satisfied = r3 < r2 < r1 and 4 * math.log(r1 / r3) >= math.log(dims[-1] / dims[-3])
    return EccentricityReport(rule=rule, dims=tuple(dims),
                              ratios=tuple(ratios), satisfied=satisfied)


def elliptical_ear_esjd(spec: EllipticalSpec, lam: float, *,
                        n_draws: int = 200_000,
                        seed: int = 20240) -> MCExpectation:
    """EAR and Mahalanobis ESJD of the elliptical chain at scale lam.

    Works in the transformed coordinates: acceptance depends on the target
    only through the spherical core's one-coordinate marginal, averaged
    over n_draws seeded draws of |Y_*| = R_Y |nu . U|, with sampling
    standard errors.  The draws are mc_expectation's radii times |nu . U|,
    so a const:c map gives mc_expectation at c * lam for the same seed.
    """
    n_draws = _checked_count(n_draws, "n_draws", 1000)
    return _sampled_expectation(spec.spherical_core, spec.proposal_core, lam,
                                n_draws, seed,
                                np.asarray(spec.eigenvalues, dtype=float))


def elliptical_aos(spec: EllipticalSpec, mu_hat: float) -> float:
    """Optimal proposal scale for the elliptical target at dimension spec.d.

    Transfers the transformed-space optimum mu_hat back through the
    spherical rule, with k_x the spherical core's shell constant and the
    proposal core's k_y inflated to k_y_star = sqrt(mean nu^2) k_y, i.e. an
    extra (mean square eigenvalue)^{-1/2} factor relative to the spherical
    case.  Raises EllipticalError when either core has no shell constant.
    """
    k_x, k_y = spec.spherical_core.k, spec.proposal_core.k
    if k_x is None or k_y is None:
        raise EllipticalError("core and proposal families must have shell "
                              "constants for the scaling rule")
    return aos(mu_hat, k_x, k_y, spec.d) / math.sqrt(spec.mean_sq)


@dataclass(frozen=True)
class ShellDeviationReport:
    """Mean-square deviation of |S(U)|/sqrt(mean nu^2) from 1 along dims."""

    rule: str
    dims: tuple[int, ...]
    deviations: tuple[float, ...]
    decreasing: bool


def lemma5_numeric_check(rule: str, dims: Sequence[int], *,
                         n_samples: int = 100_000,
                         seed: int = 31208) -> ShellDeviationReport:
    """Monte Carlo check that the scaled map output concentrates on a shell.

    For U = Z/sqrt(d) (which concentrates on the unit shell) and S = diag(nu),
    estimates E[(|S(U)|/sqrt(mean nu^2) - 1)^2] at every d.  When the
    eccentricity condition holds the deviation must decrease toward zero;
    for a violating sequence it stalls at a positive level.
    """
    n_samples = _checked_count(n_samples, "n_samples", 1)
    seed = _checked_count(seed, "seed", 0)
    dims = _checked_dimension_list(dims, 2, EllipticalError)
    seeds = np.random.SeedSequence(seed).spawn(len(dims))
    devs = []
    for d, ss in zip(dims, seeds):
        nus = parse_eigenvalue_rule(rule, d)
        rng = np.random.default_rng(ss)
        z = rng.standard_normal((n_samples, d))
        norm = np.sqrt(np.mean(nus ** 2))
        scaled = np.linalg.norm(z * nus, axis=1) / (math.sqrt(d) * norm)
        devs.append(float(np.mean((scaled - 1.0) ** 2)))
    decreasing = all(b < a for a, b in zip(devs, devs[1:]))
    return ShellDeviationReport(rule=rule, dims=tuple(dims),
                                deviations=tuple(devs),
                                decreasing=decreasing)
