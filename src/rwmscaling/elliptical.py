"""Elliptically symmetric targets via a linear change of coordinates.

An elliptical target is a spherical core seen through a diagonal linear map
T with eigenvalues nu_1..nu_d: X_* = T(X) is spherically symmetric.  A
spherical proposal Y in the original coordinates becomes the elliptical
Y_* = T(Y) in the transformed ones, so the acceptance rate and the
Mahalanobis squared jump distance reduce to the spherical formulas averaged
over the law of |Y_*| = R_Y |nu . U| with U uniform on the sphere.  The
module provides that averaging, the eccentricity condition
nu_max^2 / sum nu_i^2 -> 0 under which the spherical limit theory carries
over, the corresponding optimal-scaling rule with its (mean square
eigenvalue)^{-1/2} correction, and a Monte Carlo check that |S(U)| for a
shell-concentrating U indeed concentrates when the condition holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence
import warnings

import numpy as np

from .asymptotics import aos
from .engine import _sampled_ear_esjd
from .special import (_checked_dimension, _checked_dimension_list,
                      _checked_positive)
from .targets import RadialModel

__all__ = [
    "EllipticalError",
    "EllipticalSpec",
    "EccentricityReport",
    "EllipticalPoint",
    "ShellDeviationReport",
    "parse_eigenvalue_rule",
    "eccentricity_condition",
    "elliptical_ear_esjd",
    "elliptical_aos",
    "lemma5_numeric_check",
]

_N_STREAMS = 8


class EllipticalError(ValueError):
    """Invalid elliptical specification."""


@dataclass(frozen=True)
class EllipticalSpec:
    """A spherical core and proposal plus the eigenvalues of the map T.

    ``eigenvalues`` are the axis scalings nu_i applied to both the target
    and the proposal when moving to the coordinates in which the target is
    spherical.  ``mean_sq`` caches d^{-1} sum nu_i^2 and ``nu_max`` the
    largest eigenvalue.
    """

    d: int
    eigenvalues: tuple[float, ...]
    spherical_core: RadialModel
    proposal_core: RadialModel
    mean_sq: float = field(init=False)
    nu_max: float = field(init=False)

    def __post_init__(self):
        nus = _checked_eigenvalues(self.eigenvalues, self.d)
        if self.spherical_core.d != self.d or self.proposal_core.d != self.d:
            raise EllipticalError("core dimensions must match d")
        object.__setattr__(self, "eigenvalues", tuple(float(v) for v in nus))
        object.__setattr__(self, "mean_sq", float(np.mean(nus ** 2)))
        object.__setattr__(self, "nu_max", float(nus.max()))


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
    (padded by repeating the last value, truncated if longer than d).
    Every eigenvalue must come out finite and positive.
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


def _resolve_rule(rule: str | Callable[[int], np.ndarray], dims: Sequence[int],
                  at_least: int):
    """Checked dims, with the rule as (function of d giving its checked
    eigenvalues, label).  The dims must be at least ``at_least`` strictly
    increasing positive integers."""
    dims = _checked_dimension_list(dims, at_least, EllipticalError)
    if callable(rule):
        return (dims, lambda d: _checked_eigenvalues(rule(d), d),
                getattr(rule, "__name__", "custom"))
    return dims, (lambda d: parse_eigenvalue_rule(rule, d)), rule


@dataclass(frozen=True)
class EccentricityReport:
    """Trend of nu_max^2 / sum nu_i^2 along a dimension sequence."""

    rule: str
    dims: tuple[int, ...]
    ratios: tuple[float, ...]
    satisfied: bool


def eccentricity_condition(rule: str | Callable[[int], np.ndarray],
                           dims: Sequence[int]) -> EccentricityReport:
    """Classify whether nu_max^2 / sum nu_i^2 tends to zero along dims.

    The ratio is tabulated for every d; the trend is judged on the last
    three dimensions: satisfied means the ratio keeps shrinking at a rate
    consistent with decay to zero, violated means it stays bounded away
    from zero.
    """
    dims, get, label = _resolve_rule(rule, dims, 3)
    ratios = []
    for d in dims:
        nus = get(d)
        ratios.append(float(nus.max() ** 2 / np.sum(nus ** 2)))
    # Decay to zero shows up as the ratio still falling by at least the
    # dimension ratio would suggest; a violating sequence flattens out.
    r1, r2, r3 = ratios[-3], ratios[-2], ratios[-1]
    satisfied = r3 < 0.5 * r1 and r3 < 0.9 * r2
    return EccentricityReport(rule=label, dims=tuple(dims),
                              ratios=tuple(ratios), satisfied=satisfied)


@dataclass(frozen=True)
class EllipticalPoint:
    """EAR/ESJD of an elliptical target at one proposal scale.

    Errors are Monte Carlo standard errors of the direction/radius
    averaging; the quadrature error of the underlying marginal table is
    orders of magnitude smaller.
    """

    lam: float
    ear: float
    esjd: float
    ear_se: float
    esjd_se: float
    n_draws: int


def _transformed_proposal_radii(spec: EllipticalSpec, n_draws: int,
                                seed: int) -> np.ndarray:
    """Draws of |Y_*| = R_Y |nu . U| from 8 seeded streams, in stream order.

    The split into streams fixes which draws a seed gives.
    """
    nus = np.asarray(spec.eigenvalues, dtype=float)
    parts = []
    for i, ss in enumerate(np.random.SeedSequence(seed).spawn(_N_STREAMS)):
        rng = np.random.default_rng(ss)
        m = n_draws // _N_STREAMS + (i < n_draws % _N_STREAMS)
        z = rng.standard_normal((m, spec.d))
        u = z / np.linalg.norm(z, axis=1, keepdims=True)
        r = spec.proposal_core.sample_radius(m, rng)
        parts.append(r * np.linalg.norm(u * nus, axis=1))
    return np.concatenate(parts)


def elliptical_ear_esjd(spec: EllipticalSpec, lam: float, *,
                        n_draws: int = 200_000,
                        seed: int = 20240) -> EllipticalPoint:
    """EAR and Mahalanobis ESJD of the elliptical chain at scale lam.

    Works in the transformed coordinates: acceptance depends on the target
    only through the spherical core's one-coordinate marginal, averaged
    over the sampled law of the transformed proposal radius |Y_*|.  The
    average EAR is exact-in-quadrature given the draws; the reported errors
    are the sampling standard errors over the fixed-seed draws.
    """
    lam = _checked_positive(lam, "lambda")
    if n_draws < 1000:
        raise ValueError("need at least 1000 direction draws")
    w = _transformed_proposal_radii(spec, int(n_draws), int(seed))
    ear, ear_se, esjd, esjd_se = _sampled_ear_esjd(spec.spherical_core, lam, w)
    return EllipticalPoint(lam=lam, ear=ear, esjd=esjd, ear_se=ear_se,
                           esjd_se=esjd_se, n_draws=w.size)


def elliptical_aos(spec: EllipticalSpec, mu_hat: float, *,
                   condition: EccentricityReport | None = None) -> float:
    """Optimal proposal scale for the elliptical target at dimension spec.d.

    Transfers the transformed-space optimum mu_hat back through the
    spherical rule, with k_x the spherical core's shell constant and the
    proposal core's k_y inflated to k_y_star = sqrt(mean nu^2) k_y, i.e. an
    extra (mean square eigenvalue)^{-1/2} factor relative to the spherical
    case.  Raises EllipticalError when either core has no shell constant.  If an
    eccentricity report is supplied and says the condition fails, the rule
    is still returned but a warning is issued: the limit theory does not
    cover that sequence.
    """
    k_x, k_y = spec.spherical_core.k, spec.proposal_core.k
    if k_x is None or k_y is None:
        raise EllipticalError("core and proposal families must have shell "
                              "constants for the scaling rule")
    if condition is not None and not condition.satisfied:
        warnings.warn(
            "eccentricity condition violated: the asymptotic rule is not "
            "supported by the limit theory for this eigenvalue sequence",
            RuntimeWarning, stacklevel=2)
    return aos(mu_hat, k_x, k_y, spec.d) / math.sqrt(spec.mean_sq)


@dataclass(frozen=True)
class ShellDeviationReport:
    """Mean-square deviation of |S(U)|/sqrt(mean nu^2) from 1 along dims."""

    rule: str
    dims: tuple[int, ...]
    deviations: tuple[float, ...]
    decreasing: bool


def lemma5_numeric_check(rule: str | Callable[[int], np.ndarray],
                         dims: Sequence[int], *, n_samples: int = 100_000,
                         seed: int = 31208) -> ShellDeviationReport:
    """Monte Carlo check that the scaled map output concentrates on a shell.

    For U = Z/sqrt(d) (which concentrates on the unit shell) and S = diag(nu),
    estimates E[(|S(U)|/sqrt(mean nu^2) - 1)^2] at every d.  When the
    eccentricity condition holds the deviation must decrease toward zero;
    for a violating sequence it stalls at a positive level.
    """
    dims, get, label = _resolve_rule(rule, dims, 2)
    seeds = np.random.SeedSequence(seed).spawn(len(dims))
    devs = []
    for d, ss in zip(dims, seeds):
        nus = get(d)
        rng = np.random.default_rng(ss)
        z = rng.standard_normal((int(n_samples), d))
        norm = np.sqrt(np.mean(nus ** 2))
        scaled = np.linalg.norm(z * nus, axis=1) / (math.sqrt(d) * norm)
        devs.append(float(np.mean((scaled - 1.0) ** 2)))
    decreasing = all(b < a for a, b in zip(devs, devs[1:]))
    return ShellDeviationReport(rule=label, dims=tuple(dims),
                                deviations=tuple(devs),
                                decreasing=decreasing)
