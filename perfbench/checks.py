"""Answer checks for the benchmark's requests.

Closed forms and published values are used where they exist; everything
else is compared with values recorded once from the package at commit
e7e975a.  Do not re-record them to make a failing check pass: a wrong
answer is a failed request.

Tolerances come from the package's own contracts:

* the optimizer polishes log(lambda) to ``rel_tol`` = 1e-5, so lambda_hat
  may differ from the reference by that relative amount, and EAR, whose
  slope in log(lambda) is below 1, by that much in absolute terms;
* table and nested routes agree to < 1e-7, and the ESJD at its maximum is
  flat in lambda, so esjd_hat is compared to 1e-7 relative;
* the limiting optimum is a Brent root of integrals good to ~1e-11, so
  mu_hat and the AOA are compared to 1e-8 relative;
* Monte Carlo and chain estimates must lie within 4 standard errors of the
  exact value (the exact value's own error is added to the SE).
"""

from __future__ import annotations

import math

import numpy as np

LAMBDA_REL_TOL = 1e-5
EAR_ABS_TOL = 1e-5 + 1e-7
TABLE_VS_NESTED = 1e-7
ESJD_REL_TOL = 1e-7
LIMIT_REL_TOL = 1e-8
N_SE = 4.0

# README values (10 significant digits, or 4 decimals for d = 10).
README_GAUSSIAN_1D = (2.426402955, 0.4388619806)
README_GAUSSIAN_10D = (0.7564, 0.2593)
README_HALFNORMAL = (1.670346929, 0.09136177567)

# (target, proposal, d) -> (lambda_hat, ear_hat, esjd_hat, n_local_maxima),
# from optimize() with its default search window and grid.
OPTIMA = {
    ('gaussian', 'gaussian', 1): (2.4264029553189577, 0.4388619806455791, 0.744203574102441, 1),
    ('gaussian', 'gaussian', 10): (0.756389802824998, 0.2593009757798199, 1.2282641714472817, 1),
    ('gaussian', 'gaussian', 100): (0.23824276517167642, 0.23638935415766246, 1.3153213227035279, 1),
    ('exponential', 'exponential', 30): (0.4392694762163324, 0.24171884841412475, 38.23118159927265, 1),
    ('radial-gaussian', 'radial-gaussian', 100): (0.37782853365352687, 0.23655038336162748, 0.00669236908588314, 1),
    ('lognormal', 'gaussian', 20): (1.9319768030761357, 0.027031934361734403, 1.8201372351145362, 1),
    ('mixture:p=1/d^2', 'gaussian', 10): (0.7795066492354057, 0.2525341610830597, 1.2688223175447906, 2),
    ('gaussian', 'gaussian', 2): (1.7074646275838674, 0.3507051632003503, 0.9499878339556966, 1),
    ('gaussian', 'gaussian', 5): (1.07326911238997, 0.28390834452016933, 1.1440219543230519, 1),
    ('gaussian', 'gaussian', 20): (0.53374122794496, 0.24664626772821333, 1.2751939262218992, 1),
    ('gaussian', 'gaussian', 50): (0.33709352095837475, 0.23896374134898277, 1.3050641553667106, 1),
    ('exponential', 'exponential', 10): (0.7906503654161584, 0.2500367671369623, 12.112897177553556, 1),
}

# mixing-law spec -> (mu_hat, aoa); pareto:1.5 has no finite optimum.
LIMITS = {
    'point:1': (1.1906012483427708, 0.2338101613318363),
    'atoms:0.5@1,2@1': (2.381069339935337, 0.11691911359900667),
    'atoms:1@0.2,1@1,3@0.5': (3.5161747048463265, 0.07124247857408897),
    'halfnormal': (1.6703469291626927, 0.0913617756706312),
    'exp': (2.85185745592548, 0.05536116229183219),
    'lognormal': (19.32424129959628, 0.02439175500716944),
    'from-target:gaussian:50': (1.192213952750158, 0.2294866723033883),
}

# Elliptical gaussian core, d = 10, eigenvalues 1..10, gaussian proposal,
# lambda = 0.1: (ear, esjd, ear_se, esjd_se) from 40 million direction draws.
ELLIPTICAL_REF = (0.3635095313848911, 1.1198622359414554, 2.1084925766255014e-05, 3.3605234357287063e-05)


def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_optimum(key, lam: float, ear: float, esjd: float,
                  n_max: int) -> list[str]:
    """Problems with an ESJD optimum for (target, proposal, d) = key."""
    ref_lam, ref_ear, ref_esjd, ref_n = OPTIMA[key]
    out = []
    if not rel(lam, ref_lam) <= LAMBDA_REL_TOL:
        out.append(f"{key}: lambda_hat {lam:.10g} vs {ref_lam:.10g}")
    if not abs(ear - ref_ear) <= EAR_ABS_TOL:
        out.append(f"{key}: ear_hat {ear:.10g} vs {ref_ear:.10g}")
    if not rel(esjd, ref_esjd) <= ESJD_REL_TOL:
        out.append(f"{key}: esjd_hat {esjd:.10g} vs {ref_esjd:.10g}")
    if n_max != ref_n:
        out.append(f"{key}: {n_max} local maxima, expected {ref_n}")
    if key == ("gaussian", "gaussian", 1):
        from rwmscaling import closed_form_gaussian_1d

        exact_ear, exact_esjd = closed_form_gaussian_1d(lam)
        if not (abs(ear - exact_ear) <= TABLE_VS_NESTED
                and abs(esjd - exact_esjd) <= TABLE_VS_NESTED):
            out.append(f"d=1 optimum off the closed form at lambda={lam:.10g}")
        if not rel(lam, README_GAUSSIAN_1D[0]) <= LAMBDA_REL_TOL:
            out.append(f"d=1 lambda_hat {lam:.10g} vs README")
    if key == ("gaussian", "gaussian", 10):
        if not (abs(lam - README_GAUSSIAN_10D[0]) <= 5e-5
                and abs(ear - README_GAUSSIAN_10D[1]) <= 5e-5):
            out.append(f"d=10 optimum {lam:.6g}/{ear:.6g} vs README")
    return out


def check_limit(spec: str, mu_hat: float, aoa: float, finite: bool) -> list[str]:
    """Problems with the limiting optimum of one mixing law."""
    from rwmscaling import POINT_MASS_AOA, POINT_MASS_MU_HAT

    if spec == "pareto:1.5":
        return [] if not finite and mu_hat == math.inf else [
            f"pareto:1.5 reported a finite optimum mu_hat={mu_hat}"]
    if not finite:
        return [f"{spec}: no finite optimum reported"]
    refs = [LIMITS[spec]]
    if spec == "point:1":
        refs.append((POINT_MASS_MU_HAT, POINT_MASS_AOA))
    if spec == "halfnormal":
        refs.append(README_HALFNORMAL)
    out = []
    for ref_mu, ref_aoa in refs:
        if not (rel(mu_hat, ref_mu) <= LIMIT_REL_TOL
                and rel(aoa, ref_aoa) <= LIMIT_REL_TOL):
            out.append(f"{spec}: mu_hat/aoa {mu_hat:.10g}/{aoa:.10g} "
                       f"vs {ref_mu:.10g}/{ref_aoa:.10g}")
    return out


def check_curve(ears, esjds, spots) -> list[str]:
    """A table-route curve: finite, EAR in [0, 1] and non-increasing, and
    points ``spots`` = [(index, ear, esjd), ...] match the nested route."""
    ears, esjds = np.asarray(ears, dtype=float), np.asarray(esjds, dtype=float)
    out = []
    if not (np.all(np.isfinite(ears)) and np.all(np.isfinite(esjds))):
        return ["non-finite curve values"]
    if np.any(ears < 0.0) or np.any(ears > 1.0) or np.any(esjds < 0.0):
        out.append("EAR outside [0, 1] or negative ESJD")
    if np.any(np.diff(ears) > 1e-7 + 1e-7 * ears[:-1]):
        out.append("EAR increases with lambda")
    for i, ear, esjd in spots:
        if not (abs(ears[i] - ear) <= TABLE_VS_NESTED
                and abs(esjds[i] - esjd) <= TABLE_VS_NESTED * max(1.0, esjd)):
            out.append(f"table vs nested at point {i}: "
                       f"{ears[i]:.10g}/{esjds[i]:.10g} vs {ear:.10g}/{esjd:.10g}")
    return out


def within_se(label: str, value: float, exact: float, se: float) -> list[str]:
    if abs(value - exact) <= N_SE * se:
        return []
    return [f"{label}: {value:.6g} vs exact {exact:.6g}, "
            f"|z| = {abs(value - exact) / se:.2f} > {N_SE:g}"]
