#!/usr/bin/env python3
"""Elliptically symmetric targets: when spherical theory transfers.

Stretching a spherical target by per-axis eigenvalues nu_i leaves the
random walk Metropolis acceptance mechanics computable: conditional on
the proposal radius, the Mahalanobis step length is R |nu . U| for a
uniform direction U, and the spherical machinery applies after that
one extra average.  The spherical scaling rule then survives with a
single correction factor 1 / sqrt(mean nu_i^2) -- provided the
eigenvalue profile is not too eccentric: the largest axis must not
carry a constant fraction of the total squared length as d grows.

This demo computes EAR/ESJD for a 2-d target with axes (1, 3), checks
the uniform-stretch case against the spherical curve, classifies three
eigenvalue profiles by the eccentricity condition, and shows the shell
concentration that underlies the limit: the relative deviation of the
Mahalanobis step length from its root mean square must vanish with d,
which fails exactly for the spiked profile.

Run:  python demos/elliptical_targets.py
"""
from __future__ import annotations

import numpy as np

from rwmscaling import (
    EllipticalSpec,
    build_example_target,
    eccentricity_condition,
    elliptical_aos,
    elliptical_ear_esjd,
    lemma5_numeric_check,
    table_point,
    get_marginal_table,
)


def two_axis_example() -> None:
    print("d = 2 Gaussian core with axes nu = (1, 3)")
    print("-" * 64)
    core = build_example_target("gaussian", 2)
    spec = EllipticalSpec(d=2, eigenvalues=np.array([1.0, 3.0]),
                          spherical_core=core, proposal_core=core)
    for lam in (0.2, 0.4, 0.8):
        pt = elliptical_ear_esjd(spec, lam, n_draws=200_000, seed=7)
        print(f"  lambda = {lam:4.2f}: EAR = {pt.ear:.4f} (+/- {pt.ear_se:.4f})"
              f"  ESJD = {pt.esjd:.4f} (+/- {pt.esjd_se:.4f})")
    print()
    print("Uniform stretch nu = (2, 2) is exactly the spherical chain at 2*lambda:")
    uniform = EllipticalSpec(d=2, eigenvalues=np.array([2.0, 2.0]),
                             spherical_core=core, proposal_core=core)
    pt = elliptical_ear_esjd(uniform, 0.4, n_draws=200_000, seed=7)
    sph = table_point(get_marginal_table(core), core, 0.8)
    print(f"  elliptical EAR {pt.ear:.4f} vs spherical EAR {sph.ear:.4f}")
    print()


def eccentricity_profiles() -> None:
    print("Eccentricity condition across eigenvalue profiles")
    print("-" * 64)
    dims = [8, 32, 128]
    for rule, note in (
        ("const:1", "all axes equal"),
        ("iota", "nu_i = i/d: slowly varying profile"),
        ("spike:1", "one dominant axis"),
    ):
        report = eccentricity_condition(rule, dims)
        ratios = ", ".join(f"{r:.3f}" for r in report.ratios)
        verdict = "satisfied" if report.satisfied else "violated"
        print(f"  {rule:8s} max-axis share by d: [{ratios}]  -> {verdict}"
              f"  ({note})")
    print()
    print("Shell concentration of the Mahalanobis step length")
    print("(relative deviation should vanish with d):")
    for rule in ("const:1", "iota", "spike:1"):
        report = lemma5_numeric_check(rule, [5, 20, 80], n_samples=60_000,
                                      seed=11)
        devs = ", ".join(f"{v:.4f}" for v in report.deviations)
        trend = "decreasing" if report.decreasing else "stalls"
        print(f"  {rule:8s} [{devs}]  -> {trend}")
    print()


def corrected_scaling_rule() -> None:
    print("Scaling-rule correction for elliptical targets")
    print("-" * 64)
    d = 9
    core = build_example_target("gaussian", d)
    nu = np.full(d, 3.0)
    spec = EllipticalSpec(d=d, eigenvalues=nu, spherical_core=core,
                          proposal_core=core)
    mu_hat = 1.1906012483427703
    spherical = 2.0 * mu_hat * np.sqrt(d) / (np.sqrt(d) * np.sqrt(d))
    corrected = elliptical_aos(spec, mu_hat)
    print(f"  spherical rule: {spherical:.4f}; with axes nu = 3: "
          f"{corrected:.4f} (factor 1/3)")


def main() -> None:
    two_axis_example()
    eccentricity_profiles()
    corrected_scaling_rule()


if __name__ == "__main__":
    main()
