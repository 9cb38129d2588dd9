#!/usr/bin/env python3
"""Efficiency curves for random walk Metropolis on spherical targets.

For a spherically symmetric, radially nonincreasing target density the
expected acceptance rate (EAR) and expected squared jump distance (ESJD)
of a random walk Metropolis chain have exact one-dimensional integral
representations in the proposal scale lambda.  This demo traces both
statistics across a scale grid for a standard Gaussian target in a few
dimensions, locates the ESJD-optimal scale, and shows a two-component
mixture whose ESJD curve has two separated local maxima, so "tune the
scale by climbing the ESJD" is not a globally safe rule there.

Run:  python demos/efficiency_curves.py
"""
from __future__ import annotations

import numpy as np

from rwmscaling import (
    build_example_target,
    closed_form_gaussian_1d,
    curve,
    optimize,
    parse_target_spec,
)


def gaussian_curves() -> None:
    print("Gaussian target, Gaussian proposal")
    print("-" * 66)
    for d in (1, 5, 30):
        target = build_example_target("gaussian", d)
        proposal = build_example_target("gaussian", d)
        lambdas = np.geomspace(0.05, 20.0, 9) / np.sqrt(d)
        points = curve(target, proposal, lambdas)
        print(f"d = {d}")
        print(f"  {'lambda':>10s} {'EAR':>10s} {'ESJD':>12s}")
        for pt in points:
            print(f"  {pt.lam:10.4f} {pt.ear:10.6f} {pt.esjd:12.6f}")
        opt = optimize(target, proposal)
        print(f"  optimum: lambda = {opt.lambda_hat:.4f}, "
              f"EAR = {opt.ear_hat:.4f}, ESJD = {opt.esjd_hat:.4f}")
        if d == 1:
            ear, esjd = closed_form_gaussian_1d(opt.lambda_hat)
            print(f"  closed form at that scale: EAR = {ear:.4f}, "
                  f"ESJD = {esjd:.4f}")
        print()


def bimodal_mixture_curve() -> None:
    print("Two-component Gaussian mixture (weight p = 1/d^2), d = 10")
    print("-" * 66)
    d = 10
    target = parse_target_spec("mixture:p=1/d^2", d)
    proposal = build_example_target("gaussian", d)
    opt = optimize(target, proposal, lam_lo=0.05, lam_hi=40.0)
    print("local ESJD maxima (narrow component tunes one, wide the other):")
    for m in opt.local_maxima:
        print(f"  lambda = {m.lam:8.4f}  EAR = {m.ear:.6f}  ESJD = {m.esjd:.4f}")
    print(f"reported optimum uses rule: {opt.canonical_rule}")
    print(f"  lambda_hat = {opt.lambda_hat:.4f} (EAR {opt.ear_hat:.4f})")
    print()
    print("A scale tuned between the two peaks is poor for both components;")
    print("acceptance-rate targeting alone cannot reveal this structure.")


def main() -> None:
    gaussian_curves()
    bimodal_mixture_curve()


if __name__ == "__main__":
    main()
