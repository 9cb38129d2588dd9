#!/usr/bin/env python3
"""Optimal acceptance rates across dimension and their limits.

Sweeping the ESJD-optimal proposal scale across dimensions shows the
finite-dimensional optimal acceptance rate converging to a limit that
depends only on the limiting mixing law of the rescaled target radius:
0.234 for targets whose radius concentrates (Gaussian, exponential) and
strictly smaller values for targets whose radius stays genuinely random
in the limit (dimension-free radial laws).  The sweep also reports the
scaling-rule prediction lambda = 2 mu_hat k_x / (sqrt(d) k_y) next to
the measured optimum so the agreement is visible line by line.

Dimension-dependent mixtures break the clean picture: depending on how
the component weight scales with d, the optimal acceptance rate can
approach the usual limit, collapse to zero, or the optimal scale can
jump between the two local ESJD peaks along the sweep.  A drift
diagnostic classifies which of these happened.

Run:  python demos/dimension_sweep.py   (about a minute)
"""
from __future__ import annotations

from rwmscaling import peak_drift_diagnostic, sweep_dimension

DIMS = [1, 2, 5, 10, 30, 100]


def unimodal_families() -> None:
    print("Optimal acceptance rate by dimension (Gaussian proposal)")
    print("-" * 72)
    for family in ("gaussian", "exponential", "radial-gaussian",
                   "radial-exponential"):
        sweep = sweep_dimension(family, "gaussian", DIMS)
        print(f"{family}  (limit {sweep.limit_aoa:.4f})")
        print(f"  {'d':>4s} {'lambda_hat':>11s} {'rule':>11s} {'EAR_hat':>9s}")
        for row in sweep.rows:
            print(f"  {row.d:4d} {row.optimum.lambda_hat:11.4f} "
                  f"{row.corollary_lambda:11.4f} {row.optimum.ear_hat:9.4f}")
        print()


def mixture_regimes() -> None:
    print("Mixture targets: weight scaling decides the limit")
    print("-" * 72)
    for spec, note in (
        ("mixture:p=0.2", "fixed weight: wide component dominates ESJD"),
        ("mixture:p=1/d", "shrinking weight: optimal EAR collapses to zero"),
        ("mixture:p=1/d^3", "fast-shrinking weight: narrow component wins"),
    ):
        sweep = sweep_dimension(spec, "gaussian", [5, 10, 30, 100])
        drift = peak_drift_diagnostic(sweep)
        ears = ", ".join(f"{row.optimum.ear_hat:.4f}" for row in sweep.rows)
        print(f"{spec:18s} EAR_hat = [{ears}]")
        print(f"{'':18s} drift class: {drift.classification}  ({note})")
    print()


def main() -> None:
    unimodal_families()
    mixture_regimes()


if __name__ == "__main__":
    main()
