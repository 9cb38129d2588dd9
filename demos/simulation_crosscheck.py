#!/usr/bin/env python3
"""Three independent routes to the same two numbers.

The package computes EAR and ESJD three ways that share no code path:
an analytic route (one-dimensional quadrature against the target's
one-coordinate marginal CDF), a Monte Carlo route (averaging the
acceptance function over stationary draws), and a bare simulation of
up to 1000 short Metropolis lanes run in lockstep from exact stationary
starts (error bars from the spread of the means of 50 superchains of
lanes).  On healthy cases the three agree within joint error bars.

The demo closes with a deliberately unhealthy case: a two-component
mixture at d = 10 whose radial marginal has a deep entropic valley.
The analytic and Monte Carlo routes still agree (they integrate the
stationary law directly), but no lane crosses the valley in a million
steps: each of the 1000 lanes reports the component its stationary start
fell in.  About 10 starts land in the rare wide component, a different
number in each superchain, so nested R-hat flags every run; yet the
estimates stay unbiased, because the starts sample the components at
their weights, and the spread of the superchain means sees how many
lanes started wide.

Run:  python demos/simulation_crosscheck.py   (about 3 seconds)
"""
from __future__ import annotations

from rwmscaling import (
    get_marginal_table,
    mc_expectation,
    parse_target_spec,
    run_rwm,
    table_point,
)

CASES = [
    ("gaussian", "gaussian", 10, 0.7528),
    ("exponential", "gaussian", 10, 0.45),
    ("radial-gaussian", "gaussian", 2, 1.67),
    ("gaussian", "laplace", 30, 0.0794),
]


def healthy_cases() -> None:
    print("Analytic vs Monte Carlo vs chain")
    print("-" * 72)
    print(f"{'case':>32s} {'analytic':>9s} {'mc':>9s} {'chain':>9s}")
    for i, (target_spec, proposal_spec, d, lam) in enumerate(CASES):
        target = parse_target_spec(target_spec, d)
        proposal = parse_target_spec(proposal_spec, d)
        exact = table_point(get_marginal_table(target), proposal, lam)
        mc = mc_expectation(target, proposal, lam, n_samples=100_000,
                            seed=300 + i)
        chain = run_rwm(target, proposal, lam, n_iters=500_000, seed=400 + i)
        label = f"{target_spec}/{proposal_spec} d={d} lam={lam}"
        print(f"{label:>32s} {exact.ear:9.5f} {mc.ear:9.5f} "
              f"{chain.accept_rate:9.5f}   (EAR)")
        print(f"{'':>32s} {exact.esjd:9.4f} {mc.esjd:9.4f} "
              f"{chain.esjd:9.4f}   (ESJD)")
    print()


def metastable_mixture() -> None:
    print("Metastable mixture: mixture:p=1/d^2 at d = 10, lambda = 0.8")
    print("-" * 72)
    d, lam = 10, 0.8
    target = parse_target_spec("mixture:p=1/d^2", d)
    proposal = parse_target_spec("gaussian", d)
    exact = table_point(get_marginal_table(target), proposal, lam)
    mc = mc_expectation(target, proposal, lam, n_samples=200_000, seed=5)
    print(f"  stationary E[R^2] = {target.moment(2):.2f}")
    print(f"  analytic EAR = {exact.ear:.5f}, Monte Carlo EAR = {mc.ear:.5f}")
    print("  1000 lanes from stationary starts, 1e6 steps in all per run:")
    for seed in range(6):
        chain = run_rwm(target, proposal, lam, n_iters=1_000_000, seed=seed)
        print(f"    seed {seed}: EAR = {chain.accept_rate:.5f} "
              f"(+/- {chain.accept_se:.5f}), mean R^2 = "
              f"{chain.mean_sq_radius:6.2f}, R-hat = {chain.rhat:.4f}  "
              f"{chain.flag or 'not flagged'}")
    print()
    print("The wide component has weight 1/d^2 = 0.01, so about 10 of the")
    print("1000 lanes start there.  They stay wide (local EAR 0.903, R^2 near")
    print("1000) while the rest stay narrow (0.234, R^2 near 10), so the 50")
    print("superchains disagree by how many wide lanes each holds and nested")
    print("R-hat sits above 1.01 in every run.  Since every start is an exact")
    print("stationary draw, the lanes sample the components at their weights:")
    print("the estimates are unbiased and the error bars, the spread of the 50")
    print("superchain means, cover the analytic value.  With 50 long chains")
    print("instead, no start was wide in 0.99^50 = 61 % of runs, and those")
    print("runs agreed on the narrow component's answer.")


def main() -> None:
    healthy_cases()
    metastable_mixture()


if __name__ == "__main__":
    main()
