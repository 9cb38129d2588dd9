"""Bit-for-bit pins of the sampling oracles: run_rwm, mc_expectation,
elliptical_ear_esjd and a sample-cloud solve_aots.

tests/chain_pins.json holds each call's arguments and the float.hex of every
field of its result, recorded at commit 4c8cc7b, before the radius draws
were evaluated in sorted order and the R-hat ranks taken from run
boundaries.  Both changes are meant to move no bit of any result.

The ``elliptical_ear_esjd iota d=10`` entry alone was re-recorded when
elliptical_ear_esjd came to share mc_expectation's estimator: its draws now
come from one Generator (the proposal radii first, then the directions in
blocks) instead of eight seeded streams, and its result is an
MCExpectation.  Its arguments are unchanged.

The three entries that read a W table (``mc_expectation gaussian d=10``,
``mc_expectation exponential d=10`` and ``elliptical_ear_esjd iota d=10``)
were re-recorded when the table build moved to the log-space integrand
(engine._tail_weight_many).  W moved by rounding, most of it the constant
log_norm - (d - 1) log s rounded once, so each of their twelve fields moved
by 7-14 ulp, at most 2.0e-15 relative.  Every run_rwm and solve_aots entry
held bit for bit.

The same three were re-recorded again when RadialModel.breakpoints() became
the 7-level seed rule of every quadrature over a radial law, W's inner
integral and the table's initial knots included, and the table build took
its absolute tolerance 0.1 rel_tol w_floor from its certificate.  Their
twelve fields moved by 2.7e-14 to 4.6e-13 relative (mc_expectation gaussian
at most 3.0e-13, exponential 2.9e-13, elliptical_ear_esjd 4.6e-13).  Every
run_rwm and solve_aots entry again held bit for bit.

The same three were re-recorded once more when W's inner integral came to
seed at breakpoints() alone, without its seeds at fixed multiples of z, and
the table build to ask for 0.1 rel_tol max(W, w_floor) instead of an
absolute 0.1 rel_tol w_floor and a relative 1e-11.  Six of their fields
moved by 1-2 ulp, at most 2.3e-16 relative; every run_rwm and solve_aots
entry held bit for bit.

The same three were re-recorded when the table build came to start from
two grids (321 uniform knots to the 0.999 quantile and 201 geometric ones
above it) and the breakpoints, without the geometric grid below the 0.999
quantile, with up to 20 refinement rounds instead of 12.  The knots below
the bulk moved, so each table read moved inside its certificate: all twelve
fields moved, by 1.5e-12 to 4.8e-11 relative (mc_expectation gaussian
ear 2.1e-12, ear_se 6.2e-12, esjd 1.5e-12, esjd_se 5.4e-12; exponential
ear 9.7e-12, ear_se 4.6e-11, esjd 1.5e-12, esjd_se 4.8e-11;
elliptical_ear_esjd ear 4.2e-12, ear_se 1.1e-11, esjd 2.8e-12, esjd_se
6.6e-12).  Every run_rwm and solve_aots entry held bit for bit.

The seven spherical run_rwm entries (gaussian d=10 seeds 1 and 2,
exponential d=10 seeds 1 and 2, mixture:p=1/d^2 d=10 seeds 0 and 2, and
gaussian d=2 with n_iters=1003) were re-recorded when a spherical target's
chains came to step in radius alone: after the shared start (the direction
normals, then the start radii) each block draws the proposal radii, one
Beta((d - 1) / 2, (d - 1) / 2) cosine split per step and the uniforms,
not d normals per step.  The chains are the same process with other draws,
so each EAR and ESJD moved by chance, by at most 2.3 of the two runs'
combined standard errors (exponential seed 1; 1.3 at most elsewhere);
their arguments are unchanged.  The elliptical run_rwm entry, both
mc_expectation entries, elliptical_ear_esjd and solve_aots held bit for bit.

All eight run_rwm entries were re-recorded when run_rwm lost its burn-in:
the chains start from exact stationary draws, so every one of the n_iters
steps now counts, where the first tenth (77 steps of the gaussian d=2
entry, now named without its burn_in) was dropped before.  The chains'
draws and paths are unchanged for the seven spherical entries.  The
elliptical entry moved for a second reason: its blocks came to hold at
most engine._NORMAL_BLOCK direction normals, 524 steps a block at d=10
instead of 1310, so its draws come in another order.  Each EAR and ESJD
moved by at most 1.1 of the two runs' combined standard errors (the
elliptical EAR; 0.5 at most elsewhere); both mc_expectation entries,
elliptical_ear_esjd and solve_aots held bit for bit.

Every entry held bit for bit when run_rwm's kernels came to keep each
chain's radius and write its accepts and radii after each step straight
into run_rwm's arrays, replacing the per-block reconstruction of the held
radius from the proposed one and the full-size mask of counted steps.

All eight run_rwm entries were re-recorded when run_rwm came to run K = 50 M
short lanes (1000 at 200k steps, 50 at 1003) in 50 superchains, with
standard errors from the spread of the superchain means and nested R-hat in
place of split-R-hat, and a radial run stopped drawing the start direction
normals it never read.  The draws and their order changed, so each EAR and
ESJD moved by chance: by at most 1.37 of the two runs' combined standard
errors, except exponential seed 1 (EAR -2.37, ESJD -2.30), whose old value
sat 2.8 SE above the table's, and mixture:p=1/d^2 seed 2 (EAR +2.52, ESJD
+2.29), whose old 50 chains all started in the narrow component.  Both
mc_expectation entries, elliptical_ear_esjd and solve_aots held bit for bit.

All eight run_rwm entries were re-recorded when one kernel over each lane's
group radii (the coordinates sharing an eigenvalue; one group on a
spherical target) replaced both the radius-only kernel and the
d-dimensional elliptical one.  A step's direction is now drawn as one
normal per group along its radius plus a chi-square(d_g - 1) for the rest
of each larger group, not as a Beta cosine split (spherical) or d normals
(elliptical), and each lane's start draws its group shares the same way.
The chains are the same processes with other draws, so each EAR and ESJD
moved by chance, by at most 1.17 of the two runs' combined standard errors
(the gaussian d=2 ESJD; 1.10 for the elliptical ESJD, 0.69 at most
elsewhere); their arguments are unchanged.  Both mc_expectation entries,
elliptical_ear_esjd and solve_aots held bit for bit.

The three entries that read a W table were re-recorded when W's integrand
(special._log_x_kernel) came to read K_d's excess g_d from a cubic Hermite
table of its Chebyshev series (special._excess_table, 1024 pieces at d = 10)
instead of summing the series at every node.  All twelve of their fields
moved, by 1.8e-15 to 2.2e-14 relative (16-145 ulp): mc_expectation gaussian
at most 1.8e-14, exponential 1.9e-14, elliptical_ear_esjd 2.2e-14.  Every
run_rwm and solve_aots entry held bit for bit.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from rwmscaling.asymptotics import mixing_from_spec, solve_aots
from rwmscaling.elliptical import (EllipticalSpec, elliptical_ear_esjd,
                                   parse_eigenvalue_rule)
from rwmscaling.simulate import mc_expectation, run_rwm
from rwmscaling.targets import parse_target_spec

_PINS = json.loads((Path(__file__).parent / "chain_pins.json").read_text())


def _hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_hexed(v) for v in value]
    return value


def pinned_result(kind: str, args: dict) -> dict:
    """The hexed fields of one pinned call; ``args`` as stored in the pins."""
    if kind == "solve_aots":
        result = solve_aots(mixing_from_spec(args["mixing"]))
    else:
        d, lam = args["d"], float.fromhex(args["lam"])
        target = parse_target_spec(args["target"], d)
        proposal = (target if args["proposal"] == args["target"]
                    else parse_target_spec(args["proposal"], d))
        if args.get("eigenvalues"):
            target = EllipticalSpec(
                d=d, eigenvalues=tuple(parse_eigenvalue_rule(args["eigenvalues"], d)),
                spherical_core=target, proposal_core=proposal)
        if kind == "run_rwm":
            result = run_rwm(target, proposal, lam, n_iters=args["n_iters"],
                             seed=args["seed"])
        elif kind == "mc_expectation":
            result = mc_expectation(target, proposal, lam, seed=args["seed"])
        else:
            result = elliptical_ear_esjd(target, lam)
    return {k: _hexed(v) for k, v in dataclasses.asdict(result).items()}


@pytest.mark.parametrize("name", sorted(_PINS))
def test_sampling_oracles_are_pinned_bit_for_bit(name):
    pin = _PINS[name]
    assert pinned_result(pin["kind"], pin["args"]) == pin["result"]

