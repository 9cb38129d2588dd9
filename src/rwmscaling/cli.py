"""Command-line front end emitting plot-ready CSV/JSON data files.

Each subcommand wraps one library operation: ``curve`` tabulates EAR/ESJD
against the proposal scale, ``optimize`` finds the ESJD-optimal scale,
``sweep`` repeats that over a dimension list, ``asymptotic`` solves the
limiting optimum for a radial mixing law, ``elliptical`` tabulates the
eccentricity condition with the adjusted scaling rule, and ``simulate``
runs up to 1000 Metropolis lanes in lockstep, each keeping only its radii
over the groups of equal eigenvalues (its radius on a spherical target).
Exit codes: 0 success, 2 usage error, 3 numerical failure.  Numbers print
with 10 significant digits, and the JSON output carries exactly the values
the CSV shows.  ``main`` builds its parser on the first call and reuses it
for every later call in the process; ``build_parser`` returns a new one.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from contextlib import contextmanager
from typing import Sequence

import numpy as np

from . import __version__
from .asymptotics import AsymptoticsError, mixing_from_spec, solve_aots
from .elliptical import (
    EllipticalSpec,
    eccentricity_condition,
    elliptical_aos,
    parse_eigenvalue_rule,
)
from .engine import EngineError, curve
from .optimizer import OptimizerError, optimize, sweep_dimension
from .quadrature import QuadratureError
from .simulate import run_rwm
from .special import _checked_dimension_list, _checked_positive
from .targets import _parse_pair

__all__ = ["main", "build_parser", "parse_dims"]

_NUMERIC_ERRORS = (EngineError, OptimizerError, QuadratureError, AsymptoticsError)


class UsageError(ValueError):
    """Invalid flag combination detected before any computation."""


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    v = float(v)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.10g}"


def _json_value(v):
    """The value the CSV cell shows: an int for an integer, None for a
    non-finite number."""
    if v is None or isinstance(v, str):
        return v
    if not math.isfinite(v):
        return None
    shown = float(_fmt(v))
    return int(shown) if isinstance(v, (int, np.integer)) else shown


def parse_dims(spec: str) -> list[int]:
    """Dimension list from `a,b,c` or `a:b:linN` / `a:b:logN` grammar."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        grammar = f"bad dimension range {spec!r}; want a:b:linN or a:b:logN"
        if len(parts) != 3:
            raise UsageError(grammar)
        rule = parts[2].strip().lower()
        try:
            a, b = int(parts[0]), int(parts[1])
            n = int(rule[3:]) if rule[:3] in ("lin", "log") else None
        except ValueError:
            raise UsageError(grammar) from None
        if a < 1 or b <= a:
            raise UsageError("dimension range must satisfy 1 <= a < b")
        if n is None:
            raise UsageError(f"unknown spacing rule {rule!r}; want linN or logN")
        if n < 2:
            raise UsageError("need at least two points in a dimension range")
        spacing = np.linspace if rule.startswith("lin") else np.geomspace
        dims = sorted({int(round(v)) for v in spacing(a, b, n)})
    else:
        try:
            dims = [int(tok) for tok in spec.split(",") if tok.strip()]
        except ValueError:
            raise UsageError(f"bad dimension list {spec!r}; want a,b,c or "
                             "a:b:linN / a:b:logN") from None
    return _checked_dimension_list(dims, 1, UsageError)


@contextmanager
def _output(args):
    """The --out stream: stdout for '-' (left open), else the named file."""
    if args.out in (None, "-"):
        yield sys.stdout
    else:
        with open(args.out, "w", encoding="utf-8") as out:
            yield out


def _emit(args, columns: Sequence[str], rows: Sequence[Sequence],
          comments: Sequence[str] = ()) -> None:
    with _output(args) as out:
        if args.format == "csv":
            for c in comments:
                out.write(f"# {c}\n")
            out.write(",".join(columns) + "\n")
            for row in rows:
                out.write(",".join(_fmt(v) for v in row) + "\n")
        else:
            payload = {
                "comments": list(comments),
                "rows": [
                    {c: _json_value(v) for c, v in zip(columns, row)}
                    for row in rows
                ],
            }
            json.dump(payload, out, indent=2)
            out.write("\n")


def cmd_curve(args) -> int:
    lam_lo = _checked_positive(args.lambda_min, "--lambda-min", UsageError)
    lam_hi = _checked_positive(args.lambda_max, "--lambda-max", UsageError)
    if not lam_hi > lam_lo:
        raise UsageError("--lambda-max must exceed --lambda-min")
    if args.points < 2:
        raise UsageError("--points must be at least 2")
    target, proposal = _parse_pair(args.target, args.proposal, args.dim)
    lams = np.geomspace(lam_lo, lam_hi, args.points)
    pts = curve(target, proposal, lams)
    rows = [(p.lam, p.ear, p.esjd) for p in pts if p.ok]
    for p in pts:
        if not p.ok:
            sys.stderr.write(f"point lambda={_fmt(p.lam)} failed: {p.message}\n")
    for message in dict.fromkeys(p.message for p in pts if p.ok and p.message):
        sys.stderr.write(f"warning: {message}\n")
    if not rows:
        raise EngineError("no curve point could be evaluated")
    _emit(args, ["lambda", "ear", "esjd"], rows,
          comments=[f"target={args.target} proposal={args.proposal} d={args.dim}"])
    return 0


def cmd_optimize(args) -> int:
    target, proposal = _parse_pair(args.target, args.proposal, args.dim)
    lam_lo = lam_hi = None
    if args.lambda_min is not None or args.lambda_max is not None:
        if args.lambda_min is None or args.lambda_max is None:
            raise UsageError("give both --lambda-min and --lambda-max or neither")
        lam_lo = _checked_positive(args.lambda_min, "--lambda-min", UsageError)
        lam_hi = _checked_positive(args.lambda_max, "--lambda-max", UsageError)
        if not lam_hi > lam_lo:
            raise UsageError("--lambda-max must exceed --lambda-min")
    opt = optimize(target, proposal, lam_lo=lam_lo, lam_hi=lam_hi)
    if opt.message:
        sys.stderr.write(f"warning: {opt.message}\n")
    _emit(args, ["lambda_hat", "ear_hat", "esjd_hat", "n_local_maxima"],
          [(opt.lambda_hat, opt.ear_hat, opt.esjd_hat, opt.n_local_maxima)],
          comments=[f"target={args.target} proposal={args.proposal} d={args.dim}"])
    return 0


def cmd_sweep(args) -> int:
    dims = parse_dims(args.dims)
    sweep = sweep_dimension(args.target, args.proposal, dims)
    has_cor = any(r.ok and r.corollary_lambda is not None for r in sweep.rows)
    columns = ["d", "lambda_hat", "ear_hat", "esjd_hat"]
    if has_cor:
        columns.append("corollary4_lambda")
    rows = []
    for r in sweep.rows:
        if not r.ok:
            sys.stderr.write(f"d={r.d} failed: {r.message}\n")
            continue
        if r.message:
            sys.stderr.write(f"warning: d={r.d}: {r.message}\n")
        row = [r.d, r.optimum.lambda_hat, r.optimum.ear_hat, r.optimum.esjd_hat]
        if has_cor:
            row.append(r.corollary_lambda)
        rows.append(row)
    if not rows:
        raise OptimizerError("every dimension in the sweep failed")
    comments = [f"target={args.target} proposal={args.proposal}"]
    if sweep.limit_aoa is not None:
        comments.append(f"limit_mu_hat={_fmt(sweep.limit_mu_hat)} "
                        f"limit_aoa={_fmt(sweep.limit_aoa)}")
    _emit(args, columns, rows, comments=comments)
    return 0


def cmd_asymptotic(args) -> int:
    dist = mixing_from_spec(args.mixing, seed=args.seed)
    opt = solve_aots(dist)
    comments = [f"mixing={args.mixing}"]
    if opt.no_finite_optimum:
        comments.append("no finite optimum: the limiting ESJD increases "
                        "without bound and the optimal acceptance rate is 0")
    _emit(args, ["mu_hat", "aoa"], [(opt.mu_hat, opt.aoa)], comments=comments)
    return 0


def cmd_elliptical(args) -> int:
    dims = parse_dims(args.dims)
    report = eccentricity_condition(args.rule, dims)
    core, _ = _parse_pair(args.core, args.proposal, dims[0])
    if args.mu_hat is not None:
        mu_hat = _checked_positive(args.mu_hat, "--mu-hat", UsageError)
    else:
        if core.limit_mixing is None:
            raise UsageError(
                f"core {args.core!r} has no known limiting mixing law; "
                "pass --mu-hat explicitly")
        opt = solve_aots(mixing_from_spec(core.limit_mixing))
        if opt.no_finite_optimum:
            raise AsymptoticsError(
                "core mixing law has no finite optimum; no scaling rule exists")
        mu_hat = opt.mu_hat
    rows = []
    for d, ratio in zip(report.dims, report.ratios):
        core, proposal = _parse_pair(args.core, args.proposal, d)
        spec = EllipticalSpec(d=d, eigenvalues=tuple(parse_eigenvalue_rule(args.rule, d)),
                              spherical_core=core, proposal_core=proposal)
        rows.append((d, ratio, elliptical_aos(spec, mu_hat)))
    verdict = "satisfied" if report.satisfied else "violated"
    _emit(args, ["d", "eccentricity_ratio", "aos_lambda"], rows,
          comments=[f"rule={args.rule} core={args.core} proposal={args.proposal}",
                    f"eccentricity condition: {verdict}",
                    f"mu_hat={_fmt(mu_hat)}"])
    if not report.satisfied:
        sys.stderr.write("warning: eccentricity condition violated; the "
                         "asymptotic rule is not supported for this sequence\n")
    return 0


def cmd_simulate(args) -> int:
    lam = _checked_positive(args.lam, "--lambda", UsageError)
    target, proposal = _parse_pair(args.target, args.proposal, args.dim)
    if args.eigenvalues is not None:
        nus = parse_eigenvalue_rule(args.eigenvalues, args.dim)
        target = EllipticalSpec(d=args.dim, eigenvalues=tuple(nus),
                                spherical_core=target, proposal_core=proposal)
    stats = run_rwm(target, proposal, lam, n_iters=args.iters, seed=args.seed)
    if stats.flag:
        sys.stderr.write(f"warning: {stats.flag}\n")
    record = stats.record()
    if args.format == "json":
        with _output(args) as out:
            json.dump({k: _json_value(v) for k, v in record.items()}, out)
            out.write("\n")
    else:
        _emit(args, list(record), [list(record.values())])
    return 0


def build_parser() -> argparse.ArgumentParser:
    """A new ``rwmscale`` parser on every call; ``main`` reuses one."""
    p = argparse.ArgumentParser(
        prog="rwmscale",
        description="Optimal scaling of random walk Metropolis: exact "
                    "EAR/ESJD curves, optimal proposal scales, asymptotics, "
                    "elliptical extensions, and chain simulation.")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default="-", help="output path (default stdout)")
        sp.add_argument("--format", choices=["csv", "json"], default="csv")

    sp = sub.add_parser("curve", help="tabulate EAR and ESJD against the scale")
    sp.add_argument("target", help="target spec, e.g. gaussian, laplace, "
                                   "mixture:p=1/d^2, custom:<path>")
    sp.add_argument("proposal", help="proposal spec (same grammar)")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--lambda-min", type=float, required=True)
    sp.add_argument("--lambda-max", type=float, required=True)
    sp.add_argument("--points", type=int, default=200)
    common(sp)
    sp.set_defaults(func=cmd_curve)

    sp = sub.add_parser("optimize", help="ESJD-optimal proposal scale")
    sp.add_argument("target")
    sp.add_argument("proposal")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--lambda-min", type=float)
    sp.add_argument("--lambda-max", type=float)
    common(sp)
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("sweep", help="optimal scale/EAR across dimensions")
    sp.add_argument("target")
    sp.add_argument("proposal")
    sp.add_argument("--dims", required=True,
                    help="comma list or a:b:linN / a:b:logN")
    common(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("asymptotic", help="limiting optimum for a mixing law")
    sp.add_argument("--mixing", required=True,
                    help="point:<c> | halfnormal | exp | lognormal | "
                         "pareto:<a> | atoms:v@w,... | samples:<path> | "
                         "from-target:<spec>:<d>")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed of the from-target radius draws")
    common(sp)
    sp.set_defaults(func=cmd_asymptotic)

    sp = sub.add_parser("elliptical",
                        help="eccentricity condition and adjusted scaling rule")
    sp.add_argument("--rule", required=True,
                    help="eigenvalue rule: const:<c> | iota | spike:<c> | file:<path>")
    sp.add_argument("--dims", required=True)
    sp.add_argument("--core", default="gaussian",
                    help="spherical core family of the transformed target")
    sp.add_argument("--proposal", default="gaussian")
    sp.add_argument("--mu-hat", type=float,
                    help="override the transformed-space optimum")
    common(sp)
    sp.set_defaults(func=cmd_elliptical)

    sp = sub.add_parser("simulate", help="run the Metropolis chain")
    sp.add_argument("target")
    sp.add_argument("proposal")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--iters", type=int, default=100_000,
                    help="total steps over all lanes")
    sp.add_argument("--eigenvalues", default=None,
                    help="optional eigenvalue rule making the target elliptical")
    sp.add_argument("--seed", type=int, default=0, help="seed of the chains")
    common(sp)
    sp.set_defaults(func=cmd_simulate)
    # simulate defaults to the JSON chain record
    sp.set_defaults(format="json")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except _NUMERIC_ERRORS as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
