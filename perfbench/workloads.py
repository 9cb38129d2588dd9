"""The benchmark's four workloads: inputs built from the seed, requests, checks.

Building a workload (`build`) is its set-up: it imports the package and
makes the models, mixing laws and, for ``warm`` and ``chain``, the W
tables.  The result is a list of requests, each a call into the public API
plus a check of its answer.  The seed sets the jitter of every lambda grid
and search window and the chain, Monte Carlo and elliptical RNG seeds;
nothing else varies, so each seed gives the program the same amount of
work.

Why each workload exists (see NOTES.md for the layer map):

* ``cold``  -- CLI requests that parse fresh models, so each builds its own
  W table: the table build (special + quadrature.stacked_quad + engine),
  the nested route and the sweep pool.
* ``warm``  -- library curve/optimize calls against tables built in set-up:
  table reads (engine.table_point -> adaptive_quad -> MarginalTable.w).
* ``limits`` -- the mixing-law battery through solve_aots: asymptotics and
  vector-valued adaptive_quad, no table and no kernel.
* ``chain`` -- run_rwm, mc_expectation and elliptical_ear_esjd: the
  per-step Python loop and the elliptical stream pool, no quadrature.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import rwmscaling as R
from rwmscaling import cli

import checks

# Seconds of --seconds that one pass stands for: a run makes
# max(1, round(seconds / PASS_SECONDS)) passes, so the number of requests
# depends only on --seconds.  At --seconds 12 that is one pass of cold
# (~25 s) and limits (~30 s), 27 of warm (~0.4 s each) and three of chain
# (~4 s each).
PASS_SECONDS = {"cold": 25.0, "warm": 0.45, "limits": 34.0, "chain": 4.0}
# Chains per target a pass: with two, the chains are two thirds of chain's
# requests, so its median latency falls inside them, not on the tenfold
# step down to the elliptical and Monte Carlo estimates.
CHAIN_SEEDS = 2

CHAIN_STEPS = 200_000
ELLIPTICAL_LAMBDA = 0.1


@dataclass
class Request:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class Workload:
    requests: list[Request]
    log_pi_models: list = field(default_factory=list)


def passes_for(name: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[name]))


class _Jitter:
    """Seeded factors in [0.9, 1.1] (log-uniform) and RNG seeds."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def factor(self) -> float:
        return float(np.exp(self.rng.uniform(-0.1, 0.1)))

    def seed(self) -> int:
        return int(self.rng.integers(2**31 - 1))

    def index(self, n: int) -> int:
        return int(self.rng.integers(n))


# Reference computations of the checks, kept apart from the requests' own
# models and tables so a check never reads state a request built.
_check_models: dict = {}


def _model(spec: str, d: int):
    key = (spec, d)
    if key not in _check_models:
        _check_models[key] = R.parse_target_spec(spec, d)
    return _check_models[key]


def _nested(t_spec, p_spec, d, lam):
    ear, esjd, _, _ = R.ear_esjd(_model(t_spec, d), _model(p_spec, d), lam)
    return ear, esjd


def _table_route(t_spec, p_spec, d, lam):
    key = ("table", t_spec, d)
    if key not in _check_models:
        _check_models[key] = R.MarginalTable(_model(t_spec, d))
    pt = R.table_point(_check_models[key], _model(p_spec, d), lam)
    return pt.ear, pt.esjd


# ---------------------------------------------------------------------------
# CLI requests


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _csv_rows(output) -> tuple[list[str], list[list[str]], list[str]]:
    code, text = output
    lines = text.splitlines()
    comments = [ln[2:] for ln in lines if ln.startswith("# ")]
    body = [ln.split(",") for ln in lines if ln and not ln.startswith("#")]
    if code != 0 or not body:
        raise ValueError(f"exit code {code}, output {text[:200]!r}")
    return body[0], body[1:], comments


def _cli_request(name, argv, check_rows) -> Request:
    def check(output):
        try:
            header, rows, comments = _csv_rows(output)
        except ValueError as exc:
            return [str(exc)]
        return check_rows(header, rows, comments)

    return Request(name, lambda: _run_cli(argv), check)


def _cli_optimize(t_spec, p_spec, d, jit) -> Request:
    argv = ["optimize", t_spec, p_spec, "--dim", str(d),
            "--lambda-min", f"{1e-3 * jit.factor():.8g}",
            "--lambda-max", f"{1e3 * jit.factor():.8g}"]

    def check_rows(header, rows, comments):
        if len(rows) != 1:
            return [f"expected one optimum row, got {len(rows)}"]
        lam, ear, esjd, n_max = (float(v) for v in rows[0])
        return checks.check_optimum((t_spec, p_spec, d), lam, ear, esjd,
                                    int(n_max))

    return _cli_request(f"cli optimize {t_spec} d={d}", argv, check_rows)


def _cli_curve(jit) -> Request:
    d, n = 5, 200
    lo, hi = 0.3 * jit.factor(), 3.0 * jit.factor()
    argv = ["curve", "gaussian", "gaussian", "--dim", str(d),
            "--lambda-min", f"{lo:.8g}", "--lambda-max", f"{hi:.8g}"]
    spot = [jit.index(n), jit.index(n)]

    def check_rows(header, rows, comments):
        if len(rows) != n:
            return [f"expected {n} curve rows, got {len(rows)}"]
        vals = np.array(rows, dtype=float)
        spots = [(i, *_nested("gaussian", "gaussian", d, vals[i, 0]))
                 for i in spot]
        return checks.check_curve(vals[:, 1], vals[:, 2], spots)

    return _cli_request("cli curve gaussian d=5", argv, check_rows)


SWEEP_DIMS = (2, 5, 10, 20, 50, 100)


def _cli_sweep() -> Request:
    argv = ["sweep", "gaussian", "gaussian",
            "--dims", ",".join(str(d) for d in SWEEP_DIMS)]

    def check_rows(header, rows, comments):
        if [int(r[0]) for r in rows] != list(SWEEP_DIMS):
            return [f"sweep rows for dims {[r[0] for r in rows]}"]
        out = []
        for r in rows:
            d = int(r[0])
            lam, ear, esjd = (float(v) for v in r[1:4])
            n_max = checks.OPTIMA[("gaussian", "gaussian", d)][3]
            out += checks.check_optimum(("gaussian", "gaussian", d), lam, ear,
                                        esjd, n_max)
        return out

    return _cli_request("cli sweep gaussian", argv, check_rows)


def _cli_asymptotic(spec) -> Request:
    def check_rows(header, rows, comments):
        mu_hat, aoa = (float(v) for v in rows[0])
        return checks.check_limit(spec, mu_hat, aoa, np.isfinite(mu_hat))

    return _cli_request(f"cli asymptotic {spec}",
                        ["asymptotic", "--mixing", spec], check_rows)


def _cli_elliptical(rule, nus, satisfied) -> Request:
    """`elliptical --rule rule` against the closed forms: the ratio
    max nu^2 / sum nu^2 and lambda = 2 mu_hat / (sqrt(d) sqrt(mean nu^2)),
    with mu_hat the point-mass optimum of the gaussian core."""
    dims = (8, 32, 128)
    verdict = "satisfied" if satisfied else "violated"

    def check_rows(header, rows, comments):
        out = [] if f"eccentricity condition: {verdict}" in comments else [
            f"{rule}: condition not reported as {verdict}"]
        if len(rows) != len(dims):
            return out + [f"{rule}: {len(rows)} rows"]
        for r, d in zip(rows, dims):
            sq = nus(d) ** 2
            ratio = sq.max() / sq.sum()
            lam = 2.0 * R.POINT_MASS_MU_HAT / np.sqrt(d * sq.mean())
            got = [float(v) for v in r]
            if got[0] != d or checks.rel(got[1], ratio) > 1e-9 \
                    or checks.rel(got[2], lam) > checks.LIMIT_REL_TOL:
                out.append(f"{rule} row {r} vs ratio {ratio:.10g}, "
                           f"lambda {lam:.10g}")
        return out

    return _cli_request(f"cli elliptical {rule}",
                        ["elliptical", "--rule", rule,
                         "--dims", ",".join(str(d) for d in dims)], check_rows)


ELLIPTICAL_RULES = [
    ("iota", lambda d: np.arange(1.0, d + 1), True),
    ("const:1", lambda d: np.ones(d), True),
    ("spike:1", lambda d: np.r_[np.ones(d - 1), float(d)], False),
]


# ---------------------------------------------------------------------------
# Library requests


def _curve_points_check(points, n):
    if len(points) != n or not all(p.ok for p in points):
        return [f"{sum(not p.ok for p in points)} failed of {len(points)} "
                f"points (expected {n})"]
    return []


def _nested_point(target, proposal, lam) -> Request:
    def check(points):
        out = _curve_points_check(points, 1)
        if out:
            return out
        ear, esjd = _table_route("gaussian", "gaussian", target.d, lam)
        p = points[0]
        if abs(p.ear - ear) > checks.TABLE_VS_NESTED \
                or abs(p.esjd - esjd) > checks.TABLE_VS_NESTED:
            out.append(f"nested {p.ear:.10g}/{p.esjd:.10g} vs table "
                       f"{ear:.10g}/{esjd:.10g} at lambda={lam:.6g}")
        return out

    return Request(f"nested point d={target.d}",
                   lambda: R.curve(target, proposal, [lam], method="nested"),
                   check)


def _library_curve(key, target, proposal, lams, spot) -> Request:
    t_spec, p_spec, d = key

    def check(points):
        out = _curve_points_check(points, len(lams))
        if out:
            return out
        ear, esjd = _nested(t_spec, p_spec, d, lams[spot])
        out = checks.check_curve([p.ear for p in points],
                                 [p.esjd for p in points], [(spot, ear, esjd)])
        best = max(p.esjd for p in points)
        if best > checks.OPTIMA[key][2] * (1.0 + checks.ESJD_REL_TOL):
            out.append(f"curve ESJD {best:.10g} above the optimum")
        return out

    return Request(f"curve {t_spec} d={d}",
                   lambda: R.curve(target, proposal, lams), check)


def _library_optimize(key, target, proposal, lo, hi) -> Request:
    def check(opt):
        return checks.check_optimum(key, opt.lambda_hat, opt.ear_hat,
                                    opt.esjd_hat, opt.n_local_maxima)

    return Request(f"optimize {key[0]} d={key[2]}",
                   lambda: R.optimize(target, proposal, lam_lo=lo, lam_hi=hi),
                   check)


# ---------------------------------------------------------------------------
# The workloads


COLD_OPTIMIZE = [
    ("gaussian", "gaussian", 1),
    ("gaussian", "gaussian", 10),
    ("gaussian", "gaussian", 100),
    ("exponential", "exponential", 30),
    ("radial-gaussian", "radial-gaussian", 100),
    ("lognormal", "gaussian", 20),
    ("mixture:p=1/d^2", "gaussian", 10),
]
NESTED_LAMBDAS = (0.3, 0.55, 0.75, 1.0, 1.8)

# Two tables only.  The mixture d = 10 and radial-gaussian d = 100 builds
# (6 s and 3.5 s) are left to cold: built three times per run to time
# set-up, they would not leave room in the benchmark's time budget for the
# 16 s of timed passes this workload needs to be steady.
WARM_PAIRS = [
    ("gaussian", "gaussian", 10),
    ("exponential", "exponential", 30),
]

LIMIT_LAWS = ["point:1", "atoms:0.5@1,2@1", "atoms:1@0.2,1@1,3@0.5",
              "halfnormal", "exp", "lognormal", "from-target:gaussian:50",
              "pareto:1.5"]
# The heavy laws (seconds) and the atom laws (under a millisecond) are
# solved once per pass.  The requests of tens of milliseconds, which set the
# latency percentiles, run in LIGHT_ROUNDS rounds so that each percentile
# falls inside a group of repeats rather than on one sample; the rounds are
# spread before, between and after the heavy laws, so they sample the whole
# pass rather than one stretch of it.
HEAVY_LAWS = ["pareto:1.5", "from-target:gaussian:50"]
ONCE_LAWS = HEAVY_LAWS + ["point:1", "atoms:0.5@1,2@1", "atoms:1@0.2,1@1,3@0.5"]
LIGHT_ROUNDS = 6


def _cold(jit: _Jitter) -> Workload:
    reqs = [_cli_optimize(t, p, d, jit) for t, p, d in COLD_OPTIMIZE]
    reqs += [_cli_curve(jit), _cli_sweep()]
    target = R.build_example_target("gaussian", 10)
    proposal = R.build_example_target("gaussian", 10)
    reqs += [_nested_point(target, proposal, lam * jit.factor())
             for lam in NESTED_LAMBDAS]
    return Workload(reqs)


def _warm(jit: _Jitter) -> Workload:
    reqs = []
    for key in WARM_PAIRS:
        t_spec, p_spec, d = key
        target = R.parse_target_spec(t_spec, d)
        proposal = R.parse_target_spec(p_spec, d)
        R.get_marginal_table(target)
        proposal.moment(2)  # lazily cached; table_point reads it
        lo, hi = R.default_search_range(target, proposal)
        center = np.sqrt(lo * hi)
        lams = np.geomspace(center / 10.0 * jit.factor(),
                            center * 10.0 * jit.factor(), 200)
        reqs.append(_library_curve(key, target, proposal, lams,
                                   jit.index(lams.size)))
        reqs.append(_library_optimize(key, target, proposal,
                                      lo * jit.factor(), hi * jit.factor()))
        if key == WARM_PAIRS[0]:
            # The whole search window as one more curve: an odd number of
            # requests a pass.
            wide = np.geomspace(lo * jit.factor(), hi * jit.factor(), 200)
            reqs.append(_library_curve(key, target, proposal, wide,
                                       jit.index(wide.size)))
    return Workload(reqs)


def _limits(jit: _Jitter) -> Workload:
    laws = {spec: R.mixing_from_spec(spec) for spec in LIMIT_LAWS}

    def solve(spec):
        def check(opt):
            return checks.check_limit(spec, opt.mu_hat, opt.aoa, opt.finite)

        return Request(f"solve_aots {spec}", lambda: R.solve_aots(laws[spec]),
                       check)

    light = [solve(spec) for spec in LIMIT_LAWS if spec not in ONCE_LAWS]
    light += [_cli_asymptotic(spec) for spec in ("halfnormal", "exp", "lognormal")]
    light += [_cli_elliptical(*rule) for rule in ELLIPTICAL_RULES]
    per_slot = LIGHT_ROUNDS // 3
    reqs = light * per_slot
    for spec in ONCE_LAWS:
        reqs.append(solve(spec))
        if spec in HEAVY_LAWS:
            reqs += light * per_slot
    return Workload(reqs)


def _chain(jit: _Jitter) -> Workload:
    d = 10
    models = {}
    optima = {}
    for fam in ("gaussian", "exponential"):
        target = R.build_example_target(fam, d)
        proposal = R.build_example_target(fam, d)
        R.get_marginal_table(target)
        optima[fam] = R.optimize(target, proposal)
        models[fam] = (target, proposal)
    g_target, g_prop = models["gaussian"]
    spec = R.EllipticalSpec(d=d, eigenvalues=tuple(np.arange(1.0, d + 1)),
                            spherical_core=g_target, proposal_core=g_prop)

    def setup_problems(fam):
        opt = optima[fam]
        return checks.check_optimum((fam, fam, d), opt.lambda_hat, opt.ear_hat,
                                    opt.esjd_hat, opt.n_local_maxima)

    def exact_check(fam, kind):
        opt = optima[fam]

        def check(res):
            if kind == "chain":
                ear, ear_se, esjd, esjd_se = (res.accept_rate, res.accept_se,
                                              res.esjd, res.esjd_se)
            else:
                ear, ear_se, esjd, esjd_se = res.ear, res.ear_se, res.esjd, res.esjd_se
            slack = checks.TABLE_VS_NESTED
            return (setup_problems(fam)
                    + checks.within_se(f"{fam} {kind} EAR", ear, opt.ear_hat,
                                       ear_se + slack)
                    + checks.within_se(f"{fam} {kind} ESJD", esjd, opt.esjd_hat,
                                       esjd_se + slack * max(1.0, opt.esjd_hat)))

        return check

    ref_ear, ref_esjd, ref_ear_se, ref_esjd_se = checks.ELLIPTICAL_REF

    def elliptical_check(ear, ear_se, esjd, esjd_se, label):
        return (checks.within_se(f"{label} EAR", ear, ref_ear,
                                 np.hypot(ear_se, ref_ear_se))
                + checks.within_se(f"{label} ESJD", esjd, ref_esjd,
                                   np.hypot(esjd_se, ref_esjd_se)))

    reqs = []
    for _ in range(CHAIN_SEEDS):
        for fam in ("gaussian", "exponential"):
            target, proposal = models[fam]
            lam, seed = optima[fam].lambda_hat, jit.seed()
            reqs.append(Request(
                f"run_rwm {fam} d={d}",
                lambda t=target, p=proposal, lam=lam, s=seed: R.run_rwm(
                    t, p, lam, n_iters=CHAIN_STEPS, seed=s),
                exact_check(fam, "chain")))
        chain_seed = jit.seed()
        reqs.append(Request(
            f"run_rwm elliptical d={d}",
            lambda s=chain_seed: R.run_rwm(spec, g_prop, ELLIPTICAL_LAMBDA,
                                           n_iters=CHAIN_STEPS, seed=s),
            lambda r: elliptical_check(r.accept_rate, r.accept_se, r.esjd,
                                       r.esjd_se, "elliptical chain")))
    for fam in ("gaussian", "exponential"):
        target, proposal = models[fam]
        lam, seed = optima[fam].lambda_hat, jit.seed()
        reqs.append(Request(
            f"mc_expectation {fam} d={d}",
            lambda t=target, p=proposal, lam=lam, s=seed: R.mc_expectation(
                t, p, lam, seed=s),
            exact_check(fam, "mc")))
    ell_seed = jit.seed()
    reqs.append(Request(
        f"elliptical_ear_esjd d={d}",
        lambda: R.elliptical_ear_esjd(spec, ELLIPTICAL_LAMBDA, seed=ell_seed),
        lambda r: elliptical_check(r.ear, r.ear_se, r.esjd, r.esjd_se,
                                   "elliptical MC")))
    return Workload(reqs,
                    log_pi_models=[models["gaussian"][0], models["exponential"][0]])


_BUILDERS = {"cold": _cold, "warm": _warm, "limits": _limits, "chain": _chain}
NAMES = tuple(_BUILDERS)


def build(name: str, seed: int) -> Workload:
    """Set up workload `name` for `seed`."""
    return _BUILDERS[name](_Jitter(seed))
