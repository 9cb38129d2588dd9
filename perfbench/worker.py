"""Runs one workload in this process and prints its raw results as JSON.

run.py starts a fresh process of this script for every measurement, with
the package's ``src`` directory on PYTHONPATH, so the package's global
table cache and the peak memory of one run never reach another.  The
process sets the workload up, runs its request list ``passes`` times as a
closed loop with one caller (each request starts when the previous one has
returned), then checks every answer.

    worker.py --workload W --seed N --seconds S [--setup-only | --trace]

``--setup-only`` stops after set-up.  ``--trace`` traces the set-up, runs
half the passes untraced and as many traced, and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path

import speed

# Seconds of requests between two speed probes: the probes then take less
# than a tenth of a run.
PROBE_EVERY_S = 0.5
SETUP_PROBES = 3


def clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so run.py can subtract its own reading
    # taken before starting this process.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(requests, log, rec=None, tag=""):
    """One closed-loop pass: (start, raw seconds) of each request and the
    (output, error) list.  The speed probe (`log`) runs after every
    PROBE_EVERY_S of requests and after the last request, so no request's
    time includes it."""
    timed, outcomes = [], []
    since = 0.0
    for i, req in enumerate(requests):
        if rec is not None:
            rec.request = f"{tag}.{i}"
        t0 = clock()
        try:
            out, err = req.call(), None
        except Exception as exc:  # a raising request is a failed request
            out, err = None, f"{type(exc).__name__}: {exc}"
        timed.append((t0, clock() - t0))
        outcomes.append((out, err))
        since += timed[-1][1]
        if since >= PROBE_EVERY_S or i == len(requests) - 1:
            log.probe()
            since = 0.0
    return timed, outcomes


def _same(a, b) -> bool:
    try:
        return bool(a == b)
    except Exception:
        return False


def check_passes(requests, passes_outcomes):
    """(failed count, problem lines) over every request of every pass.  A
    repeated request whose output equals an already checked one shares its
    verdict, so each distinct answer is checked once."""
    failed, problems, seen = 0, [], {}
    for outcomes in passes_outcomes:
        for i, (req, (out, err)) in enumerate(zip(requests, outcomes)):
            if err is not None:
                found = [err]
            elif i in seen and _same(seen[i][0], out):
                found = seen[i][1]
            else:
                try:
                    found = req.check(out)
                except Exception as exc:  # a check that cannot read the answer
                    found = [f"check raised {type(exc).__name__}: {exc}"]
                seen[i] = (out, found)
            if found:
                failed += 1
                problems.append(f"{req.name}: {'; '.join(found)}")
    return failed, problems


def chain_steps(requests, latencies, outcomes):
    """(Metropolis steps, seconds) summed over the pass's run_rwm requests."""
    steps = seconds = 0.0
    for req, lat, (out, _) in zip(requests, latencies, outcomes):
        if req.name.startswith("run_rwm") and out is not None:
            steps += out.n_iters
            seconds += lat
    return steps, seconds


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    # Set-up is scaled by probes on both sides of it; run.py subtracts the
    # first ones' time.
    t0 = clock()
    before = [speed.probe() for _ in range(SETUP_PROBES)]
    probes_s = clock() - t0

    import workloads

    rec = tracer = None
    if args.trace:
        import spans

        rec = spans.Recorder()
        tracer = spans.Tracer(rec)
        tracer.install()
    wl = workloads.build(args.workload, args.seed)
    ready = clock()
    if tracer is not None:
        tracer.uninstall()
    import numpy
    import scipy

    after = [speed.probe() for _ in range(SETUP_PROBES)]
    result = {"ready": ready, "passes": 0, "setup_probes": [before, after],
              "setup_probes_s": probes_s,
              "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__}}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    passes = workloads.passes_for(args.workload, args.seconds)
    if args.trace:  # half untraced, half traced: about one run's length
        passes = max(1, passes // 2)
    log = speed.SpeedLog(clock)
    log.probe()
    timed, outcomes = [], []
    for p in range(passes):
        t, outs = run_pass(wl.requests, log)
        timed.append(t)
        outcomes.append(outs)

    traced = []
    if tracer is not None:
        if spans.traced_bindings(wl.log_pi_models):
            raise RuntimeError("tracer left wrappers in place after set-up")
        tracer.install(log_pi_models=wl.log_pi_models)
        try:
            for p in range(passes):
                t, outs = run_pass(wl.requests, log, rec, f"p{p}")
                traced.append(t)
                outcomes.append(outs)
        finally:
            tracer.uninstall()
        left = spans.traced_bindings(wl.log_pi_models)
        if left:
            raise RuntimeError(f"tracer left wrappers in place: {left}")

    def scaled(passes_timed):
        return [[log.scale(s, d) for s, d in t] for t in passes_timed]

    latencies = scaled(timed)
    steps = chain_s = 0.0
    for lat, outs in zip(latencies, outcomes):
        s, t = chain_steps(wl.requests, lat, outs)
        steps, chain_s = steps + s, chain_s + t
    result.update(passes=passes, latencies=latencies,
                  raw_latencies=[[d for _, d in t] for t in timed],
                  probes=[p for _, p in log.probes], steps=steps,
                  chain_s=chain_s, peak_rss_mb=peak_rss_mb())

    if tracer is not None:
        here = Path(__file__).resolve().parent
        (here / "out").mkdir(exist_ok=True)
        span_file = here / "out" / f"spans-{args.workload}-seed{args.seed}.csv"
        spans.write_spans(rec, span_file)
        untraced_s = sum(map(sum, latencies))
        overhead = sum(map(sum, scaled(traced))) / untraced_s - 1.0
        traced_raw = [sum(d for _, d in t) for t in traced]
        result.update(layers=spans.layer_metrics(rec, traced_raw, overhead),
                      span_file=str(span_file.relative_to(here.parent)))

    failed, problems = check_passes(wl.requests, outcomes)
    result.update(attempted=sum(map(len, outcomes)), failed=failed,
                  problems=problems, requests_per_pass=len(wl.requests))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
