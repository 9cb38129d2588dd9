"""Benchmark command for rwmscaling: one workload, measured end to end.

    python3 perfbench/run.py --workload {cold,warm,limits,chain} --seed N \
        --seconds S --trace {0,1}

Run from the repository root (any directory holding ``src/rwmscaling`` and
``BENCHMARK.json`` next to this directory).  The package is run from
source; nothing is installed.  Each measurement is a fresh worker process
(worker.py), started with RWM_THREADS removed from its environment so the
package's thread pools run as shipped.

Timings are scaled to the speed of a reference machine (speed.py): the
worker runs a fixed probe computation between requests and scales each
request by the probe's reference time over its time then, so that the
shared host's drift in speed cancels.  The raw times are printed too, as
``raw.*``.

With ``--trace 0`` the workload runs once for timing, then set-up alone
runs twice more: ``setup_s`` is the median of the three set-ups, each timed
from process start to the first timed request.  ``wall_s`` is the mean
pass time; ``req_p50_s`` and ``req_tail_s`` are Harrell-Davis estimates of
the 50th and 90th percentile of all request latencies.  With ``--trace 1``
one worker runs the passes untraced and then traced and reports per-layer
metrics.  The last line of output is the JSON result; the lines before it
list every metric with its unit, the run's metadata and any failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cold", "warm", "limits", "chain")
SETUP_RUNS = 3
TIME_LIMIT_S = 170.0
TAIL_LEVEL = 0.9

# Every end-to-end metric: name -> (unit, better).  BENCHMARK.json names the
# ones the final JSON line carries.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "req_p50_s": ("s", "lower"),
    "req_tail_s": ("s", "lower"),
    "steps_per_s": ("1/s", "higher"),
    "fail_frac": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a weighted mean of all the
    order statistics, the weights peaking at rank q * n.  Unlike a single
    order statistic, it does not jump when two requests of different cost
    swap ranks, so it reads steadier from run to run."""
    from scipy.special import betainc

    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    edges = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(ordered, edges, edges[1:]))


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = clock() + TIME_LIMIT_S
        self.env = dict(os.environ)
        self.env.pop("RWM_THREADS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    def spawn(self, *extra):
        """(process start time, parsed result) of one worker."""
        a = self.args
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", str(a.seconds), *extra]
        start = clock()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=self.env, cwd=ROOT,
                              timeout=max(1.0, self.deadline - clock()))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"worker {' '.join(extra) or 'run'} exited "
                               f"with code {proc.returncode}")
        return start, json.loads(lines[-1])


def scaled_setup(start, res) -> tuple[float, float]:
    """(raw, scaled) seconds from process start to the first request, less
    the probes' own time; scaled like a request, by the probes before and
    after it."""
    raw = res["ready"] - start - res["setup_probes_s"]
    before, after = map(statistics.median, res["setup_probes"])
    return raw, speed.scaled(raw, 0.5 * (before + after))


def end_to_end(runner: Runner):
    start, res = runner.spawn()
    setups = [scaled_setup(start, res)]
    for _ in range(SETUP_RUNS - 1):
        setups.append(scaled_setup(*runner.spawn("--setup-only")))
    walls = [sum(p) for p in res["latencies"]]
    raw_walls = [sum(p) for p in res["raw_latencies"]]
    lat = [t for p in res["latencies"] for t in p]
    raw_lat = [t for p in res["raw_latencies"] for t in p]
    metrics = {
        "setup_s": statistics.median(s for _, s in setups),
        "wall_s": statistics.fmean(walls),
        "req_p50_s": hd_quantile(lat, 0.5),
        "req_tail_s": hd_quantile(lat, TAIL_LEVEL),
        "steps_per_s": res["steps"] / res["chain_s"] if res["chain_s"] else 0.0,
        "fail_frac": res["failed"] / res["attempted"],
        "peak_rss_mb": res["peak_rss_mb"],
        "raw.setup_s": statistics.median(r for r, _ in setups),
        "raw.wall_s": statistics.fmean(raw_walls),
        "raw.req_p50_s": hd_quantile(raw_lat, 0.5),
        "raw.req_tail_s": hd_quantile(raw_lat, TAIL_LEVEL),
    }
    units = dict(END_TO_END)
    units.update({k: ("s", "lower") for k in metrics if k.startswith("raw.")})
    level = 100.0 * TAIL_LEVEL
    notes = {
        "setup_s": "median of {} set-ups: {}".format(
            len(setups), ", ".join(f"{s:.3f}" for _, s in setups)),
        "wall_s": f"mean of {len(walls)} passes of "
                  f"{res['requests_per_pass']} requests",
        "req_p50_s": f"Harrell-Davis p50 of {len(lat)} requests",
        "req_tail_s": f"Harrell-Davis p{level:g} of {len(lat)} requests",
        "steps_per_s": f"{res['steps']:.0f} steps in {res['chain_s']:.3f} s "
                       "of run_rwm",
        "fail_frac": f"{res['failed']} of {res['attempted']} requests",
    }
    for k in list(notes):
        if f"raw.{k}" in metrics:
            notes[f"raw.{k}"] = "as measured, not scaled by the speed probe"
    probes = res["probes"]
    meta = {"req_tail_level_pct": level, "req_tail_samples": len(lat),
            "req_tail_estimator": "Harrell-Davis", "passes": len(walls),
            "speed_probe_ref_s": speed.PROBE_REF_S,
            "speed_probe_s": {"n": len(probes), "min": min(probes),
                              "median": statistics.median(probes),
                              "max": max(probes)}}
    return res, metrics, units, notes, meta


def per_layer(runner: Runner, better):
    _, res = runner.spawn("--trace")
    metrics = res["layers"]
    import spans  # needs numpy only; does not import the package

    units = {k: (spans.unit_of(k), better.get(k, "")) for k in metrics}
    notes = {"trace.overhead_frac": "traced over untraced mean pass time"}
    meta = {"passes": res["passes"], "span_file": res["span_file"]}
    return res, metrics, units, notes, meta


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metadata(args, res) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        **res["versions"], "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "rwm_threads": "unset (removed from the workers' environment; was "
                       f"{os.environ.get('RWM_THREADS', 'unset')})",
        "git_commit": git_commit(),
        "load": "closed loop, one caller, one process per workload run",
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "rwmscaling" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package source at {SRC}/rwmscaling; run "
                         "from a checkout of the repository\n")
        return 2
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: cannot read BENCHMARK.json: {exc}\n")
        return 2
    section = bench["per_layer" if args.trace else "end_to_end"]
    listed = [m["name"] for m in section]
    better = {m["name"]: m["better"] for m in section}

    try:
        runner = Runner(args)
        if args.trace:
            res, metrics, units, notes, meta = per_layer(runner, better)
        else:
            res, metrics, units, notes, meta = end_to_end(runner)
        meta.update(metadata(args, res))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    missing = [name for name in listed if name not in metrics]
    if missing:
        sys.stderr.write(f"error: BENCHMARK.json lists unknown metrics {missing}\n")
        return 1

    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    for name in sorted(metrics):
        unit, direction = units[name]
        print(f"{name:52s} {metrics[name]:>16.6g} {unit:6s} "
              f"{direction + ' is better' if direction else '':16s} "
              f"{notes.get(name, '')}")
    for line in res["problems"]:
        print(f"FAIL {line}")
    meta["units"] = {name: {"unit": units[name][0], "better": units[name][1]}
                     for name in listed}
    print("META " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]}
                    for name in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
