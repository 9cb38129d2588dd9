"""Tests of the benchmark itself: span arithmetic, tracer hygiene, checks.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _recorder():
    clock = FakeClock()
    return spans.Recorder(clock=clock, cpu_clock=clock), clock


def _at(clock, t, fn, *args):
    clock.now = t
    return fn(*args)


def test_self_time_subtracts_nested_children_on_the_same_thread():
    rec, clock = _recorder()
    outer = _at(clock, 0.0, rec.begin, "outer")
    child = _at(clock, 2.0, rec.begin, "child")
    grand = _at(clock, 3.0, rec.begin, "grand")
    _at(clock, 4.0, rec.end, grand)
    _at(clock, 5.0, rec.end, child)
    second = _at(clock, 6.0, rec.begin, "child")
    _at(clock, 9.0, rec.end, second)
    _at(clock, 10.0, rec.end, outer)

    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    assert [s.self_s for s in by_name["child"]] == [2.0, 3.0]
    assert by_name["grand"][0].self_s == 1.0
    assert by_name["outer"][0].self_s == 4.0
    assert by_name["grand"][0].parent == by_name["child"][0].sid
    assert by_name["outer"][0].parent is None

    totals = spans.self_time_totals(rec.spans)
    assert totals["child"] == [2, 6.0, 5.0]
    assert totals["outer"] == [1, 10.0, 4.0]


def test_worker_thread_spans_nest_under_the_caller_but_keep_its_self_time():
    rec, clock = _recorder()
    sweep = _at(clock, 0.0, rec.begin, "sweep")

    def worker():
        frame = _at(clock, 1.0, rec.begin, "per_dim")
        inner = _at(clock, 2.0, rec.begin, "inner")
        _at(clock, 5.0, rec.end, inner)
        _at(clock, 8.0, rec.end, frame)

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    _at(clock, 10.0, rec.end, sweep)

    by_name = {s.name: s for s in rec.spans}
    assert by_name["per_dim"].parent == by_name["sweep"].sid
    assert by_name["per_dim"].thread != by_name["sweep"].thread
    assert by_name["inner"].parent == by_name["per_dim"].sid
    # The worker's span is on another thread, so the sweep keeps its wait.
    assert by_name["sweep"].self_s == 10.0
    assert by_name["per_dim"].self_s == 4.0
    assert by_name["inner"].self_s == 3.0


def _bindings():
    import rwmscaling
    from rwmscaling import (asymptotics, cli, engine, optimizer, quadrature,
                            special, targets)

    return {
        "special.kernel_K": (special, "kernel_K"),
        "engine.kernel_K": (engine, "kernel_K"),
        "engine.stacked_quad": (engine, "stacked_quad"),
        "targets.stacked_quad": (targets, "stacked_quad"),
        "quadrature.stacked_quad": (quadrature, "stacked_quad"),
        "asymptotics.adaptive_quad": (asymptotics, "adaptive_quad"),
        "optimizer.table_point": (optimizer, "table_point"),
        "optimizer.optimize": (optimizer, "optimize"),
        "cli.optimize": (cli, "optimize"),
        "cli.main": (cli, "main"),
        "rwmscaling.curve": (rwmscaling, "curve"),
    }


def test_tracer_patches_callers_bindings_and_restores_every_one():
    from rwmscaling import build_example_target, engine

    model = build_example_target("gaussian", 3)
    originals = {k: vars(m)[a] for k, (m, a) in _bindings().items()}
    init, w = vars(engine.MarginalTable)["__init__"], vars(engine.MarginalTable)["w"]
    log_pi = model.log_pi

    rec = spans.Recorder()
    tracer = spans.Tracer(rec)
    tracer.install(log_pi_models=[model])
    try:
        for key, (mod, attr) in _bindings().items():
            assert getattr(vars(mod)[attr], "perfbench_span", None), key
        assert vars(engine.MarginalTable)["__init__"] is not init
        assert model.log_pi is not log_pi
        rec.request = "p0.0"
        engine.kernel_K(3, [0.1, 0.5, 0.9])
        model.log_pi(1.0)
    finally:
        tracer.uninstall()

    for key, (mod, attr) in _bindings().items():
        assert vars(mod)[attr] is originals[key], key
    assert vars(engine.MarginalTable)["__init__"] is init
    assert vars(engine.MarginalTable)["w"] is w
    assert model.log_pi is log_pi
    assert spans.traced_bindings([model]) == []
    assert [s.name for s in rec.spans] == ["special.kernel_K"]
    assert rec.counters[("requests", "special.kernel_K.points")] == 3
    assert rec.aggregates[("requests", "simulate.log_pi")][0] == 1


def test_every_traced_function_is_patched_somewhere():
    tracer = spans.Tracer(spans.Recorder())
    tracer.install()
    try:
        wrapped = {vars(owner)[name].perfbench_span
                   for owner, name, _ in tracer._patches}
    finally:
        tracer.uninstall()
    assert wrapped == {name for name, *_ in spans.FUNCTIONS}
    assert spans.traced_bindings() == []


# ---------------------------------------------------------------------------
# Answer checks


def _optimize_output(key, scale=(1.0, 1.0, 1.0), n_max=None):
    lam, ear, esjd, n = checks.OPTIMA[key]
    lam, ear, esjd = lam * scale[0], ear * scale[1], esjd * scale[2]
    text = ("# target\nlambda_hat,ear_hat,esjd_hat,n_local_maxima\n"
            f"{lam:.10g},{ear:.10g},{esjd:.10g},{n if n_max is None else n_max}\n")
    return 0, text


@pytest.mark.parametrize("key", [("gaussian", "gaussian", 1),
                                 ("gaussian", "gaussian", 10),
                                 ("mixture:p=1/d^2", "gaussian", 10)])
def test_checker_accepts_the_reference_and_fails_a_perturbed_optimum(key):
    req = workloads._cli_optimize(*key, workloads._Jitter(0))
    assert req.check(_optimize_output(key)) == []
    assert req.check(_optimize_output(key, scale=(1.001, 1.0, 1.0)))
    assert req.check(_optimize_output(key, scale=(1.0, 1.0, 1.0 + 1e-6)))
    assert req.check(_optimize_output(key, scale=(1.0, 1.001, 1.0)))
    assert req.check(_optimize_output(key, n_max=3))
    assert req.check((3, "numerical failure"))


def test_checker_limits_and_curves():
    mu, aoa = checks.LIMITS["halfnormal"]
    assert checks.check_limit("halfnormal", mu, aoa, True) == []
    assert checks.check_limit("halfnormal", mu * (1 + 1e-6), aoa, True)
    assert checks.check_limit("pareto:1.5", float("inf"), 0.0, False) == []
    assert checks.check_limit("pareto:1.5", 3.0, 0.01, True)

    ears = [0.9, 0.5, 0.2]
    esjds = [0.1, 0.6, 0.4]
    assert checks.check_curve(ears, esjds, [(1, 0.5, 0.6)]) == []
    assert checks.check_curve(ears, esjds, [(1, 0.5 + 1e-6, 0.6)])
    assert checks.check_curve([0.5, 0.9, 0.2], esjds, [])
    assert checks.within_se("x", 1.0, 1.0 + 3.9e-3, 1e-3) == []
    assert checks.within_se("x", 1.0, 1.0 + 4.1e-3, 1e-3)


def test_checker_elliptical_rows_against_closed_forms():
    rule, nus, satisfied = workloads.ELLIPTICAL_RULES[0]
    req = workloads._cli_elliptical(rule, nus, satisfied)
    mu = 1.1906012483427703
    rows = []
    for d in (8, 32, 128):
        sq = nus(d) ** 2
        rows.append(f"{d},{sq.max() / sq.sum():.10g},"
                    f"{2 * mu / (d * sq.mean()) ** 0.5:.10g}")
    text = ("# rule\n# eccentricity condition: satisfied\n# mu\n"
            "d,eccentricity_ratio,aos_lambda\n" + "\n".join(rows) + "\n")
    assert req.check((0, text)) == []
    assert req.check((0, text.replace("satisfied", "violated")))
    assert req.check((0, text.replace(rows[1], rows[1][:-3] + "999")))


# ---------------------------------------------------------------------------
# Run arithmetic and configuration


def test_harrell_davis_quantile_weighs_the_ranks_around_the_level():
    lat = [float(x) for x in range(1, 15)]  # 14 samples, shuffled below
    shuffled = lat[7:] + lat[:7]
    assert run.hd_quantile(shuffled, 0.5) == pytest.approx(7.5)
    assert run.hd_quantile([3.0] * 9, 0.9) == pytest.approx(3.0)
    tail = run.hd_quantile(lat, run.TAIL_LEVEL)
    assert run.hd_quantile(lat, 0.5) < tail < 14.0
    assert tail == pytest.approx(0.9 * 15, abs=0.5)
    # Moving one sample a little moves the estimate a little.
    nudged = lat[:-2] + [13.1, 14.0]
    assert 0.0 < run.hd_quantile(nudged, 0.9) - tail < 0.1


def test_each_request_is_scaled_by_the_speed_probes_around_it(monkeypatch):
    import speed
    import worker

    ref = speed.PROBE_REF_S
    clock = FakeClock()
    durations = iter([ref, 2 * ref, ref])

    def probe():
        clock.now += (d := next(durations))
        return d

    def request(seconds):
        def call():
            clock.now += seconds
            return seconds
        return workloads.Request(f"{seconds}", call, lambda out: [])

    monkeypatch.setattr(speed, "probe", probe)
    monkeypatch.setattr(worker, "clock", clock)
    monkeypatch.setattr(worker, "PROBE_EVERY_S", 0.3)
    log = speed.SpeedLog(clock)
    log.probe()
    timed, outcomes = worker.run_pass([request(0.2), request(0.2),
                                       request(0.1)], log)
    # A probe after 0.3 s of requests (here after the second) and after the
    # last.
    assert [p for _, p in log.probes] == [ref, 2 * ref, ref]
    assert [d for _, d in timed] == pytest.approx([0.2, 0.2, 0.1])
    assert [out for out, _ in outcomes] == [0.2, 0.2, 0.1]
    scaled = [log.scale(s, d) for s, d in timed]
    # The first and last requests take in the probes at their ends; the
    # second also reaches, within its own length, the probe after the last,
    # and the median of the three is ref.
    assert scaled == pytest.approx([0.2 / 1.5, 0.2, 0.1 / 1.5])
    # A request as long as the whole run is scaled by every probe.
    assert log.scale(0.0, 0.7) == pytest.approx(0.7)
    # Of an 8 s request, only the 2 s at each end are near a probe: half
    # of it is scaled, half left as measured.
    slow = speed.SpeedLog(clock)
    slow.probes = [(0.0, 2 * ref), (10.0, 2 * ref)]
    assert slow.scale(1.0, 0.5) == pytest.approx(0.25)
    assert slow.scale(1.0, 8.0) == pytest.approx(4.0 * 0.5 + 4.0)
    assert speed.scaled(1.0, ref) == 1.0


def test_benchmark_json_matches_the_metrics_the_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for m in bench["end_to_end"]:
        assert run.END_TO_END[m["name"]] == (m["unit"], m["better"])
    for m in bench["per_layer"]:
        assert m["unit"] == spans.unit_of(m["name"]), m["name"]
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert tuple(w["name"] for w in bench["workloads"]) == workloads.NAMES
    assert run.WORKLOADS == workloads.NAMES
