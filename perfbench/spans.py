"""In-memory span recorder that measures the package's layers from outside.

`Tracer.install` replaces each public function of interest at every binding
a caller looks it up through: the package modules import with
``from .x import y``, so ``kernel_K`` is called as ``engine.kernel_K`` and
``stacked_quad`` as ``engine.stacked_quad`` or ``targets.stacked_quad``, not
through the defining module.  Every module attribute that *is* the original
function is patched, and `Tracer.uninstall` puts each one back, so an
untraced run measures the unmodified program.

Each call becomes a span: name, start, end, self time, parent span, thread
and request id.  Self time is the span's duration minus the time covered
by its child spans on the same thread.  A span opened on a worker thread
with nothing open on that thread takes as parent the innermost span open
on the request thread, so a sweep's per-dimension work nests under the
sweep call while its self time still includes the wait for its workers.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# Certificate target of a W table build (engine.MarginalTable's rel_tol).
CERT_TARGET = 3e-9

# Names whose spans are aggregated, not stored: one call per chain step.
_AGGREGATE_ONLY = {"simulate.log_pi"}


class Span:
    __slots__ = ("sid", "name", "start", "end", "self_s", "parent", "thread",
                 "request", "cpu_s")

    def __init__(self, sid, name, start, end, self_s, parent, thread, request,
                 cpu_s):
        self.sid, self.name, self.start, self.end = sid, name, start, end
        self.self_s, self.parent, self.thread = self_s, parent, thread
        self.request, self.cpu_s = request, cpu_s

    @property
    def dur(self) -> float:
        return self.end - self.start


class _Frame:
    __slots__ = ("sid", "name", "start", "cpu_start", "child_s", "parent")

    def __init__(self, sid, name, start, cpu_start, parent):
        self.sid, self.name, self.start = sid, name, start
        self.cpu_start, self.parent = cpu_start, parent
        self.child_s = 0.0


class Recorder:
    """Collects spans and counters; `request` labels everything recorded."""

    def __init__(self, clock=time.perf_counter, cpu_clock=time.thread_time):
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.spans: list[Span] = []
        self.aggregates: dict[tuple[str, str], list[float]] = defaultdict(
            lambda: [0, 0.0, 0.0])
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.samples: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.request = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_thread = threading.get_ident()
        self._main_stack = self._stack()

    @property
    def scope(self) -> str:
        return "setup" if self.request == "setup" else "requests"

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_names(self) -> list[str]:
        """Names of the spans open on the calling thread, outermost first."""
        return [f.name for f in self._stack()]

    def begin(self, name: str) -> _Frame:
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        elif threading.get_ident() != self._main_thread and self._main_stack:
            parent = self._main_stack[-1].sid
        else:
            parent = None
        frame = _Frame(next(self._ids), name, self.clock(), self.cpu_clock(),
                       parent)
        stack.append(frame)
        return frame

    def end(self, frame: _Frame) -> None:
        end = self.clock()
        cpu_s = self.cpu_clock() - frame.cpu_start
        stack = self._stack()
        stack.pop()
        dur = end - frame.start
        if stack:
            stack[-1].child_s += dur
        self_s = dur - frame.child_s
        if frame.name in _AGGREGATE_ONLY:
            with self._lock:
                agg = self.aggregates[(self.scope, frame.name)]
                agg[0] += 1
                agg[1] += dur
                agg[2] += self_s
            return
        self.spans.append(Span(frame.sid, frame.name, frame.start, end, self_s,
                               frame.parent, threading.get_ident(),
                               self.request, cpu_s))

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[(self.scope, name)] += value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[(self.scope, name)].append(float(value))

    def wrap(self, name: str, fn, hook=None, on_error=None):
        """`fn` recorded as span `name`; `hook(rec, args, kwargs, out)` adds
        counters after a successful call, `on_error(rec, exc)` after a raise."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.begin(name)
            try:
                out = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, kwargs, out)
                return out
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                self.end(frame)

        traced.perfbench_span = name
        return traced


def self_time_totals(spans) -> dict[str, list[float]]:
    """name -> [calls, inclusive s, self s] summed over spans."""
    out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        row = out[s.name]
        row[0] += 1
        row[1] += s.dur
        row[2] += s.self_s
    return out


# ---------------------------------------------------------------------------
# Counters collected at the layer boundaries.


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _kernel_points(rec, args, kwargs, out):
    rec.count("special.kernel_K.points", np.size(_arg(args, kwargs, 1, "x")))


def _stacked_counts(rec, args, kwargs, out):
    rec.count("quadrature.stacked_quad.evals", out[2])
    if rec.open_names()[-2:-1] == ["engine.MarginalTable"]:
        rec.count("engine.MarginalTable.w_batches")
        rec.count("engine.MarginalTable.w_items",
                  np.size(_arg(args, kwargs, 1, "a")))


def _adaptive_counts(rec, args, kwargs, out):
    rec.count("quadrature.adaptive_quad.evals", out.n_evals)
    if rec.open_names()[-2:-1] == ["engine.table_point"]:
        rec.count("engine.table_point.evals", out.n_evals)


def _quad_error(rec, exc):
    from rwmscaling.quadrature import QuadratureError

    if isinstance(exc, QuadratureError) and not getattr(exc, "_traced", False):
        exc._traced = True
        rec.count("quadrature.errors")


def _table_built(rec, args, kwargs, out):
    rec.sample("engine.MarginalTable.cert", args[0].max_interp_rel_err)


def _w_points(rec, args, kwargs, out):
    rec.count("engine.MarginalTable.w.points", np.size(_arg(args, kwargs, 1, "z")))


def _curve_point(rec, args, kwargs, out):
    if "optimizer.optimize" in rec.open_names()[:-1]:
        rec.count("optimizer.optimize.points")


def _curve_failed(rec, args, kwargs, out):
    rec.count("engine.curve.failed_points", sum(not p.ok for p in out))


def _sweep_failed(rec, args, kwargs, out):
    rec.count("optimizer.sweep_dimension.failed_rows",
              sum(not r.ok for r in out.rows))


def _theta_points(rec, args, kwargs, out):
    rec.count("asymptotics.theta.points", np.size(_arg(args, kwargs, 1, "x")))


def _theta_prime_points(rec, args, kwargs, out):
    rec.count("asymptotics.theta_prime_neg.points",
              np.size(_arg(args, kwargs, 1, "mu")))


def _draws(rec, args, kwargs, out):
    rec.count("targets.sample_radius.draws", np.size(out))


def _chain(rec, args, kwargs, out):
    rec.count("simulate.run_rwm.steps", out.n_iters)
    rec.count("simulate.run_rwm.flagged", bool(out.flag))


# (span name, module, attribute, hook, on_error).  Each module-level
# function is patched wherever a package module binds it; the two
# MarginalTable entries are patched on the class.
FUNCTIONS = [
    ("targets.radial_from_density", "targets", "radial_from_density", None, None),
    ("targets.sample_radius", "targets", "sample_radius", _draws, None),
    ("special.kernel_K", "special", "kernel_K", _kernel_points, None),
    ("quadrature.stacked_quad", "quadrature", "stacked_quad", _stacked_counts,
     _quad_error),
    ("quadrature.adaptive_quad", "quadrature", "adaptive_quad", _adaptive_counts,
     _quad_error),
    ("engine.MarginalTable", "engine", "MarginalTable.__init__", _table_built, None),
    ("engine.MarginalTable.w", "engine", "MarginalTable.w", _w_points, None),
    ("engine.table_point", "engine", "table_point", _curve_point, None),
    ("engine.ear_esjd", "engine", "ear_esjd", _curve_point, None),
    ("engine.curve", "engine", "curve", _curve_failed, None),
    ("optimizer.optimize", "optimizer", "optimize", None, None),
    ("optimizer.sweep_dimension", "optimizer", "sweep_dimension", _sweep_failed,
     None),
    ("asymptotics.mixing_from_spec", "asymptotics", "mixing_from_spec", None, None),
    ("asymptotics.solve_aots", "asymptotics", "solve_aots", None, None),
    ("asymptotics.theta", "asymptotics", "theta", _theta_points, None),
    ("asymptotics.theta_prime_neg", "asymptotics", "theta_prime_neg",
     _theta_prime_points, None),
    ("elliptical.elliptical_ear_esjd", "elliptical", "elliptical_ear_esjd", None,
     None),
    ("simulate.run_rwm", "simulate", "run_rwm", _chain, None),
    ("simulate.mc_expectation", "simulate", "mc_expectation", None, None),
    ("cli.main", "cli", "main", None, None),
]
SPAN_NAMES = [f[0] for f in FUNCTIONS] + ["simulate.log_pi"]


def _package_modules():
    import rwmscaling  # noqa: F401  (loads every submodule)

    return [m for n, m in sorted(sys.modules.items())
            if (n == "rwmscaling" or n.startswith("rwmscaling."))
            and n != "rwmscaling.__main__" and m is not None]


class Tracer:
    """Installs a Recorder's wrappers into the package and removes them."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._patches: list[tuple[object, str, object]] = []

    def install(self, log_pi_models=()) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        by_name = {m.__name__: m for m in modules}
        for span, mod_name, attr, hook, on_error in FUNCTIONS:
            owner = by_name[f"rwmscaling.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self.rec.wrap(span, vars(cls)[meth],
                                                     hook, on_error))
                continue
            original = getattr(owner, attr)
            traced = self.rec.wrap(span, original, hook, on_error)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, traced)
        for model in log_pi_models:
            if "log_pi" not in vars(model) or _is_traced(model.log_pi):
                continue
            self._patch(model, "log_pi",
                        self.rec.wrap("simulate.log_pi", model.log_pi))

    def _patch(self, owner, name, traced) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, traced)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()


def _is_traced(fn) -> bool:
    return hasattr(fn, "perfbench_span")


def traced_bindings(extra_objects=()) -> list[str]:
    """Every package binding (or object attribute) that still holds a wrapper."""
    found = []
    for mod in _package_modules():
        for name, value in vars(mod).items():
            if callable(value) and _is_traced(value):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, fn in vars(value).items():
                    if callable(fn) and _is_traced(fn):
                        found.append(f"{mod.__name__}.{name}.{meth}")
    for obj in extra_objects:
        if _is_traced(getattr(obj, "log_pi", None)):
            found.append(f"{obj.label}.log_pi")
    return found


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced run.

# Counters reported per pass (per set-up for the "setup." scope).
_PER_PASS_COUNTERS = [
    "special.kernel_K.points",
    "quadrature.stacked_quad.evals",
    "quadrature.adaptive_quad.evals",
    "quadrature.errors",
    "engine.MarginalTable.w.points",
    "engine.curve.failed_points",
    "optimizer.sweep_dimension.failed_rows",
    "asymptotics.theta.points",
    "asymptotics.theta_prime_neg.points",
    "simulate.run_rwm.steps",
    "simulate.run_rwm.flagged",
    "targets.sample_radius.draws",
]


def unit_of(name: str) -> str:
    if name.endswith((".s", ".self_s", ".wait_s", "wall_s")):
        return "s"
    if name.endswith(".ns_per_point"):
        return "ns"
    if name.endswith((".share", ".overlap", ".cert_max", ".cert_ok_frac",
                      "overhead_frac")):
        return "ratio"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _scope_metrics(rec: Recorder, scope: str, div: int) -> dict[str, float]:
    spans = [s for s in rec.spans if (s.request == "setup") == (scope == "setup")]
    totals = self_time_totals(spans)
    totals.update({name: row for (sc, name), row in rec.aggregates.items()
                   if sc == scope})
    zero = [0, 0.0, 0.0]
    m: dict[str, float] = {}
    for name in SPAN_NAMES:
        calls, incl, self_s = totals.get(name, zero)
        m[f"{name}.calls"] = calls / div
        m[f"{name}.s"] = incl / div
        m[f"{name}.self_s"] = self_s / div

    def counter(key):
        return rec.counters.get((scope, key), 0.0)

    for key in _PER_PASS_COUNTERS:
        m[key] = counter(key) / div
    m["special.kernel_K.ns_per_point"] = 1e9 * _ratio(
        totals.get("special.kernel_K", zero)[2], counter("special.kernel_K.points"))
    builds = totals.get("engine.MarginalTable", zero)[0]
    certs = rec.samples.get((scope, "engine.MarginalTable.cert"), [])
    m["engine.MarginalTable.w_batches"] = _ratio(
        counter("engine.MarginalTable.w_batches"), builds)
    m["engine.MarginalTable.w_items"] = _ratio(
        counter("engine.MarginalTable.w_items"), builds)
    m["engine.MarginalTable.cert_max"] = max(certs, default=0.0)
    # With no build in scope no certificate missed its target.
    m["engine.MarginalTable.cert_ok_frac"] = _ratio(
        sum(c <= CERT_TARGET for c in certs), len(certs)) if certs else 1.0
    m["engine.table_point.evals_per_call"] = _ratio(
        counter("engine.table_point.evals"),
        totals.get("engine.table_point", zero)[0])
    m["optimizer.optimize.points_per_call"] = _ratio(
        counter("optimizer.optimize.points"),
        totals.get("optimizer.optimize", zero)[0])

    sweeps = [s for s in spans if s.name == "optimizer.sweep_dimension"]
    sweep_ids = {s.sid: s.thread for s in sweeps}
    per_dim = [s for s in spans
               if s.parent in sweep_ids and s.thread != sweep_ids[s.parent]]
    m["optimizer.sweep_dimension.overlap"] = _ratio(
        sum(s.dur for s in per_dim), sum(s.dur for s in sweeps))
    m["optimizer.sweep_dimension.wait_s"] = sum(
        s.dur - s.cpu_s for s in per_dim) / div
    return m


def layer_metrics(rec: Recorder, traced_walls, overhead: float) -> dict[str, float]:
    """Every per-layer metric: request spans per pass, set-up spans with a
    ``setup.`` prefix, each function's share of the traced pass time
    (`traced_walls`, raw seconds per pass) and the tracing overhead."""
    passes = len(traced_walls)
    m = _scope_metrics(rec, "requests", passes)
    traced_total = sum(traced_walls)
    for name in SPAN_NAMES:
        m[f"{name}.share"] = _ratio(m[f"{name}.s"] * passes, traced_total)
    m.update({f"setup.{k}": v for k, v in _scope_metrics(rec, "setup", 1).items()})
    m["trace.wall_s"] = traced_total / passes
    m["trace.overhead_frac"] = overhead
    return m


def write_spans(rec: Recorder, path) -> None:
    """All stored spans as CSV, times in seconds of the run's clock."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sid,name,start,end,self_s,parent,thread,request,cpu_s\n")
        for s in rec.spans:
            fh.write(f"{s.sid},{s.name},{s.start:.9f},{s.end:.9f},"
                     f"{s.self_s:.9f},{'' if s.parent is None else s.parent},"
                     f"{s.thread},{s.request},{s.cpu_s:.9f}\n")
