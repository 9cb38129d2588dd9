"""A fixed reference computation that reads the machine's current speed.

On a shared host the same code runs up to twice as slow for stretches of
seconds to minutes, as the host's other load comes and goes.  That drift
swamps any change in the program.  The worker runs `probe` between
requests and scales each request's time by ``PROBE_REF_S`` over the median
time of the probes around it (`SpeedLog.scale`).  The scaled time is the
request's time on the reference machine at its typical speed, and it
moves with the program's own cost, since the probe does not touch the
program.

The probe mixes the kinds of work the package does, so that a slow stretch
slows it about as much as it slows the workloads: an interpreted loop of
float arithmetic and calls, numpy calls on ten-element arrays (the chain's
per-step overhead), numpy on 4096-element arrays (quadrature panels), and
numpy on an 8 MB array (memory bandwidth, as in the table builds).  Each
part takes 8-10 ms on the reference machine.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

# Median probe time over a thousand probes on the reference machine (2
# vCPUs of a shared Intel Xeon virtual machine, Python 3.11, numpy 2.4), so
# that a scaled time equals the raw one at that machine's typical speed.
PROBE_REF_S = 0.040
# How far from a probe, in seconds, it still tells the speed: the host's
# slow and fast stretches last seconds.
REACH_S = 2.0

_rng = np.random.default_rng(20090905)
_TINY = _rng.standard_normal(10)
_MID = _rng.standard_normal(4096)
_BIG: list = []  # made at the first probe, so importing this module is cheap


def _interpreted(n: int = 80_000) -> float:
    s = 0.0
    for i in range(1, n):
        s += math.sqrt(i) * 0.5 - abs(s) * 1e-9
    return s


def _tiny(n: int = 3_000) -> float:
    s = 0.0
    for _ in range(n):
        s += float(np.exp(-0.5 * _TINY @ _TINY)) + float(_TINY.sum())
    return s


def _mid(n: int = 400) -> float:
    s = 0.0
    for _ in range(n):
        s += float(np.sort(np.exp(_MID))[-1])
    return s


def _big(n: int = 7) -> float:
    if not _BIG:
        _BIG.append(_rng.standard_normal(1 << 20))
    s = 0.0
    for _ in range(n):
        s += float(np.exp(_BIG[0]).sum())
    return s


def probe() -> float:
    """Seconds the reference computation takes now."""
    start = time.perf_counter()
    _interpreted()
    _tiny()
    _mid()
    _big()
    return time.perf_counter() - start


def scaled(seconds: float, probe_s: float) -> float:
    """`seconds` measured while the probe took `probe_s`, in seconds of the
    reference machine."""
    return seconds * PROBE_REF_S / probe_s


class SpeedLog:
    """The probes of one run, each kept as (midpoint, seconds)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.probes: list[tuple[float, float]] = []

    def probe(self) -> None:
        start = self.clock()
        seconds = probe()
        self.probes.append((start + 0.5 * seconds, seconds))

    def scale(self, start: float, seconds: float) -> float:
        """A request of `seconds` that started at `start`, scaled by the
        median time of the probes around it: the last probe before it, the
        first after it, and every probe within min(seconds, REACH_S) of it.
        Probes run only between requests, so they see the speed near a
        request's ends, not in its middle: the part of a request farther
        than REACH_S from both ends is left as measured.  A 20 s request is
        thus mostly raw, and a long request already averages the drift over
        its own length."""
        times = [t for t, _ in self.probes]
        end = start + seconds
        reach = min(seconds, REACH_S)
        before = bisect.bisect_left(times, start)  # probes[:before] precede it
        after = bisect.bisect_right(times, end)  # probes[after:] follow it
        lo = min(bisect.bisect_left(times, start - reach), max(before - 1, 0))
        hi = max(bisect.bisect_right(times, end + reach),
                 min(after + 1, len(times)))
        probe_s = statistics.median(p for _, p in self.probes[lo:hi])
        seen = min(1.0, 2.0 * REACH_S / seconds) if seconds > 0 else 1.0
        return seen * scaled(seconds, probe_s) + (1.0 - seen) * seconds
