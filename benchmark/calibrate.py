"""Host-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed for a
single-threaded Python process changes by up to 2x within minutes, as
neighbours come and go. A fixed reference pass, run between the ops it
calibrates, slows down with the host much as the ops do (README.md
gives how closely). The *reference time* of a stretch of work is its wall time scaled by how
much slower the reference passes ran during it than their nominal time,
``REFERENCE_S``: the time the work would take on the host at its
nominal speed.

The reference pass mixes the kinds of work ``uavsched`` does: an
integer dict loop, an event sweep over slotted objects with float
arithmetic, sorting and string formatting, and small numpy draws. It
never changes with the program under test.
"""

from __future__ import annotations

import math
import random
import statistics
import time

import numpy as np

# nominal seconds of one reference pass: its typical time on a 2-vCPU
# Intel Xeon VM with Python 3.11 and numpy 2.4 when the host is quiet
REFERENCE_S = 0.008


class _Event:
    __slots__ = ("t", "kind", "who", "dur")

    def __init__(self, t, kind, who, dur):
        self.t = t
        self.kind = kind
        self.who = who
        self.dur = dur


def _dict_loop(n=30000):
    s, d = 0, {}
    for k in range(n):
        d[k & 255] = s
        s += k * 3 % 7
    return s


def _event_sweep(n=1500):
    rng = random.Random(12345)
    kinds = ("fly", "hover", "recharge")
    events = [_Event(rng.random() * 1000.0, kinds[k % 3], f"u{k % 7}",
                     rng.random()) for k in range(n)]
    events.sort(key=lambda e: e.t)
    busy, total, rows = {}, 0.0, []
    for e in events:
        start = max(e.t, busy.get(e.who, 0.0))
        end = start + e.dur * (1.5 if e.kind == "recharge" else 1.0)
        busy[e.who] = end
        total += math.hypot(end - start, e.t)
        rows.append(f"{e.who},{e.kind},{start:.2f},{end:.2f}")
    return total + len("\n".join(rows))


def _numpy_draws(n=200):
    rng = np.random.default_rng(7)
    acc = 0.0
    for _ in range(n):
        a = rng.random(16)
        perm = rng.permutation(16)
        acc += float(a.sum()) + float(a[perm[0]]) + int(rng.integers(0, 10))
    return acc


def reference_pass() -> float:
    """The fixed work; returns its wall seconds."""
    t0 = time.perf_counter()
    _dict_loop()
    _event_sweep()
    _numpy_draws()
    return time.perf_counter() - t0


class HostClock:
    """Reference passes spread over a stretch of measured work.

    ``factor()`` is ``REFERENCE_S`` over the median pass, so wall
    times of the work multiplied by it are reference times. The median
    over the whole stretch follows the host's mean speed during it and
    ignores a pass hit by a scheduler hiccup.
    """

    def __init__(self):
        self.passes: list[float] = []

    def calibrate(self) -> float:
        """Run one reference pass; returns its wall seconds."""
        elapsed = reference_pass()
        self.passes.append(elapsed)
        return elapsed

    def factor(self) -> float:
        return (REFERENCE_S / statistics.median(self.passes)
                if self.passes else 1.0)
