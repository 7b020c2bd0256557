"""Speed-normalized timing on a machine whose speed drifts.

The benchmark runs on a few cores of a shared host. Pinned to one core, a
fixed pure-Python loop there runs up to 1.7x slower for seconds at a time
when the host is busy, and the two cores drift independently, so wall times
of the same work spread by 25-30% between runs. A `Speedometer` measures
that drift where the work runs: it pins its process to one core and, from a
thread of that process, times `reference()` every PERIOD_S seconds. Each
probe holds the interpreter lock, so the work stalls for its duration; the
stalls are recorded so that callers subtract them.

`Speed.seconds` turns a wall interval into seconds at the reference speed:
the interval's wall time, probes excluded, times REFERENCE_S over the mean
probe time around it. The same work then reads the same whether the core
was busy or not, and a program that does less work reads faster. Nothing in
this module imports cliquerep.
"""

from __future__ import annotations

import bisect
import os
import threading
from time import perf_counter

PERIOD_S = 0.02
#: An interval's speed comes from the probes inside it and within this
#: distance of it, so an interval shorter than the period still has one on
#: each side. The host's speed changes within a second, so a wider window
#: blurs it: on 0.3 s oracle calls, a 0.3 s window left twice the spread.
WINDOW_S = PERIOD_S
#: Duration of `reference()` on an idle core of a 2-core x86 VM
#: (Intel Xeon, Python 3.11.7). Only ratios to it matter.
REFERENCE_S = 0.0004


def reference() -> int:
    """Fixed interpreter work of the kinds the package does: calls, small
    sets and dicts, integer bit operations, list building."""
    acc = 0
    seen: dict[int, int] = {}
    for i in range(250):
        bits = (i * 2654435761) & 0xFFFF
        s = {bits & 7, bits >> 3 & 7, bits >> 6 & 7, i & 7}
        acc += len(s & {1, 3, 5}) + bin(bits).count("1")
        seen[bits & 63] = seen.get(bits & 63, 0) + 1
        acc += sum([k for k in s if k % 2])
    return acc + len(seen)


def pin_to_one_core() -> None:
    """Keep this process, and the threads it starts later, on one core."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[-1]})
    except (AttributeError, OSError):
        pass


class Speedometer:
    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        #: (start, duration) of each probe, perf_counter seconds.
        self.samples: list[tuple[float, float]] = []
        #: Total time the probes held the interpreter.
        self.stalled = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self) -> "Speedometer":
        pin_to_one_core()
        for _ in range(20):  # warm the interpreter's caches for the loop
            reference()
        self._probe()
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        self._probe()

    def _probe(self) -> None:
        t0 = perf_counter()
        reference()
        dt = perf_counter() - t0
        self.samples.append((t0, dt))
        self.stalled += dt

    def _loop(self) -> None:
        while not self._stop.wait(self.period):
            self._probe()

class Speed:
    """The probes of one process, to put its wall intervals at the
    reference speed."""

    def __init__(self, samples) -> None:
        self.samples = sorted((float(t), float(d)) for t, d in samples)
        self.starts = [t for t, _ in self.samples]
        if not self.samples:
            raise ValueError("no speed probes")

    def seconds(self, start: float, end: float, stalled: float = 0.0) -> float:
        """Seconds at the reference speed of the wall interval [start, end],
        less `stalled` seconds of probes inside it. The speed is the mean
        inverse probe time of the probes in the interval widened by WINDOW_S
        on each side, or of the nearest probe if there is none."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        near = self.samples[lo:hi]
        if not near:
            mid = (start + end) / 2
            near = [min(self.samples, key=lambda s: abs(s[0] - mid))]
        speed = sum(REFERENCE_S / d for _, d in near) / len(near)
        return (end - start - stalled) * speed
