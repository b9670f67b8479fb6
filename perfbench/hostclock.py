"""Wall time corrected for the speed of a shared host.

The cores this benchmark gets are shared with other tenants, and their speed
changes under it: a fixed loop timed in two-second windows runs between 0.65
and 1.15 times its median rate, and slow phases last from seconds to
minutes, long enough to slow every repeat of a stage in a run, or several
runs in a row.  Repeating the work inside one run cannot average that out,
so the stage times the benchmark reports are wall times at a reference
speed.

While a stage runs, a fixed probe that shares no code with the package is
timed once before it, once after it, and every ``INTERVAL_S`` of wall time
from a ``SIGALRM`` handler in the same thread.  The stage's wall time
without the probes, multiplied by the mean of ``PROBE_REF_S / probe time``,
is the time it would have taken on a host where the probe takes
``PROBE_REF_S``.  ``PROBE_REF_S`` only sets the scale: it is near the
probe's usual time on an idle 2.0 GHz Xeon vCPU, so there the figures stay
close to wall seconds.  A program change does not change the probe, so it
moves the corrected time as much as the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PROBE_REF_S = 0.7e-3
INTERVAL_S = 0.02
_ROUNDS = 40
_V = np.linspace(-1.0, 1.0, 20 * 40).reshape(20, 40)
_W = np.linspace(-1.0, 1.0, 4 * 20).reshape(4, 20)


def probe() -> float:
    """Seconds taken by a fixed piece of work shaped like the package's hot
    loops: a bit list built in Python, a small network's forward pass in
    numpy, a dict update."""
    start = time.perf_counter()
    state, counts, acc = 12345, {}, 0.0
    for _ in range(_ROUNDS):
        bits = []
        for _ in range(40):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            bits.append(state >> 30)
        h = 1.0 / (1.0 + np.exp(-(_V @ np.asarray(bits, dtype=float))))
        acc += float((_W @ h)[1])
        counts[state & 15] = counts.get(state & 15, 0) + 1
    return time.perf_counter() - start


def speed(samples: list[float]) -> float:
    """The host's speed over ``samples`` probe times, 1.0 at the reference."""
    return statistics.fmean(PROBE_REF_S / s for s in samples)


class HostClock:
    """Times a block; ``wall_s`` excludes the probes, ``ref_s`` is corrected.

    Only one may run at a time, in the main thread."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.wall_s = self.ref_s = float("nan")
        self._inside = 0.0
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t = probe()
            self.samples.append(t)
            self._inside += t
        finally:
            self._busy = False

    def __enter__(self) -> "HostClock":
        self.samples = [probe()]
        self._inside = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = end - self._start - self._inside
        self.samples.append(probe())
        self.ref_s = self.wall_s * speed(self.samples)


class WallClock:
    """A HostClock without the probes: ``ref_s`` is the plain wall time."""

    def __enter__(self) -> "WallClock":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = self.ref_s = time.perf_counter() - self._start
