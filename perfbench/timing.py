"""Timing that holds still on a host whose speed drifts.

On the shared two-core host this benchmark was built on, the same Python
work ran up to 1.8 times slower in one process than in the next, and the
speed changed from second to second within a process.  Process CPU time
drifts with wall time, so neither clock alone gives steady figures.

A HostSpeed sampler therefore times a fixed probe of interpreter and
numpy work after every timed call, and every SAMPLE_INTERVAL_S inside
longer calls (SIGALRM, handled between bytecodes in the main thread).
The probe's own time is taken off every measured interval, and each timed
call is scaled by REFERENCE_PROBE_S / (probe time around it).  The result
is a time in reference seconds: the time the call would have taken on a
host where the probe takes REFERENCE_PROBE_S.  The raw wall times are
kept next to the scaled ones in the per-run result file.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

SAMPLE_INTERVAL_S = 0.25
# median probe time on the host the README's reference figures come from
REFERENCE_PROBE_S = 0.0012

_GRID = np.arange(32 * 32, dtype=np.uint16).reshape(32, 32)


def probe() -> int:
    """A fixed mix of the work the program does: big-int bit tricks, dict
    and frozenset building, numpy scalar indexing and small vector compares."""
    acc = 0
    seen = {}
    for i in range(1200):
        x = (i * 2654435761) & 0xFFFFFFFF
        acc ^= x & -x
        seen[x & 511] = frozenset((i & 7, i & 3))
    for r in range(16):
        for c in range(0, 32, 4):
            if _GRID[r, c] == 65535:
                acc += 1
        acc += int((_GRID[:, r:] != _GRID[:, r : r + 1]).sum())
    return acc + len(seen)


def timed_probe() -> float:
    t = time.perf_counter()
    probe()
    return time.perf_counter() - t


class HostSpeed:
    """Samples the probe during timed work and scales intervals by it.

    clock() is perf_counter() minus the time spent in probes, so anything
    timed with it excludes the sampler's own work.
    """

    def __init__(self):
        self.spent = 0.0
        self.samples: list[tuple[float, float]] = []  # (clock() at the probe, probe seconds)
        self._old_handler = None

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _sample(self) -> None:
        at = self.clock()
        d = timed_probe()
        self.samples.append((at, d))
        self.spent += d

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def between_calls(self) -> None:
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def __enter__(self) -> "HostSpeed":
        for _ in range(3):
            self._sample()
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        for _ in range(3):
            self._sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_PROBE_S / (mean probe speed over [start, end]) as a
        factor on the interval's length.  Uses the probes taken inside the
        interval plus the nearest one on each side."""
        at = [t for t, _ in self.samples]
        lo = max(0, bisect.bisect_right(at, start) - 1)
        hi = min(len(at), bisect.bisect_right(at, end) + 1)
        speeds = [REFERENCE_PROBE_S / d for _, d in self.samples[lo:hi]]
        return statistics.fmean(speeds)

    def median_probe_s(self) -> float:
        return statistics.median(d for _, d in self.samples)

