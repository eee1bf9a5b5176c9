"""One set-up, timed from process start: import mixdim and build a
workload's inputs, then print the CLOCK_MONOTONIC reading at that moment
and the median of a few host-speed probes taken right after.

The parent notes CLOCK_MONOTONIC before it starts this process, so the
difference covers interpreter start, imports and input building.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""
import sys
import time

import env  # noqa: F401  (thread limits and import paths, before numpy)

import workloads

workloads.build(sys.argv[1], int(sys.argv[2]))
ready = time.monotonic()

import statistics  # noqa: E402

import timing  # noqa: E402

probe_s = statistics.median(timing.timed_probe() for _ in range(25))
print(ready, probe_s)
