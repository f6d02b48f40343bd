"""The host-speed probe that puts the benchmark's times on a common scale.

The benchmark runs on a few vCPUs of a shared host.  Under load from outside
the benchmark the host executes the same instructions 20-60% slower for
minutes at a time, and that drift, not the program, then dominates the
difference between two runs.  The probe is a fixed pure-Python integer loop
that imports nothing from kickspec, so no change to the program can move it.
It is timed next to the measured work (between steps, and after the import
in each set-up interpreter), and a run's times are reported at the reference
speed: seconds * REFERENCE_S / median probe time.  In sets of ten runs of
each workload on a 2-vCPU Intel Xeon VM, a run's median wall time followed
its median probe time with a correlation of 0.7-0.97, and scaling cut the
spread of the runs' wall time by up to a factor of 4 (0.14 to 0.035).  The
workloads slow somewhat less than the probe, so on quiet stretches scaling
can add a little spread instead.
"""

from __future__ import annotations

import time

# About the probe's median on that VM under Python 3.11, where run medians
# read 15-24 ms; a reported time is what the run would have taken on a host
# this fast.
REFERENCE_S = 0.020
LOOP = 100_000


def probe_s() -> float:
    """Seconds of one pass of the fixed integer loop."""
    start = time.perf_counter()
    x = 1
    for i in range(LOOP):
        x = (x * 48271 + i) % 2147483647
    return time.perf_counter() - start


def at_reference_speed(seconds: float, probe_median_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_median_s``, scaled to
    a host on which the probe takes REFERENCE_S."""
    return seconds * REFERENCE_S / probe_median_s
