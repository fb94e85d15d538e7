"""Machine-speed probe, so that the benchmark's times track the program and
not the host.

The benchmark was written on a shared two-core virtual machine whose cores
each slowed by up to 1.9x for seconds to minutes at a time, with no stolen
time to show for it: one design unit took 4.5 s and, minutes later, 7.9 s.
Wall times taken there spread past any useful bound.  So while a run
measures, a daemon thread in the same process runs a fixed pure-Python
probe every ``PERIOD_S`` and records the probe's own CPU time.  A measured
interval is then rescaled by the median probe time inside it::

    scaled seconds = wall seconds * REFERENCE_PROBE_S / median probe seconds

that is, the seconds the interval would have taken on a host where the
probe takes ``REFERENCE_PROBE_S``.  The probe is part of the benchmark, not
of the library, so a change to the library moves the wall time and leaves
the probe alone.

The process is pinned to one CPU, so that the probe runs on the core the
measured work runs on.  Unpinned, the probe ran on the other core, whose
speed did not follow: over five design units the wall time ranged from
4.0 to 6.7 s while a probe of dict updates stayed within 0.53 to 0.58 ms.

The probe builds small tuples and frozensets and sorts them, object churn
of the kind the library's Python code does.  Over 40 units of each
workload, run in turn for seven minutes, log unit time followed log probe
time with a correlation of 0.94 to 0.95 and a slope of 0.94 to 0.97, so a
plain ratio is the right rescaling.  A rescaled unit time still varied by
5 to 6% (coefficient of variation), against 16 to 19% for the wall time.
Probes of other kinds slowed in other proportions: a loop of dict updates
over a few keys (slope 0.78 to 0.87), random lookups in a 300 000-key dict
(0.71 to 0.79) and small numpy sorts (0.75 to 0.84).  The probe holds the
interpreter lock for 0.6 to 1 ms every ``PERIOD_S``, so the measured work
gives up 1 to 2% of its core, the same on every commit.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

PERIOD_S = 0.05
# about the fastest the probe ran on the machine the benchmark was written
# on (2-core x86-64 KVM guest, Python 3.11.7)
REFERENCE_PROBE_S = 0.0006
_PROBE_STEPS = 600


def pin_to_one_cpu() -> None:
    """Pin this process, and the threads and processes it starts, to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def probe() -> list:
    """Fixed interpreter work: small tuples and frozensets, hashed and sorted."""
    seen: set = set()
    for i in range(_PROBE_STEPS):
        t = (i % 7, i % 11, i % 13)
        seen.add(t)
        seen.add(frozenset(t))
    return sorted(seen, key=hash)


class Pace:
    """Samples the probe in a daemon thread while installed."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, probe s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="pace", daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            t0 = time.thread_time()
            probe()
            self.samples.append((time.perf_counter(), time.thread_time() - t0))

    def __enter__(self) -> "Pace":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def probe_s(self, t0: float, t1: float) -> float:
        """Median probe time in [t0, t1]; the nearest samples if none fell inside."""
        inside = [s for t, s in self.samples if t0 <= t <= t1]
        if not inside:
            # a unit that fails at once can end before the next sample
            nearest = sorted(self.samples, key=lambda ts: min(abs(ts[0] - t0), abs(ts[0] - t1)))
            inside = [s for _, s in nearest[:3]]
        return statistics.median(inside)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] at the reference speed."""
        return (t1 - t0) * REFERENCE_PROBE_S / self.probe_s(t0, t1)
