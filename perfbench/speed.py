"""Scaling CPU times to a reference host speed.

The benchmark runs on shared VMs whose speed drifts by up to half within
a minute, for CPU time as much as for wall time, because neighbours
contend for caches, memory and cores.  A fixed probe, a short mix of the
kinds of work the workloads do (``Fraction`` sums, small dense numpy
products, frozensets of combinations), runs before every measured item
and once after the last.  An item's CPU time is multiplied by
``REF_PROBE_S`` over the mean of the probes just before and after it,
which gives the time it would have taken on a host where the probe
takes ``REF_PROBE_S``.  The speed changes within a second, so only the
nearest probes track it.  The mix and the window were chosen on
repeated passes of each workload, where they cut the pass-to-pass spread
of throughput, median and tail from 9-12% to 2-4%.

Fresh processes (set-up and cold-start timings) slow down with the
host's memory more than the probe does; they are scaled instead by
``REF_START_S`` over the CPU time of fresh ``python -c REF_START_CODE``
interpreters run just before and after them.

Neither reference calls anything in ``scx``, and the probe runs with the
garbage collector off, so a change to the library cannot change their
times; the raw CPU and wall times stay in the run's details.
"""

from __future__ import annotations

import gc
import itertools
import statistics
import time
from fractions import Fraction

import numpy as np

#: The probe's CPU time on the reference host (x86-64 at 2.1 GHz, quiet).
REF_PROBE_S = 1.5e-3

#: CPU time of a fresh interpreter running REF_START_CODE on that host.
REF_START_S = 0.15
REF_START_CODE = "import numpy"

_A = np.random.default_rng(0).random((12, 12))
_A = _A + _A.T


def _probe_work():
    """About equal parts of rational, numpy and set work."""
    f = Fraction(0)
    for i in range(1, 120):
        f += Fraction(i, 7 * i + 1)
    b = _A
    for _ in range(40):
        b = (b @ _A) / np.abs(b).sum()
        np.diag(b).sum()
    hits = 0
    for _ in range(2):
        faces = {frozenset(c) for c in itertools.combinations(range(11), 4)}
        hits += sum(frozenset(c) | {0} in faces for c in itertools.combinations(range(11), 3))
    return f, b, hits


class Speed:
    """Probe times in the order they were taken."""

    def __init__(self):
        self.samples = []

    def probe(self, n=1):
        """Run the probe ``n`` times; returns the index of the last one."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(n):
                c0 = time.process_time()
                _probe_work()
                self.samples.append(time.process_time() - c0)
        finally:
            if enabled:
                gc.enable()
        return len(self.samples) - 1

    def factor(self, at):
        """REF_PROBE_S over the mean time of probe ``at`` and the next one."""
        return REF_PROBE_S / statistics.fmean(self.samples[at:at + 2])

    def scale(self, seconds, at):
        """CPU ``seconds`` measured between probe ``at`` and the next one,
        at reference speed."""
        return seconds * self.factor(at)
