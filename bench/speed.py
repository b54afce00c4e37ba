"""The host's speed, sampled while the worker sets up and runs its pass.

A shared host changes the speed of the CPU a benchmark gets by up to a
factor of two, for a fraction of a second to minutes at a time.  Whole
passes take the host's speed with them, so their median drifts with it.
:class:`SpeedProbe` measures that speed while a block of code runs: a
timer interrupts the block every ``PERIOD`` seconds to run a small fixed
probe (integer matrix products, masks and fancy indexing on a 64 x 64
label matrix, the operations the library spends its time in, but none of
the library's code), and records how long the probe took.  The probe runs
twice and only the second run is timed, so what the block left in the
caches does not count: a pass that sweeps large arrays evicts the probe's
data, and a cold probe would run slower for that alone.  The probe's mean
time, against ``REFERENCE_S``, is how much slower than the reference the
host ran, and :func:`at_reference` rescales the block's time by it.  Time
spent in the probe is left out of the block's time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD = 0.03
# About the probe's median time on the 2-vCPU Xeon host the benchmark was
# written on: the speed that rescaled times refer to.
REFERENCE_S = 4.0e-4
WARMUP = 50
# Samples taken on entry and on exit, so that a short block has enough.
EDGE_SAMPLES = 4


class SpeedProbe:
    """Context manager that samples the probe's time on a SIGALRM timer
    while its block runs, and ``EDGE_SAMPLES`` times on entry and on exit.

    ``busy_s`` is the time the block lost to the probes the timer ran
    inside it; ``total_s`` adds the warm-up and the entry and exit samples.
    ``on_busy``, if given, is told each loss inside the block as it
    happens.
    """

    def __init__(self, period: float = PERIOD, on_busy=None):
        rng = np.random.default_rng(0)
        self._labels = rng.integers(0, 6, size=(64, 64))
        self._a = (self._labels == 1).astype(np.int64)
        self._b = (self._labels == 2).astype(np.int64)
        self.period = period
        self.samples: list[float] = []
        self.busy_s = 0.0
        self.total_s = 0.0
        self._on_busy = on_busy
        self._previous = None

    def _work(self) -> bool:
        labels = self._labels
        product = self._a @ self._b
        same = True
        for h in range(4):
            cells = np.nonzero(labels == h)
            values = product[cells] if h == 0 else labels[cells]
            same &= bool(np.any(values != values[0]))
        return same

    def _sample(self) -> float:
        """Take one sample; returns the time it took, both runs."""
        entered = time.perf_counter()
        self._work()  # brings the probe's data back into the caches
        start = time.perf_counter()
        self._work()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.total_s += end - entered
        return end - entered

    def _on_alarm(self, *_signal) -> None:
        lost = self._sample()
        self.busy_s += lost
        if self._on_busy is not None:
            self._on_busy(lost)

    def __enter__(self) -> "SpeedProbe":
        entered = time.perf_counter()
        for _ in range(WARMUP):
            self._work()
        self.total_s += time.perf_counter() - entered
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_SAMPLES):
            self._sample()

    @property
    def mean_s(self) -> float:
        """Mean time of the timed probe runs."""
        return sum(self.samples) / len(self.samples)


def at_reference(seconds: float, probe_mean_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_mean_s`` on
    average, rescaled to the reference speed."""
    return seconds * REFERENCE_S / probe_mean_s
