"""Host-speed clock: wall time scaled to a reference speed of the vCPU it ran on.

On a shared host a vCPU's speed drifts by tens of percent over seconds to
minutes, because other tenants load the same physical cores; the process
sees no steal time, only slower execution.  A timed region under
``HostClock.running`` is therefore sampled: every ``PROBE_PERIOD_S`` a
SIGALRM handler times a fixed probe on the same thread (so on the vCPU the
timed code runs on at that moment).  The probe is a pure-Python loop, a
few small batched complex GEMMs and a few small complex einsum contractions
of the form the SSE kernels issue: the kinds of work the workloads spend
their time in, interpreter loops and many small numpy calls.  ``scaled``
then reports the region's seconds minus the probes' own time, times the
mean probe speed in the region relative to ``PROBE_REF_S``: the seconds the
region would have taken on a host running the probe at the reference speed.
Nothing in the library is touched; the probe code is fixed, so a faster
library still reads faster.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

PROBE_PERIOD_S = 0.05
PROBE_LOOPS = 10_000
PROBE_GEMMS = 15
PROBE_EINSUMS = 25
_rng = np.random.default_rng(0)
_BATCH = _rng.standard_normal((48, 8, 16)).view(np.complex128)
_G = _rng.standard_normal((3, 16, 2, 4)).view(np.complex128)
_DH = _rng.standard_normal((3, 2, 4)).view(np.complex128)
# Seconds of one probe at the reference speed: the typical probe time on the
# 2-vCPU Xeon VM the bounds were set on (bench/NOTES.md), so scaled seconds
# read close to wall seconds there.
PROBE_REF_S = 2.0e-3


def probe_seconds() -> float:
    """Seconds of the fixed probe, run now on this thread."""
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i
    for _ in range(PROBE_GEMMS):
        np.matmul(_BATCH, _BATCH).sum()
    for _ in range(PROBE_EINSUMS):
        np.einsum("keMP,iPN->keiMN", _G, _DH)
    return time.perf_counter() - t0


class HostClock:
    """Probe samples ``(start, seconds)`` taken while ``running`` is active."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _sample(self, *_signal_args) -> None:
        self.samples.append((time.perf_counter(), probe_seconds()))

    @contextlib.contextmanager
    def running(self):
        """Probe once, then every ``PROBE_PERIOD_S`` until the block ends, then once more."""
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()

    def speed(self, start: float, end: float) -> float:
        """Mean probe speed over ``[start, end)`` relative to the reference; all samples if none fell there."""
        basis = [s for t, s in self.samples if start <= t < end] or [s for _, s in self.samples]
        return statistics.fmean(PROBE_REF_S / s for s in basis)

    def scaled(self, start: float, end: float) -> float:
        """Seconds of ``[start, end)`` less the probes run in it, at the reference speed."""
        probes = sum(s for t, s in self.samples if start <= t < end)
        return (end - start - probes) * self.speed(start, end)
