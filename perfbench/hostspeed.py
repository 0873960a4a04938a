"""Host speed: a fixed reference kernel sampled while the program works.

The benchmark runs on a few cores of a shared host whose speed drifts with
the neighbours' load: one identical ``long`` clip took from 0.46 to 0.81 s
within four minutes, and medians over 10 s windows moved as much, with no
page faults, no CPU steal and no time spent waiting for a core. The host
flips between fast and slow within a second, and its mix drifts over
minutes. Both move a fixed kernel by the same factor as the program: over
10-40 s windows the kernel's median correlated 0.9-0.99 with a fixed op's.

So the end-to-end times are reported in *reference ms*: a raw time times
``REF_MS`` over the kernel's mean time while it ran, i.e. the time it would
take on a host that runs the kernel in ``REF_MS``. A ``Sampler`` runs the
kernel from a timer signal every ``PERIOD_S`` during the timed work, so
its samples spread evenly in time over what they normalize, and keeps a
clock with the kernel's own time taken out. The kernel uses numpy only,
never motionloop, so a change to the program moves the normalized time as
much as the raw one. Raw times stay in the per-layer metrics (``*_raw``)
and in the run record.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

# the kernel's typical time on the 2-vCPU Xeon host the baseline was taken
# on, at a quiet moment; normalized times read as raw times on that host
REF_MS = 5.0
PERIOD_S = 0.25  # one kernel sample per this much wall time
WINDOW_S = 0.5  # an op is normalized by the samples within this of it

_rng = np.random.default_rng(20250430)
_A = _rng.random((48, 48))
_B = _rng.random((48, 48))
_M = _rng.random((96, 96))
_V = _rng.random(100_000)
_IDX = _rng.integers(0, 20_000, 50_000)


def calibrate() -> float:
    """Time one pass of the reference kernel, in ms. It mixes what the
    program spends its time on: an interpreter loop over small-array numpy
    calls (as the SSIM eval), gemm (as PMP), streaming elementwise work and
    a scatter-add (as splatting)."""
    t = perf_counter()
    acc = 0.0
    for y in range(0, 40, 4):
        for x in range(0, 40, 4):
            pa = _A[y:y + 8, x:x + 8]
            pb = _B[y:y + 8, x:x + 8]
            acc += float(((pa - pa.mean()) * (pb - pb.mean())).mean() + pa.var())
    for _ in range(8):
        acc += float((_M @ _M)[0, 0])
    for _ in range(3):
        acc += float(np.sqrt(_V * 1.5 + 0.25).sum())
    acc += float(np.bincount(_IDX, minlength=20_000).max())
    table = {}
    for i in range(4000):
        table[i & 255] = acc
        acc += i * 0.5
    return (perf_counter() - t) * 1e3


class Sampler:
    """Takes a kernel sample on ``start`` and then every PERIOD_S from a
    SIGALRM handler until ``stop``. Python runs the handler in the main
    thread between bytecodes, so it pauses the program rather than
    competing with it; ``clock`` leaves that pause out."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, ms)
        self.paused = 0.0  # seconds spent in the kernel
        self._old = None

    def _sample(self, *_):
        t = perf_counter()
        self.samples.append((t, calibrate()))
        self.paused += perf_counter() - t

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def clock(self) -> float:
        """perf_counter less the time spent in the kernel so far."""
        while True:
            paused = self.paused
            now = perf_counter()
            if paused == self.paused:  # no sample taken in between
                return now - paused

    def mean_ms(self, start: float, end: float) -> float:
        """Mean kernel time over the samples within WINDOW_S of
        [start, end] (perf_counter times), or the nearest one if none."""
        times = [t for t, _ in self.samples]
        lo = bisect.bisect_left(times, start - WINDOW_S)
        hi = bisect.bisect_right(times, end + WINDOW_S)
        if lo == hi:
            lo = min(max(lo - 1, 0), len(times) - 1)
            hi = lo + 1
        return statistics.fmean(ms for _, ms in self.samples[lo:hi])
