"""Machine speed sampled during a timed round, to rescale its wall time.

On a shared host the speed of one core drifts by tens of percent over
minutes: a fixed eigh loop here took anywhere from 0.23 s to 0.46 s, in
stretches of several seconds.  Wall time alone therefore moves between
runs of unchanged code by more than any useful bound.  While a round runs,
a SIGALRM handler times a fixed reference kernel (small Hermitian ``eigh``
plus projection, and a pure-Python loop, like the mix of an ANM iteration)
every PERIOD_S seconds.  Work done in a round is its wall time times the
mean speed over the round, and the kernel samples that speed as
NOMINAL_S / kernel time at random instants.  So a round's time at reference
speed is its own wall time (minus the time spent in the kernel) times the
mean of NOMINAL_S / kernel time.  This mean weighs slow stretches as the
round felt them; the median kernel time tracked the rounds less well.
Signal handlers run between bytecodes of the main thread, so the kernel
never runs inside a numpy call.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.25
# kernel time at the reference speed: about the typical speed of the 2-core
# sandbox where the bounds were set, so reference times read close to wall times
NOMINAL_S = 3.2e-3


class SpeedProbe:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        m = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
        self._matrix = m + m.conj().T
        self.samples: list[float] = []

    def kernel(self) -> float:
        start = time.perf_counter()
        for _ in range(20):
            w, v = np.linalg.eigh(self._matrix)
            (v * np.maximum(w, 0.0)) @ v.conj().T
        total = 0
        for i in range(3000):
            total += i * i % 7
        return time.perf_counter() - start

    def _sample(self, signum, frame) -> None:
        self.samples.append(self.kernel())

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self.samples.append(self.kernel())

    def scale(self) -> float:
        """Mean machine speed of the last round, relative to the reference."""
        return statistics.fmean(NOMINAL_S / k for k in self.samples)
