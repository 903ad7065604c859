"""Speed-normalised timing: sample the machine's momentary speed while work runs.

A shared host runs the same work at very different speeds from one second to
the next: on the 2-vCPU machine this benchmark was tuned on, one second of a
small-array numpy loop takes anywhere from 1.2x to 2.5x its fastest time, in
phases that last from under a second to minutes, with no steal time to show
for it.  A whole 15-s run can sit in a slow phase, so no estimator over the
run's own iterations (fastest, median, mean) gets rid of it.

``SpeedProbe`` measures the machine instead.  While a block runs, a
``SIGALRM`` every ``PERIOD_S`` runs a fixed reference kernel (a fraction of
a millisecond) and records how long it took.  The block's time, less the
time spent in the kernel, is then scaled by ``nominal_s / mean(samples)``:
the time the block would have taken had the machine run at the speed where
the kernel takes ``nominal_s``.  The nominal times below only set the scale;
they were chosen so that on that machine the normalised times of the
array-heavy workloads read about like their wall times.

The kernel runs in the same thread as the work, between Python bytecodes
(a long numpy call delays it until the call returns), so the samples are
spread over the block as the work experiences it.  Each sample is the
kernel's first run since the work last ran, so it starts with whatever the
work left in the caches; that is why it follows memory-bound work better
than a warmed-up kernel does, and also why its time depends on the work
itself (see perfbench/README.md).
"""
from __future__ import annotations

import signal
import time

PERIOD_S = 0.01


def python_kernel() -> None:
    """Interpreter-bound reference; needs no import, so it can time imports."""
    acc = 0
    for i in range(400):
        acc += i * i % 7


#: python_kernel's nominal time (seconds)
PYTHON_NOMINAL_S = 5.0e-5


def _numpy_kernel():
    import numpy as np

    a = np.linspace(0.0, 1.0, 48).reshape(16, 3)

    def kernel() -> None:
        for _ in range(25):
            np.exp(a).sum(axis=1)

    return kernel


#: the numpy kernel's nominal time (seconds)
NUMPY_NOMINAL_S = 1.7e-4


class SpeedProbe:
    """Context manager that times a block and samples the machine's speed.

    After the block: ``wall_s`` is its wall time, ``stolen_s`` the part spent
    in the reference kernel, ``samples`` the kernel's times (one taken just
    before and one just after the block, outside ``wall_s``, so there are
    always some), and ``normalise`` scales any stretch of the block.
    """

    def __init__(self, kernel=None, nominal_s: float = NUMPY_NOMINAL_S):
        self.kernel = kernel or _numpy_kernel()
        self.nominal_s = nominal_s
        self.samples: list = []
        self.stolen_s = 0.0
        self.wall_s = 0.0

    def _sample(self) -> float:
        started = time.perf_counter()
        self.kernel()
        took = time.perf_counter() - started
        self.samples.append(took)
        return took

    def _on_alarm(self, signum, frame) -> None:
        self.stolen_s += self._sample()

    def __enter__(self) -> "SpeedProbe":
        self.samples, self.stolen_s = [], 0.0
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._started
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @property
    def factor(self) -> float:
        """Nominal over observed kernel time: below 1 when the machine ran slow."""
        return self.nominal_s * len(self.samples) / sum(self.samples)

    def normalise(self, seconds: float) -> float:
        """``seconds`` of the block, less its share of kernel time, at nominal speed."""
        net_share = 1.0 - self.stolen_s / self.wall_s if self.wall_s > 0 else 1.0
        return seconds * net_share * self.factor

    @property
    def normalised_s(self) -> float:
        return self.normalise(self.wall_s)
