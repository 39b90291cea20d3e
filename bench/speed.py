"""Machine-speed probe: reports timings at a fixed reference speed.

On a shared machine the speed of one core drifts by tens of percent within
seconds.  While a timed call runs, a SIGALRM handler times a short fixed
kernel every PROBE_INTERVAL_S; three more samples are taken before and after
the call.  The call's own time (probe time removed) is multiplied by
REFERENCE_S / median(samples), which reads it at the reference speed and
cancels drift that the kernel shares with the program.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

PROBE_INTERVAL_S = 0.05
# Median seconds of kernel() on the reference machine: 2-core Intel Xeon,
# Python 3.11, numpy 2.4.
REFERENCE_S = 2.5e-4


def kernel() -> float:
    """Seconds of a fixed piece of work in the package's style: a Python
    loop over small numpy arrays, then scalar float arithmetic."""
    start = time.perf_counter()
    x = np.linspace(0.0, 1.0, 257)
    for _ in range(20):
        v = 1.0 - 1e-3 / np.diff(x)
        x = x + 1e-7 * np.concatenate((v, [1.0]))
    acc = 0.0
    for i in range(200):
        acc += math.sqrt(i + 1e-9 * acc)
    return time.perf_counter() - start


class Probe:
    """Context manager around one timed call; see the module docstring."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0        # seconds the handler took inside the call
        self._previous = None

    def _tick(self, signum, frame):
        dt = kernel()
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "Probe":
        self.samples = [kernel() for _ in range(3)]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def __exit__(self, *exc):
        self.stop()
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.extend(kernel() for _ in range(3))

    def scale(self) -> float:
        """Factor from this call's measured seconds to reference seconds."""
        return REFERENCE_S / statistics.median(self.samples)
