"""Machine speed, sampled while a worker runs.

On a shared VM the speed of the same code drifts by up to 2x within a few
seconds, and the CPU time moves with the wall time, so the slowdown is real
work lost to neighbours, not time stolen while descheduled.  A speed measured
before and after a workload misses that drift.  So a timer signal interrupts
the worker every PERIOD_S of wall time, and the handler times one short slice
of a fixed kernel.  The slices are spread evenly over the run, so their
harmonic mean is the machine's mean speed over exactly the interval measured.
The handler runs between bytecodes in the main thread and touches no rimflow
state, so it cannot change an output file.

The kernel is what rimflow's time goes to at the Python level: many numpy
calls on small arrays (periodic differences, reductions, np.roots on a
cubic), each costing mostly interpreter and call overhead.  The kernel uses
no rimflow code, so a change to rimflow cannot move it.
"""
from __future__ import annotations

import math
import signal
import time

PERIOD_S = 0.025


class Kernel:
    def __init__(self):
        import numpy

        self.np = numpy
        self.u = 1.0 + 0.1 * numpy.cos(numpy.linspace(0.0, 2.0 * math.pi, 512, endpoint=False))

    def __call__(self) -> None:
        np, u = self.np, self.u
        for k in range(10):
            u = u + 1e-4 * (np.roll(u, 1) - 2.0 * u + np.roll(u, -1))
            float(np.max(np.abs(u)))
            np.roots([1.0, 0.0, -1.0, 0.3 + 1e-4 * k])
        self.u = u


class Sampler:
    def __init__(self):
        self.kernel = Kernel()
        self.slices = []  # (start, end) of each slice

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernel()
        self.slices.append((start, time.perf_counter()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        # Restart interrupted system calls, so a C extension's read or write
        # never sees EINTR.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, t0: float, t1: float) -> tuple:
        """(seconds in [t0, t1] not spent in slices, harmonic mean slice time there)."""
        inside = [end - start for start, end in self.slices if t0 <= start and end <= t1]
        if not inside:
            raise RuntimeError(f"no calibration slice in an interval of {t1 - t0:.3f} s")
        return t1 - t0 - sum(inside), len(inside) / sum(1.0 / d for d in inside)
