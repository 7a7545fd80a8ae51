"""Machine-speed reference for the timed runs.

The benchmark runs on shared machines whose effective CPU speed drifts by
tens of percent over seconds (other tenants on the same cores; the drift
shows in process CPU time as much as in wall time). Every timed operation
is therefore measured together with a fixed reference kernel: a timer
signal runs the kernel about every INTERVAL_S seconds during the
operation, and the operation's time is rescaled by NOMINAL_S over the
kernel's mean time in that window. The kernel's own time is taken out of
the operation's time. attkit's cost is interpreter dispatch and numpy
calls on 3x3 arrays, and the kernel does the same kind of work, so the two
slow down together; the rescaled times read as seconds on the machine at
its reference speed.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Kernel time at the reference speed: a round figure near its time on a
# 2-CPU Xeon VM at 2.1 GHz with Python 3.11 and numpy 2.4 (0.6-1.4 ms).
NOMINAL_S = 1.0e-3
INTERVAL_S = 0.05

_A = np.array([[1.5, 0.1, 0.0], [0.1, 1.2, 0.2], [0.0, 0.2, 0.9]])
_V = np.array([0.3, -0.2, 0.9])


def kernel():
    """A fixed mix like attkit's own cost: numpy linear algebra on 3x3
    arrays, small-array arithmetic and Python float arithmetic."""
    x = 0.0
    for _ in range(8):
        Q, R = np.linalg.qr(_A)
        w, _ = np.linalg.eigh(_A @ _A.T)
        s = np.linalg.svd(_A, compute_uv=False)
        y = np.linalg.solve(_A, _V)
        x += float(np.linalg.det(Q @ R)) + float(s[0] * w[0]) + float(np.cross(y, _V)[0])
        for j in range(60):
            x = x * 0.999 + j * 0.5
    return x


def kernel_time():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class SpeedProbe:
    """Rescales operation times to the reference speed (a context manager
    that owns SIGALRM while it is active)."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.on_tick = None  # called with each in-operation kernel time
        self._ticks = []
        self._old = None

    def _tick(self, signum, frame):
        dt = kernel_time()
        self._ticks.append(dt)
        if self.on_tick is not None:
            self.on_tick(dt)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def measure(self, fn, *args):
        """Call fn(*args); returns (result, wall seconds without the kernel
        runs, factor to the reference speed)."""
        before = kernel_time()
        self._ticks = []
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = time.perf_counter() - t0
        window = [before, *self._ticks, kernel_time()]
        return result, wall - sum(self._ticks), NOMINAL_S * len(window) / sum(window)
