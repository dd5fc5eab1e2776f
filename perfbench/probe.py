"""Host-speed probe.

The benchmark runs on shared virtual machines whose speed changes by up to
a factor 1.7 within seconds, as other tenants load the host; process CPU
time grows with wall time, so the slow-down cannot be read off steal time.
The probe measures the host's speed over exactly the interval being timed:
an interval timer interrupts the worker every INTERVAL_S and runs a small
fixed kernel, whose mean duration over the interval says how fast the host
ran the worker meanwhile.  A timed interval is reported as

    (wall - time spent in the kernel) * nominal / mean kernel time,

its length at the host speed at which the kernel takes its nominal time.

Two kernels: a pure-Python one, which imports nothing and so can time the
worker's imports (set-up), and one of small numpy products and reductions
like the package's hot loops, which tracks the calls' slow-downs about
twice as closely.  The normalization assumes a single-threaded call: work
that a call runs on the other CPUs slows the probe too.
"""

from __future__ import annotations

import math
import signal
import time

INTERVAL_S = 0.05
MIN_SAMPLES = 20
# the kernels' times on the quiet host the benchmark was written on
PY_NOMINAL_S = 2.5e-4
NP_NOMINAL_S = 5.0e-4


def _py_kernel() -> int:
    acc, table = 0, {}
    for i in range(1500):
        acc += (i * i) % 7
        table[i & 63] = acc
    return acc


class Probe:
    def __init__(self, kernel, nominal_s: float):
        self.kernel, self.nominal_s = kernel, nominal_s
        self.times: list[float] = []

    def _tick(self, _signum=None, _frame=None):
        t0 = time.perf_counter()
        self.kernel()
        self.times.append(time.perf_counter() - t0)

    def start(self):
        self.times = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> tuple[float, float]:
        """Stop the timer; return (seconds spent in the kernel since start,
        mean kernel time).  Too short an interval is topped up with samples
        taken right after it."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        spent = sum(self.times)
        while len(self.times) < MIN_SAMPLES:
            self._tick()
        return spent, sum(self.times) / len(self.times)


def normalized(wall: float, spent: float, mean: float, nominal_s: float) -> float:
    """Seconds the interval would have taken at the nominal host speed."""
    return (wall - spent) * nominal_s / mean


def python_probe() -> Probe:
    return Probe(_py_kernel, PY_NOMINAL_S)


def numpy_probe() -> Probe:
    import numpy as np

    pts = np.random.default_rng(0).standard_normal((16, 3))

    def kernel():
        acc = 0.0
        for i in range(30):
            a = np.array([math.cos(i), math.sin(i), 0.5])
            s = pts @ a
            acc += s.max() - s.min() + float((np.abs(pts - s[:, None] * a) ** 2).sum())
        return acc
    return Probe(kernel, NP_NOMINAL_S)
