"""Machine-speed reference, timed inside every measured child.

The benchmark runs on shared machines whose speed drifts by up to a third,
for seconds to minutes at a time, with the load of other tenants (turbo
headroom, contention for the core). Whole-run times taken a few minutes apart
then differ by more than the benchmark's bounds, and a reference timed in
another process or on the other core follows the drift only loosely.

So a timer interrupts the child every `INTERVAL_S` of wall time and times one
pass of a fixed loop there: on the same core, at the same moments and under
the same load as the program. The run's times are then reported scaled by
`NOMINAL_S / mean pass time`, as they would read at the speed at which one
pass takes `NOMINAL_S`. The time spent in the passes is taken out of the run
first. The loop mixes the kinds of work lltts does: small BLAS products with
ufuncs, numpy calls on tiny arrays, and plain interpreter work.
"""
from __future__ import annotations

import signal
import time

import numpy as np

# one pass's mean time on a shared 2-core x86-64 VM (Xeon, 2.1 GHz nominal)
# in its usual state; the speed the reported times are scaled to
NOMINAL_S = 320e-6
INTERVAL_S = 0.025

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((84, 32))
_B = _rng.standard_normal((32, 32)) * 0.2
_SMALL = np.arange(8.0)
_TABLE = {i: 0 for i in range(64)}


def one_pass() -> float:
    a = _A
    for _ in range(10):
        a = np.tanh(a @ _B)
    x = _SMALL
    for _ in range(40):
        x = np.add(x, 1.0)[::-1] * 0.5
    table, total = _TABLE, 0
    for i in range(400):
        table[i & 63] = i * i
        total += table[(i * 7) & 63]
    return float(a[0, 0] + x[0]) + sum([i for i in range(100)]) + total


class SpeedReference:
    """Times one pass every INTERVAL_S between `start` and `stop`
    (main thread only; uses SIGALRM)."""

    def __init__(self):
        self.count = 0
        self.total_s = 0.0
        self._previous = signal.SIG_DFL

    def _sample(self, signum, frame) -> None:
        clock = time.perf_counter
        t0 = clock()
        one_pass()
        self.total_s += clock() - t0
        self.count += 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
