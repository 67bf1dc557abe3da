"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host, throughput goes through phases that last from about a
second to minutes, and in a slow phase every operation slows down together,
CPU time included.  So while a timed region runs, a :class:`Probe` runs this
kernel every ``INTERVAL_S`` seconds from a ``SIGALRM`` handler (in the one
thread there is), and once just before and once just after the region.  The
harness takes the time the kernel spent inside the region off the region's
time, and divides what is left by the mean kernel time: multiplied by
``REFERENCE_S``, that is seconds at the host speed at which the kernel takes
``REFERENCE_S``.

The kernel is Gaussian elimination modulo a prime on a small int64 matrix,
the kind of work latzeta does most (numpy calls on small arrays, driven by
a Python loop).  It is the benchmark's own code and does not use latzeta,
so a change to latzeta cannot change it.  numpy is imported here, so the
worker imports this module only after it has timed its set-up.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# about the kernel's time, in seconds, when it runs between a member's steps
# on the host where the bounds were set (2-core container, Python 3.11,
# numpy 2.4); any constant would do, this one keeps scaled times near
# measured ones
REFERENCE_S = 0.004
INTERVAL_S = 0.1
_P = 1_000_003
_SIZE = 56
_REPS = 3


def _matrix() -> np.ndarray:
    # unit lower times unit upper triangular: every pivot is 1 without
    # row swaps, so the determinant is 1
    rng = np.random.default_rng(12345)
    eye = np.eye(_SIZE, dtype=np.int64)
    lower = np.tril(rng.integers(-3, 4, (_SIZE, _SIZE)), -1) + eye
    upper = np.triu(rng.integers(-3, 4, (_SIZE, _SIZE)), 1) + eye
    return lower @ upper


_M = _matrix()


def kernel() -> int:
    """Determinant of the fixed matrix mod p, ``_REPS`` times over."""
    det = 1
    for _ in range(_REPS):
        a = np.mod(_M, _P)
        det = 1
        for k in range(_SIZE):
            piv = int(a[k, k])
            det = det * piv % _P
            inv = pow(piv, _P - 2, _P)
            f = (a[k + 1:, k] * inv) % _P
            a[k + 1:, k:] = (a[k + 1:, k:] - np.outer(f, a[k, k:])) % _P
    return det


class Probe:
    """Kernel times taken around and during one timed region."""

    def __init__(self):
        self.samples = []          # (wall, cpu) of each kernel run
        self.spent = [0.0, 0.0]    # wall, cpu of the runs inside the region

    def sample(self, inside: bool = False) -> None:
        w, c = time.perf_counter(), time.process_time()
        kernel()
        wall, cpu = time.perf_counter() - w, time.process_time() - c
        self.samples.append((wall, cpu))
        if inside:
            self.spent[0] += wall
            self.spent[1] += cpu

    def _on_alarm(self, signum, frame) -> None:
        self.sample(inside=True)

    def start(self) -> None:
        """Sample every ``INTERVAL_S`` from now until :meth:`stop`."""
        self._handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def mean(self) -> tuple:
        """(wall, cpu): the mean kernel time over the samples."""
        return (statistics.fmean(w for w, _ in self.samples),
                statistics.fmean(c for _, c in self.samples))


def measure(runs: int = 5) -> tuple:
    """(wall, cpu): the median of ``runs`` kernel times taken now."""
    probe = Probe()
    for _ in range(runs):
        probe.sample()
    return (statistics.median(w for w, _ in probe.samples),
            statistics.median(c for _, c in probe.samples))
