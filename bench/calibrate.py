"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host, identical work runs up to twice as slow for minutes at
a time while other tenants load the same cores.  The timed loop runs this
kernel in short bursts between operations and divides each operation's
time by the kernel's time near it, times ``REFERENCE_MS``: the time the
operation would take on a machine where the kernel takes ``REFERENCE_MS``.

The kernel is the kind of code the library spends its time in: NumPy
calls on short vectors, ``math.acosh``, small objects, method calls and
string-keyed dictionary reads.  A pure interpreter loop would not do: it
slows under load about a third more than the workloads do, and would
over-correct.  The kernel uses nothing from ``hadamard``, so a change to
the library changes every rescaled time by exactly its own effect.

Do not change the kernel or ``REFERENCE_MS``: every rescaled time is
relative to them, and a change makes results before and after it
incomparable.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

# A round figure near the kernel's time on a lightly loaded 2-vCPU Intel Xeon
# (Sapphire Rapids) VM; only its constancy matters.
REFERENCE_MS = 3.0

_KEYS = [f"v{k}" for k in range(1024)]
_NAMED = {key: float(k) for k, key in enumerate(_KEYS)}
_LEFT = [np.linspace(1.0, 2.0, 3 + k % 6) for k in range(64)]
_RIGHT = [np.linspace(1.5, 0.5, 3 + k % 6) for k in range(64)]


class _Pt:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def _norm(p):
    return math.sqrt(p.x * p.x + p.y * p.y)


def kernel():
    """One burst of fixed work, a few milliseconds long."""
    s = 0.0
    for k in range(300):
        a, b = _LEFT[k & 63], _RIGHT[k & 63]
        s += float(np.linalg.norm(a - b))
        s += math.acosh(1.0 + abs(float(a[1:] @ b[1:]) - a[0] * b[0]))
        s += _norm(_Pt(s, 1.0)) + _NAMED[_KEYS[k & 1023]]
        if np.array_equal(a, b):
            s += 1.0
    return s


def burst():
    """Seconds one kernel call takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale_now(bursts=15):
    """REFERENCE_MS over the median of ``bursts`` kernel calls made now."""
    return REFERENCE_MS * 1e-3 / statistics.median(burst() for _ in range(bursts))


class Speedometer:
    """Kernel bursts between timed operations, and the rescaling factor near a time."""

    def __init__(self, every_s=0.1, window_s=2.0, least=5):
        self.every_s = every_s
        self.window_s = window_s
        self.least = least
        self.at: list[float] = []
        self.took: list[float] = []
        self._last = -math.inf

    def tick(self):
        """Run a burst if ``every_s`` has passed since the last one."""
        now = time.perf_counter()
        if now - self._last >= self.every_s:
            took = burst()
            self._last = time.perf_counter()
            self.at.append(now + took / 2)
            self.took.append(took)

    def scale(self, start, end):
        """REFERENCE_MS over the median burst within ``window_s`` of [start, end].

        With fewer than ``least`` bursts in that window, ``least``
        consecutive bursts around its middle are used.
        """
        lo = bisect.bisect_left(self.at, start - self.window_s)
        hi = bisect.bisect_right(self.at, end + self.window_s)
        if hi - lo < self.least:
            mid = bisect.bisect_left(self.at, (start + end) / 2)
            lo = max(0, min(mid - self.least // 2, len(self.at) - self.least))
            hi = lo + self.least
        return REFERENCE_MS * 1e-3 / statistics.median(self.took[lo:hi])
