"""Machine-speed probe: scales the untraced timings to a fixed reference speed.

The benchmark runs on a small shared machine whose speed for the same work
drifts by tens of percent over seconds to minutes, as neighbours load it.  A
plain wall time then measures the neighbours as much as the program.  The
probe samples the machine's speed *during* each timed section: a timer signal
every ``PERIOD_S`` runs a fixed piece of work of the kinds the program's hot
paths do (an interpreter loop, random reads from a buffer larger than a
core's private caches, NumPy calls on tiny arrays, attribute and dict
traffic) and records how long it took.  A section's measured time multiplied by
``NOMINAL_PROBE_S / mean probe time during the section`` is its time at the
reference speed, the speed at which the probe takes ``NOMINAL_PROBE_S``.

The probe is the benchmark's own code and never calls the program, so a
change to the program moves the scaled time exactly as it moves the wall
time at a fixed machine speed.  It costs about 2 % of each section, the same
on every version of the program.  Python runs signal handlers between
bytecodes of the main thread, so the probe never interrupts the program in
the middle of an operation.
"""

from __future__ import annotations

import random
import signal
import time
from array import array
from types import SimpleNamespace

import numpy as np

PERIOD_S = 0.05
BUFFER_BYTES = 8 << 20
# A section with fewer probes than this takes the mean of every probe so far.
MIN_TICKS = 5
# Mean probe time on a 2-vCPU shared cloud VM (Python 3.11), so that scaled
# figures read close to that machine's typical wall times.
NOMINAL_PROBE_S = 1.2e-3


class SpeedProbe:
    """Samples machine speed on a timer while entered; ``factor`` scales a section."""

    def __init__(self) -> None:
        n = BUFFER_BYTES // 8
        self._buffer = array("d", [0.0]) * n
        rng = random.Random(0)
        self._reads = [rng.randrange(n) for _ in range(2000)]
        self._table = np.zeros((50, 4))
        self._one = np.ones(4)
        self._slots = [SimpleNamespace(x=0) for _ in range(64)]
        self._index: dict[int, SimpleNamespace] = {}
        self._probe_s = 0.0
        self._ticks = 0
        self._previous = None

    def _work(self) -> None:
        acc = 0
        for i in range(2000):
            acc += i * i
        buf, total = self._buffer, 0.0
        for j in self._reads:
            total += buf[j]
        table, one = self._table, self._one
        for k in range(50):
            row = table[k]
            row[k % 4] = 0.5 * (float(row.max()) + (one + one)[1])
            np.argmax(row)
        slots, index = self._slots, self._index
        for k in range(1000):
            slot = slots[k & 63]
            slot.x = k
            index[k & 255] = slot
            index.get(k & 127)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._work()
        self._probe_s += time.perf_counter() - t0
        self._ticks += 1

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, int]:
        return self._probe_s, self._ticks

    def factor(self, since: tuple[float, int]) -> float:
        """Reference-speed factor for the section that began at ``since``."""
        probe_s, ticks = self._probe_s - since[0], self._ticks - since[1]
        if ticks < MIN_TICKS:
            probe_s, ticks = self._probe_s, self._ticks
        return NOMINAL_PROBE_S * ticks / probe_s if ticks else 1.0


class NoProbe:
    """Stands in for the probe in the traced run: every factor is 1."""

    def mark(self) -> tuple[float, int]:
        return 0.0, 0

    def factor(self, since: tuple[float, int]) -> float:
        return 1.0
