"""A paced clock: wall time rescaled by how fast this core runs at the moment.

The machine this benchmark was written on shares its two cores with other
tenants, and its speed wanders by up to a factor of two, in spells that last
from milliseconds to minutes.  CPU time wanders just as much, so neither wall
nor CPU time can tell a slower program from a busier machine.

So every ``INTERVAL`` seconds a SIGALRM handler times a fixed probe: a short
Clenshaw recurrence on a small array, the shape of zetaladder's hottest loop,
kept in this file so that no change to the program changes it.  Of the
probes tried (numpy ``cos``, this recurrence on 1 and on 33 points, a pure
Python loop), this one tracked the Z kernel's own slowdown best: a
correlation of 0.6-0.96 over 0.4 s slices, against 0.2-0.6 for the others.

The wall time since the previous probe is credited at the rate
``REF / probe time``.  One paced second is then the work one wall second does
when the probe takes ``REF``, about its time on an uncontended core of that
machine (2-core VM, Python 3.11, numpy 2.4).  The probes' own time is not
credited; they cost about 1 % of the wall time.

The interval timer belongs to one process and is not inherited by a fork.
A forked worker starts its own clock; the handler runs in the main thread.
"""
from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL = 0.005
REF = 30e-6
_U = np.linspace(-0.9, 0.9, 33)


def probe() -> np.ndarray:
    """The fixed work whose time measures the core's pace."""
    b1 = np.zeros_like(_U)
    b2 = np.zeros_like(_U)
    for k in range(12):
        b1, b2 = 2.0 * _U * b1 - b2 + 0.1 * k, b1
    return b1


class PacedClock:
    def __init__(self) -> None:
        self.paced = 0.0
        self.rate = 1.0
        self.last = time.perf_counter()
        self.running = False

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.rate = REF / (t1 - t0)
        self.paced += (t0 - self.last) * self.rate
        self.last = t1

    def start(self) -> "PacedClock":
        self.last = time.perf_counter()
        self.running = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def stop(self) -> None:
        if self.running:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self.paced = self.now()
            self.running = False

    def now(self) -> float:
        """Paced seconds since the clock first started."""
        if not self.running:
            return self.paced
        return self.paced + (time.perf_counter() - self.last) * self.rate
