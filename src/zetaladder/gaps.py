"""Prime-counting diagnostics for the spacing between tower segments.

Consecutive tower segments are separated by distances that track
``(1 - gamma) * pi(pi L)`` with ``pi(x)`` the prime-counting function --
the same quantity that drives the ladder gap ``t - phi1(t) ~ (1-gamma) t / ln t``
via the prime number theorem.  This module provides an exact sieve-based
``prime_pi`` (the stated law names the counting function, not its smooth
approximations) and ``gap_rho`` reports with the measured/predicted ratio.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import EULER_GAMMA
from .errors import DomainTooSmall, IndexOutOfTower, RangeTooLarge
from .tower import IterationTower

__all__ = ["GapReport", "prime_pi", "gap_rho", "gap_csv_rows"]

_SIEVE_CAP = 100_000_000


def prime_pi(x: float) -> int:
    """Exact count of primes <= x, by a sieve to floor(x) per call; domain [2, 1e8]."""
    if not x >= 2:  # NaN included
        raise DomainTooSmall(f"prime_pi domain starts at 2, got {x}")
    if x > _SIEVE_CAP:
        raise RangeTooLarge(f"prime_pi sieve bound is {_SIEVE_CAP}, got {x}")
    n = int(math.floor(x))
    prime = np.ones(n + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if prime[p]:
            prime[p * p:: p] = False
    return int(np.count_nonzero(prime))


@dataclass(frozen=True)
class GapReport:
    l: int
    u: float
    r: int
    rho: float
    predicted: float
    ratio: float

    def csv_row(self) -> str:
        return (f"{self.l},{self.u!r},{self.r},{self.rho!r},"
                f"{self.predicted!r},{self.ratio!r}")


def gap_rho(tower: IterationTower, r: int) -> GapReport:
    """Distance between segments r and r+1 against (1-gamma) * pi(pi L)."""
    if r + 1 > tower.k:
        raise IndexOutOfTower(
            f"gap between segments {r} and {r + 1} of a depth-{tower.k} tower"
        )
    hi_r = tower.segment(r).hi
    lo_next = tower.segment(r + 1).lo
    rho = lo_next - hi_r
    x = math.pi * tower.l
    predicted = (1.0 - EULER_GAMMA) * prime_pi(x)
    return GapReport(
        l=tower.l, u=tower.u, r=r, rho=rho,
        predicted=predicted, ratio=rho / predicted,
    )


def gap_csv_rows(reports: list[GapReport]) -> str:
    lines = ["L,U,r,rho,predicted,ratio"]
    lines.extend(rep.csv_row() for rep in reports)
    return "\n".join(lines) + "\n"
