"""Prime counting, logarithmic integral, and ladder-gap diagnostics."""

from __future__ import annotations

import math

import pytest

from zetaladder.config import EULER_GAMMA
from zetaladder.errors import DomainTooSmall, IndexOutOfTower, RangeTooLarge
from zetaladder.gaps import GapReport, gap_csv_rows, gap_rho, prime_pi


def _pi_by_trial_division(x: int) -> int:
    count = 0
    for n in range(2, x + 1):
        if all(n % d for d in range(2, int(math.isqrt(n)) + 1)):
            count += 1
    return count


# ---------------------------------------------------------------------------
# prime_pi
# ---------------------------------------------------------------------------


def test_pi_10_and_100():
    assert prime_pi(10) == 4
    assert prime_pi(100) == 25


def test_pi_matches_trial_division_below_2000():
    for x in (2, 3, 4, 29, 30, 541, 1000, 1999):
        assert prime_pi(x) == _pi_by_trial_division(x)


def test_pi_handles_float_arguments():
    # pi(x) counts primes <= x, so pi(10.9) = pi(10) and pi(11.0) = 5
    assert prime_pi(10.9) == 4
    assert prime_pi(11.0) == 5


def test_pi_is_monotone():
    vals = [prime_pi(x) for x in range(2, 300)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_pi_rejects_out_of_range():
    with pytest.raises(DomainTooSmall):
        prime_pi(1.5)
    with pytest.raises(RangeTooLarge):
        prime_pi(2e8)


# ---------------------------------------------------------------------------
# ladder gaps
# ---------------------------------------------------------------------------


def test_gap_report_fields(factory):
    tw = factory.tower(150, 1.0, 2)
    rep = gap_rho(tw, 0)
    assert isinstance(rep, GapReport)
    assert rep.l == 150 and rep.u == 1.0 and rep.r == 0
    assert rep.rho == tw.segment(1).lo - tw.segment(0).hi
    assert rep.predicted == pytest.approx(
        (1.0 - EULER_GAMMA) * prime_pi(math.pi * 150), rel=1e-12
    )
    assert rep.ratio == pytest.approx(rep.rho / rep.predicted, rel=1e-12)


def test_gap_ratio_near_one_at_moderate_heights(factory):
    for l in (150, 300):
        tw = factory.tower(l, 1.0, 1)
        assert 0.7 <= gap_rho(tw, 0).ratio <= 1.3


def test_gap_r_levels_agree_within_ten_percent(factory):
    tw = factory.tower(300, 1.0, 2)
    r0 = gap_rho(tw, 0).rho
    r1 = gap_rho(tw, 1).rho
    assert abs(r1 - r0) / r0 <= 0.10


def test_gap_requires_next_segment(factory):
    tw = factory.tower(150, 1.0, 1)
    with pytest.raises(IndexOutOfTower):
        gap_rho(tw, 1)


def test_gap_csv_format(factory):
    tw = factory.tower(150, 1.0, 2)
    rows = gap_csv_rows([gap_rho(tw, 0), gap_rho(tw, 1)])
    lines = rows.strip().splitlines()
    assert lines[0] == "L,U,r,rho,predicted,ratio"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "150" and first[2] == "0"
    float(first[3]), float(first[4]), float(first[5])  # parseable
