"""Cumulative second moment, normalizer inversion, and table persistence."""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import io
import math
import os
import subprocess
import sys
import time
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetaladder import _kernels, cli, ladder, numerics, zeta
from zetaladder.config import EULER_GAMMA, TABLE_FORMAT, RunConfig
from zetaladder.errors import (
    CacheCorrupt,
    CacheHashMismatch,
    DomainTooSmall,
    NonConvergence,
    TableExhausted,
    UsageError,
)
from zetaladder.ladder import (
    CumulativeTable,
    LadderModel,
    normalizer,
    normalizer_prime,
)
from zetaladder.numerics import (
    Bracket,
    chebyshev_pieces,
    integrate,
    invert_increasing,
    piece_integrals,
)
from zetaladder.tower import ChainFactory
from zetaladder.zeta import hardy_z, zeta_mod_sq

from _oracles import A_100, MONOTONE_FLOOR, RowReadPath

_LOG_2PI = math.log(2.0 * math.pi)
#: where the Riemann-Siegel main sum gains its N-th term, t = 2 pi N^2:
#: the truncated formula jumps there by its own error
JUMPS = [2.0 * math.pi * n * n for n in range(4, 8)]


def _fresh(m, a, b, tol):
    """Integral of Z^2 over [a, b] by the scalar path, apart from the ladder's fits."""
    return integrate(zeta_mod_sq, a, b, tol).value


def _zsq(m, t):
    """Z(t)^2 as a ladder step reads it: the interpolant of the knot interval
    below t's first knot, the table grown to t."""
    m.extend_to(t)
    return ladder.eval_pieces(m._landed(m._first_knot(t) - 1), t)[1]


def _bounds(m, j):
    """(lo, hi) of each piece m keeps for a knot interval j of many pieces."""
    edges, pieces = m._pieces[j]
    bounds = np.array([(lo, hi) for lo, hi, _b, _c in pieces])
    assert edges == bounds[:-1, 1].tolist()  # the right edges to bisect
    return bounds


def _interval_reads(monkeypatch):
    """The heights at which the ladder reads a landed interval, in order."""
    reads, read = [], ladder.eval_pieces
    monkeypatch.setattr(ladder, "eval_pieces",
                        lambda landed, t: reads.append(t) or read(landed, t))
    return reads


# ---------------------------------------------------------------------------
# normalizer algebra (closed forms)
# ---------------------------------------------------------------------------


def test_normalizer_at_e_closed_form():
    # V(e) = e (1 + gamma - log 2 pi)
    assert normalizer(math.e) == pytest.approx(
        math.e * (1.0 + EULER_GAMMA - _LOG_2PI), abs=1e-14
    )


def test_normalizer_prime_hits_two_at_known_point():
    # V'(y) = 2  <=>  y = 2 pi e^{1 - gamma}
    y = 2.0 * math.pi * math.exp(1.0 - EULER_GAMMA)
    assert normalizer_prime(y) == pytest.approx(2.0, abs=1e-13)


def test_monotone_floor_is_vprime_root():
    assert normalizer_prime(MONOTONE_FLOOR) == pytest.approx(0.0, abs=1e-14)
    assert MONOTONE_FLOOR == pytest.approx(
        2.0 * math.pi * math.exp(-1.0 - EULER_GAMMA), abs=1e-15
    )


def test_normalizer_prime_is_derivative_of_normalizer():
    for y in (5.0, 40.0, 900.0):
        h = 1e-6 * y
        fd = (normalizer(y + h) - normalizer(y - h)) / (2.0 * h)
        assert normalizer_prime(y) == pytest.approx(fd, rel=1e-8)


def test_normalizer_rejects_nonpositive():
    with pytest.raises(DomainTooSmall):
        normalizer(0.0)
    with pytest.raises(DomainTooSmall):
        normalizer_prime(-3.0)


# ---------------------------------------------------------------------------
# cumulative A(t)
# ---------------------------------------------------------------------------


def test_cumulative_starts_at_exact_zero(model):
    assert model.cumulative_hl(0.0) == 0.0


def test_cumulative_rejects_negative(model):
    with pytest.raises(DomainTooSmall):
        model.cumulative_hl(-0.1)


def test_cumulative_at_100_matches_independent_quadrature(model):
    assert model.cumulative_hl(100.0) == pytest.approx(A_100, rel=1e-8)


def test_cumulative_is_monotone_on_sample_grid(model):
    ts = np.linspace(0.0, 800.0, 41)
    vals = [model.cumulative_hl(float(t)) for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_cumulative_increment_matches_fresh_quadrature(model):
    # A(b) - A(a) must equal a table-free quadrature of Z^2 over [a, b]
    a, b = 431.0, 437.5
    inc = model.cumulative_hl(b) - model.cumulative_hl(a)
    fresh = _fresh(model, a, b, 1e-11)
    assert inc == pytest.approx(fresh, abs=5e-9)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=250.0, max_value=3000.0))
@example(JUMPS[0])
@example(JUMPS[1])
@example(JUMPS[2])
@example(JUMPS[3])
def test_dense_mass_matches_fresh_quadrature(model, t):
    h = model.table.spacing
    tol = model.config.quad_tol * h
    dense = model.cumulative_hl(t)  # extends the table past 2200 when asked
    j = int(t / h)
    fresh = model.table.values[j] + _fresh(model, j * h, t, tol)
    assert abs(dense - fresh) <= tol


@pytest.mark.parametrize("j", [100, 601, 2000, 4399])
def test_mass_is_exact_at_knots_and_continuous_across_them(model, j):
    h = model.table.spacing
    vals = model.table.values
    assert model.cumulative_hl(j * h) == vals[j]
    assert model.cumulative_hl((j + 1) * h) == vals[j + 1]
    above = model.cumulative_hl(math.nextafter(j * h, math.inf))
    below = model.cumulative_hl(math.nextafter((j + 1) * h, 0.0))
    assert above == pytest.approx(vals[j], abs=4 * math.ulp(vals[j]))
    assert below == pytest.approx(vals[j + 1], abs=4 * math.ulp(vals[j + 1]))


def test_interpolated_zsq_matches_hardy_z(model):
    # both routes: the eta series below t = 100, Riemann-Siegel above, and
    # the intervals where the Riemann-Siegel formula jumps
    rng = np.random.default_rng(300)
    for t in np.concatenate([rng.uniform(1.0, 100.0, 30), rng.uniform(250.0, 2190.0, 270),
                             rng.uniform(100.0, 250.0, 30), JUMPS]):
        t = float(t)
        assert abs(_zsq(model, t) - hardy_z(t).z ** 2) <= 1e-9


def test_a_built_interval_answers_without_z(model, monkeypatch):
    fresh = LadderModel(model.config, model.table)  # same knots, no interpolants
    calls = []
    many, one = _kernels._z_rs_many_np, _kernels.z_rs_one
    monkeypatch.setattr(_kernels, "_z_rs_many_np", lambda ts: calls.append(len(ts)) or many(ts))
    monkeypatch.setattr(_kernels, "z_rs_one", lambda t: calls.append(1) or one(t))
    fresh.cumulative_hl(1234.1)
    assert calls == [33]  # one batch at the interval's nodes
    fresh.cumulative_hl(1234.4)
    fresh.step(1234.2)
    fresh.ztilde_sq(1234.3)
    fresh.reverse_step(fresh.phi1(1234.25))
    assert calls == [33]


def test_interval_that_fails_the_17_33_test_is_halved(small_config):
    # knot interval 201 = [100.5, 101] is cut at the jump 2 pi 4^2 ~ 100.531,
    # and 33 nodes do not resolve the span below it: 4 rows from 2 spans
    m = LadderModel(small_config)
    h, j = m.table.spacing, 201
    tol = m.config.quad_tol * h
    vals = m.table.values
    m.cumulative_hl(100.75)
    rows = _bounds(m, j)
    (_, cut), (resume, _) = _kernels.rs_spans(j * h, (j + 1) * h)
    assert len(rows) == 4
    assert rows[0, 0] == j * h and rows[-1, 1] == (j + 1) * h
    # each span's pieces tile it; the cut leaves its one-ulp gap
    assert rows[:, 0].tolist() == [j * h, *rows[:2, 1], resume] and rows[2, 1] == cut
    for t in np.linspace(j * h, (j + 1) * h, 41)[1:-1]:
        t = float(t)
        fresh = vals[j] + _fresh(m, j * h, t, tol)
        assert abs(m.cumulative_hl(t) - fresh) <= tol
        assert abs(_zsq(m, t) - hardy_z(t).z ** 2) <= 1e-9
    for edge in rows[:-1, 1]:
        left = m.cumulative_hl(float(edge))
        right = m.cumulative_hl(math.nextafter(float(edge), math.inf))
        assert right == pytest.approx(left, abs=1e-12)
    end = m.cumulative_hl(math.nextafter((j + 1) * h, 0.0))
    assert end == pytest.approx(vals[j + 1], abs=4 * math.ulp(vals[j + 1]))


def test_a_height_just_above_a_knot_reads_one_interval_on_any_table(small_config):
    # one ulp above knot j, t reads interval j: A(t) and Z(t)^2 read the same
    # whether knot j + 1 tops the table or five more knots lie above it
    short, tall = LadderModel(small_config), LadderModel(small_config)
    h = short.table.spacing
    heights = [(j, math.nextafter(j * h, math.inf)) for j in range(100, 701, 50)]
    tall.extend_to((heights[-1][0] + 6) * h)
    for j, t in heights:
        short.extend_to(t)
        assert len(short.table.values) == j + 2
        assert short.cumulative_hl(t) == tall.cumulative_hl(t)
        assert _zsq(short, t) == _zsq(tall, t)
        assert len(short.table.values) == j + 2


def test_built_knots_land_on_their_fits(small_config):
    # each built knot is the one below plus its interval's piece integrals,
    # so the landing term only absorbs the rounding of that addition
    m = LadderModel(small_config)
    m.extend_to(400.0)
    vals = m.table.values
    for j in range(len(vals) - 1):
        delta = (vals[j + 1] - vals[j]) - float(piece_integrals(m._raw_fit(j)).sum())
        assert abs(delta) <= 2 * math.ulp(vals[j + 1])


def test_jump_intervals_are_cut_not_halved(model):
    # a piece never straddles t = 2 pi N^2, so no piece shrinks toward it
    h = model.table.spacing
    for t in JUMPS:
        j = int(t / h)
        model.cumulative_hl(j * h + 0.25)
        rows = _bounds(model, j)
        assert rows[0, 0] == j * h and rows[-1, 1] == (j + 1) * h
        cuts = [row[1] for row, nxt in zip(rows, rows[1:]) if row[1] != nxt[0]]
        assert len(cuts) == 1 and abs(cuts[0] - t) <= 4 * math.ulp(t)
        assert (rows[:, 1] - rows[:, 0]).min() > 1e-3


def test_fit_where_zsq_noise_beats_the_tolerance_fails_fast(small_config, monkeypatch):
    # on [68229, 68229.5] the 17/33 difference of Z^2 stays above its share
    # down to the resolution limit; the fit stops after a few such pieces
    # instead of accepting them by the hundred thousand
    batches = []
    many = _kernels.z_rs_many

    def counted(ts, n):
        batches.append(len(ts))
        if len(batches) > 1000:
            raise RuntimeError("still halving after 1000 batches")
        return many(ts, n)

    monkeypatch.setattr(_kernels, "z_rs_many", counted)
    t0 = time.perf_counter()
    with pytest.raises(NonConvergence, match="resolution limit"):
        LadderModel(small_config)._raw_fit(136458)
    assert time.perf_counter() - t0 < 1.0


def test_quadrature_across_a_jump_still_converges(model):
    # [307.5, 308] holds the jump at t = 2 pi 7^2; the ladder's fit is cut
    # there, the scalar quadrature is not
    tol = model.config.quad_tol * model.table.spacing
    res = integrate(zeta_mod_sq, 307.5, 308.0, tol)
    assert res.error_estimate <= tol
    mass = model.cumulative_hl(308.0) - model.cumulative_hl(307.5)
    assert res.value == pytest.approx(mass, abs=2 * tol)


def test_cumulative_deterministic_across_instances(small_config):
    m1 = LadderModel(small_config)
    m2 = LadderModel(small_config)
    m1.extend_to(350.0)
    m2.extend_to(350.0)
    for t in (10.0, 99.5, 123.25, 300.0, 349.9):
        assert m1.cumulative_hl(t) == m2.cumulative_hl(t)


# ---------------------------------------------------------------------------
# phi1 / omega / ztilde_sq
# ---------------------------------------------------------------------------


def test_phi1_inverts_normalizer_to_cumulative(model):
    for t in (250.0, 777.5, 1500.0):
        y = model.phi1(t)
        assert normalizer(y) == pytest.approx(model.cumulative_hl(t), abs=1e-8)


def test_phi1_sits_below_t_at_working_heights(model):
    # A(t) - V(t) ~ (gamma - 1) t < 0, so phi1(t) < t
    for t in (300.0, 1000.0, 2000.0):
        assert model.phi1(t) < t


def test_phi1_rejects_below_start(model):
    with pytest.raises(DomainTooSmall):
        model.phi1(model.config.t_start - 1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("read", ["step", "phi1", "omega", "ztilde_sq", "cumulative_hl"])
def test_read_api_refuses_non_finite_heights(model, read, t):
    # a NaN passes every comparison with t_start; the knot mapping refuses it
    # typed, where math.ceil would raise ValueError (NaN) or OverflowError (inf)
    with pytest.raises(DomainTooSmall):
        getattr(model, read)(t)


def test_omega_tracks_log_t(model):
    assert model.omega(1000.0) / math.log(1000.0) == pytest.approx(1.0, abs=0.25)


def test_ztilde_sq_is_derivative_of_phi1(model):
    # Z~^2(t) = dphi1/dt exactly; compare to a central difference
    for t in (600.0, 1500.0):
        h = 1e-4
        fd = (model.phi1(t + h) - model.phi1(t - h)) / (2.0 * h)
        assert model.ztilde_sq(t) == pytest.approx(fd, rel=5e-6)


def test_ztilde_sq_is_zsq_over_omega(model):
    from zetaladder.zeta import zeta_mod_sq

    t = 913.0
    assert model.ztilde_sq(t) == pytest.approx(
        zeta_mod_sq(t) / model.omega(t), rel=1e-12
    )


def test_phi1_rejects_mass_below_normalizer_floor(small_config):
    # a table whose A(200) = 0.4 lies below V(t_min) = V(4) ~ 0.50: no
    # y >= t_min solves V(y) = A
    values = array("d", np.linspace(0.0, 0.4, 401))
    m = LadderModel(small_config, CumulativeTable(small_config.config_hash(), values))
    assert m.table.t_covered == 200.0
    with pytest.raises(DomainTooSmall, match="normalizer floor"):
        m.phi1(200.0)


def test_phi1_raises_when_newton_does_not_converge(small_config, monkeypatch):
    # off a knot, A(t) is the knot value plus the interval's read: NaN here
    m = LadderModel(small_config)
    monkeypatch.setattr(ladder, "eval_pieces", lambda landed, t: (math.nan, math.nan))
    with pytest.raises(NonConvergence):
        m.phi1(300.25)


def test_step_is_phi1_omega_and_ztilde_sq_at_once(model):
    # Z^2 comes from the interval's interpolant, not a fresh Z evaluation;
    # it stays well inside the Riemann-Siegel bound of the direct route
    for t in (612.5, 1000.3):
        y, om, zt = model.step(t)
        assert (y, om) == (model.phi1(t), model.omega(t))
        assert zt == _zsq(model, t) / om
        assert _zsq(model, t) == pytest.approx(hardy_z(t).z ** 2, abs=1e-9)
        assert model.ztilde_sq(t) == zt


def test_a_ladder_step_reads_its_interval_once(model, monkeypatch):
    # A(t) and Z(t)^2 come from one evaluation of one interval's pieces
    reads = _interval_reads(monkeypatch)
    model.step(1000.3)
    assert reads == [1000.3]


def _newton(a, y):
    """One Newton step of V(y) = a in step's arithmetic: V and V' from one log."""
    log_y = math.log(y)
    return y - (y * log_y + ladder._V_LINEAR * y - a) / (
        log_y + 1.0 + EULER_GAMMA - ladder._LOG_TWO_PI)


@pytest.mark.parametrize("root_tol, t, period", [
    pytest.param(3e-13, 419.8374750692238, 2, id="419.8374750692238"),
    pytest.param(3e-13, 592.2948799204955, 2, id="592.2948799204955"),
    pytest.param(1e-13, 410.2518092649016, 3, id="410.2518092649016"),
])
def test_step_returns_the_smaller_member_of_a_newton_cycle(small_config, root_tol, t,
                                                           period):
    # root_tol / 4 = 7.5e-14 lies between one and two ulps of y in [256, 512],
    # as the default's 2.5e-12 does in [8192, 16384]: the iterates can
    # settle into a cycle that the |dy| stop never ends, of two points, or
    # of three under the tighter 2.5e-14
    m = LadderModel(small_config.with_overrides(root_tol=root_tol))
    a, y = m.cumulative_hl(t), t
    for _ in range(64):
        y = _newton(a, y)
    cycle = [y]
    while len(cycle) <= period and _newton(a, cycle[-1]) != y:
        cycle.append(_newton(a, cycle[-1]))
    assert len(cycle) == period
    assert m.step(t)[0] == min(cycle)


@pytest.mark.parametrize("root_tol", [3e-13, 1e-13])
def test_step_converges_at_every_height_under_a_root_tol_near_an_ulp(small_config,
                                                                      root_tol):
    # with only a two-back stop, 2 of these 300 heights cycle over three
    # points under 1e-13 until 64 steps raise NonConvergence; with no cycle
    # stop at all, 26 do under 3e-13
    m = LadderModel(small_config.with_overrides(root_tol=root_tol))
    for t in np.random.default_rng(1).uniform(200.0, 600.0, 300).tolist():
        y = m.step(t)[0]
        assert normalizer(y) == pytest.approx(m.cumulative_hl(t), rel=1e-15), t


# ---------------------------------------------------------------------------
# the read path against the row reference: bit for bit
# ---------------------------------------------------------------------------


def _assert_reads_as_rows(m, ts, steps=True):
    """A(t), Z(t)^2 and (with ``steps``) the ladder step of m, each == the rows' read."""
    ref = RowReadPath(m)
    for t in ts:
        t = float(t)
        assert m.cumulative_hl(t) == ref.cumulative_hl(t), t
        assert _zsq(m, t) == ref.lookup(t)[1], t
        if steps:
            want = ref.step(t)
            assert m.step(t) == want, t
            assert (m.phi1(t), m.omega(t), m.ztilde_sq(t)) == want, t


def _knot_points(h, js):
    """Knots j h and the doubles one ulp below them."""
    return [x for j in js for x in (j * h, math.nextafter(j * h, 0.0))]


def test_read_path_equals_the_rows_off_and_on_knots(model):
    # a fresh model on the fixture's knots lands every interval it reads
    fresh = LadderModel(model.config, model.table)
    h = model.table.spacing
    rng = np.random.default_rng(16)
    ts = list(rng.uniform(200.0, 2200.0, 200))
    ts += _knot_points(h, rng.integers(400, 4400, 20).tolist() + [4400])
    _assert_reads_as_rows(fresh, ts)


def test_read_path_equals_the_rows_across_a_jump_cut(model):
    # the intervals holding t = 2 pi N^2 are cut there: two pieces to bisect
    fresh = LadderModel(model.config, model.table)
    h = model.table.spacing
    for t in JUMPS:
        j = int(t / h)
        ts = list(np.linspace(j * h, (j + 1) * h, 23)[1:]) + [
            t, math.nextafter(t, 0.0), math.nextafter(t, math.inf), t - 1e-9, t + 1e-9]
        _assert_reads_as_rows(fresh, ts, steps=t >= model.config.t_start)


def test_read_path_equals_the_rows_on_a_halved_interval(small_config):
    # interval 201 of test_interval_that_fails_the_17_33_test_is_halved,
    # below t_start: read without steps
    m = LadderModel(small_config)
    m.extend_to(101.0)
    edges = m._raw_fit(201)[:-1, 1].tolist()
    assert len(edges) == 3
    ts = list(np.linspace(100.5, 101.0, 41)[1:]) + edges + [
        math.nextafter(e, d) for e in edges for d in (0.0, math.inf)]
    _assert_reads_as_rows(m, ts, steps=False)


def test_read_path_equals_the_rows_on_a_reloaded_table(model, tmp_path):
    loaded = LadderModel.load_table(model.save_table(str(tmp_path / "t.csv")), model.config)
    rng = np.random.default_rng(61)
    _assert_reads_as_rows(loaded, list(rng.uniform(200.0, 2200.0, 60))
                          + _knot_points(loaded.table.spacing, [1000, 3001]))


# ---------------------------------------------------------------------------
# reverse step (the ladder's upward rung)
# ---------------------------------------------------------------------------


def test_reverse_step_roundtrips_through_phi1(model):
    for x in (300.0, 777.5, 1500.0):
        u = model.reverse_step(x)
        assert u > x
        assert model.phi1(u) == pytest.approx(x, abs=1e-7)


def test_reverse_step_gap_tracks_prediction(model):
    # u - x ~ (1 - gamma) x / log x, +-30% at moderate heights
    x = 2000.0
    gap = model.reverse_step(x) - x
    predicted = (1.0 - EULER_GAMMA) * x / math.log(x)
    assert 0.7 <= gap / predicted <= 1.3


def test_reverse_step_rejects_below_t_min(model):
    with pytest.raises(DomainTooSmall):
        model.reverse_step(model.config.t_min - 1.0)


@pytest.mark.parametrize("x", [math.inf, math.nan])
def test_reverse_step_rejects_a_non_finite_x(model, x):
    # V(inf) is NaN: refused as a domain error before any root loop
    with pytest.raises(DomainTooSmall, match="non-finite"):
        model.reverse_step(x)


def test_reverse_step_bisects_one_knot_interval(model, monkeypatch):
    # both bracket ends are knots; only the root loop's steps read the
    # interval, and it never takes more than bisection's ceil(log2(5e10)) = 36
    # steps from width 0.5 to root_tol = 1e-11
    x = 1500.0
    model.reverse_step(x)  # the table already covers the root
    h = model.table.spacing
    offknot = _interval_reads(monkeypatch)
    u = model.reverse_step(x)
    assert offknot
    assert len(offknot) <= 36
    j = math.ceil(u / h)
    assert all((j - 1) * h < t < j * h for t in offknot)


def test_reverse_steps_take_a_handful_of_offknot_evaluations(model, monkeypatch):
    # each g is one knot interval's interpolant of A(t): the root loop
    # converges superlinearly where bisection takes 36 steps every time
    offknot = _interval_reads(monkeypatch)
    counts = []
    for x in np.linspace(400.0, 1996.0, 400):
        before = len(offknot)
        model.reverse_step(float(x))
        counts.append(len(offknot) - before)
    assert max(counts) <= 36
    assert 1 <= sum(counts) / len(counts) <= 12.0


def _reverse_step_oracle(m, x):
    """The reverse step restated: invert_increasing on cumulative_hl over the
    root's knot interval, with the table already grown past V(x)."""
    h, target = m.table.spacing, normalizer(x)
    j = bisect.bisect_left(m.table.values, target, 1)
    return invert_increasing(m.cumulative_hl, Bracket((j - 1) * h, j * h), target,
                             m.config.root_tol)


def test_reverse_step_reads_a_as_cumulative_hl_does(small_config):
    m = LadderModel(small_config)
    for x in np.random.default_rng(20).uniform(20.0, 400.0, 60).tolist():
        assert m.reverse_step(x) == _reverse_step_oracle(m, x), x


def test_knot_reads_fit_nothing_and_a_reverse_step_lands_only_its_root(model,
                                                                      monkeypatch):
    # a fresh model on the fixture's warm table: A at a knot is the knot's
    # value, and the root loop's reads land one interval, the root's
    fresh = LadderModel(model.config, model.table)
    h, vals = fresh.table.spacing, fresh.table.values
    fits = []
    for name in ("_raw_fit", "_spans"):  # a lone interval's fit, a chunk's
        fit = getattr(fresh, name)
        monkeypatch.setattr(fresh, name, lambda *js, fit=fit: fits.append(js) or fit(*js))
    for j in (0, 1, 600, len(vals) - 1):
        assert fresh.cumulative_hl(j * h) == vals[j]
    assert fits == [] and fresh._pieces == {}
    u = fresh.reverse_step(1500.0)
    root = math.ceil(u / h) - 1
    assert fits == [(root,)] and list(fresh._pieces) == [root]


def test_reverse_step_grows_a_cold_table_to_the_root_knot(small_config):
    # a chunk at a time: the table ends fewer than _CHUNK knots above the
    # first knot that reaches V(x), and the root lies below that knot
    m = LadderModel(small_config)
    target = normalizer(300.0)
    u = m.reverse_step(300.0)
    vals = m.table.values
    j = bisect.bisect_left(vals, target, 1)
    assert vals[j - 1] < target <= vals[j]
    assert len(vals) - 1 - j < ladder._CHUNK
    assert (j - 1) * m.table.spacing <= u <= j * m.table.spacing


def _knot_by_knot(config, t):
    """A table grown one knot per extend_to call, as a knot-by-knot build does."""
    m = LadderModel(config)
    h = m.table.spacing
    for j in range(1, int(math.ceil(t / h)) + 1):
        m.extend_to(j * h)
    return m


@pytest.fixture(scope="module")
def knots_to_450():
    return _knot_by_knot(RunConfig(), 450.0).table.values.tobytes()


def test_one_call_build_is_the_knot_by_knot_table(small_config, knots_to_450):
    # [0, 450] crosses the switch, the jumps at 2 pi N^2 for N = 4..8 and
    # 56 chunk boundaries
    m = LadderModel(small_config)
    m.extend_to(450.0)
    assert m.table.values.tobytes() == knots_to_450


@pytest.mark.parametrize("t0", [123.5, 331.0])
def test_a_loaded_table_extends_to_the_knot_by_knot_table(small_config, tmp_path,
                                                          knots_to_450, t0):
    # tops of 247 and 662 knots: neither a multiple of the chunk size
    path = str(tmp_path / "t.csv")
    m = LadderModel(small_config)
    m.extend_to(t0)
    m.save_table(path)
    loaded = LadderModel.load_table(path, small_config)
    loaded.extend_to(450.0)
    assert loaded.table.values.tobytes() == knots_to_450


@pytest.mark.parametrize("fault", ["raises", "noise"])
def test_a_failing_fit_in_a_chunk_leaves_the_knots_below_it(small_config, monkeypatch,
                                                           fault):
    # the kernel fails inside interval 700 = [350, 350.5], in the middle of
    # a chunk: the one-call build raises what the knot-by-knot one raises
    # and keeps the same knots, those up to t = 350
    many = _kernels.z_rs_many

    def broken(ts, n):
        bad = (ts > 350.0) & (ts < 350.5)
        if bad.any() and fault == "raises":
            raise RuntimeError("kernel failure near t = 350")
        # noise that no halving resolves, the same at a height whatever its batch
        return np.where(bad, 1e3 * np.sin(1e9 * ts), many(ts, n))

    monkeypatch.setattr(_kernels, "z_rs_many", broken)
    outcomes = []
    for one_call in (True, False):
        m = LadderModel(small_config)
        with pytest.raises((RuntimeError, NonConvergence)) as info:
            if one_call:
                m.extend_to(360.0)
            else:
                for j in range(1, 721):
                    m.extend_to(j * 0.5)
        outcomes.append((type(info.value), str(info.value), m.table.values.tobytes()))
    assert outcomes[0] == outcomes[1]
    assert len(outcomes[0][2]) == 701 * 8


def _lone_fit(m, j):
    """Interval j's rows from numerics.chebyshev_pieces, one stretch at a time."""
    cfg, h = m.config, m.table.spacing
    lo, hi = j * h, (j + 1) * h
    wavelength = ladder._min_wavelength(hi)
    return np.vstack([chebyshev_pieces(zsq, a, b, cfg.quad_tol * (b - a), wavelength)
                      for zsq, a, b in zeta.zsq_stretches(lo, hi)])


def test_no_jump_cut_falls_on_a_knot():
    # a chunk's fit cuts each interval at the chunk's stretches; that is the
    # interval's own stretches as long as no height on either side of a
    # jump's one-ulp gap is a knot, up to the default t_table_max
    h = RunConfig.knot_spacing
    stretches = zeta.zsq_stretches(RunConfig.rs_switch, RunConfig().t_table_max)
    cuts = [t for (_, _, below), (_, above, _) in zip(stretches, stretches[1:])
            for t in (below, above)]
    assert len(cuts) == 2 * 175  # N = 4..178
    assert not [t for t in cuts if (t / h).is_integer()]


@pytest.mark.parametrize("j", [201, 452, 7001, 13633])
def test_an_interval_fit_is_its_spans_fitted_alone(small_config, j):
    # chebyshev_pieces evaluates and tests each piece on its own; the chunk
    # pass stacks them.  Interval 201 is cut at 2 pi 4^2 and the span below
    # the cut halved, 452 is cut at 2 pi 6^2, 7001 (t = 3500.5) starts as
    # two pieces, and so does 13633 (t = 6816.5), which the splitting loop
    # then takes from the chunk's values.  Alone, and as the increment of
    # each interval of a chunk around it (the one around 201 also crosses
    # the eta / Riemann-Siegel seam at 200)
    m = LadderModel(small_config)
    lone = [_lone_fit(m, i) for i in range(j - 7, j + 9)]
    fit = m._raw_fit(j)
    assert fit.shape == lone[7].shape and fit.tobytes() == lone[7].tobytes()
    _assert_chunk_is_its_lone_fits(m, j - 7, j + 9, lone)


def _assert_chunk_is_its_lone_fits(m, j0, j1, lone=None):
    """knot_increments(j0, j1) is each interval's lone fit integrated, bit for bit."""
    lone = lone or [m._raw_fit(j) for j in range(j0, j1)]
    chunk = np.array(list(m.knot_increments(j0, j1)))
    alone = np.array([piece_integrals(rows).sum() for rows in lone])
    assert chunk.tobytes() == alone.tobytes(), (j0, j1)


def test_chunks_where_intervals_start_as_two_pieces_are_their_lone_fits(small_config):
    # above t ~ 3360 every interval starts as two pieces; [3300, 3700] also
    # holds the jump at 2 pi 24^2 ~ 3619.1.  The fit reads no table, so a
    # bare model fits each chunk
    m = LadderModel(small_config)
    for j0 in range(6600, 7400, ladder._CHUNK):
        _assert_chunk_is_its_lone_fits(m, j0, j0 + ladder._CHUNK)


def test_chunks_around_each_jump_are_their_lone_fits(small_config):
    # the interval that holds a jump t = 2 pi N^2 is cut there; above
    # t ~ 3360 it holds three or four pieces, which its increment adds in
    # ndarray.sum's order (a pairwise sum moves 5 of these 47 chunks)
    m = LadderModel(small_config)
    h = m.table.spacing
    stretches = zeta.zsq_stretches(RunConfig.rs_switch, 16_000.0)
    for _, _, below in stretches[:-1]:
        _assert_chunk_is_its_lone_fits(m, int(below // h) - 7, int(below // h) + 9)


def _check_random_chunks(config, seed, n):
    m = LadderModel(config)
    rng = np.random.default_rng(seed)
    for j0, size in zip(rng.integers(0, 20_000, n).tolist(), rng.integers(2, 17, n).tolist()):
        _assert_chunk_is_its_lone_fits(m, j0, j0 + size)


def test_random_chunks_are_their_lone_fits(small_config):
    # chunks of 2..16 intervals anywhere in [0, 10^4]
    _check_random_chunks(small_config, 20261021, 250)


@pytest.mark.fuzz
def test_random_chunks_are_their_lone_fits_long(small_config):
    # opt in with `pytest -m fuzz`: 2000 chunks
    _check_random_chunks(small_config, 20261022, 2000)


def test_a_chunk_fit_splits_only_the_spans_whose_first_pieces_fail(small_config,
                                                                   monkeypatch):
    # the chunk pass accepts first pieces itself: the splitting loop runs
    # for a span only when one of its first pieces misses its share, and
    # then starts from the values the chunk's batch gave it
    calls = []
    pieces = numerics._pieces

    def counted(fvals, a, b, tol, edges, first=None):
        rows = list(pieces(fvals, a, b, tol, edges, first))
        calls.append((first is not None, len(edges) - 1, len(rows)))
        return iter(rows)

    monkeypatch.setattr(numerics, "_pieces", counted)
    LadderModel(small_config).extend_to(450.0)
    # of the 905 spans up to t = 450, one: interval 201's below 2 pi 4^2,
    # its one first piece halved into three
    assert calls == [(True, 1, 3)]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_extend_on_a_pool_is_extend_to(small_config, in_process_pool, knots_to_450,
                                       workers):
    # one map of one task per worker, the chunks dealt round-robin and the
    # increments appended in order: from empty and from a top of 247 knots,
    # off the chunk grid, the table is the knot-by-knot one
    for t0 in (0.0, 123.5):
        m = LadderModel(small_config)
        m.extend_to(t0)
        chunks = m.missing_chunks(450.0)
        pool = in_process_pool(workers)
        m.extend_on(pool, workers, 450.0)
        assert m.table.values.tobytes() == knots_to_450
        [(fn, [tasks], _)] = pool.calls
        assert fn is ladder._fit_chunks
        assert tasks == [(small_config, chunks[w::workers]) for w in range(workers)]


def test_extend_on_stops_at_a_ceiling_between_knots(small_config, in_process_pool,
                                                    knots_to_450):
    # asked past t_table_max = 300.3, it ends at the last knot below, 300.0,
    # where extend_to refuses, and raises nothing
    cfg = small_config.with_overrides(t_table_max=300.3)
    m = LadderModel(cfg)
    m.extend_on(in_process_pool(2), 2, 450.0)
    assert m.table.values.tobytes() == knots_to_450[:601 * 8]
    with pytest.raises(TableExhausted):
        LadderModel(cfg).extend_to(450.0)


@pytest.mark.parametrize("refused", [350.0, 408.0])
def test_extend_on_keeps_the_knots_below_a_fit_that_raises(small_config, monkeypatch,
                                                           in_process_pool, refused):
    # the kernel raises inside [refused, refused + 0.5], in the middle of a
    # chunk (interval 700) or opening one (interval 816): the pooled
    # extension stops quietly with the knots extend_to keeps when it raises,
    # though the other worker fitted chunks above
    many = _kernels.z_rs_many

    def broken(ts, n):
        if np.any((ts > refused) & (ts < refused + 0.5)):
            raise RuntimeError(f"kernel failure near t = {refused}")
        return many(ts, n)

    monkeypatch.setattr(_kernels, "z_rs_many", broken)
    serial = LadderModel(small_config)
    with pytest.raises(RuntimeError):
        serial.extend_to(450.0)
    pooled = LadderModel(small_config)
    pooled.extend_on(in_process_pool(2), 2, 450.0)
    assert pooled.table.values.tobytes() == serial.table.values.tobytes()
    assert pooled.table.t_covered == refused


def test_reverse_steps_and_tower_tops_do_not_depend_on_how_the_table_grew(model):
    # a cold table grows toward each root a chunk at a time; the session
    # model already covers every root.  Same knots, so same roots, and the
    # cold table ends fewer than _CHUNK knots above the last root's knot
    for l, u, k in [(150, 0.5, 2), (260, 1.4, 3), (420, 1.0, 1)]:
        cold = LadderModel(model.config)
        tower = ChainFactory(cold).tower(l, u, k)
        assert tower.segments == ChainFactory(model).tower(l, u, k).segments
        vals = cold.table.values
        j = bisect.bisect_left(vals, normalizer(tower.segments[-2].hi), 1)
        assert 0 <= len(vals) - 1 - j < ladder._CHUNK
        assert vals.tobytes() == model.table.values[:len(vals)].tobytes()


def test_change_of_variables_identity(model):
    # int_{phi1(a)}^{phi1(b)} h = int_a^b h(phi1(t)) ztilde_sq(t) dt
    a, b = 700.0, 702.0
    h = lambda y: math.sin(0.37 * y)  # noqa: E731
    lhs = integrate(h, model.phi1(a), model.phi1(b), tol=1e-11).value
    rhs = integrate(lambda t: h(model.phi1(t)) * model.ztilde_sq(t), a, b,
                    tol=1e-8).value
    assert lhs == pytest.approx(rhs, abs=1e-6)


# ---------------------------------------------------------------------------
# table persistence
# ---------------------------------------------------------------------------


def test_save_load_roundtrip_is_bit_identical(small_config, tmp_path):
    m = LadderModel(small_config)
    m.extend_to(320.0)
    path = str(tmp_path / "table.csv")
    m.save_table(path)
    m2 = LadderModel.load_table(path, small_config)
    assert m2.table.values == m.table.values
    assert m2.table.spacing == m.table.spacing
    # values in the file must be plain floats (regression: np.float64 repr
    # once leaked into the CSV and broke re-loading)
    with open(path) as fh:
        body = [ln for ln in fh if not ln.startswith("#")]
    assert all("np.float64" not in ln for ln in body)


def test_save_then_extend_then_save_appends(small_config, tmp_path):
    path = str(tmp_path / "t.csv")
    m = LadderModel(small_config)
    m.extend_to(300.0)
    m.save_table(path)
    n_before = len(m.table.values)
    m2 = LadderModel.load_table(path, small_config)
    m2.extend_to(400.0)
    assert len(m2.table.values) > n_before
    m2.save_table(path)
    m3 = LadderModel.load_table(path, small_config)
    assert m3.table.values == m2.table.values


def test_load_rejects_config_mismatch(small_config, tmp_path):
    path = str(tmp_path / "t.csv")
    m = LadderModel(small_config)
    m.extend_to(250.0)
    m.save_table(path)
    other = small_config.with_overrides(quad_tol=1e-9)
    with pytest.raises(CacheHashMismatch):
        LadderModel.load_table(path, other)


def test_a_model_refuses_another_configs_table(small_config):
    table = LadderModel(small_config).table
    with pytest.raises(CacheHashMismatch):
        LadderModel(small_config.with_overrides(quad_tol=1e-9), table)


def test_load_rejects_a_table_with_headers_and_no_rows(small_config, tmp_path):
    path = tmp_path / "t.csv"
    LadderModel(small_config).save_table(str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:lines.index("t,a") + 1]) + "\n")
    with pytest.raises(CacheCorrupt, match="no rows"):
        LadderModel.load_table(str(path), small_config)


def test_cache_dir_comes_from_the_config_the_environment_or_the_working_dir(
        monkeypatch, tmp_path):
    cfg = RunConfig()
    monkeypatch.setenv("ZETALADDER_CACHE_DIR", str(tmp_path / "env"))
    assert cfg.resolve_cache_dir() == str(tmp_path / "env")
    assert RunConfig(cache_dir="mine").resolve_cache_dir() == "mine"
    monkeypatch.chdir(tmp_path)
    for unset in (lambda: monkeypatch.setenv("ZETALADDER_CACHE_DIR", ""),
                  lambda: monkeypatch.delenv("ZETALADDER_CACHE_DIR")):
        unset()
        assert cfg.resolve_cache_dir() == os.path.join(os.getcwd(), ".zl-cache")
    assert LadderModel(cfg).default_cache_path() == os.path.join(
        os.getcwd(), ".zl-cache", f"table_{cfg.config_hash()}.csv")


def test_two_saves_of_one_path_interleaved_both_land(small_config, tmp_path, monkeypatch):
    # a second model saves the same path just before the first one's
    # os.replace: each writes its own temp file, both saves succeed, and the
    # file holds one whole table, the one replaced last, with the
    # permissions a plain open gives
    path = str(tmp_path / "t.csv")
    first, second = LadderModel(small_config), LadderModel(small_config)
    first.extend_to(20.0)
    second.extend_to(10.0)
    replace = os.replace

    def interleaved(src, dst):
        monkeypatch.setattr(os, "replace", replace)
        assert second.save_table(path) == path
        replace(src, dst)

    monkeypatch.setattr(os, "replace", interleaved)
    assert first.save_table(path) == path
    assert LadderModel.load_table(path, small_config).table.values == first.table.values
    assert len(first.table.values) == 41 and os.listdir(tmp_path) == ["t.csv"]
    with open(tmp_path / "plain", "w"):
        pass
    assert os.stat(path).st_mode == os.stat(tmp_path / "plain").st_mode


def test_a_save_that_fails_leaves_the_file_and_no_temp(small_config, tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    m = LadderModel(small_config)
    m.extend_to(5.0)
    m.save_table(str(path))
    saved = path.read_bytes()
    m.extend_to(10.0)

    def refusing(values):
        raise OSError("disk full")

    monkeypatch.setattr(ladder, "_values_digest", refusing)
    with pytest.raises(OSError, match="disk full"):
        m.save_table(str(path))
    assert os.listdir(tmp_path) == ["t.csv"] and path.read_bytes() == saved


def test_load_rejects_garbage_file(small_config, tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("not a table\n1,2\n")
    with pytest.raises(CacheHashMismatch):
        LadderModel.load_table(str(path), small_config)


@pytest.mark.parametrize(
    "row", ["0.5,", "0.5,inf", "0.5,nan", "0.5,-1.0", "0.5;1.0", "x,1.0"]
)
def test_load_rejects_corrupt_rows(small_config, tmp_path, row):
    path = str(tmp_path / "t.csv")
    m = LadderModel(small_config)
    m.extend_to(1.0)
    m.save_table(path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines[-2] = row  # the knot at t = 0.5
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(CacheCorrupt):
        LadderModel.load_table(path, small_config)


def test_default_config_hash_is_pinned():
    # the hash names every saved table; a change here orphans existing caches
    assert RunConfig().config_hash() == "a383e6b2eb3db463"


def test_the_settable_config_fields_are_pinned():
    # the correction depth, the knot spacing, the Z route seam and the two
    # domain floors are model constants; a new knob needs an edit here
    names = [f.name for f in dataclasses.fields(RunConfig)]
    assert names == ["quad_tol", "root_tol", "t_table_max", "l_floor", "k_max",
                     "cache_dir"]
    assert RunConfig.rs_terms == RunConfig().rs_terms == 4
    with pytest.raises(TypeError):
        RunConfig(rs_terms=3)


#: headers of tables saved before the correction rows were cut at index 28
#: (v2), before the values checksum (v3) and before knots came from the
#: interval fit (v4)
OLD_HEADERS = [["# zl-table-v2", "# config_hash=47d4c5aec864ed1b"],
               ["# zl-table-v3", "# config_hash=5a2ced47249a516d"],
               ["# zl-table-v4", "# config_hash=f729cb08f9678cb8"]]


def test_load_refuses_a_v2_table(small_config, tmp_path):
    # v2 knots carry the full-row correction, v3 files no checksum and v4
    # knots the older quadrature; all must be rebuilt, not mixed
    path = tmp_path / "t.csv"
    m = LadderModel(small_config)
    m.extend_to(1.0)
    m.save_table(str(path))
    LadderModel.load_table(str(path), small_config)
    lines = path.read_text().splitlines()
    for header in OLD_HEADERS:
        path.write_text("\n".join(header + lines[2:]) + "\n")
        with pytest.raises(CacheHashMismatch):
            LadderModel.load_table(str(path), small_config)


def _rewrite_value(path, row, value):
    """Replace the value of knot `row` in a saved table, keeping its t."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    i = lines.index("t,a") + 1 + row
    lines[i] = lines[i].partition(",")[0] + "," + repr(value)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_load_rejects_a_monotone_in_place_edit(small_config, tmp_path):
    # A still increases after the edit, so only the checksum shows it
    path = str(tmp_path / "t.csv")
    m = LadderModel(small_config)
    m.extend_to(5.0)
    m.save_table(path)
    vals = m.table.values
    _rewrite_value(path, 4, 0.5 * (vals[3] + vals[4]))
    with pytest.raises(CacheCorrupt, match="checksum"):
        LadderModel.load_table(path, small_config)


@pytest.fixture(scope="module")
def saved_table(tmp_path_factory):
    cfg = RunConfig(cache_dir=str(tmp_path_factory.mktemp("zl-cache")))
    m = LadderModel(cfg)
    m.extend_to(10.0)
    path = str(tmp_path_factory.mktemp("saved") / "t.csv")
    m.save_table(path)
    with open(path) as fh:
        return cfg, fh.read(), m.table.values


@settings(max_examples=60, deadline=None)
@given(row=st.integers(min_value=1, max_value=19),
       frac=st.floats(min_value=0.0, max_value=1.0),
       wild=st.one_of(st.none(), st.floats()))
def test_single_row_corruption_never_loads(saved_table, tmp_path_factory, row, frac, wild):
    # a row moved anywhere between its neighbours, or to any float at all,
    # loads only when it is the same float
    cfg, text, vals = saved_table
    path = str(tmp_path_factory.mktemp("edit") / "t.csv")
    with open(path, "w") as fh:
        fh.write(text)
    value = vals[row - 1] + frac * (vals[row + 1] - vals[row - 1]) if wild is None else wild
    _rewrite_value(path, row, value)
    if value == vals[row]:
        assert LadderModel.load_table(path, cfg).table.values == vals
    else:
        with pytest.raises(CacheCorrupt):
            LadderModel.load_table(path, cfg)


#: one edit of a cache file's bytes: a flipped bit, a deleted run, inserted
#: bytes (NUL, invalid UTF-8 and line breaks among them) or a cut tail
_BYTE_EDITS = st.one_of(
    st.tuples(st.just("flip"), st.floats(0.0, 1.0), st.integers(0, 7)),
    st.tuples(st.just("delete"), st.floats(0.0, 1.0), st.integers(1, 40)),
    st.tuples(st.just("insert"), st.floats(0.0, 1.0), st.one_of(
        st.binary(min_size=1, max_size=6),
        st.sampled_from([b"\x00", b"\xff", b"\xc3", b"\xef\xbb\xbf", b"\n", b"\r",
                         b",", b"#", b"-", b"e", b"0"]))),
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0), st.none()),
)


def _mutated(data: bytes, edits) -> bytes:
    for kind, frac, arg in edits:
        i = min(int(frac * len(data)), max(len(data) - 1, 0))
        if kind == "flip" and data:
            data = data[:i] + bytes([data[i] ^ (1 << arg)]) + data[i + 1:]
        elif kind == "delete":
            data = data[:i] + data[i + arg:]
        elif kind == "insert":
            data = data[:i] + arg + data[i:]
        elif kind == "truncate":
            data = data[:i]
    return data


@pytest.fixture(scope="module")
def cache_to_5(tmp_path_factory):
    """A valid default-config cache to t = 5, and a path for its mutants."""
    path = str(tmp_path_factory.mktemp("cache") / "t.csv")
    m = LadderModel(RunConfig())
    m.extend_to(5.0)
    m.save_table(path)
    with open(path, "rb") as fh:
        return fh.read(), path


def _check_mutated_cache(cache_to_5, edits):
    # ladder-build exits 0 exactly when load_table accepts the file, and 2
    # naming the file otherwise; it never raises
    valid, path = cache_to_5
    data = _mutated(valid, edits)
    with open(path, "wb") as fh:
        fh.write(data)
    try:
        LadderModel.load_table(path, RunConfig())
        loads = True
    except UsageError:
        loads = False
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["ladder-build", "--tmax", "5", "--cache-file", path])
    assert code == (0 if loads else 2), (data, err.getvalue())
    if code == 2:
        assert path in err.getvalue() and out.getvalue() == "", data


@settings(max_examples=100, deadline=None, derandomize=True)
@given(edits=st.lists(_BYTE_EDITS, min_size=1, max_size=3))
def test_a_mutated_cache_never_crashes_ladder_build(cache_to_5, edits):
    _check_mutated_cache(cache_to_5, edits)


@pytest.mark.fuzz
@settings(max_examples=2500, deadline=None, derandomize=True)
@given(edits=st.lists(_BYTE_EDITS, min_size=1, max_size=3))
def test_a_mutated_cache_never_crashes_ladder_build_long(cache_to_5, edits):
    # opt in with `pytest -m fuzz`: about 25 s
    _check_mutated_cache(cache_to_5, edits)


def test_knots_are_a_double_array_when_built_and_loaded(small_config, tmp_path):
    path = str(tmp_path / "t.csv")
    m = LadderModel(small_config)
    m.extend_to(5.0)
    m.save_table(path)
    for table in (m.table, LadderModel.load_table(path, small_config).table):
        assert isinstance(table.values, array) and table.values.typecode == "d"
    assert isinstance(LadderModel(small_config).table.values, array)


def test_default_cache_path_contains_config_hash(small_config):
    m = LadderModel(small_config)
    p = m.default_cache_path()
    assert small_config.config_hash() in os.path.basename(p)
    assert p.endswith(".csv")


@pytest.mark.parametrize("case", ["row dropped", "t shifted"])
def test_load_rejects_rows_off_the_spacing_grid(small_config, tmp_path, case):
    # A keeps increasing in both cases; only the t column shows the damage
    path = str(tmp_path / "t.csv")
    m = LadderModel(small_config)
    m.extend_to(20.0)
    m.save_table(path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    row = lines.index("t,a") + 20  # the knot at t = 9.5
    if case == "row dropped":
        del lines[row]
    else:
        lines[row] = "9.75," + lines[row].partition(",")[2]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(CacheCorrupt, match="row 19"):
        LadderModel.load_table(path, small_config)


def _respace(path, spacing):
    """Rewrite a saved table's spacing header and t column to another spacing,
    leaving its values and their checksum as they are."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    head = lines.index("t,a") + 1
    lines = [f"# spacing={spacing!r}" if line.startswith("# spacing=") else line
             for line in lines[:head]] + [
        f"{j * spacing!r},{line.partition(',')[2]}" for j, line in enumerate(lines[head:])]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_load_rejects_a_spacing_other_than_the_configured_one(small_config, tmp_path):
    # the t column and the checksum agree with spacing=1.0, so only the
    # configured spacing shows that A(4) would read the knot of A(2)
    path = str(tmp_path / "t.csv")
    m = LadderModel(small_config)
    m.extend_to(5.0)
    m.save_table(path)
    _respace(path, 1.0)
    with pytest.raises(CacheCorrupt, match="spacing"):
        LadderModel.load_table(path, small_config)


def _shift_values(path, offset):
    """Add offset to every saved knot value and rewrite their checksum to match."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    head = lines.index("t,a") + 1
    rows = [line.partition(",") for line in lines[head:]]
    values = array("d", [float(a) + offset for _, _, a in rows])
    lines = [f"# values_sha256={ladder._values_digest(values)}"
             if line.startswith("# values_sha256=") else line for line in lines[:head]]
    lines += [f"{t},{v!r}" for (t, _, _), v in zip(rows, values)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_load_rejects_a_first_row_other_than_zero(small_config, tmp_path):
    # shifted by 3, A still increases and matches its rewritten checksum,
    # but A(4) would read 5.23 while cumulative_hl(0) returns 0
    path = str(tmp_path / "t.csv")
    m = LadderModel(small_config)
    m.extend_to(5.0)
    m.save_table(path)
    _shift_values(path, 3.0)
    with pytest.raises(CacheCorrupt, match=r"A\(0\)"):
        LadderModel.load_table(path, small_config)


def test_table_to_150_is_pinned(small_config):
    # knots move only with a deliberate TABLE_FORMAT bump; this covers the
    # eta route (below t = 100) and the first Riemann-Siegel intervals
    m = LadderModel(small_config)
    m.extend_to(150.0)
    assert TABLE_FORMAT == "zl-table-v5"
    assert ladder._values_digest(m.table.values) == (
        "c767849902a713bf3bcc1ed2246c3de0e906d299afe62b48ac761419fe2b30c3")


def test_table_to_2200_is_pinned(model):
    # the session table: every Riemann-Siegel branch up to N = 18
    assert ladder._values_digest(model.table.values[:4401]) == (
        "dbc31954ee0b42637fd415be37cb191d1cb9e4a46ebccbf769eba00e03054209")


def test_table_to_6000_is_pinned(small_config):
    # above t ~ 3360 half the shortest Z wavelength is below h, so each
    # interval starts as two pieces, which the pins at 150 and 2200 never reach
    m = LadderModel(small_config)
    m.extend_to(6000.0)
    assert ladder._values_digest(m.table.values) == (
        "214c77882c7be2e3991184065367f66c326ec9ba4fd57610d8b996ec9d202e97")


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_extend_to_rejects_non_finite_height(small_config, t):
    with pytest.raises(DomainTooSmall):
        LadderModel(small_config).extend_to(t)


def test_table_exhausted_beyond_cap(small_config):
    cfg = small_config.with_overrides(t_table_max=500.0)
    m = LadderModel(cfg)
    with pytest.raises(TableExhausted):
        m.extend_to(600.0)


@pytest.mark.parametrize("code", [
    "from zetaladder.cli import main\n"
    "raise SystemExit(main(['ladder-build', '--tmax', '1e300', '--cache-dir', 'cache']))",
    "from zetaladder import LadderModel, TableExhausted\n"
    "try:\n    LadderModel().cumulative_hl(1e300)\n"
    "except TableExhausted:\n    raise SystemExit(3)",
], ids=["cli", "library"])
def test_a_huge_finite_height_is_refused_at_once(tmp_path, code):
    # its first knot is one ceiling, so the request past the table ceiling
    # raises TableExhausted (exit 3) before any knot is fitted
    src = os.path.dirname(os.path.dirname(os.path.abspath(ladder.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_fit_that_raises_above_the_root_does_not_fail_the_step(small_config,
                                                                monkeypatch):
    # the root lies in interval 755 and the chunk [752, 768) the step grows
    # the table by holds a refused interval, 760: the knots below it reach
    # V(x), so the step returns the root that an unrefused model finds
    x = 352.0
    u = LadderModel(small_config).reverse_step(x)
    assert 377.5 < u < 378.0
    rs_many = _kernels.z_rs_many

    def refusing(ts, terms):
        if np.any((ts > 380.25) & (ts <= 381.0)):
            raise NonConvergence("RS kernel refused in (380.25, 381]")
        return rs_many(ts, terms)

    monkeypatch.setattr(_kernels, "z_rs_many", refusing)
    m = LadderModel(small_config)
    assert m.reverse_step(x) == u
    assert m.table.t_covered == 380.0
    with pytest.raises(NonConvergence, match="refused"):
        m.reverse_step(m.phi1(381.0))


def test_reverse_step_stops_at_the_table_ceiling(small_config):
    # V(30) ~ 64 lies above A(20) ~ 35, so the knot loop hits the ceiling
    m = LadderModel(small_config.with_overrides(t_table_max=20.0))
    with pytest.raises(TableExhausted):
        m.reverse_step(30.0)
    assert m.table.t_covered <= 20.0


def _growth_passes(m, monkeypatch):
    """The knots each extend_to call of model m adds, in order."""
    added, extend = [], m.extend_to

    def recorded(t):
        before = len(m.table.values)
        try:
            extend(t)
        finally:
            added.append(len(m.table.values) - before)

    monkeypatch.setattr(m, "extend_to", recorded)
    return added


def test_a_cold_reverse_step_grows_by_whole_chunks(small_config, monkeypatch):
    m = LadderModel(small_config)
    added = _growth_passes(m, monkeypatch)
    m.reverse_step(300.0)
    assert len(added) > 1
    assert added == [ladder._CHUNK] * len(added)


def test_reverse_step_stops_at_a_ceiling_between_knots(small_config, monkeypatch):
    # the top knot below 20.3 is 20.0: two whole chunks and the 8 knots up
    # to it, then the pass past it raises
    m = LadderModel(small_config.with_overrides(t_table_max=20.3))
    added = _growth_passes(m, monkeypatch)
    with pytest.raises(TableExhausted):
        m.reverse_step(30.0)
    assert m.table.t_covered <= 20.3
    assert added == [ladder._CHUNK, ladder._CHUNK, 8, 0]


def test_no_knot_lies_past_a_ceiling_between_knots(small_config):
    # extend_to and reverse_step stop at one knot, the last at or below the
    # ceiling; covering 20.3 would need knot 20.5, past it
    m = LadderModel(small_config.with_overrides(t_table_max=20.3))
    assert m.top_knot == 40
    m.extend_to(20.0)
    with pytest.raises(TableExhausted, match="last knot 20.0"):
        m.extend_to(20.3)
    assert m.table.t_covered == 20.0
    with pytest.raises(TableExhausted):
        m.reverse_step(30.0)
    assert m.table.t_covered == 20.0


@pytest.mark.parametrize("name, value", [
    ("knot_spacing", 0.0), ("knot_spacing", -0.5), ("knot_spacing", math.nan),
    ("knot_spacing", math.inf), ("t_table_max", 0.0), ("t_table_max", -1.0),
    ("t_table_max", math.nan), ("t_table_max", math.inf), ("rs_switch", math.nan),
    ("rs_switch", -math.inf), ("t_min", math.nan), ("t_min", math.inf),
    ("t_start", math.nan), ("t_start", -math.inf),
])
def test_config_refuses_a_value_no_run_can_use(name, value):
    # each used to pass here and fail untyped at first use, or (a NaN
    # ceiling) to lift the table ceiling silently; the model's constants
    # (h, the Z route seam and the two domain floors) are not fields at all
    constant = name in ("knot_spacing", "rs_switch", "t_min", "t_start")
    with pytest.raises(TypeError if constant else UsageError, match=name):
        RunConfig(**{name: value})
