"""Cumulative second moment, normalizer inversion, and table persistence."""

from __future__ import annotations

import bisect
import math
import os
import time
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetaladder import _kernels, ladder
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
    LadderModel,
    normalizer,
    normalizer_prime,
)
from zetaladder.numerics import integrate, piece_integrals
from zetaladder.tower import ChainFactory
from zetaladder.zeta import hardy_z, zeta_mod_sq

from _oracles import A_100, MONOTONE_FLOOR, RowReadPath

_LOG_2PI = math.log(2.0 * math.pi)
#: where the Riemann-Siegel main sum gains its N-th term, t = 2 pi N^2:
#: the truncated formula jumps there by its own error
JUMPS = [2.0 * math.pi * n * n for n in range(4, 8)]


def _fresh(m, a, b, tol):
    """Integral of Z^2 over [a, b] by the scalar path, apart from the ladder's fits."""
    return integrate(lambda u: zeta_mod_sq(u, m.config), a, b, tol).value


def _zsq(m, t):
    """Z(t)^2 as a ladder step reads it: the interpolant of t's knot interval."""
    return m._lookup(m._interval(t), t)[1]


def _bounds(m, j):
    """(lo, hi) of each piece m keeps for a knot interval j of many pieces."""
    edges, pieces = m._pieces[j]
    bounds = np.array([(lo, hi) for lo, hi, _b, _c in pieces])
    assert edges == bounds[:-1, 1].tolist()  # the right edges to bisect
    return bounds


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
        assert abs(_zsq(model, t) - hardy_z(t, model.config).z ** 2) <= 1e-9


def test_a_built_interval_answers_without_z(model, monkeypatch):
    fresh = LadderModel(model.config, model.table)  # same knots, no interpolants
    calls = []
    many, one = _kernels._z_rs_many_np, _kernels.z_rs_one
    monkeypatch.setattr(_kernels, "_z_rs_many_np",
                        lambda ts, n: calls.append(len(ts)) or many(ts, n))
    monkeypatch.setattr(_kernels, "z_rs_one", lambda t, n: calls.append(1) or one(t, n))
    fresh.cumulative_hl(1234.1)
    assert calls == [33]  # one batch at the interval's nodes
    fresh.cumulative_hl(1234.4)
    fresh.step(1234.2)
    fresh.ztilde_sq(1234.3)
    fresh.reverse_step(fresh.phi1(1234.25))
    assert calls == [33]


def test_interval_that_fails_the_17_33_test_is_halved(small_config):
    # 33 nodes do not resolve Z^2 over a 16-wide interval at t ~ 300
    m = LadderModel(small_config.with_overrides(knot_spacing=16.0))
    h, j = 16.0, 18
    tol = m.config.quad_tol * h
    vals = m.table.values
    m.cumulative_hl(300.0)
    rows = _bounds(m, j)
    assert len(rows) > 1
    assert rows[0, 0] == j * h and rows[-1, 1] == (j + 1) * h
    assert np.array_equal(rows[1:, 0], rows[:-1, 1])
    for t in np.linspace(j * h, (j + 1) * h, 41)[1:-1]:
        t = float(t)
        fresh = vals[j] + _fresh(m, j * h, t, tol)
        assert abs(m.cumulative_hl(t) - fresh) <= tol
        assert abs(_zsq(m, t) - hardy_z(t, m.config).z ** 2) <= 1e-9
    for edge in rows[:-1, 1]:
        left = m.cumulative_hl(float(edge))
        right = m.cumulative_hl(math.nextafter(float(edge), math.inf))
        assert right == pytest.approx(left, abs=1e-12)
    end = m.cumulative_hl(math.nextafter((j + 1) * h, 0.0))
    assert end == pytest.approx(vals[j + 1], abs=4 * math.ulp(vals[j + 1]))


@pytest.mark.parametrize("t, j", [
    (5.699999999999999, 19),  # one ulp below 19 * 0.3 = 5.7, yet int(t / 0.3) = 19
    (0.9, 3),  # above 3 * 0.3 = 0.8999999999999999, yet t / 0.3 = 3: the top knot
])
def test_mass_where_t_over_h_rounds_to_a_knot(small_config, t, j):
    m = LadderModel(small_config.with_overrides(knot_spacing=0.3))
    assert t / 0.3 == j and t != j * 0.3
    a = m.cumulative_hl(t)
    assert len(m.table.values) == j + 1
    assert a == pytest.approx(m.table.values[j], abs=4 * math.ulp(m.table.values[j]))
    assert _zsq(m, t) == pytest.approx(hardy_z(t, m.config).z ** 2, abs=1e-9)


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
    res = integrate(lambda u: zeta_mod_sq(u, model.config), 307.5, 308.0, tol)
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
    # A(0.2) ~ 0.41 < V(t_min) = V(4) ~ 0.50: no y >= t_min solves V(y) = A
    m = LadderModel(small_config.with_overrides(t_start=0.0))
    with pytest.raises(DomainTooSmall, match="normalizer floor"):
        m.phi1(0.2)


def test_phi1_raises_when_newton_does_not_converge(small_config, monkeypatch):
    m = LadderModel(small_config)
    monkeypatch.setattr(m, "_lookup", lambda j, t: (math.nan, math.nan))
    with pytest.raises(NonConvergence):
        m.phi1(300.0)


def test_step_is_phi1_omega_and_ztilde_sq_at_once(model):
    # Z^2 comes from the interval's interpolant, not a fresh Z evaluation;
    # it stays well inside the Riemann-Siegel bound of the direct route
    for t in (612.5, 1000.3):
        y, om, zt = model.step(t)
        assert (y, om) == (model.phi1(t), model.omega(t))
        assert zt == _zsq(model, t) / om
        assert _zsq(model, t) == pytest.approx(hardy_z(t, model.config).z ** 2, abs=1e-9)
        assert model.ztilde_sq(t) == zt


def test_a_ladder_step_reads_its_interval_once(model, monkeypatch):
    # A(t) and Z(t)^2 come from one evaluation of one interval's pieces
    reads = []
    read = ladder.eval_pieces
    monkeypatch.setattr(ladder, "eval_pieces",
                        lambda rows, t: reads.append(t) or read(rows, t))
    model.step(1000.3)
    assert reads == [1000.3]


def test_the_normalizer_floor_is_computed_on_the_first_step(small_config):
    # V(t_min) is kept per model, but a t_min <= 0 still builds the table and
    # raises on the first step, not when the model is made
    m = LadderModel(small_config.with_overrides(t_min=0.0))
    with pytest.raises(DomainTooSmall, match="normalizer"):
        m.step(250.0)
    assert m.table.t_covered >= 250.0


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
    m = LadderModel(small_config.with_overrides(knot_spacing=16.0))
    m.extend_to(304.0)
    edges = m._raw_fit(18)[:-1, 1].tolist()
    assert len(edges) > 1
    ts = list(np.linspace(288.0, 304.0, 41)[1:]) + edges + [
        math.nextafter(e, d) for e in edges for d in (0.0, math.inf)]
    _assert_reads_as_rows(m, ts)


@pytest.mark.parametrize("t", [5.699999999999999, 0.9])
def test_read_path_equals_the_rows_where_t_over_h_rounds_to_a_knot(small_config, t):
    # the two cases of test_mass_where_t_over_h_rounds_to_a_knot
    m = LadderModel(small_config.with_overrides(knot_spacing=0.3, t_start=0.0))
    _assert_reads_as_rows(m, [t])


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
    # both bracket ends are knots; only the root loop's steps cost a lookup,
    # and it never takes more than bisection's ceil(log2(5e10)) = 36 steps
    # from width 0.5 to root_tol = 1e-11
    x = 1500.0
    model.reverse_step(x)  # the table already covers the root
    h = model.table.spacing
    offknot = []
    original = LadderModel.cumulative_hl

    def counting(self, t):
        if t != int(t / h) * h:
            offknot.append(t)
        return original(self, t)

    monkeypatch.setattr(LadderModel, "cumulative_hl", counting)
    u = model.reverse_step(x)
    assert len(offknot) <= 36
    j = math.ceil(u / h)
    assert all((j - 1) * h < t < j * h for t in offknot)


def test_reverse_steps_take_a_handful_of_offknot_evaluations(model, monkeypatch):
    # each g is one knot interval's interpolant of A(t): the root loop
    # converges superlinearly where bisection takes 36 steps every time
    h = model.table.spacing
    offknot = []
    original = LadderModel.cumulative_hl

    def counting(self, t):
        if t != int(t / h) * h:
            offknot.append(t)
        return original(self, t)

    monkeypatch.setattr(LadderModel, "cumulative_hl", counting)
    counts = []
    for x in np.linspace(400.0, 1996.0, 400):
        before = len(offknot)
        model.reverse_step(float(x))
        counts.append(len(offknot) - before)
    assert max(counts) <= 36
    assert sum(counts) / len(counts) <= 12.0


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


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_extend_to_rejects_non_finite_height(small_config, t):
    with pytest.raises(DomainTooSmall):
        LadderModel(small_config).extend_to(t)


def test_table_exhausted_beyond_cap(small_config):
    cfg = small_config.with_overrides(t_table_max=500.0)
    m = LadderModel(cfg)
    with pytest.raises(TableExhausted):
        m.extend_to(600.0)


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


@pytest.mark.parametrize("name, value", [
    ("knot_spacing", 0.0), ("knot_spacing", -0.5), ("knot_spacing", math.nan),
    ("knot_spacing", math.inf), ("t_table_max", 0.0), ("t_table_max", -1.0),
    ("t_table_max", math.nan), ("t_table_max", math.inf), ("rs_switch", math.nan),
    ("rs_switch", -math.inf), ("t_min", math.nan), ("t_min", math.inf),
    ("t_start", math.nan), ("t_start", -math.inf),
])
def test_config_refuses_a_value_no_run_can_use(name, value):
    # each used to pass here and fail untyped at first use, or (a NaN
    # ceiling) to lift the table ceiling silently
    with pytest.raises(UsageError, match=name):
        RunConfig(**{name: value})
