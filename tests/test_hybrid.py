"""Hybrid exact/asymptotic identities: constants, reports, invariance."""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaladder import _kernels, errors, hybrid, ladder
from zetaladder.errors import DeltaDegenerate, DomainTooSmall, NonConvergence
from zetaladder.hybrid import (
    DeltaPair,
    HybridReport,
    _exponents,
    asymptotic_secondary,
    beta_product_elim,
    echf1,
    echf2,
    invariance_scan,
    mixed_product,
    secondary_v1,
    secondary_v2,
    ternary,
    theorem1_constant,
    theorem2_constant,
)
from zetaladder.ladder import LadderModel, mean_square_climb
from zetaladder.tower import ChainFactory, gf_cos2, gf_power, gf_sin2

from _oracles import swapped

PAIR_35 = DeltaPair(Fraction(1, 3), Fraction(1, 5))
PAIR_HALF1 = DeltaPair(Fraction(1, 2), Fraction(1))
PAIR_12 = DeltaPair(Fraction(1), Fraction(2))

# ---------------------------------------------------------------------------
# delta pairs and exponent algebra
# ---------------------------------------------------------------------------


def test_pair_rejects_equal_deltas():
    with pytest.raises(DeltaDegenerate):
        DeltaPair(Fraction(1, 3), Fraction(1, 3))
    with pytest.raises(DeltaDegenerate):
        DeltaPair(0.25, 0.25)


def test_pair_rejects_nonpositive_deltas():
    with pytest.raises(DomainTooSmall):
        DeltaPair(Fraction(0), Fraction(1, 5))
    with pytest.raises(DomainTooSmall):
        DeltaPair(Fraction(1, 3), Fraction(-1, 5))


def test_pair_helpers():
    assert PAIR_35.is_rational
    assert not DeltaPair(0.3, 0.2).is_rational
    sw = swapped(PAIR_35)
    assert (sw.d3, sw.d4) == (PAIR_35.d4, PAIR_35.d3)
    assert PAIR_35.label() == ("1/3", "1/5")


def test_exponents_one_third_one_fifth_exact():
    a, b, e = _exponents(PAIR_35)
    assert (a, b, e) == (Fraction(3, 2), Fraction(-5, 2), Fraction(1, 2))


@settings(max_examples=50, deadline=None)
@given(
    st.fractions(min_value=Fraction(1, 9), max_value=Fraction(4)),
    st.fractions(min_value=Fraction(1, 9), max_value=Fraction(4)),
)
def test_exponent_sum_rule(d3, d4):
    # the three exponents always satisfy a + b + 1 = 0 and e = d3 * a; a pair
    # equal in double precision is refused as degenerate, even when the
    # fractions differ
    if float(d3) == float(d4):
        with pytest.raises(DeltaDegenerate):
            DeltaPair(d3, d4)
        return
    a, b, e = _exponents(DeltaPair(d3, d4))
    assert a + b + 1 == 0
    assert e == d3 * a
    assert e == -d4 * b


# ---------------------------------------------------------------------------
# theorem constants
# ---------------------------------------------------------------------------


def test_theorem1_constant_one_third_one_fifth():
    # [(6/5)^5 / (4/3)^3]^{1/2} = sqrt(6561/6250) = 81 sqrt(10) / 250
    c = theorem1_constant(PAIR_35)
    assert c == pytest.approx(81.0 * math.sqrt(10.0) / 250.0, rel=1e-15)
    assert c * c == pytest.approx(6561.0 / 6250.0, rel=1e-14)


def test_theorem1_constant_half_one_is_nine_eighths():
    assert theorem1_constant(PAIR_HALF1) == 9.0 / 8.0


def test_theorem2_constant_one_third_one_fifth_exact_rational():
    # (6/5)^5 / (4/3)^3 with unit-numerator deltas is an exact rational
    assert theorem2_constant(PAIR_35) == float(Fraction(6561, 6250))


def test_theorem1_swap_symmetry():
    # swapping inverts the bracket AND negates the exponent, so the constant
    # is swap-symmetric (not inverted)
    for pair in (PAIR_35, PAIR_HALF1, PAIR_12, DeltaPair(0.37, 0.21)):
        assert theorem1_constant(swapped(pair)) == pytest.approx(
            theorem1_constant(pair), rel=1e-12
        )


def test_theorem2_swap_product_is_one():
    for pair in (PAIR_35, PAIR_HALF1, PAIR_12):
        prod = theorem2_constant(pair) * theorem2_constant(swapped(pair))
        assert prod == pytest.approx(1.0, abs=1e-12)


def test_theorem1_floats_match_rational_path():
    exact = theorem1_constant(PAIR_35)
    floaty = theorem1_constant(DeltaPair(1.0 / 3.0, 0.2))
    assert floaty == pytest.approx(exact, rel=1e-12)


# ---------------------------------------------------------------------------
# report plumbing shared by all ops
# ---------------------------------------------------------------------------


def _check_report_shape(rep: HybridReport, formula_id: str) -> None:
    assert rep.formula_id == formula_id
    d = rep.to_dict()
    for key in ("formula_id", "params", "lhs", "rhs", "rel_residual",
                "condition", "points", "error_budget", "timings"):
        assert key in d
    assert d["params"]["L"] >= 100
    assert rep.condition > 0.0
    residuals = rep.error_budget["chain_residuals"]
    for key, rows in rep.points.items():
        # <role>@k<depth>; beta only where the identity solves the plain chain
        role, depth = key.split("@k")
        assert role in ("sin2", "cos2", "pow3", "pow4") and key in residuals
        assert [row["r"] for row in rows] == list(range(int(depth) + 1))
        has_beta = f"one@k{depth}" in residuals
        for row in rows:
            assert set(row) >= {"r", "alpha", "beta", "segment_lo", "segment_hi"}
            assert (row["beta"] is not None) == (has_beta and row["r"] >= 1)


# ---------------------------------------------------------------------------
# the identities, at one window each (the acceptance grid runs elsewhere)
# ---------------------------------------------------------------------------


def test_echf1_sums_to_one(factory):
    rep = echf1(factory, 150, 1.0, 1, 2)
    _check_report_shape(rep, "ECHF1")
    assert rep.rhs == 1.0
    assert rep.lhs == pytest.approx(1.0, abs=1e-8)
    assert rep.rel_residual <= 1e-8
    assert rep.extras["term_cos"] + rep.extras["term_sin"] == pytest.approx(
        rep.lhs, rel=1e-12
    )


def test_echf1_equal_depths_allowed(factory):
    rep = echf1(factory, 150, 1.0, 2, 2)
    assert rep.rel_residual <= 1e-8


def test_echf2_two_sides_agree(factory):
    rep = echf2(factory, PAIR_35, 150, 1.0, 1, 2)
    _check_report_shape(rep, "ECHF2")
    assert rep.rel_residual <= 1e-8
    # both sides equal (1+d)^{1/d}-type scaled offsets, so they are O(U)
    assert 0.0 < rep.lhs < 10.0


def test_echf2_swapped_pair_still_holds(factory):
    rep = echf2(factory, swapped(PAIR_35), 150, 1.0, 1, 2)
    assert rep.rel_residual <= 1e-8


def test_beta_product_elimination(factory):
    rep = beta_product_elim(factory, PAIR_35, 150, 1.0, 2)
    _check_report_shape(rep, "BETA_ELIM_42")
    assert rep.rel_residual <= 1e-8
    assert abs(rep.extras["exp_e"]) == 0.5  # d3 d4 / (d3 - d4) at (1/3, 1/5)
    assert rep.extras["exp_a"] + rep.extras["exp_b"] == pytest.approx(
        -2.0 * rep.extras["exp_e"], abs=1e-12
    )


def test_secondary_v1_one_third_one_fifth(factory):
    rep = secondary_v1(factory, PAIR_35, 150, 1.0, 1, 2)
    _check_report_shape(rep, "SECONDARY1_11")
    assert rep.rel_residual <= 1e-8
    assert rep.rhs == pytest.approx(81.0 * math.sqrt(10.0) / 250.0, rel=1e-14)
    # the as-printed variant (second trig factor also cos^2) must NOT match
    literal = rep.extras["literal_second_trig_lhs"]
    assert abs(literal - rep.rhs) / rep.rhs > 1e-3


def test_secondary_v1_generic_pair(factory):
    rep = secondary_v1(factory, PAIR_HALF1, 150, 1.0, 1, 2)
    _check_report_shape(rep, "SECONDARY1_44")
    assert rep.rel_residual <= 1e-8
    assert rep.rhs == 9.0 / 8.0


def test_mixed_product(factory):
    rep = mixed_product(factory, 150, 1.0, 2)
    _check_report_shape(rep, "MIXED_52")
    assert rep.rel_residual <= 1e-8


def test_echf1_equal_depths_is_mixed_rearranged(factory):
    # with k1 = k2 = k, echf1's lhs is the mixed identity's rhs over its
    # lhs; both use the same cached chains, so the two agree to rounding
    e = echf1(factory, 150, 1.0, 2, 2)
    m = mixed_product(factory, 150, 1.0, 2)
    assert e.lhs == pytest.approx(m.rhs / m.lhs, rel=1e-12)
    assert e.rel_residual <= 1e-8


def test_secondary_v2_corrected_prefactor(factory):
    rep = secondary_v2(factory, PAIR_35, 150, 1.0, 1, 2)
    _check_report_shape(rep, "SECONDARY2_54")
    assert rep.rel_residual <= 1e-8
    assert rep.rhs == pytest.approx(theorem2_constant(PAIR_35), rel=1e-14)
    # the as-printed prefactor is identically 1; the corrected one is x3/x4
    assert rep.extras["prefactor"] != 1.0
    assert rep.extras["literal_rel_residual"] > 1e-3


def test_ternary_links_the_two_secondaries(factory):
    rep = ternary(factory, PAIR_35, 150, 1.0, 1, 2, 1, 2)
    _check_report_shape(rep, "TERNARY_61")
    assert rep.rel_residual <= 1e-8
    assert rep.extras["literal_rel_residual"] > 1e-3


def test_secondary_v2_condition_covers_its_trig_chains(factory):
    rep = secondary_v2(factory, PAIR_35, 150, 1.0, 1, 2)
    w3, w4 = 1.0 / float(PAIR_35.d3), 1.0 / float(PAIR_35.d4)
    weighted = [
        (w3, 1, gf_power(PAIR_35.d3)), (w3, 1, gf_sin2()), (w3, 1, gf_cos2()),
        (w4, 2, gf_power(PAIR_35.d4)), (w4, 2, gf_sin2()), (w4, 2, gf_cos2()),
    ]
    chains = [(w, factory.solve(150, 1.0, k, gf)) for w, k, gf in weighted]
    assert rep.condition == pytest.approx(
        sum(w * ch.condition for w, ch in chains), rel=1e-12)
    assert rep.error_budget["stacked_bound"] == pytest.approx(
        sum(w * ch.rel_residual for w, ch in chains), rel=1e-12)
    assert set(rep.error_budget["chain_residuals"]) == {
        "pow3@k1", "sin2@k1", "cos2@k1", "pow4@k2", "sin2@k2", "cos2@k2"}


def test_ternary_reports_every_chain_under_its_own_depth(factory):
    rep = ternary(factory, PAIR_35, 150, 1.0, 3, 2, 1, 2)
    _check_report_shape(rep, "TERNARY_61")
    residuals = rep.error_budget["chain_residuals"]
    for k in (3, 1):
        chain = factory.solve(150, 1.0, k, gf_power(PAIR_35.d3))
        assert residuals[f"pow3@k{k}"] == chain.rel_residual
        assert len(rep.points[f"pow3@k{k}"]) == k + 1


def test_asymptotic_anchor_and_deviation(factory):
    rep = asymptotic_secondary(factory, PAIR_35, 150, 1.0, 1, 2)
    _check_report_shape(rep, "ASYMPTOTIC_17")
    # exact anchor: raw lhs deflated by the omega mixture matches the constant
    assert rep.extras["anchor_residual"] <= 1e-8
    dev = rep.extras["deviation"]
    pred = rep.extras["predicted_deviation"]
    assert dev > 0.0
    assert dev / pred == pytest.approx(1.0, abs=0.5)


def test_asymptotic_deviation_shrinks_with_height(factory):
    lo = asymptotic_secondary(factory, PAIR_35, 150, 1.0, 1, 2)
    hi = asymptotic_secondary(factory, PAIR_35, 500, 1.0, 1, 2)
    assert hi.extras["deviation"] < lo.extras["deviation"]


def _pinned_grid(l: int, u: float) -> list[tuple]:
    """(formula, args) at one window: every formula, with k1 = k2 and k3 = k4 among
    the depth tuples and ternary(3, 2, 1, 2)."""
    p = PAIR_35
    return [
        (echf1, (l, u, 1, 2)), (echf1, (l, u, 2, 2)),
        (echf2, (p, l, u, 1, 3)), (echf2, (p, l, u, 2, 2)),
        (beta_product_elim, (p, l, u, 1)), (beta_product_elim, (p, l, u, 3)),
        (secondary_v1, (p, l, u, 1, 3)), (secondary_v1, (p, l, u, 2, 2)),
        (mixed_product, (l, u, 2)),
        (secondary_v2, (p, l, u, 2, 1)), (secondary_v2, (p, l, u, 1, 1)),
        (ternary, (p, l, u, 1, 2, 1, 2)), (ternary, (p, l, u, 3, 2, 1, 2)),
        (asymptotic_secondary, (p, l, u, 1, 2)), (asymptotic_secondary, (p, l, u, 3, 3)),
    ]


def test_seeded_reports_are_pinned(model):
    # 30 reports without timings, bit for bit, each with a fresh factory: a
    # change to the read path, the walks or the root loops that moves one bit
    # of any value shows here.  Taken when a reverse step still read A through
    # cumulative_hl and a chain weight multiplied a walk's list afterwards
    reports = []
    for l, u in ((150, 1.0), (250, 0.6)):
        for fn, args in _pinned_grid(l, u):
            d = fn(ChainFactory(model), *args).to_dict()
            del d["timings"]
            reports.append(d)
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == (
        "6a3cdb73f553e0aeeaeafef55a35407b3dc82ed8607266387ef3fd37cb4acad7")


@pytest.mark.parametrize("workers", [1, 2])
def test_seeded_scan_is_pinned(small_config, monkeypatch, in_process_pool, workers):
    # the default ranges' first 12 samples at (1/3, 1/5), bit for bit: serial,
    # and on a pool of 2 whose workers fit the prefill (extend_on's
    # _fit_chunks, each chunk through knot_increments)
    monkeypatch.setattr(hybrid.os, "cpu_count", lambda: 2)
    scan = invariance_scan(PAIR_35, n_samples=12, seed=20260819, config=small_config,
                           workers=workers)
    assert [p.max_workers for p in in_process_pool.made] == ([2] if workers == 2 else [])
    digest = hashlib.sha256(json.dumps(scan.to_dict(), sort_keys=True).encode()).hexdigest()
    assert digest[:16] == "cf280b5d32fb692f"


@pytest.mark.parametrize("fn, names", [
    (echf1, "factory l u k1 k2"),
    (echf2, "factory pair l u k3 k4"),
    (beta_product_elim, "factory pair l u k"),
    (secondary_v1, "factory pair l u k1 k2"),
    (mixed_product, "factory l u k"),
    (secondary_v2, "factory pair l u k3 k4"),
    (ternary, "factory pair l u k1 k2 k3 k4"),
    (asymptotic_secondary, "factory pair l u k1 k2"),
])
def test_formula_parameter_names_are_stable(fn, names):
    # called positionally by perfbench and by keyword (l=, u=) in the README
    assert list(inspect.signature(fn).parameters) == names.split()


# ---------------------------------------------------------------------------
# invariance scan
# ---------------------------------------------------------------------------


def test_scan_is_deterministic_for_fixed_seed(factory):
    kw = dict(n_samples=3, seed=7, u_range=(0.5, 1.2), l_range=(100, 140),
              k_range=(1, 2), factory=factory)
    a = invariance_scan(PAIR_35, **kw)
    b = invariance_scan(PAIR_35, **kw)
    assert a.samples == b.samples
    assert a.max_rel_dev == b.max_rel_dev
    assert not a.failures


def test_scan_seed_changes_samples(factory):
    kw = dict(n_samples=3, u_range=(0.5, 1.2), l_range=(100, 140),
              k_range=(1, 2), factory=factory)
    a = invariance_scan(PAIR_35, seed=1, **kw)
    b = invariance_scan(PAIR_35, seed=2, **kw)
    assert [p for p, _ in a.samples] != [p for p, _ in b.samples]


def test_scan_values_hug_the_constant(factory):
    scan = invariance_scan(PAIR_35, n_samples=4, seed=11, u_range=(0.5, 1.2),
                           l_range=(100, 150), k_range=(1, 3), factory=factory)
    assert scan.constant == pytest.approx(81.0 * math.sqrt(10.0) / 250.0,
                                          rel=1e-14)
    assert scan.max_rel_dev <= 1e-6
    assert scan.to_dict()["samples"][0]["params"]["k1"] != 0


@pytest.mark.parametrize("pair", [PAIR_35, DeltaPair(0.3, 0.7)],
                         ids=["rational", "float"])
def test_scan_worker_count_does_not_change_results(config, factory, pair):
    kw = dict(n_samples=3, seed=5, u_range=(0.5, 1.0), l_range=(100, 120),
              k_range=(1, 2), config=config)
    serial = invariance_scan(pair, factory=factory, **kw)
    parallel = invariance_scan(pair, workers=2, **kw)
    assert not serial.failures
    assert serial.to_dict() == parallel.to_dict()


@pytest.mark.parametrize("workers, cores, started",
                         [(5000, 4, 3), (2, 4, 2), (5000, 1, None)])
def test_scan_starts_no_more_workers_than_samples_or_cores(factory, monkeypatch,
                                                           in_process_pool,
                                                           workers, cores, started):
    monkeypatch.setattr(hybrid.os, "cpu_count", lambda: cores)
    kw = dict(n_samples=3, seed=5, u_range=(0.5, 1.0), l_range=(100, 120),
              k_range=(1, 2), factory=factory)
    scan = invariance_scan(PAIR_35, workers=workers, **kw)
    assert [p.max_workers for p in in_process_pool.made] == ([] if started is None
                                                             else [started])
    assert scan.to_dict() == invariance_scan(PAIR_35, **kw).to_dict()


def test_scan_collects_samples_past_the_table_ceiling(small_config):
    # the towers over the highest bases cannot be built under this ceiling;
    # the samples that need them fail alone, the lower ones pass
    cfg = small_config.with_overrides(t_table_max=450.0)
    scan = invariance_scan(PAIR_35, n_samples=4, seed=3, config=cfg,
                           u_range=(0.5, 1.0), l_range=(100, 140), k_range=(1, 2))
    assert [p["L"] for p, _ in scan.samples] == [107, 106]
    assert [p["L"] for p, _ in scan.failures] == [132, 125]
    assert all(e.startswith("TableExhausted") for _, e in scan.failures)
    assert scan.max_rel_dev <= 1e-6


def test_a_pooled_scan_stops_at_a_ceiling_between_knots(small_config):
    # the pool's prefill stops at the last knot below the ceiling, 450.0, as
    # a serial sample's reverse steps do, so both fail the same samples
    cfg = small_config.with_overrides(t_table_max=450.3)
    kw = dict(n_samples=4, seed=3, config=cfg, u_range=(0.5, 1.0),
              l_range=(100, 140), k_range=(1, 2))
    pooled = invariance_scan(PAIR_35, workers=2, **kw)
    assert [p["L"] for p, _ in pooled.failures] == [132, 125]
    assert pooled.to_dict() == invariance_scan(PAIR_35, **kw).to_dict()


def test_a_scan_whose_every_sample_fails_raises(small_config):
    # every depth-2 tower over L >= 100 climbs past t = 350
    cfg = small_config.with_overrides(t_table_max=350.0)
    with pytest.raises(NonConvergence, match="all 3 scan samples failed: TableExhausted"):
        invariance_scan(PAIR_35, n_samples=3, seed=3, config=cfg,
                        u_range=(0.5, 1.0), l_range=(100, 140), k_range=(1, 2))


def test_scan_rejects_degenerate_requests(factory):
    # one sample, a fractional count, one depth, an empty range, or no
    # worker: refused before any sample
    for kw in (dict(n_samples=1), dict(n_samples=2.5),
               dict(k_range=(2, 2)), dict(k_range=(3, 1)),
               dict(l_range=(300, 200)), dict(u_range=(1.0, 0.5)),
               dict(workers=0), dict(workers=-3), dict(workers=2.0)):
        with pytest.raises(DomainTooSmall):
            invariance_scan(PAIR_35, factory=factory, **kw)


def test_every_error_class_survives_pickling():
    # a pooled task's exception reaches the parent pickled
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and c.__module__ == errors.__name__]
    assert errors.ConditionTooHigh in classes and len(classes) == 14
    for cls in classes:
        exc = cls("m", 1.5) if cls is errors.ConditionTooHigh else cls("m")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls and str(back) == "m" and back.args == exc.args
        assert vars(back) == vars(exc)


# ---------------------------------------------------------------------------
# the pool's prefill: the workers fit the table, the parent appends it
# ---------------------------------------------------------------------------

#: a scan whose tallest tower (L = 140, k = 3) tops out near t = 556
COLD_SCAN = dict(n_samples=4, seed=5, u_range=(0.5, 1.0), l_range=(100, 140),
                 k_range=(1, 3))


def test_pool_warm_up_is_the_serial_warm_up(small_config, monkeypatch):
    # from empty tables: the workers fit every knot, the parent only appends
    # them, and the table and the scan are bit-identical to the serial ones
    built = []
    increments = LadderModel.knot_increments

    def counted(model, j0, j1):  # a forked worker counts in its own copy
        built.append(j1 - j0)
        return increments(model, j0, j1)

    monkeypatch.setattr(LadderModel, "knot_increments", counted)
    pooled, serial = LadderModel(small_config), LadderModel(small_config)
    scan = invariance_scan(PAIR_35, workers=2, factory=ChainFactory(pooled),
                           **COLD_SCAN)
    in_parent = sum(built)
    assert scan.to_dict() == invariance_scan(
        PAIR_35, factory=ChainFactory(serial), **COLD_SCAN).to_dict()
    assert not scan.failures
    assert len(pooled.table.values) > 1000
    assert in_parent == 0
    fresh = LadderModel(small_config)
    fresh.extend_to(pooled.table.t_covered)
    assert pooled.table.values.tobytes() == fresh.table.values.tobytes()


def test_a_prefill_fit_that_raises_leaves_the_knots_below_it(small_config,
                                                             monkeypatch):
    # a kernel patched before the fork refuses heights in (refused, refused +
    # 0.75]: the worker with that chunk stops there while the other fits
    # chunks above it, the parent keeps exactly the knots below the interval
    # that holds refused, and samples fail one by one as on one process.
    # Interval 800 (t = 400) opens a chunk; interval 808 (t = 404) lies in
    # the middle of one, whose increments below it the worker hands back.
    # Interval 760 (t = 380) lies in the chunk a serial scan's first sample
    # grows its table by, yet that tower tops out at t = 377.7 and passes
    rs_many = _kernels.z_rs_many
    kw = dict(n_samples=6, seed=2, u_range=(0.5, 1.0), l_range=(100, 130),
              k_range=(1, 2))
    for refused, failed in ((400.25, 3), (404.25, 3), (380.25, 4)):
        def refusing(ts, terms, refused=refused):
            if np.any((ts > refused) & (ts <= refused + 0.75)):
                raise NonConvergence(f"RS kernel refused in ({refused}, {refused + 0.75}]")
            return rs_many(ts, terms)

        monkeypatch.setattr(_kernels, "z_rs_many", refusing)
        pooled = LadderModel(small_config)
        scan = invariance_scan(PAIR_35, workers=2, factory=ChainFactory(pooled), **kw)
        serial = LadderModel(small_config)
        assert scan.to_dict() == invariance_scan(
            PAIR_35, factory=ChainFactory(serial), **kw).to_dict()
        assert len(scan.failures) == failed and len(scan.samples) == 6 - failed
        assert all(e.startswith("NonConvergence") for _, e in scan.failures)
        top = pooled.table.t_covered
        assert top <= refused < top + pooled.table.spacing
        assert pooled.table.values.tobytes() == serial.table.values.tobytes()


@pytest.mark.parametrize("l, u, k", [(100, 0.3, 1), (260, 1.45, 3), (100, 1.45, 3),
                                     (260, 0.3, 1), (150, 1.0, 2)])
def test_predicted_top_is_within_a_percent_of_the_warm_up(small_config, l, u, k):
    # the corners of the CLI's default ranges and a middle point: the
    # prediction the pool fits up to, against the top segment end a tower
    # solves from empty (its table ends up to a chunk above that)
    model = LadderModel(small_config)
    tower = ChainFactory(model).tower(l, u, k)
    predicted = mean_square_climb(math.pi * l + u, k)
    assert abs(predicted / tower.segments[-1].hi - 1.0) < 0.01


def test_scan_pool_sees_only_maps_and_samples_go_through_scan_eval(small_config,
                                                                   monkeypatch,
                                                                   in_process_pool):
    # perfbench times each sample by wrapping hybrid._scan_eval, and its
    # stand-ins implement map alone: every pool call is map(fn, iterable),
    # the ladder's fit tasks first, then the samples through the module's
    # _scan_eval
    evals = []
    scan_eval = hybrid._scan_eval

    def counted(item):
        evals.append(item)
        return scan_eval(item)

    monkeypatch.setattr(hybrid.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(hybrid, "_scan_eval", counted)
    scan = invariance_scan(PAIR_35, workers=2,
                           factory=ChainFactory(LadderModel(small_config)),
                           **COLD_SCAN)
    [pool] = in_process_pool.made
    assert [(len(its), kw) for _, its, kw in pool.calls] == [(1, {}), (1, {})]
    assert pool.calls[0][0] is ladder._fit_chunks and pool.calls[1][0] is counted
    assert len(evals) == COLD_SCAN["n_samples"] == len(scan.samples)
