"""Iteration towers and mean-value chains: structure, re-solves, identities."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zetaladder import hybrid, tower
from zetaladder.errors import (
    ConditionTooHigh,
    DomainTooSmall,
    IndexOutOfTower,
    RangeTooLarge,
    UsageError,
)
from zetaladder.hybrid import DeltaPair
from zetaladder.ladder import LadderModel
from zetaladder.numerics import integrate
from zetaladder.tower import (
    KAPPA_MAX,
    ChainFactory,
    ChainPoints,
    GeneratingFunction,
    Segment,
    chain_identity_residual,
    gf_cos2,
    gf_one,
    gf_power,
    gf_sin2,
    lemma_residual,
    make_chain_weight,
)
from zetaladder.zeta import hardy_z

from _oracles import SIN2_MEAN_QUARTER_PI, bisect, segment_contains

# ---------------------------------------------------------------------------
# segments and tower structure
# ---------------------------------------------------------------------------


def test_segment_geometry():
    s = Segment(3.0, 7.0)
    assert s.length == 4.0
    assert s.mid == 5.0
    assert segment_contains(s, 5.0)
    assert segment_contains(s, 3.0) and segment_contains(s, 7.0)  # closed with slack
    assert not segment_contains(s, 8.0)


def test_tower_has_k_plus_one_segments(factory):
    tw = factory.tower(150, 1.0, 3)
    assert tw.k == 3
    assert tw.base.lo == pytest.approx(math.pi * 150, abs=1e-12)
    assert tw.base.length == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(IndexOutOfTower):
        tw.segment(4)


def test_tower_segments_climb(factory):
    tw = factory.tower(150, 1.0, 3)
    for r in range(3):
        assert tw.segment(r + 1).lo > tw.segment(r).hi


def test_phi1_maps_segment_endpoints_down(model, factory):
    # seg_{r+1} endpoints are reverse steps of seg_r endpoints, so phi1
    # must map them back within root tolerance amplified by omega
    tw = factory.tower(200, 1.2, 3)
    for r in range(3):
        above, below = tw.segment(r + 1), tw.segment(r)
        assert model.phi1(above.lo) == pytest.approx(below.lo, abs=1e-7)
        assert model.phi1(above.hi) == pytest.approx(below.hi, abs=1e-7)


def test_tower_prefix_is_shared_across_depths(factory):
    shallow = factory.tower(150, 1.0, 2)
    deep = factory.tower(150, 1.0, 4)
    for r in range(3):
        assert deep.segment(r) == shallow.segment(r)


# ---------------------------------------------------------------------------
# window validation
# ---------------------------------------------------------------------------


def test_window_rejects_non_integer_l(factory):
    with pytest.raises(DomainTooSmall):
        factory.tower(150.5, 1.0, 1)


def test_window_rejects_l_below_floor(factory):
    with pytest.raises(DomainTooSmall):
        factory.tower(50, 1.0, 1)


def test_window_rejects_nonpositive_u(factory):
    with pytest.raises(DomainTooSmall):
        factory.tower(150, 0.0, 1)


def test_window_rejects_u_at_half_pi(factory):
    with pytest.raises(RangeTooLarge):
        factory.tower(150, math.pi / 2, 1)


def test_window_rejects_depth_beyond_cap(factory):
    with pytest.raises(IndexOutOfTower):
        factory.tower(150, 1.0, factory.model.config.k_max + 1)


@pytest.mark.parametrize("l, k, error", [
    (math.nan, 1, DomainTooSmall),
    (math.inf, 1, DomainTooSmall),
    (-math.inf, 1, DomainTooSmall),
    (150, 1.5, IndexOutOfTower),
    (150, math.nan, IndexOutOfTower),
    (150, math.inf, IndexOutOfTower),
], ids=["l-nan", "l-inf", "l-minus-inf", "k-fraction", "k-nan", "k-inf"])
def test_window_refuses_non_finite_or_fractional_indices(factory, l, k, error):
    # typed errors, not the ValueError, OverflowError or TypeError that
    # int() or a slice would raise deeper down
    with pytest.raises(error):
        factory.tower(l, 1.0, k)
    with pytest.raises(error):
        factory.solve(l, 1.0, k, gf_sin2())


def test_window_takes_integral_floats_as_ints(factory):
    tw = factory.tower(150.0, 1.0, 2.0)
    assert (tw.l, tw.k) == (150, 2)
    assert type(tw.l) is int


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------


def test_trig_masses_partition_the_window():
    for u in (0.3, 1.0, 1.4):
        assert gf_sin2().mass(u) + gf_cos2().mass(u) == pytest.approx(u, abs=1e-15)
        assert gf_one().mass(u) == u


def test_sin2_mass_closed_form():
    u = math.pi / 4
    assert gf_sin2().mass(u) == pytest.approx(math.pi / 8 - 0.25, abs=1e-15)


def test_sin2_mass_has_no_cancellation():
    # (2U - sin 2U) / 4 against 50 digits, U from 1e-12 to pi/2: the series
    # below the cut, the closed form (unchanged, so no U >= 0.2 moves) above
    mp = pytest.importorskip("mpmath")
    mass = gf_sin2().mass
    with mp.workdps(50):
        for u in np.geomspace(1e-12, math.pi / 2, 300, endpoint=False).tolist():
            exact = (2 * mp.mpf(u) - mp.sin(2 * mp.mpf(u))) / 4
            assert abs(mass(u) - exact) <= 4e-15 * exact, u
    for u in (tower._SIN2_SERIES_BELOW, 0.2, 0.3, 1.0, 1.5):
        assert mass(u) == 0.5 * u - 0.25 * math.sin(2.0 * u)


def test_power_mass_closed_form():
    gf = gf_power(Fraction(1, 3))
    u = 1.2
    assert gf.mass(u) == pytest.approx(u ** (4.0 / 3.0) / (4.0 / 3.0), abs=1e-14)
    assert gf.key == "pow:1/3"


def test_power_rejects_delta_at_minus_one():
    with pytest.raises(DomainTooSmall):
        gf_power(-1)
    with pytest.raises(DomainTooSmall):
        gf_power(Fraction(-3, 2))


# ---------------------------------------------------------------------------
# depth-0 chains: closed forms
# ---------------------------------------------------------------------------


def test_k0_constant_family_returns_midpoint(factory):
    ch = factory.solve(150, 1.0, 0, gf_one())
    assert ch.xi == pytest.approx(math.pi * 150 + 0.5, abs=1e-9)
    assert ch.product == pytest.approx(ch.level, rel=1e-12)


def test_k0_linear_family_returns_midpoint(factory):
    # f(v) = v: mean over [0, U] is U/2, attained at the midpoint
    ch = factory.solve(150, 1.0, 0, gf_power(1))
    assert ch.xi - math.pi * 150 == pytest.approx(0.5, abs=1e-9)


def test_k0_sin2_quarter_pi_closed_form(factory):
    # mean of sin^2 over [0, pi/4] is (1/2)(1 - 2/pi); crossing at arcsin
    u = math.pi / 4
    ch = factory.solve(150, u, 0, gf_sin2())
    assert ch.level == pytest.approx(SIN2_MEAN_QUARTER_PI, abs=1e-14)
    expected = math.asin(math.sqrt(SIN2_MEAN_QUARTER_PI))
    assert ch.xi - math.pi * 150 == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# solved chains: the defining identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("gf_make", [gf_sin2, gf_cos2, gf_one])
def test_chain_identity_holds(model, factory, k, gf_make):
    ch = factory.solve(150, 1.0, k, gf_make())
    assert isinstance(ch, ChainPoints)
    assert chain_identity_residual(model, ch) <= 1e-8
    assert ch.rel_residual <= 1e-8
    assert not ch.flagged


@pytest.mark.parametrize("delta", [Fraction(1, 3), Fraction(1, 5), 1])
def test_chain_identity_holds_for_powers(model, factory, delta):
    ch = factory.solve(200, 1.0, 2, gf_power(delta))
    assert chain_identity_residual(model, ch) <= 1e-8


def test_alpha_points_live_in_their_segments(factory):
    ch = factory.solve(150, 1.0, 3, gf_sin2())
    tw = factory.tower(150, 1.0, 3)
    for r in range(4):
        assert segment_contains(tw.segment(r), float(ch.alpha[r]))


def test_alphas_descend_through_the_tower(model, factory):
    ch = factory.solve(300, 1.0, 3, gf_cos2())
    a = ch.alpha
    assert all(a[r + 1] > a[r] for r in range(3))  # higher segments upward
    assert a[0] == pytest.approx(math.pi * 300, abs=2.0)
    # the walk is phi1 applied level by level, each from the last
    assert all(a[r] == model.phi1(float(a[r + 1])) for r in range(3))


def test_chain_weight_integral_recovers_mass(model, factory):
    # int_{seg_k} g = mass(f): the change of variables collapses the chain
    tw = factory.tower(150, 1.0, 2)
    gf = gf_sin2()
    g = make_chain_weight(model, tw, gf)
    seg = tw.segment(2)
    val = integrate(g, seg.lo, seg.hi, tol=1e-9).value
    assert val == pytest.approx(gf.mass(1.0), abs=1e-7)


@pytest.fixture()
def solve_count(monkeypatch):
    """Counts phi1 Newton solves: each is one ladder step (phi1 and omega read one)."""
    calls = []
    step = LadderModel.step

    def counted(self, t):
        calls.append(t)
        return step(self, t)

    monkeypatch.setattr(LadderModel, "step", counted)
    return calls


@pytest.mark.parametrize("k", [1, 2, 3])
def test_one_phi1_solve_per_ladder_level(model, factory, solve_count, k):
    # the weight and the assembly each walk k levels, one solve per level
    gf = gf_sin2()
    ch = factory.solve(150, 1.0, k, gf)
    tw = factory.tower(150, 1.0, k)
    g = make_chain_weight(model, tw, gf)
    solve_count.clear()
    g(ch.xi)
    assert len(solve_count) == k
    solve_count.clear()
    again = factory._assemble(tw, gf, ch.xi, ch.level)
    assert len(solve_count) == k
    assert len(again.omega) == len(again.zt2) == k
    assert np.array_equal(again.alpha, ch.alpha)
    assert np.array_equal(again.zt2, ch.zt2)
    assert np.array_equal(again.omega, ch.omega)


# ---------------------------------------------------------------------------
# re-solves: bit-equal, over the walks of one window
# ---------------------------------------------------------------------------


def test_beta_is_the_plain_chain_re_solved_bit_equal(factory):
    # asked again, on the walks the factory keeps, it is solved again, equal
    a = factory.beta(150, 1.0, 2)
    assert a.f_key == "one"
    _assert_same_chain(factory.beta(150, 1.0, 2), a)


def test_fresh_factory_reproduces_chains_exactly(model, factory):
    other = ChainFactory(model)
    a = factory.solve(150, 1.0, 2, gf_sin2())
    b = other.solve(150, 1.0, 2, gf_sin2())
    assert float(a.alpha[-1]) == float(b.alpha[-1])
    assert a.product == b.product


PAIR = DeltaPair(Fraction(1, 3), Fraction(1, 5))

#: the eight formula functions on one window, as (function, arguments)
FORMULA_CALLS = [
    (hybrid.echf1, (200, 1.0, 1, 3)),
    (hybrid.echf2, (PAIR, 200, 1.0, 1, 3)),
    (hybrid.beta_product_elim, (PAIR, 200, 1.0, 2)),
    (hybrid.secondary_v1, (PAIR, 200, 1.0, 1, 3)),
    (hybrid.mixed_product, (200, 1.0, 3)),
    (hybrid.secondary_v2, (PAIR, 200, 1.0, 1, 2)),
    (hybrid.ternary, (PAIR, 200, 1.0, 3, 2, 1, 2)),
    (hybrid.asymptotic_secondary, (PAIR, 200, 1.0, 2, 1)),
]


def _assert_same_chain(a: ChainPoints, b: ChainPoints) -> None:
    assert np.array_equal(a.alpha, b.alpha)
    assert np.array_equal(a.zt2, b.zt2)
    assert np.array_equal(a.omega, b.omega)
    assert (a.f0, a.level, a.rel_residual, a.condition) == (
        b.f0, b.level, b.rel_residual, b.condition)


@pytest.fixture()
def solved(monkeypatch):
    """The chains ChainFactory.solve returns, in order."""
    chains = []
    solve = ChainFactory.solve

    def recorded(self, *args):
        chains.append(solve(self, *args))
        return chains[-1]

    monkeypatch.setattr(ChainFactory, "solve", recorded)
    return chains


def test_chains_sharing_walks_equal_chains_solved_alone(model, solved):
    # the walk memo changes what a solve costs, never what it returns
    shared = ChainFactory(model)
    for fn, args in FORMULA_CALLS:
        fn(shared, *args)
    chains = solved[:]
    assert len(chains) > len(FORMULA_CALLS)
    for chain in chains:
        _assert_same_chain(chain, ChainFactory(model).solve(chain.l, chain.u,
                                                            chain.k, chain.gf))


def test_chains_of_one_tower_share_their_walks(model, solve_count, solved):
    # secondary_v1's six chains, solved alone, each walk the crossing scan's
    # grid on seg_k again; on one factory a point walked once is reused
    shared = ChainFactory(model)
    hybrid.secondary_v1(shared, PAIR, 200, 1.0, 1, 3)
    chains = solved[:]
    assert len({(ch.k, ch.f_key) for ch in chains}) == len(chains) == 6
    solve_count.clear()
    hybrid.secondary_v1(ChainFactory(model), PAIR, 200, 1.0, 1, 3)
    together = len(solve_count)
    solve_count.clear()
    for ch in chains:
        ChainFactory(model).solve(ch.l, ch.u, ch.k, ch.gf)
    assert together < len(solve_count)


def test_factory_keeps_the_walks_of_one_window(model):
    fac = ChainFactory(model)
    fac.solve(150, 1.0, 2, gf_sin2())
    fac.solve(150, 1.0, 1, gf_cos2())
    assert fac._window == (150, 1.0)
    assert sorted(fac._walks) == [1, 2]
    fac.solve(250, 0.6, 2, gf_sin2())
    assert fac._window == (250, 0.6)
    assert sorted(fac._walks) == [2]
    seg = fac.tower(250, 0.6, 2).segment(2)
    assert all(seg.lo <= xi <= seg.hi for xi in fac._walks[2])
    # the old window's chain was dropped with it: asked again, it is solved
    # afresh, and the memo moves back to its window
    fac.solve(150, 1.0, 2, gf_sin2())
    assert fac._window == (150, 1.0)
    assert sorted(fac._walks) == [2]


def test_factory_keeps_the_segments_of_one_window(model):
    fac = ChainFactory(model)
    first = fac.solve(150, 1.0, 2, gf_sin2())
    fac.solve(250, 0.6, 2, gf_sin2())
    assert fac._window == (250, 0.6)
    assert [seg.lo for seg in fac._segments][0] == math.pi * 250
    assert len(fac._segments) == 3
    # the first window's chain is solved again, on fresh walks, equal
    _assert_same_chain(fac.solve(150, 1.0, 2, gf_sin2()), first)


def test_one_chain_weight_per_fresh_chain(model, monkeypatch, solve_count):
    # a tracer that wraps tower.make_chain_weight (as perfbench's does) sees
    # every solve and every weight evaluation; solved again on the window's
    # walks, a chain evaluates the same points and steps only to assemble
    built, evals = [], []
    make = tower.make_chain_weight

    def counting(*args, **kwargs):
        g = make(*args, **kwargs)
        built.append(args[2].key)

        def counted(xi):
            evals.append(xi)
            return g(xi)

        return counted

    monkeypatch.setattr(tower, "make_chain_weight", counting)
    fac = ChainFactory(model)
    gfs = [gf_sin2(), gf_cos2(), gf_power(Fraction(1, 3))]
    for gf in gfs:
        fac.solve(150, 1.0, 2, gf)
    assert built == [gf.key for gf in gfs]
    assert evals
    n = len(evals)
    solve_count.clear()
    for gf in gfs:
        fac.solve(150, 1.0, 2, gf)
    assert built == [gf.key for gf in gfs] * 2 and evals[n:] == evals[:n]
    assert len(solve_count) == 2 * len(gfs)


# ---------------------------------------------------------------------------
# the mean-value lemma
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lemma_trig_families(model, factory, k):
    # prod Z~^2(alpha_r) / prod Z~^2(beta_r) = mean(f) / f(alpha_0)
    beta = factory.beta(150, 1.0, k)
    for gf in (gf_sin2(), gf_cos2()):
        alpha = factory.solve(150, 1.0, k, gf)
        assert lemma_residual(model, alpha, beta) <= 1e-6


@pytest.mark.parametrize("delta", [Fraction(1, 3), Fraction(1, 5), 1])
def test_lemma_power_families(model, factory, delta):
    beta = factory.beta(300, 0.5, 2)
    alpha = factory.solve(300, 0.5, 2, gf_power(delta))
    assert lemma_residual(model, alpha, beta) <= 1e-6


def test_lemma_requires_matching_windows(model, factory):
    alpha = factory.solve(150, 1.0, 2, gf_sin2())
    beta_other = factory.beta(150, 1.2, 2)
    with pytest.raises(UsageError, match="same"):
        lemma_residual(model, alpha, beta_other)


def test_lemma_requires_constant_second_chain(model, factory):
    alpha = factory.solve(150, 1.0, 2, gf_sin2())
    also_alpha = factory.solve(150, 1.0, 2, gf_cos2())
    with pytest.raises(UsageError, match="plain"):
        lemma_residual(model, alpha, also_alpha)


def test_trig_levels_are_complementary(factory):
    # mass partition => levels of sin^2 and cos^2 chains sum to the constant
    # chain's level at the same window
    s = factory.solve(150, 1.0, 2, gf_sin2())
    c = factory.solve(150, 1.0, 2, gf_cos2())
    b = factory.beta(150, 1.0, 2)
    assert s.level + c.level == pytest.approx(b.level, rel=1e-13)


# ---------------------------------------------------------------------------
# chains next to zeros of Z
# ---------------------------------------------------------------------------


def _zero_of_z_above(t0: float) -> float:
    """The first zero of Z above t0: a 0.05 scan, then plain bisection."""
    z = lambda t: hardy_z(t).z  # noqa: E731
    a = t0
    while (z(a) < 0.0) == (z(a + 0.05) < 0.0):
        a += 0.05
    return bisect(z, a, a + 0.05, z(a), 1e-12)


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=800.0, max_value=1500.0),
    st.sampled_from([1, 2]),
    st.sampled_from([0, 1]),
    st.sampled_from([0.0, 1e-11, -1e-11, 1e-8, -1e-8, 1e-5, -1e-5, 1e-3, -1e-3]),
    st.sampled_from([gf_one, gf_sin2, gf_cos2]),
)
def test_chains_next_to_zeros_of_z_are_refused_or_positive(model, t0, r, extra, offset, gf):
    # seg_r's upper end sits at a zero of Z (plus offset), so the chain weight
    # vanishes at the end of the segment the chain walks through; Z~^2 comes
    # from an interpolant there, which can dip a rounding amount below zero.
    # A solve may refuse (ConditionTooHigh) but never returns a chain with a
    # non-positive factor.
    end = _zero_of_z_above(t0) + offset
    top = end
    for _ in range(r):
        top = model.phi1(top)
    l = int(top // math.pi)
    u = top - math.pi * l
    assume(0.01 < u < 0.5 * math.pi - 0.01)
    factory = ChainFactory(model)
    k = r + extra
    # A(t) - A(z) ~ (t - z)^3 at a zero z, so the reverse steps land only
    # within about the cube root of their tolerance of it: Z is small there
    assert abs(hardy_z(factory.tower(l, u, k).segment(r).hi).z) <= 0.05
    try:
        ch = factory.solve(l, u, k, gf())
    except ConditionTooHigh:
        return
    assert ch.f0 > 0.0 and all(v > 0.0 for v in ch.zt2)
    assert math.isfinite(ch.condition) and ch.condition <= KAPPA_MAX
    assert chain_identity_residual(model, ch) <= 1e-6


#: a weight that vanishes everywhere, so f(alpha_0) has no logarithm
_ZERO_WEIGHT = GeneratingFunction("zero", lambda v: 0.0, lambda v: v)


def test_a_chain_on_a_zero_factor_is_refused(factory):
    # assembling at a point where the weight vanishes: refused with an
    # infinite condition, not returned as a chain
    tower = factory.tower(150, 1.0, 1)
    with pytest.raises(ConditionTooHigh, match="near-zero factor") as info:
        factory._assemble(tower, _ZERO_WEIGHT, tower.segment(1).mid, 1.0)
    assert info.value.condition == math.inf


def test_a_fresh_re_evaluation_refuses_nonpositive_factors(model, factory, monkeypatch):
    # a stored chain re-evaluated under a weight that vanishes at alpha_0,
    # then with every ztilde_sq read as 0 (a chain point on a zero of Z)
    chain = factory.solve(150, 1.0, 2, gf_sin2())
    with pytest.raises(ConditionTooHigh, match="f0=0.0"):
        chain_identity_residual(model, dataclasses.replace(chain, gf=_ZERO_WEIGHT))
    monkeypatch.setattr(LadderModel, "ztilde_sq", lambda self, t: 0.0)
    with pytest.raises(ConditionTooHigh, match="zero of Z") as info:
        chain_identity_residual(model, chain)
    assert info.value.condition == math.inf
