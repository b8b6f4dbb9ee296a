"""Quadrature and root-finding: closed forms, exactness, and property tests."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaladder import _kernels
from zetaladder._quadrule import N_HI, N_LO, NODES_HI, WEIGHTS_HI, WEIGHTS_LO
from zetaladder.errors import (
    BracketInvalid,
    DomainTooSmall,
    NoCrossing,
    NonConvergence,
    NumericalError,
)
from zetaladder.numerics import (
    Bracket,
    QuadratureResult,
    chebyshev_pieces,
    eval_pieces,
    find_level_crossing,
    integrate,
    invert_increasing,
    land_pieces,
    piece_integrals,
)

from _oracles import bisect

# ---------------------------------------------------------------------------
# quadrature rule: polynomial exactness on [-1, 1]
# ---------------------------------------------------------------------------


def _rule_apply(coeffs: np.ndarray, nodes: np.ndarray, weights: np.ndarray) -> float:
    vals = np.polynomial.polynomial.polyval(nodes, coeffs)
    return float(weights @ vals)


@pytest.mark.parametrize("degree", range(0, N_HI + 2))
def test_high_rule_integrates_polynomials_exactly(degree):
    # Clenshaw-Curtis with N+1 nodes is exact through degree N+1 for even N.
    coeffs = np.zeros(degree + 1)
    coeffs[degree] = 1.0
    exact = 0.0 if degree % 2 == 1 else 2.0 / (degree + 1)
    got = _rule_apply(coeffs, NODES_HI, WEIGHTS_HI)
    assert got == pytest.approx(exact, abs=5e-14)


@pytest.mark.parametrize("degree", range(0, N_LO + 2))
def test_low_rule_integrates_polynomials_exactly(degree):
    coeffs = np.zeros(degree + 1)
    coeffs[degree] = 1.0
    exact = 0.0 if degree % 2 == 1 else 2.0 / (degree + 1)
    got = _rule_apply(coeffs, NODES_HI[::2], WEIGHTS_LO)
    assert got == pytest.approx(exact, abs=5e-14)


def test_weights_sum_to_interval_length():
    assert float(WEIGHTS_HI.sum()) == pytest.approx(2.0, abs=1e-15)
    assert float(WEIGHTS_LO.sum()) == pytest.approx(2.0, abs=1e-15)


# ---------------------------------------------------------------------------
# adaptive integrate()
# ---------------------------------------------------------------------------


def test_integrate_sin_squared_closed_form():
    # int_0^{pi/4} sin^2 = pi/8 - 1/4
    res = integrate(lambda x: math.sin(x) ** 2, 0.0, math.pi / 4, tol=1e-12)
    assert isinstance(res, QuadratureResult)
    assert res.value == pytest.approx(math.pi / 8 - 0.25, abs=1e-12)
    assert res.error_estimate <= 1e-12
    assert res.evaluations >= 33


def test_integrate_empty_interval_is_exact_zero():
    res = integrate(math.sin, 3.0, 3.0, tol=1e-10)
    assert res.value == 0.0
    assert res.evaluations == 0


def test_integrate_orientation_flips_sign():
    fwd = integrate(math.exp, 0.0, 1.0, tol=1e-12).value
    rev = integrate(math.exp, 1.0, 0.0, tol=1e-12).value
    assert fwd == pytest.approx(math.e - 1.0, abs=1e-12)
    assert rev == pytest.approx(-fwd, abs=0.0)


def test_integrate_oscillatory_with_wavelength_hint():
    # int_0^1 cos(200 x) dx = sin(200)/200; without the hint the first panel
    # would alias badly, with it the result is clean.
    res = integrate(lambda x: math.cos(200.0 * x), 0.0, 1.0, tol=1e-11,
                    min_wavelength=2 * math.pi / 200.0)
    assert res.value == pytest.approx(math.sin(200.0) / 200.0, abs=1e-11)


def test_integrate_rejects_nonpositive_tol():
    for tol in (0.0, -1e-10, math.nan):
        with pytest.raises(DomainTooSmall, match="tol"):
            integrate(math.sin, 0.0, 1.0, tol=tol)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(min_value=-4.0, max_value=4.0),
    width=st.floats(min_value=1e-3, max_value=6.0),
    split=st.floats(min_value=0.1, max_value=0.9),
)
def test_integrate_is_additive_over_subintervals(a, width, split):
    b = a + width
    m = a + split * width
    f = lambda x: math.exp(-0.3 * x) * math.cos(2.0 * x)  # noqa: E731
    tol = 1e-11
    whole = integrate(f, a, b, tol=tol).value
    parts = integrate(f, a, m, tol=tol).value + integrate(f, m, b, tol=tol).value
    assert whole == pytest.approx(parts, abs=3 * tol)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.1, max_value=5.0))
def test_integrate_matches_antiderivative_of_cubic(width):
    # F(x) = x^4/4 - x^2 for f(x) = x^3 - 2x, single panel is already exact
    f = lambda x: x**3 - 2.0 * x  # noqa: E731
    F = lambda x: 0.25 * x**4 - x**2  # noqa: E731
    res = integrate(f, -1.0, -1.0 + width, tol=1e-12)
    assert res.value == pytest.approx(F(-1.0 + width) - F(-1.0), abs=1e-11)


def test_integrate_raises_below_the_integrands_noise():
    # values carry 1e-13 of deterministic noise: halving shrinks the 17/33
    # difference only as fast as the tolerance share, so the loop stops at once
    def noisy(x: float) -> float:
        return 1.0 + 1e-13 * (hash(x) % 997) / 997

    assert integrate(noisy, 0.0, 1.0, tol=1e-10).value == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NonConvergence, match="rounding floor"):
        integrate(noisy, 0.0, 1.0, tol=1e-16)


def test_pieces_raise_at_once_on_a_nan_value():
    # a NaN error compares false with every share: it must not be halved down
    # to the resolution limit and accepted there (93 s to "panel budget
    # exceeded" with the Riemann-Siegel kernel before it raised at once)
    def zsq(ts: np.ndarray) -> np.ndarray:
        z = _kernels.z_rs_many(ts, 4)
        return np.where((ts > 350.1) & (ts < 350.2), math.nan, z * z)

    t0 = time.perf_counter()
    with pytest.raises(NonConvergence, match="non-finite"):
        chebyshev_pieces(zsq, 350.0, 350.5, 2.5e-11, 0.25)
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# piecewise Chebyshev interpolants
# ---------------------------------------------------------------------------


def _piece_at(rows: np.ndarray, t: float) -> tuple[float, float]:
    """(integral from the first piece's lo, f) at t, from chebyshev_pieces rows."""
    i = min(int(np.searchsorted(rows[:, 1], t)), len(rows) - 1)
    row = rows[i]
    x = (2.0 * t - row[0] - row[1]) / (row[1] - row[0])
    done = float(rows[:i, 2:36].sum())  # each earlier piece's whole integral
    return done + chebval(x, row[2:36]), chebval(x, row[36:])


def test_chebyshev_piece_reproduces_a_polynomial_and_its_integral():
    # degree 12 < 33 nodes: one piece, exact to rounding
    coef = np.random.default_rng(12).normal(size=13)
    f = np.polynomial.Polynomial(coef, domain=[2.0, 5.0], window=[-1.0, 1.0])
    rows = chebyshev_pieces(f, 2.0, 5.0, 1e-12)
    assert rows.shape == (1, 69)
    for t in np.linspace(2.0, 5.0, 13):
        integral, value = _piece_at(rows, float(t))
        assert value == pytest.approx(f(t), abs=1e-12)
        assert integral == pytest.approx(f.integ(lbnd=2.0)(t), abs=1e-12)


def test_chebyshev_pieces_halve_until_the_17_33_difference_is_small():
    # sin(40 t) on [0, 2] has ~13 oscillations: 33 nodes cannot resolve it
    rows = chebyshev_pieces(lambda ts: np.sin(40.0 * ts), 0.0, 2.0, 1e-10)
    assert len(rows) > 1
    assert rows[0, 0] == 0.0 and rows[-1, 1] == 2.0
    assert np.array_equal(rows[1:, 0], rows[:-1, 1])
    for t in np.linspace(0.0, 2.0, 41):
        integral, value = _piece_at(rows, float(t))
        assert value == pytest.approx(math.sin(40.0 * t), abs=1e-9)
        assert integral == pytest.approx((1.0 - math.cos(40.0 * t)) / 40.0, abs=1e-10)


def test_landed_pieces_evaluate_as_the_reference_plus_the_linear_term():
    # land sin(40 t)'s halved pieces on a total delta above their own: the
    # integral gains delta t / 2 and f gains delta / 2, both read from one basis
    rows = chebyshev_pieces(lambda ts: np.sin(40.0 * ts), 0.0, 2.0, 1e-10)
    ref = rows.copy()
    delta = 1e-3
    total = float(piece_integrals(rows).sum()) + delta
    landed = land_pieces(rows, total, 2.0)
    # the landed form replaces the rows: it keeps no view of them
    _edges, pieces = landed  # many pieces: the right edges and the pieces
    assert not any(np.shares_memory(rows, v) for piece in pieces for v in piece[2:])
    for t in np.linspace(0.0, 2.0, 41):
        integral, value = eval_pieces(landed, float(t))
        ref_integral, ref_value = _piece_at(ref, float(t))
        assert integral == pytest.approx(ref_integral + 0.5 * delta * t, abs=1e-13)
        assert value == pytest.approx(ref_value + 0.5 * delta, abs=1e-13)
    for edge in ref[:-1, 1]:
        left = eval_pieces(landed, float(edge))[0]
        right = eval_pieces(landed, math.nextafter(float(edge), math.inf))[0]
        assert right == pytest.approx(left, abs=1e-15)
    assert eval_pieces(landed, 2.0)[0] == pytest.approx(total, abs=1e-15)


def test_a_jump_costs_one_piece_at_the_resolution_limit():
    # a step cannot meet any tolerance on the piece that holds it; that piece
    # is accepted at the width limit, and the integral still converges
    res = integrate(lambda x: 1.0 if x > 0.3 else 0.0, 0.0, 1.0, tol=1e-12)
    assert res.value == pytest.approx(0.7, abs=1e-12)


# ---------------------------------------------------------------------------
# bracketed inversion
# ---------------------------------------------------------------------------


def test_invert_increasing_solves_kepler_like_equation():
    # x + sin x = 3 has a unique root; check by re-substitution
    g = lambda x: x + math.sin(x)  # noqa: E731
    x = invert_increasing(g, Bracket(0.0, 4.0), 3.0, tol=1e-13)
    assert g(x) == pytest.approx(3.0, abs=1e-12)


def test_invert_increasing_exact_endpoint_hits():
    g = lambda x: x * x  # noqa: E731 (increasing on [0, 2])
    assert invert_increasing(g, Bracket(1.0, 2.0), 1.0, tol=1e-13) == 1.0
    assert invert_increasing(g, Bracket(1.0, 2.0), 4.0, tol=1e-13) == 2.0


def test_invert_increasing_requires_enclosure():
    with pytest.raises(BracketInvalid):
        invert_increasing(math.exp, Bracket(0.0, 1.0), 10.0, tol=1e-12)


def test_bracket_rejects_inverted_or_nonfinite():
    with pytest.raises(BracketInvalid):
        Bracket(2.0, 1.0)
    with pytest.raises(BracketInvalid):
        Bracket(0.0, math.inf)
    with pytest.raises(BracketInvalid):  # the root loop sizes its steps by the width
        Bracket(-1e308, 1e308)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95))
def test_invert_increasing_roundtrips_monotone_cubic(frac):
    g = lambda x: x**3 + x  # noqa: E731 strictly increasing on R
    lo, hi = -2.0, 2.0
    target = g(lo) + frac * (g(hi) - g(lo))
    x = invert_increasing(g, Bracket(lo, hi), target, tol=1e-13)
    assert g(x) == pytest.approx(target, abs=1e-11)


# ---------------------------------------------------------------------------
# leftmost level crossing
# ---------------------------------------------------------------------------


def test_level_crossing_arcsin_closed_form():
    # sin on (0, pi/2) crosses level c at arcsin(c)
    x = find_level_crossing(math.sin, 0.0, math.pi / 2, 0.4, tol=1e-12)
    assert x == pytest.approx(math.asin(0.4), abs=1e-10)


def test_level_crossing_picks_leftmost_of_several():
    # sin crosses 0.5 at pi/6 and 5pi/6 inside (0, pi); want pi/6
    x = find_level_crossing(math.sin, 0.0, math.pi, 0.5, tol=1e-12)
    assert x == pytest.approx(math.pi / 6, abs=1e-10)


def test_level_crossing_scan_refinement_finds_narrow_feature():
    # the crossing of this bump through 0.5 lives in a width-~0.002 window;
    # the 64-point scan misses it until the density doubles a few times.
    f = lambda x: math.exp(-((x - 0.6105) ** 2) / 2e-6)  # noqa: E731
    x = find_level_crossing(f, 0.0, 1.0, 0.5, tol=1e-12)
    expected = 0.6105 - math.sqrt(-2e-6 * math.log(0.5))
    assert x == pytest.approx(expected, abs=1e-9)


def test_level_crossing_raises_when_level_unreachable():
    with pytest.raises(NoCrossing):
        find_level_crossing(math.sin, 0.0, 1.0, 5.0, tol=1e-10)


def test_level_crossing_rejects_empty_interval():
    with pytest.raises(BracketInvalid):
        find_level_crossing(math.sin, 1.0, 1.0, 0.5)


def test_level_crossing_keeps_the_sign_of_underflowing_values():
    # f_prev * fx underflows to -0.0 at these magnitudes: signs are compared
    x = find_level_crossing(lambda x: 1e-170 * (x - 0.3), 0.0, 1.0, 0.0, tol=1e-12)
    assert x == pytest.approx(0.3, abs=1e-12)


def test_level_crossing_raises_on_a_nan_sample():
    # NaN compares false with everything; the scan must not step over it
    g = lambda x: math.nan if x < 0.5 else x  # noqa: E731
    with pytest.raises(NonConvergence):
        find_level_crossing(g, 0.0, 1.0, 0.75)


def test_level_crossing_raises_when_the_polish_meets_a_nan():
    # no scan point falls in (0.2999, 0.3001), but the polish converges into it
    g = lambda x: math.nan if 0.2999 < x < 0.3001 else x  # noqa: E731
    with pytest.raises(NonConvergence) as err:
        find_level_crossing(g, 0.0, 1.0, 0.3, tol=1e-12)
    assert isinstance(err.value, NumericalError)  # the CLI's exit code 3


# ---------------------------------------------------------------------------
# the root loop: ITP against plain bisection
# ---------------------------------------------------------------------------


def test_invert_increasing_keeps_the_sign_of_underflowing_values():
    # f_lo * f_mid underflows to -0.0 at these magnitudes: signs are compared
    x = invert_increasing(lambda x: 1e-170 * (x - 0.3), Bracket(0.0, 1.0), 0.0, 1e-12)
    assert x == pytest.approx(0.3, abs=1e-12)


def test_invert_increasing_raises_on_a_nan_value():
    # NaN above 1: g(hi) passes the enclosure test (NaN < 0 is false), and a
    # NaN midpoint read as "not negative" would walk the bracket up to 4
    g = lambda x: x if x <= 1.0 else math.nan  # noqa: E731
    with pytest.raises(NonConvergence):
        invert_increasing(g, Bracket(0.0, 4.0), 2.0, 1e-12)
    h = lambda x: math.nan if 1.5 < x < 2.5 else x  # noqa: E731
    with pytest.raises(NonConvergence):
        invert_increasing(h, Bracket(0.0, 4.0), 3.0, 1e-12)


def _loop_evals(g, lo: float, hi: float, tol: float) -> int:
    """Evaluations of g by invert_increasing's root loop (both ends excluded)."""
    calls = []

    def counted(x: float) -> float:
        calls.append(x)
        return g(x)

    invert_increasing(counted, Bracket(lo, hi), 0.0, tol)
    return len(calls) - 2


def _bisect_evals(g, lo: float, hi: float, tol: float) -> int:
    calls = []

    def counted(x: float) -> float:
        calls.append(x)
        return g(x)

    bisect(counted, lo, hi, g(lo), tol)
    return len(calls)


def _shape(name: str, root: float):
    if name == "step":
        return lambda x: -1.0 if x < root else 1.0
    if name == "tiny":
        return lambda x: -1e-300 if x < root else 1e-300
    return lambda x: (x - root) ** 21


@pytest.mark.parametrize("shape", ["step", "tiny", "pow21"])
@pytest.mark.parametrize("lo, hi, root, tol", [
    (0.0, 1.0, 1.0 / 3.0, 1e-12),
    (0.0, 1.0, 0.7, 1e-9),
    (-3.0, 5.0, 0.3, 1e-13),
    (1000.0, 1000.5, 1000.123456789, 1e-11),
])
def test_root_loop_needs_no_more_evaluations_than_bisection(shape, lo, hi, root, tol):
    # a sign-only g gives the interpolation nothing to use: the projection
    # must keep the loop within bisection's count on the same bracket
    g = _shape(shape, root)
    assert _loop_evals(g, lo, hi, tol) <= _bisect_evals(g, lo, hi, tol)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-1e4, max_value=1e4),
    st.floats(min_value=1e-6, max_value=10.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([1e-13, 1e-11, 1e-9, 1e-6]),
    st.sampled_from(["step", "tiny"]),
)
def test_root_loop_never_outruns_bisection_on_sign_only_values(lo, width, frac, tol, shape):
    hi = lo + width
    root = lo + frac * (hi - lo)
    g = _shape(shape, root)
    if g(lo) > 0.0 or g(hi) < 0.0 or hi - lo <= tol:
        return
    assert _loop_evals(g, lo, hi, tol) <= _bisect_evals(g, lo, hi, tol)


@pytest.mark.parametrize("g, lo, hi", [
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),  # Wallis's cubic
    (lambda x: x**3 - 2.0, 1.0, 2.0),
])
def test_root_loop_converges_superlinearly_on_a_smooth_cubic(g, lo, hi):
    # bisection would take ceil(log2(1 / 1e-12)) = 40 evaluations
    assert _loop_evals(g, lo, hi, 1e-12) <= 10
    x = invert_increasing(g, Bracket(lo, hi), 0.0, 1e-12)
    assert abs(g(x)) <= 1e-11
