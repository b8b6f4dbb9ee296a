"""Cross-combined identities between mean-value chains, and invariance scans.

Each solved chain carries one factorization identity

    f(alpha_0) * prod_r ztilde_sq(alpha_r)  =  mass(f) / |seg_k| ,

and dividing by the plain chain (f = 1, the ``beta`` points) turns the
right-hand side into a closed form free of segment lengths:

    prod_r ztilde_sq(alpha_r) / ztilde_sq(beta_r)  =  mean(f) / f(alpha_0).

Combining these ratios across different weight families eliminates the
window parameters one at a time and leaves identities whose right-hand
sides are explicit constants.  The operations here build each published
arrangement from solved chains and report ``lhs``, ``rhs``,
``rel_residual = |lhs/rhs - 1|`` and a condition estimate:

* ``echf1``        -- trig pair: the two ratio identities weighted by
                      cos^2/sin^2 at the base points sum to exactly 1;
* ``echf2``        -- power pair: U eliminated between two power-weight
                      ratios, both sides share the same closed form;
* ``beta_product_elim`` -- at equal depth the plain-chain product is
                      expressed purely through the two power chains;
* ``mixed_product``   -- at equal depth the plain-chain product equals the
                      cos^2/sin^2 combination of the trig chains;
* ``secondary_v1``    -- the trig sum of ``echf1`` with each ratio's plain
                      product replaced via ``beta_product_elim``; the result
                      is the parameter-free constant
                      [(1+d4)^(1/d4)/(1+d3)^(1/d3)]^(d3 d4/(d3-d4));
* ``secondary_v2``    -- the power identity of ``echf2`` with plain products
                      replaced via ``mixed_product``; constant
                      (1+d4)^(1/d4)/(1+d3)^(1/d3);
* ``ternary``         -- the constant eliminated between the two secondary
                      forms;
* ``asymptotic_secondary`` -- the ``secondary_v1`` arrangement with raw
                      Z^2 = ztilde_sq * omega in place of ztilde_sq; the
                      drift from the constant is reported together with the
                      omega-ratio factor that predicts it.

Each formula is a declaration: the chains it reads, as (role, depth) pairs
with role one of ``one`` (the plain chain), ``sin2``, ``cos2``, ``pow3``,
``pow4`` and a condition weight each, plus a combiner from the solved chains
to (lhs, rhs, extras).  One runner solves every distinct chain once, times
the solves and the combiner, and builds the report, so ``condition`` and
``error_budget`` cover exactly the chains the identity uses.  Chains are named
``<role>@k<depth>``.  ``points`` has one entry per chain other than the plain
one; its ``beta`` column is the plain chain of the same depth where the
identity solves it, and null where it does not.

All products and powers are accumulated in log space.  Exponents stay exact
:class:`fractions.Fraction` arithmetic whenever the deltas are rational, so
e.g. the (1/3, 1/5) constant is sqrt(6561/6250) = 81 sqrt(10) / 250 with no
floating-point exponentiation involved.

``invariance_scan`` draws seeded random (U, L, {k1, k2}) samples, evaluates
the ``secondary_v1`` left side on each, and summarizes the spread around the
constant; samples are drawn up front from one generator so the result is
independent of the worker count.
"""
from __future__ import annotations

import itertools
import math
import numbers
import os
import time
from array import array
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import DeltaDegenerate, DomainTooSmall, NonConvergence, RangeTooLarge, ZetaLadderError
from .ladder import LadderModel, mean_square_climb
from .tower import (
    ChainFactory,
    ChainPoints,
    GeneratingFunction,
    _check_window,
    gf_cos2,
    gf_one,
    gf_power,
    gf_sin2,
)

__all__ = [
    "DeltaPair",
    "HybridReport",
    "InvarianceScan",
    "theorem1_constant",
    "theorem2_constant",
    "echf1",
    "echf2",
    "beta_product_elim",
    "secondary_v1",
    "mixed_product",
    "secondary_v2",
    "ternary",
    "asymptotic_secondary",
    "invariance_scan",
]

Rational = Fraction | int | float


@dataclass(frozen=True)
class DeltaPair:
    """Exponent pair (d3, d4), both positive and finite, d3 != d4.

    Rational inputs (Fraction or int) keep exact arithmetic in all derived
    exponents; the degenerate d3 == d4 case collapses every identity here to
    1 = 1 and is rejected outright.
    """

    d3: Rational
    d4: Rational

    def __post_init__(self):
        for name, d in (("d3", self.d3), ("d4", self.d4)):
            try:
                val = float(d)
            except OverflowError:  # an exact value past the largest float
                val = math.inf if d > 0 else -math.inf
            if not val > 0.0:
                raise DomainTooSmall(f"{name}={d} must be positive")
            if val == math.inf:
                raise RangeTooLarge(f"{name}={d} must be finite")
        if float(self.d3) == float(self.d4):
            raise DeltaDegenerate(
                f"d3 = d4 = {self.d3} makes every combined identity trivial"
            )

    @property
    def is_rational(self) -> bool:
        return isinstance(self.d3, (Fraction, int)) and isinstance(
            self.d4, (Fraction, int)
        )

    def label(self) -> tuple[str, str]:
        return (_delta_str(self.d3), _delta_str(self.d4))


def _delta_str(d: Rational) -> str:
    if isinstance(d, Fraction):
        return f"{d.numerator}/{d.denominator}"
    return repr(float(d)) if isinstance(d, float) else str(d)


def _exponents(pair: DeltaPair) -> tuple[Rational, Rational, Rational]:
    """(a, b, e) = (d4, -d3, d3*d4) / (d3 - d4), exact for rational pairs."""
    d3, d4 = pair.d3, pair.d4
    if pair.is_rational:
        d3, d4 = Fraction(d3), Fraction(d4)
    den = d3 - d4
    return d4 / den, -d3 / den, d3 * d4 / den


def _log1p_delta_over_delta(d: Rational) -> float:
    """log((1+d)^(1/d)) = log1p(d)/d in double precision."""
    return math.log1p(float(d)) / float(d)


def theorem2_constant(pair: DeltaPair) -> float:
    """(1+d4)^(1/d4) / (1+d3)^(1/d3)."""
    exact = _theorem2_exact(pair)
    if exact is not None:
        return float(exact)
    return math.exp(
        _log1p_delta_over_delta(pair.d4) - _log1p_delta_over_delta(pair.d3)
    )


def _theorem2_exact(pair: DeltaPair) -> Fraction | None:
    """Exact rational value of theorem2_constant when both 1/d are integers."""
    if not pair.is_rational:
        return None
    d3, d4 = Fraction(pair.d3), Fraction(pair.d4)
    if d3.numerator != 1 or d4.numerator != 1:
        return None
    q3, q4 = d3.denominator, d4.denominator
    return (Fraction(q4 + 1, q4) ** q4) / (Fraction(q3 + 1, q3) ** q3)


def theorem1_constant(pair: DeltaPair) -> float:
    """[(1+d4)^(1/d4) / (1+d3)^(1/d3)]^(d3 d4 / (d3 - d4)).

    For rational pairs with unit numerators and a half-integral outer
    exponent the value is computed from exact rationals plus at most one
    square root -- e.g. (1/3, 1/5) gives sqrt(6561/6250) = 81 sqrt(10)/250.
    """
    _, _, e = _exponents(pair)
    base = _theorem2_exact(pair)
    if base is not None and isinstance(e, Fraction):
        if e.denominator == 1:
            return float(base ** e.numerator)
        if e.denominator == 2:
            return math.sqrt(float(base ** e.numerator))
    return math.exp(
        float(e)
        * (_log1p_delta_over_delta(pair.d4) - _log1p_delta_over_delta(pair.d3))
    )


# -- report plumbing ----------------------------------------------------------


@dataclass
class HybridReport:
    formula_id: str
    params: dict[str, Any]
    lhs: float
    rhs: float
    rel_residual: float
    condition: float
    points: dict[str, list[dict[str, float | int | None]]]
    extras: dict[str, float] = field(default_factory=dict)
    error_budget: dict[str, Any] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def _rel(lhs: float, rhs: float) -> float:
    return abs(lhs / rhs - 1.0)


def _log_prod(chain: ChainPoints) -> float:
    return float(np.sum(np.log(chain.zt2))) if chain.k else 0.0


def _offset0(chain: ChainPoints) -> float:
    return float(chain.alpha[0]) - math.pi * chain.l


def _params(l: int, u: float, *, k1=None, k2=None, k3=None, k4=None,
            pair: DeltaPair | None = None) -> dict[str, Any]:
    d = {"U": u, "L": l, "k1": k1, "k2": k2, "k3": k3, "k4": k4}
    if pair is not None:
        d["delta3"], d["delta4"] = pair.label()
    return d


# a solved chain is addressed by (role, depth); the roles besides these are
# the power weights pow3 (v^d3) and pow4 (v^d4)
_ROLES = {"one": gf_one, "sin2": gf_sin2, "cos2": gf_cos2}
_Chains = dict[tuple[str, int], ChainPoints]
_Need = tuple[str, int, float]


def _gf(role: str, pair: DeltaPair | None) -> GeneratingFunction:
    if role in _ROLES:
        return _ROLES[role]()
    d = pair.d3 if role == "pow3" else pair.d4
    return gf_power(Fraction(d) if isinstance(d, int) else d)


def _run(factory: ChainFactory, pair: DeltaPair | None, l: int, u: float,
         formula_id: str, needs: list[_Need],
         combine: Callable[[_Chains], tuple[float, float, dict[str, float]]],
         **depths: int) -> HybridReport:
    """Solve the declared chains once each, combine them, build the report.

    ``needs`` lists (role, depth, weight); a chain declared twice keeps its
    largest |weight|, which scales its condition and residual in the report.
    ``combine`` maps {(role, depth): chain} to (lhs, rhs, extras).
    """
    weights: dict[tuple[str, int], float] = {}
    for role, k, w in needs:
        weights[role, k] = max(abs(w), weights.get((role, k), 0.0))
    t0 = time.perf_counter()
    chains = {(role, k): factory.solve(l, u, k, _gf(role, pair))
              for role, k in weights}
    t1 = time.perf_counter()
    lhs, rhs, extras = combine(chains)
    names = {key: f"{key[0]}@k{key[1]}" for key in chains}
    points = {
        names[key]: _points(factory, ch, chains.get(("one", key[1])))
        for key, ch in chains.items() if key[0] != "one"
    }
    budget = {
        "root_tol": factory.model.config.root_tol,
        "quad_tol": factory.model.config.quad_tol,
        "chain_residuals": {names[key]: ch.rel_residual
                            for key, ch in chains.items()},
        "stacked_bound": sum(weights[key] * ch.rel_residual
                             for key, ch in chains.items()),
    }
    return HybridReport(
        formula_id=formula_id, params=_params(l, u, pair=pair, **depths),
        lhs=lhs, rhs=rhs, rel_residual=_rel(lhs, rhs),
        condition=sum(weights[key] * ch.condition for key, ch in chains.items()),
        points=points, extras=extras, error_budget=budget,
        timings={"chains_s": t1 - t0, "assemble_s": time.perf_counter() - t1},
    )


def _points(factory: ChainFactory, alpha: ChainPoints,
            beta: ChainPoints | None) -> list[dict]:
    segments = factory.tower(alpha.l, alpha.u, alpha.k).segments
    return [{
        "r": r,
        "alpha": float(alpha.alpha[r]),
        "beta": float(beta.alpha[r]) if (beta is not None and r >= 1) else None,
        "segment_lo": seg.lo,
        "segment_hi": seg.hi,
    } for r, seg in enumerate(segments)]


# -- log-space terms, pure functions of solved chains ---------------------------


def _plain_ratio_log(c: _Chains, role: str, k: int) -> float:
    """log prod ztilde_sq(alpha^role) / prod ztilde_sq(beta), both at depth k."""
    return _log_prod(c[role, k]) - _log_prod(c["one", k])


def _trig_mix(c: _Chains, k: int) -> float:
    """Equal-depth trig combination that stands in for the plain product."""
    return (math.exp(_log_prod(c["cos2", k])) * c["cos2", k].f0
            + math.exp(_log_prod(c["sin2", k])) * c["sin2", k].f0)


def _mix_ratio_log(c: _Chains, role: str, k: int) -> float:
    """log of a power-chain product over the trig combination at depth k."""
    return _log_prod(c[role, k]) - math.log(_trig_mix(c, k))


def _mix_ratio_needs(k3: int, k4: int, w3: float, w4: float) -> list[_Need]:
    return [("pow3", k3, w3), ("pow4", k4, w4), ("sin2", k3, w3),
            ("cos2", k3, w3), ("sin2", k4, w4), ("cos2", k4, w4)]


def _secondary_log_term(c: _Chains, pair: DeltaPair, k: int, trig: str) -> float:
    """log of one secondary term (without the trig factor).

    The term is the depth-k ratio product of the trig chain against the two
    power chains, divided by the offset-ratio prefactor:

        prod ztilde_sq(a^trig) ztilde_sq(a^3)^a ztilde_sq(a^4)^b
            / (x4 / x3)^e

    with (a, b, e) = (d4, -d3, d3 d4)/(d3 - d4).
    """
    a, b, e = (float(x) for x in _exponents(pair))
    return (
        _log_prod(c[trig, k])
        + a * _log_prod(c["pow3", k])
        + b * _log_prod(c["pow4", k])
        - e * (math.log(_offset0(c["pow4", k])) - math.log(_offset0(c["pow3", k])))
    )


def _secondary_sum(c: _Chains, pair: DeltaPair, k1: int, k2: int) -> float:
    """term(k2) cos^2(a0^{2,k2}) + term(k1) sin^2(a0^{1,k1})."""
    return (math.exp(_secondary_log_term(c, pair, k2, "cos2")) * c["cos2", k2].f0
            + math.exp(_secondary_log_term(c, pair, k1, "sin2")) * c["sin2", k1].f0)


def _secondary_needs(pair: DeltaPair, k1: int, k2: int) -> list[_Need]:
    a, b, _ = (float(x) for x in _exponents(pair))
    return [(role, k, w) for trig, k in (("sin2", k1), ("cos2", k2))
            for role, w in ((trig, 1.0), ("pow3", a), ("pow4", b))]


# -- the formulas --------------------------------------------------------------


def echf1(factory: ChainFactory, l: int, u: float, k1: int, k2: int) -> HybridReport:
    """Trig pair: ratio(cos^2; k2) * cos^2(a0) + ratio(sin^2; k1) * sin^2(a0) = 1."""
    def combine(c: _Chains):
        term_cos = math.exp(_plain_ratio_log(c, "cos2", k2)) * c["cos2", k2].f0
        term_sin = math.exp(_plain_ratio_log(c, "sin2", k1)) * c["sin2", k1].f0
        return term_cos + term_sin, 1.0, {"term_cos": term_cos, "term_sin": term_sin}

    return _run(factory, None, l, u, "ECHF1",
                [("sin2", k1, 1.0), ("cos2", k2, 1.0),
                 ("one", k1, 1.0), ("one", k2, 1.0)], combine, k1=k1, k2=k2)


def echf2(factory: ChainFactory, pair: DeltaPair, l: int, u: float,
          k3: int, k4: int) -> HybridReport:
    """Power pair: both arrangements evaluate the same U-free closed form."""
    def side_log(c: _Chains, role: str, k: int, delta: Rational) -> float:
        # log of (1+d)^(1/d) (a0 - pi L) {prod ratio}^(1/d)
        return (
            _log1p_delta_over_delta(delta)
            + math.log(_offset0(c[role, k]))
            + _plain_ratio_log(c, role, k) / float(delta)
        )

    def combine(c: _Chains):
        return (math.exp(side_log(c, "pow3", k3, pair.d3)),
                math.exp(side_log(c, "pow4", k4, pair.d4)), {})

    w3, w4 = 1.0 / float(pair.d3), 1.0 / float(pair.d4)
    return _run(factory, pair, l, u, "ECHF2",
                [("pow3", k3, w3), ("pow4", k4, w4),
                 ("one", k3, w3), ("one", k4, w4)], combine, k3=k3, k4=k4)


def beta_product_elim(factory: ChainFactory, pair: DeltaPair, l: int, u: float,
                      k: int) -> HybridReport:
    """Equal-depth elimination: the plain product from the two power chains.

        prod ztilde_sq(beta_r) =
            [(1+d3)^(1/d3) / (1+d4)^(1/d4)]^e * (x3 / x4)^e
            * {prod ztilde_sq(alpha^3)}^a * {prod ztilde_sq(alpha^4)}^b

    with (a, b, e) = (d4, -d3, d3 d4)/(d4 - d3) and x_i the base offsets.
    """
    # _exponents uses denominator (d3 - d4); this arrangement wants (d4 - d3)
    a_, b_, e_ = _exponents(pair)
    a, bb, e = -float(a_), -float(b_), -float(e_)

    def combine(c: _Chains):
        ch3, ch4 = c["pow3", k], c["pow4", k]
        log_rhs = (
            e * (_log1p_delta_over_delta(pair.d3) - _log1p_delta_over_delta(pair.d4))
            + e * (math.log(_offset0(ch3)) - math.log(_offset0(ch4)))
            + a * _log_prod(ch3)
            + bb * _log_prod(ch4)
        )
        return (math.exp(_log_prod(c["one", k])), math.exp(log_rhs),
                {"exp_a": a, "exp_b": bb, "exp_e": e})

    return _run(factory, pair, l, u, "BETA_ELIM_42",
                [("pow3", k, a), ("pow4", k, bb), ("one", k, 1.0)], combine,
                k3=k, k4=k)


def secondary_v1(factory: ChainFactory, pair: DeltaPair, l: int, u: float,
                 k1: int, k2: int) -> HybridReport:
    """The parameter-free trig-power combination.

        term(k2) cos^2(a0^{2,k2}) + term(k1) sin^2(a0^{1,k1})
            = [(1+d4)^(1/d4)/(1+d3)^(1/d3)]^(d3 d4/(d3-d4))

    The right side depends only on the delta pair -- not on U, L, k1, k2 --
    which is what the invariance scan exercises.  At (1/3, 1/5) the constant
    is 81 sqrt(10) / 250 and the report id switches to the specialized form.
    """
    is_11 = pair.label() == ("1/3", "1/5")

    def combine(c: _Chains):
        term2 = math.exp(_secondary_log_term(c, pair, k2, "cos2")) * c["cos2", k2].f0
        log_t1 = _secondary_log_term(c, pair, k1, "sin2")
        term1 = math.exp(log_t1) * c["sin2", k1].f0
        extras = {"term_cos": term2, "term_sin": term1}
        if is_11:
            # as-printed variant of the specialized form, which carries cos^2 on
            # the second term where the identity needs sin^2; reported so the
            # failure of that variant is visible next to the corrected value
            alpha0_1 = _offset0(c["sin2", k1])
            extras["literal_second_trig_lhs"] = (
                term2 + math.exp(log_t1) * math.cos(alpha0_1) ** 2
            )
        return term2 + term1, theorem1_constant(pair), extras

    return _run(factory, pair, l, u, "SECONDARY1_11" if is_11 else "SECONDARY1_44",
                _secondary_needs(pair, k1, k2), combine, k1=k1, k2=k2)


def mixed_product(factory: ChainFactory, l: int, u: float, k: int) -> HybridReport:
    """Equal-depth trig elimination: the plain product from the trig chains.

        prod ztilde_sq(beta_r) =
            {prod ztilde_sq(a^2)} cos^2(a0^2) + {prod ztilde_sq(a^1)} sin^2(a0^1)
    """
    def combine(c: _Chains):
        return math.exp(_log_prod(c["one", k])), _trig_mix(c, k), {}

    return _run(factory, None, l, u, "MIXED_52",
                [("sin2", k, 1.0), ("cos2", k, 1.0), ("one", k, 1.0)], combine,
                k1=k, k2=k)


def secondary_v2(factory: ChainFactory, pair: DeltaPair, l: int, u: float,
                 k3: int, k4: int) -> HybridReport:
    """The power identity with plain products replaced by trig combinations.

        (x3 / x4) * [P3 / D(k3)]^(1/d3) * [P4 / D(k4)]^(-1/d4)
            = (1+d4)^(1/d4) / (1+d3)^(1/d3)

    where P_i are the power-chain products, D(k) the equal-depth trig
    combination, and x3 = a0^{3,k3} - pi L, x4 = a0^{4,k4} - pi L.  The
    as-printed source form has x3/x3 (identically 1) as the prefactor; its
    value is reported in ``extras`` alongside, never asserted.
    """
    def combine(c: _Chains):
        x3, x4 = _offset0(c["pow3", k3]), _offset0(c["pow4", k4])
        log_core = (_mix_ratio_log(c, "pow3", k3) / float(pair.d3)
                    - _mix_ratio_log(c, "pow4", k4) / float(pair.d4))
        rhs = theorem2_constant(pair)
        literal_lhs = math.exp(log_core)  # prefactor x3/x3 == 1
        return math.exp(math.log(x3) - math.log(x4) + log_core), rhs, {
            "literal_lhs": literal_lhs,
            "literal_rel_residual": _rel(literal_lhs, rhs),
            "prefactor": x3 / x4,
        }

    return _run(factory, pair, l, u, "SECONDARY2_54",
                _mix_ratio_needs(k3, k4, 1.0 / float(pair.d3), 1.0 / float(pair.d4)),
                combine, k3=k3, k4=k4)


def ternary(factory: ChainFactory, pair: DeltaPair, l: int, u: float,
            k1: int, k2: int, k3: int, k4: int) -> HybridReport:
    """Constant-free combination of the two secondary identities.

    LHS is the ``secondary_v1`` sum over (k1, k2); RHS raises the
    ``secondary_v2`` combination over (k3, k4) to the power
    d3 d4 / (d3 - d4).  The as-printed RHS prefactor is again the x3/x3
    ratio; the corrected x3/x4 form is asserted, the literal one reported.
    """
    a, b, e = (float(x) for x in _exponents(pair))

    def combine(c: _Chains):
        lhs = _secondary_sum(c, pair, k1, k2)
        x3, x4 = _offset0(c["pow3", k3]), _offset0(c["pow4", k4])
        log_core = (a * _mix_ratio_log(c, "pow3", k3)
                    + b * _mix_ratio_log(c, "pow4", k4))
        literal_rhs = math.exp(log_core)
        return lhs, math.exp(e * (math.log(x3) - math.log(x4)) + log_core), {
            "literal_rhs": literal_rhs,
            "literal_rel_residual": _rel(lhs, literal_rhs),
        }

    return _run(factory, pair, l, u, "TERNARY_61",
                _secondary_needs(pair, k1, k2) + _mix_ratio_needs(k3, k4, a, b),
                combine, k1=k1, k2=k2, k3=k3, k4=k4)


def asymptotic_secondary(factory: ChainFactory, pair: DeltaPair, l: int,
                         u: float, k1: int, k2: int) -> HybridReport:
    """The secondary combination with raw Z^2 in place of ztilde_sq.

    Since Z^2(t) = ztilde_sq(t) * omega(t) pointwise, each term of the raw
    sum equals its exact counterpart times the omega mixture

        F(k) = prod_r omega(a_r^trig) omega(a_r^3)^a omega(a_r^4)^b ,

    whose exponents sum to zero -- so F is a ratio of nearly equal slopes
    and drifts from 1 only through the slope spread across the chains at
    each level.  The report carries the raw deviation from the constant and
    the deviation predicted by F; no hard tolerance applies to either.
    The exact-arrangement anchor at the same points is reported as
    ``anchor_residual``.
    """
    a, b, _ = (float(x) for x in _exponents(pair))

    def omega_mix_log(c: _Chains, k: int, trig: str) -> float:
        lt = np.log(c[trig, k].omega)
        l3 = np.log(c["pow3", k].omega)
        l4 = np.log(c["pow4", k].omega)
        return float(np.sum(lt) + a * np.sum(l3) + b * np.sum(l4))

    def combine(c: _Chains):
        log_t2 = _secondary_log_term(c, pair, k2, "cos2")
        log_t1 = _secondary_log_term(c, pair, k1, "sin2")
        mix2 = omega_mix_log(c, k2, "cos2")
        mix1 = omega_mix_log(c, k1, "sin2")
        cos0, sin0 = c["cos2", k2].f0, c["sin2", k1].f0
        raw_lhs = math.exp(log_t2 + mix2) * cos0 + math.exp(log_t1 + mix1) * sin0
        rhs = theorem1_constant(pair)
        predicted = (
            math.exp(log_t2) * math.expm1(mix2) * cos0
            + math.exp(log_t1) * math.expm1(mix1) * sin0
        ) / rhs
        return raw_lhs, rhs, {
            "anchor_residual": _rel(_secondary_sum(c, pair, k1, k2), rhs),
            "deviation": raw_lhs / rhs - 1.0,
            "predicted_deviation": predicted,
            "omega_mix_factor_k1": math.exp(mix1),
            "omega_mix_factor_k2": math.exp(mix2),
        }

    return _run(factory, pair, l, u, "ASYMPTOTIC_17",
                _secondary_needs(pair, k1, k2), combine, k1=k1, k2=k2)


# -- invariance scans -----------------------------------------------------------


@dataclass
class InvarianceScan:
    seed: int
    constant: float
    samples: list[tuple[dict[str, Any], float]]
    failures: list[tuple[dict[str, Any], str]]
    mean: float
    stddev: float
    max_rel_dev: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "constant": self.constant,
            "samples": [{"params": p, "lhs": v} for p, v in self.samples],
            "failures": [{"params": p, "error": e} for p, e in self.failures],
            "mean": self.mean,
            "stddev": self.stddev,
            "max_rel_dev": self.max_rel_dev,
        }


_WORKER_STATE: dict[str, Any] = {}


def _scan_init(model: LadderModel, pair: DeltaPair) -> None:
    _WORKER_STATE.update(factory=ChainFactory(model), pair=pair)


_Outcome = tuple[float | None, str | None]
#: a scan sample (U, L, k1, k2)
_Sample = tuple[float, int, int, int]


def _scan_fit(chunks: list[tuple[int, int]]) -> list[list[float]]:
    """Each chunk's knot increments, up to the first chunk whose fit raises."""
    model = _WORKER_STATE["factory"].model
    done = []
    for j0, j1 in chunks:
        try:
            done.append(list(model.knot_increments(j0, j1)))
        except Exception:  # the parent refits this chunk and raises there itself
            break
    return done


def _scan_sample(factory: ChainFactory, pair: DeltaPair, sample: _Sample) -> _Outcome:
    """The sample's secondary_v1 lhs, or the error that stopped it."""
    u, l, k1, k2 = sample
    try:
        return secondary_v1(factory, pair, l, u, k1, k2).lhs, None
    except ZetaLadderError as exc:  # aggregate, do not abort the scan
        return None, f"{type(exc).__name__}: {exc}"


def _scan_eval(item: tuple[_Sample, int, bytes]) -> _Outcome:
    """A pool worker's sample, after the knots ``start..`` of the parent's table.

    The knots come as bytes; the worker appends those its table lacks.
    """
    sample, start, knots = item
    vals = _WORKER_STATE["factory"].model.table.values
    vals.extend(array("d", knots)[len(vals) - start:])
    return _scan_sample(_WORKER_STATE["factory"], _WORKER_STATE["pair"], sample)


def _prefill(pool: Any, model: LadderModel, t: float, workers: int) -> None:
    """Fit the table's missing knot intervals up to t on the pool's workers.

    The chunks are dealt round-robin into one task per worker, so chunks of
    either Z route spread evenly, and appended in order up to the first
    chunk a worker could not fit.
    """
    chunks = model.missing_chunks(t)
    if not chunks:
        return
    done = pool.map(_scan_fit, [chunks[w::workers] for w in range(workers)])
    for increments in itertools.chain.from_iterable(itertools.zip_longest(*done)):
        if increments is None:
            break
        model.append_knots(increments)


def invariance_scan(
    pair: DeltaPair,
    n_samples: int = 20,
    seed: int = 20260819,
    config: RunConfig = DEFAULT_CONFIG,
    u_range: tuple[float, float] = (0.3, 1.45),
    l_range: tuple[int, int] = (100, 260),
    k_range: tuple[int, int] = (1, 3),
    workers: int = 1,
    factory: ChainFactory | None = None,
) -> InvarianceScan:
    """Sample (U, L, {k1, k2}) at any real delta pair and summarize the spread.

    ``n_samples``, an integer >= 2, are drawn up front from one generator
    seeded by ``seed``, an integer >= 0, so the set of evaluated parameter
    tuples -- and therefore the statistics -- do not depend on ``workers``,
    an integer >= 1; no more processes start than there are samples or
    cores.  The table of ``factory`` (fresh under ``config`` if none is
    given) is warmed once, here, to the top of the tallest tower, and every
    sample reads that one table.  On a pool the workers fit the warm-up
    first: the knot intervals up to the top that the mean-square law
    predicts (:func:`~zetaladder.ladder.mean_square_climb`) are dealt to
    them and their increments appended here; the tower itself is then built
    here, topping up by whole chunks where the prediction fell short, and
    each sample carries the knots added since the workers forked.  Knots and
    results are bit-identical to the serial warm-up.  Per-sample failures are
    collected, not raised, unless every sample fails.
    """
    if not (isinstance(n_samples, numbers.Integral) and n_samples >= 2):
        raise DomainTooSmall(f"n_samples={n_samples!r} must be an integer >= 2")
    if not (isinstance(workers, numbers.Integral) and workers >= 1):
        raise DomainTooSmall(f"workers={workers!r} must be an integer >= 1")
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise DomainTooSmall(f"seed={seed!r} must be an integer >= 0")
    if factory is None:
        factory = ChainFactory(LadderModel(config))
    (u_lo, u_hi), (l_lo, l_hi), (k_lo, k_hi) = u_range, l_range, k_range
    if not (l_lo <= l_hi and u_lo <= u_hi and k_lo < k_hi):
        raise DomainTooSmall(f"scan needs lo <= hi in L {l_range} and U {u_range}, "
                             f"and two depths in k {k_range}")
    for corner in ((l_lo, u_lo, k_lo), (l_hi, u_hi, k_hi)):
        _check_window(*corner, factory.model.config)
    rng = np.random.default_rng(seed)
    ks = np.arange(k_lo, k_hi + 1)
    samples: list[_Sample] = []
    for _ in range(n_samples):
        u = float(rng.uniform(u_lo, u_hi))
        l = int(rng.integers(l_lo, l_hi + 1))
        k1, k2 = (int(x) for x in rng.choice(ks, size=2, replace=False))
        samples.append((u, l, k1, k2))

    # reverse_step increases and climbs, so the deepest tower over the
    # highest base end covers every point any sample's chain solve reaches
    u_top, l_top, _, _ = max(samples, key=lambda s: math.pi * s[1] + s[0])
    depth = max(max(k1, k2) for _, _, k1, k2 in samples)

    def warm_up() -> None:
        try:
            factory.tower(l_top, u_top, depth)
        except ZetaLadderError:  # the samples that need it fail one by one
            pass

    workers = min(workers, n_samples, os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool's module costs ~1 MB in a process that never forks
        from concurrent.futures import ProcessPoolExecutor

        model = factory.model
        start = len(model.table.values)
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_scan_init, initargs=(model, pair),
        ) as pool:
            top = mean_square_climb(math.pi * l_top + u_top, depth)
            _prefill(pool, model, min(top, model.config.t_table_max), workers)
            warm_up()
            knots = model.table.values[start:].tobytes()
            outcomes = list(pool.map(_scan_eval, [(s, start, knots) for s in samples]))
    else:
        warm_up()
        outcomes = [_scan_sample(factory, pair, s) for s in samples]

    const = theorem1_constant(pair)
    good: list[tuple[dict[str, Any], float]] = []
    bad: list[tuple[dict[str, Any], str]] = []
    for (u, l, k1, k2), (lhs, err) in zip(samples, outcomes):
        params = _params(l, u, k1=k1, k2=k2, pair=pair)
        if lhs is None:
            bad.append((params, err or "unknown"))
        else:
            good.append((params, lhs))
    if not good:
        raise NonConvergence(f"all {n_samples} scan samples failed: {bad[0][1]}")
    values = np.array([v for _, v in good])
    return InvarianceScan(
        seed=seed,
        constant=const,
        samples=good,
        failures=bad,
        mean=float(values.mean()),
        stddev=float(values.std()),
        max_rel_dev=float(np.max(np.abs(values - const)) / const),
    )
