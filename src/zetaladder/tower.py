"""Iteration towers and mean-value chains over the ladder map.

A **tower** over base window ``[pi L, pi L + U]`` is the sequence of segments

    seg_0 = [pi L, pi L + U],    seg_{r+1} = reverse_step(seg_r)

so the forward map phi1 sends seg_{r+1} onto seg_r and the k-fold iterate
phi1^k sends seg_k onto the base.  Because d(phi1)/dt = ztilde_sq exactly,
change of variables gives, for any continuous weight f on the base (written
in the offset v = t - pi L in [0, U]),

    integral over seg_k of  f(phi1^k(u) - pi L) * prod_{j<k} ztilde_sq(phi1^j(u)) du
        = integral_0^U f(v) dv .

The mean value theorem then produces a point xi = alpha_k in seg_k where the
integrand equals its mean

    f(alpha_0 - pi L) * prod_{r=1}^{k} ztilde_sq(alpha_r)  =  mass(f) / |seg_k| ,

with alpha_{r-1} = phi1(alpha_r).  ``ChainFactory.solve`` locates such a point
by a sign-change scan (the integrand oscillates through zero near every zero
of Z, so crossings are plentiful) and returns the full chain with its
residual and a log-space condition number.

Both the integrand and the assembly of a solved chain walk down from
xi = alpha_k by ``LadderModel.step``, which gives (phi1, omega, ztilde_sq)
at a level from one phi1 solve: an assembly costs k solves, and so does an
integrand evaluation at a new xi.  Only the last factor of the integrand
depends on the weight, so the chains of one tower share their walks: the
crossing scan samples every chain at the same grid on seg_k, and a point
another chain of the window has walked costs one evaluation of f.  A
factory keeps one window's segments and walks until a tower or solve names
another window.  A chain asked for again -- in particular the plain
``beta`` chain that several formulas read -- is solved again, bit-identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import (
    ConditionTooHigh,
    DomainTooSmall,
    IndexOutOfTower,
    RangeTooLarge,
    UsageError,
)
from .ladder import LadderModel
from .numerics import find_level_crossing

__all__ = [
    "Segment",
    "IterationTower",
    "GeneratingFunction",
    "ChainPoints",
    "ChainFactory",
    "gf_one",
    "gf_sin2",
    "gf_cos2",
    "gf_power",
    "make_chain_weight",
    "lemma_residual",
]

#: a chain's log-space condition number is flagged above KAPPA_FLAG and
#: refused (ConditionTooHigh) above KAPPA_MAX
KAPPA_FLAG = 1e3
KAPPA_MAX = 1e5


@dataclass(frozen=True)
class Segment:
    lo: float
    hi: float

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)


def _segment(lo: float, hi: float) -> Segment:
    """[lo, hi] as a tower segment, or DomainTooSmall when it has no width.

    A chain's level is mass(f) / |seg_k|: a base pi L + U that rounds back
    to pi L, or two reverse steps that land on one point (a root_tol wider
    than a knot interval), leaves no level to solve for.
    """
    if not hi - lo > 0.0:
        raise DomainTooSmall(f"tower segment [{lo!r}, {hi!r}] has no width")
    return Segment(lo, hi)


@dataclass(frozen=True)
class IterationTower:
    """Segments seg_0..seg_k of one tower; phi1 maps seg_{r+1} onto seg_r."""

    l: int
    u: float
    segments: tuple[Segment, ...]

    @property
    def k(self) -> int:
        return len(self.segments) - 1

    def segment(self, r: int) -> Segment:
        if not 0 <= r <= self.k:
            raise IndexOutOfTower(f"segment {r} of a depth-{self.k} tower")
        return self.segments[r]

    @property
    def base(self) -> Segment:
        return self.segments[0]


def _check_window(l: int, u: float, k: int, config: RunConfig) -> tuple[int, int]:
    """(L, k) as ints, or the typed error of the first bound they break."""
    try:
        whole = math.isfinite(l) and int(l) == l
    except OverflowError:  # an int past the largest float
        raise RangeTooLarge("tower base index L lies beyond the float range") from None
    if not whole:
        raise DomainTooSmall(f"tower base index L={l!r} must be a finite integer")
    l = int(l)
    if l < config.l_floor:
        raise DomainTooSmall(f"tower base index L={l} below floor {config.l_floor}")
    if not u > 0.0:
        raise DomainTooSmall(f"window width U={u} must be positive")
    if u >= 0.5 * math.pi:
        raise RangeTooLarge(f"window width U={u} must stay below pi/2")
    if not (0 <= k <= config.k_max and int(k) == k):
        raise IndexOutOfTower(
            f"tower depth k={k!r} is not an integer in [0, {config.k_max}]")
    return l, int(k)


# -- generating weights ------------------------------------------------------


@dataclass(frozen=True)
class GeneratingFunction:
    """Weight on the base window, in the offset variable v in [0, U].

    ``primitive`` is the exact antiderivative with primitive(0) = 0, so the
    window mass is primitive(U) -- closed form, no quadrature.
    """

    key: str
    fn: Callable[[float], float]
    primitive: Callable[[float], float]

    def mass(self, u: float) -> float:
        return self.primitive(u)


def gf_one() -> GeneratingFunction:
    return GeneratingFunction("one", lambda v: 1.0, lambda v: v)


#: below this U, sin^2's mass is its series: the closed form's two terms
#: cancel, to within 3e-15 of the exact mass at and above the cut, and to
#: nothing by U = 1e-8.  Below 0.2, the smallest window tier-1 pins
_SIN2_SERIES_BELOW = 0.1875


def _sin2_mass(v: float) -> float:
    """(2v - sin 2v) / 4: the closed form at and above the cut, else its series.

    Below the cut, (2v - sin 2v) / 4 = sum_{n >= 1} (-1)^(n+1) (2v)^(2n+1) /
    (4 (2n+1)!), whose eighth term is below 1e-19 of the first: within 4e-16
    of the exact mass from v = 1e-12.
    """
    if v >= _SIN2_SERIES_BELOW:
        return 0.5 * v - 0.25 * math.sin(2.0 * v)
    x2 = 4.0 * v * v
    term = total = 2.0 * v * x2 / 24.0  # (2v)^3 / (4 * 3!)
    for n in range(2, 9):  # term n from term n - 1: times -(2v)^2 / ((2n)(2n + 1))
        term *= -x2 / (2 * n * (2 * n + 1))
        total += term
    return total


def gf_sin2() -> GeneratingFunction:
    return GeneratingFunction("sin2", lambda v: math.sin(v) ** 2, _sin2_mass)


def gf_cos2() -> GeneratingFunction:
    return GeneratingFunction(
        "cos2",
        lambda v: math.cos(v) ** 2,
        lambda v: 0.5 * v + 0.25 * math.sin(2.0 * v),
    )


def gf_power(delta: Fraction | float) -> GeneratingFunction:
    """v -> v^delta for finite delta > -1; exact mass U^(1+delta)/(1+delta).

    As :class:`hybrid.DeltaPair` types its exponents: a NaN or delta <= -1
    is refused with DomainTooSmall, an infinite delta or one past the float
    range with RangeTooLarge.
    """
    try:
        d = float(delta)
    except OverflowError:  # an exact value past the largest float
        d = math.inf if delta > 0 else -math.inf
    if not d > -1.0:
        raise DomainTooSmall(f"power weight needs delta > -1, got {delta}")
    if d == math.inf:
        raise RangeTooLarge(f"power weight needs a finite delta, got {delta}")
    if isinstance(delta, Fraction):
        key = f"pow:{delta.numerator}/{delta.denominator}"
    else:
        key = f"pow:{delta!r}"
    whole = d.is_integer()

    def power(v: float, p: float) -> float:
        try:
            return v ** p
        except OverflowError:  # float ** raises where the value passes the float range
            return -math.inf if v < 0.0 and p % 2.0 == 1.0 else math.inf

    def fn(v: float) -> float:
        if v < 0.0 and not whole:  # a walk that lands a few ulps below pi L
            raise DomainTooSmall(f"power weight v^{delta} read at offset v={v!r} < 0")
        return power(v, d)

    return GeneratingFunction(key, fn, lambda v: power(v, 1.0 + d) / (1.0 + d))


# -- chains -------------------------------------------------------------------


@dataclass(frozen=True)
class ChainPoints:
    """A solved mean-value chain alpha_0..alpha_k with its product identity.

    ``alpha[r]`` lies in segment r; ``zt2[r-1] = ztilde_sq(alpha[r])`` and
    ``omega[r-1] = omega(alpha[r])``, the normalizer slope, for r = 1..k;
    ``gf`` is the weight f.  The defining identity is

        f(alpha[0] - pi L) * prod(zt2) = level = mass(f) / |seg_k| .
    """

    l: int
    u: float
    k: int
    gf: GeneratingFunction
    alpha: np.ndarray
    zt2: np.ndarray
    omega: np.ndarray
    f0: float
    level: float
    rel_residual: float
    condition: float
    flagged: bool

    @property
    def f_key(self) -> str:
        return self.gf.key


#: xi -> (prod_r ztilde_sq(alpha_r), alpha_0): the part of a chain weight
#: that depends on the tower alone, not on the weight f
Walks = dict[float, tuple[float, float]]


def make_chain_weight(
    model: LadderModel, tower: IterationTower, gf: GeneratingFunction,
    walks: Walks | None = None,
) -> Callable[[float], float]:
    """The integrand on seg_k whose mean over seg_k is mass(f)/|seg_k|.

    g(xi) = prod_r ztilde_sq(alpha_r) * f(alpha_0 - pi L).  The walk down
    from xi (k ladder steps) gives the product and alpha_0, which do not
    depend on f; they are kept per xi in ``walks`` (a private dict when
    None), so weights that share ``walks`` on one tower walk each xi once
    and a repeated xi costs one evaluation of f.  The walk multiplies as it
    steps, down from xi as a chain's assembly walks, and keeps no list.
    """
    k = tower.k
    base_lo = tower.base.lo
    step = model.step
    if walks is None:
        walks = {}

    def g(xi: float) -> float:
        hit = walks.get(xi)
        if hit is None:
            t, acc = xi, 1.0
            for _ in range(k):
                t, _om, zt = step(t)
                acc *= zt
            hit = walks[xi] = (acc, t)
        acc, alpha0 = hit
        return acc * gf.fn(alpha0 - base_lo)

    return g


class ChainFactory:
    """Builds towers and solves chains over one window at a time.

    The factory keeps one window (L, U), the one its latest tower or solve
    named, and for it the segment list and, per depth k, one :data:`Walks`
    dict that the weights of its solves share.  A tower or solve at another
    window drops both, so what the factory holds never outgrows one window
    however long it lives.  A chain is solved on each call; asked again, on
    the same walks or fresh ones, it is bit-identical.
    """

    def __init__(self, model: LadderModel):
        self.model = model
        self._window: tuple[int, float] | None = None
        self._segments: list[Segment] = []
        self._walks: dict[int, Walks] = {}

    def _enter(self, l: int, u: float) -> None:
        """Make (l, u) the factory's window, dropping what it kept for another."""
        if self._window != (l, u):
            lo = math.pi * l
            self._window, self._segments = (l, u), [_segment(lo, lo + u)]
            self._walks = {}

    # towers -----------------------------------------------------------------

    def tower(self, l: int, u: float, k: int) -> IterationTower:
        """seg_0..seg_k over [pi L, pi L + U]; DomainTooSmall if one has no width."""
        l, k = _check_window(l, u, k, self.model.config)
        self._enter(l, u)
        segs = self._segments
        # one growing segment list per window: deeper towers extend it
        while len(segs) <= k:
            prev = segs[-1]
            segs.append(
                _segment(self.model.reverse_step(prev.lo),
                         self.model.reverse_step(prev.hi))
            )
        return IterationTower(l=l, u=u, segments=tuple(segs[: k + 1]))

    # chains -----------------------------------------------------------------

    def solve(self, l: int, u: float, k: int, gf: GeneratingFunction) -> ChainPoints:
        model = self.model
        tower = self.tower(l, u, k)  # checks the window once and enters it
        k = tower.k
        seg_k = tower.segment(k)
        level = gf.mass(u) / seg_k.length
        if not 0.0 < level < math.inf:  # a mass that cancels or overflows
            raise DomainTooSmall(f"chain level {level!r} for f={gf.key} on "
                                 f"L={tower.l}, U={u!r} is not finite and positive")

        if k == 0 and gf.key == "one":
            # the identity is the empty product; anchor at the window midpoint
            xi = tower.base.mid
        else:
            g = make_chain_weight(model, tower, gf, walks=self._walks.setdefault(k, {}))
            xi = find_level_crossing(g, seg_k.lo, seg_k.hi, level,
                                     tol=model.config.root_tol)
        return self._assemble(tower, gf, xi, level)

    def beta(self, l: int, u: float, k: int) -> ChainPoints:
        """The plain chain (f = 1): prod ztilde_sq(beta_r) = U / |seg_k|."""
        return self.solve(l, u, k, gf_one())

    def _assemble(self, tower: IterationTower, gf: GeneratingFunction,
                  xi: float, level: float) -> ChainPoints:
        k = tower.k
        alpha, steps = [xi], []  # one ladder step per level, alpha_k down to alpha_0
        for _ in range(k):
            steps.append(self.model.step(alpha[-1]))
            alpha.append(steps[-1][0])
        alpha = np.array(alpha[::-1])
        zt2 = np.array([zt for _, _, zt in steps[::-1]])
        omega = np.array([om for _, om, _ in steps[::-1]])
        f0 = gf.fn(alpha[0] - tower.base.lo)

        log_level = math.log(level)
        logs = [math.log(v) if v > 0.0 else -math.inf for v in zt2]
        log_f0 = math.log(f0) if f0 > 0.0 else -math.inf
        condition = abs(log_f0) + sum(abs(x) for x in logs) if f0 > 0.0 else math.inf
        if math.isinf(condition) or condition > KAPPA_MAX:
            raise ConditionTooHigh(
                f"chain at L={tower.l}, U={tower.u}, k={k}, f={gf.key} "
                f"landed on a near-zero factor",
                condition=condition,
            )
        rel = abs(math.expm1((log_f0 + sum(logs)) - log_level))
        return ChainPoints(
            l=tower.l, u=tower.u, k=k, gf=gf,
            alpha=alpha, zt2=zt2, omega=omega, f0=f0, level=level,
            rel_residual=rel, condition=condition,
            flagged=condition > KAPPA_FLAG,
        )


def _fresh_logs(model: LadderModel, chain: ChainPoints) -> tuple[float, float]:
    """(log f(alpha_0 - pi L), sum_r log ztilde_sq(alpha_r)) from scratch.

    Every factor is recomputed at the stored points (no reuse of the stored
    zt2); a nonpositive one has no logarithm and raises ConditionTooHigh.
    """
    f0 = chain.gf.fn(float(chain.alpha[0]) - math.pi * chain.l)
    if f0 <= 0.0:
        raise ConditionTooHigh(
            f"stored chain has nonpositive weight factor f0={f0}",
            condition=math.inf,
        )
    log_prod = 0.0
    for r in range(1, chain.k + 1):
        v = model.ztilde_sq(float(chain.alpha[r]))
        if v <= 0.0:
            raise ConditionTooHigh(
                f"stored chain point alpha_{r} sits on a zero of Z",
                condition=math.inf,
            )
        log_prod += math.log(v)
    return math.log(f0), log_prod


def lemma_residual(model: LadderModel, alpha_chain: ChainPoints,
                   beta_chain: ChainPoints) -> float:
    """Residual of the displayed factorization identity, freshly re-evaluated.

    The lemma form pairs an f-chain with the plain chain at the same
    (L, U, k):

        prod_r ztilde_sq(alpha_r) / ztilde_sq(beta_r)  =  mean(f) / f(alpha_0)

    Both chains are re-evaluated from scratch and compared in log space; the
    result is |LHS/RHS - 1|.
    """
    if (alpha_chain.l, alpha_chain.u, alpha_chain.k) != (
        beta_chain.l, beta_chain.u, beta_chain.k
    ):
        raise UsageError("lemma_residual needs chains over the same (L, U, k)")
    if beta_chain.f_key != "one":
        raise UsageError("second argument must be the plain (f = 1) chain")
    log_f0, log_alpha = _fresh_logs(model, alpha_chain)
    _, log_beta = _fresh_logs(model, beta_chain)
    mean_f = alpha_chain.gf.mass(alpha_chain.u) / alpha_chain.u
    return abs(math.expm1(log_f0 - math.log(mean_f) + log_alpha - log_beta))
