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
xi = alpha_k through one private walk built on ``LadderModel.step``, which
gives (phi1, omega, ztilde_sq) at a level from one phi1 solve: an assembly
costs k solves, and so does an integrand evaluation at a new xi.  Only the
last factor of the integrand depends on the weight, so the chains of one
tower share their walks: the crossing scan samples every chain at the same
grid on seg_k, and a point another chain of the window has walked costs one
evaluation of f.  A factory keeps one window: its chains are cached per
(k, weight) until a tower or solve names another window, so that repeated
requests -- in particular the plain ``beta`` chain reused across several
formulas -- are bit-identical.
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
    "chain_identity_residual",
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


def gf_sin2() -> GeneratingFunction:
    return GeneratingFunction(
        "sin2",
        lambda v: math.sin(v) ** 2,
        lambda v: 0.5 * v - 0.25 * math.sin(2.0 * v),
    )


def gf_cos2() -> GeneratingFunction:
    return GeneratingFunction(
        "cos2",
        lambda v: math.cos(v) ** 2,
        lambda v: 0.5 * v + 0.25 * math.sin(2.0 * v),
    )


def gf_power(delta: Fraction | float) -> GeneratingFunction:
    """v -> v^delta for delta > -1; exact mass U^(1+delta)/(1+delta)."""
    d = float(delta)
    if d <= -1.0:
        raise DomainTooSmall(f"power weight needs delta > -1, got {delta}")
    if isinstance(delta, Fraction):
        key = f"pow:{delta.numerator}/{delta.denominator}"
    else:
        key = f"pow:{delta!r}"
    return GeneratingFunction(
        key,
        lambda v: v ** d,
        lambda v: v ** (1.0 + d) / (1.0 + d),
    )


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

    @property
    def xi(self) -> float:
        return float(self.alpha[-1])

    @property
    def product(self) -> float:
        return self.f0 * float(np.prod(self.zt2))


def _walk(model: LadderModel, xi: float,
          k: int) -> tuple[list[float], list[float], list[float]]:
    """One ladder step per level from xi = alpha_k down to alpha_0.

    Returns alpha_k..alpha_0, and ztilde_sq(alpha_r) and omega(alpha_r) for
    r = k..1, each list in walk order.
    """
    alpha, zt2, omega = [xi], [], []
    for _ in range(k):
        t, om, zt = model.step(alpha[-1])
        alpha.append(t)
        omega.append(om)
        zt2.append(zt)
    return alpha, zt2, omega


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
    and a repeated xi costs one evaluation of f.
    """
    k = tower.k
    base_lo = tower.base.lo
    if walks is None:
        walks = {}

    def g(xi: float) -> float:
        hit = walks.get(xi)
        if hit is None:
            alpha, zt2, _ = _walk(model, xi, k)
            acc = 1.0
            for v in zt2:
                acc *= v
            hit = walks[xi] = (acc, alpha[-1])
        acc, alpha0 = hit
        return acc * gf.fn(alpha0 - base_lo)

    return g


class ChainFactory:
    """Builds towers and solves chains, caching both for bit-identical reuse.

    The factory keeps one window (L, U), the one its latest tower or solve
    named, and for it the segment list, the solved chains and, per depth k,
    one :data:`Walks` dict that the weights of its fresh solves share.  A
    tower or solve at another window drops all three, so what the factory
    holds never outgrows one window however long it lives; a chain of an
    earlier window is solved again, bit-identical, when asked for.
    """

    def __init__(self, model: LadderModel):
        self.model = model
        self._window: tuple[int, float] | None = None
        self._segments: list[Segment] = []
        self._chains: dict[tuple[int, str], ChainPoints] = {}
        self._walks: dict[int, Walks] = {}

    def _enter(self, l: int, u: float) -> None:
        """Make (l, u) the factory's window, dropping what it kept for another."""
        if self._window != (l, u):
            lo = math.pi * l
            self._window, self._segments = (l, u), [Segment(lo, lo + u)]
            self._chains, self._walks = {}, {}

    # towers -----------------------------------------------------------------

    def tower(self, l: int, u: float, k: int) -> IterationTower:
        l, k = _check_window(l, u, k, self.model.config)
        self._enter(l, u)
        segs = self._segments
        # one growing segment list per window: deeper towers extend it
        while len(segs) <= k:
            prev = segs[-1]
            segs.append(
                Segment(self.model.reverse_step(prev.lo),
                        self.model.reverse_step(prev.hi))
            )
        return IterationTower(l=l, u=u, segments=tuple(segs[: k + 1]))

    # chains -----------------------------------------------------------------

    def solve(self, l: int, u: float, k: int, gf: GeneratingFunction) -> ChainPoints:
        l, k = _check_window(l, u, k, self.model.config)
        self._enter(l, u)
        key = (k, gf.key)
        hit = self._chains.get(key)
        if hit is not None:
            return hit
        chain = self._solve_fresh(l, u, k, gf)
        self._chains[key] = chain
        return chain

    def beta(self, l: int, u: float, k: int) -> ChainPoints:
        """The plain chain (f = 1): prod ztilde_sq(beta_r) = U / |seg_k|."""
        return self.solve(l, u, k, gf_one())

    def _solve_fresh(self, l: int, u: float, k: int,
                     gf: GeneratingFunction) -> ChainPoints:
        model = self.model
        tower = self.tower(l, u, k)
        seg_k = tower.segment(k)
        level = gf.mass(u) / seg_k.length

        if k == 0 and gf.key == "one":
            # the identity is the empty product; anchor at the window midpoint
            xi = tower.base.mid
        else:
            g = make_chain_weight(model, tower, gf, walks=self._walks.setdefault(k, {}))
            xi = find_level_crossing(g, seg_k.lo, seg_k.hi, level,
                                     tol=model.config.root_tol)
        return self._assemble(tower, gf, xi, level)

    def _assemble(self, tower: IterationTower, gf: GeneratingFunction,
                  xi: float, level: float) -> ChainPoints:
        k = tower.k
        walk_alpha, walk_zt2, walk_omega = _walk(self.model, xi, k)
        alpha = np.array(walk_alpha[::-1])
        zt2 = np.array(walk_zt2[::-1])
        omega = np.array(walk_omega[::-1])
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


def chain_identity_residual(model: LadderModel, chain: ChainPoints) -> float:
    """Freshly re-evaluate the defining chain identity at the stored points.

    Returns |lhs/rhs - 1| accumulated in log space, so enormous or tiny
    factors do not overflow the comparison.
    """
    log_f0, log_prod = _fresh_logs(model, chain)
    return abs(math.expm1(log_f0 + log_prod - math.log(chain.level)))


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
        raise ValueError("lemma_residual needs chains over the same (L, U, k)")
    if beta_chain.f_key != "one":
        raise ValueError("second argument must be the plain (f = 1) chain")
    log_f0, log_alpha = _fresh_logs(model, alpha_chain)
    _, log_beta = _fresh_logs(model, beta_chain)
    mean_f = alpha_chain.gf.mass(alpha_chain.u) / alpha_chain.u
    return abs(math.expm1(log_f0 - math.log(mean_f) + log_alpha - log_beta))
