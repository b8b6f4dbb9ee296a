"""Adaptive quadrature, monotone inversion, and leftmost level crossings.

These are the only numerical primitives the rest of the package is allowed to
use for integrals and root solves, so their contracts are deliberately narrow:

* :func:`integrate` -- absolute-tolerance adaptive quadrature built on the
  nested Clenshaw-Curtis 17/33 pair with interval halving.  For oscillatory
  integrands the caller passes ``min_wavelength`` and the initial panels are
  capped at half of it, so no panel ever straddles more than half an
  oscillation.  Its loop, :func:`adaptive_panels`, takes an integrand that
  maps a panel's 33 nodes to values, so the batched Z^2 kernel runs the very
  same policy.
* :func:`chebyshev_pieces` -- the interpolant behind those 33 values, and its
  integral, on the pieces :func:`adaptive_panels` accepts: both read one
  splitting loop, :func:`_pieces`, which turns a piece's 33 values into its
  17/33 error and its row, a layout only :func:`piece_integrals` and
  :func:`land_pieces` read; the latter turns an interval's rows into the
  form :func:`eval_pieces` reads, once.  A loop that cannot meet
  its tolerance raises :class:`NonConvergence`, not halving below noise.
  The loop starts from :func:`initial_pieces`; a caller fitting many spans
  can evaluate all their initial pieces at their :func:`piece_nodes` in one
  batch and hand each loop its values.
* :func:`invert_increasing` -- g(x) = target with g strictly increasing on
  the bracket.
* :func:`find_level_crossing` -- leftmost solution of g(x) = level on an open
  interval, located by a uniform interior scan (refined by doubling when no
  sign change is found).

Both root solves finish in the same root loop, :func:`_itp` (interpolate,
truncate, project): superlinear on a smooth g, and never more steps than
bisection would take on the same bracket.  It compares signs rather than
multiplying values, and a non-finite value of g raises
:class:`NonConvergence` rather than moving the bracket.

Everything is deterministic: fixed node counts, fixed refinement policy, no
randomness.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ._quadrule import CHEB_FIT, N_HI, NODES_HI, WEIGHTS_HI, WEIGHTS_LO
from .errors import BracketInvalid, NoCrossing, NonConvergence

__all__ = [
    "QuadratureResult",
    "Bracket",
    "chebyshev_pieces",
    "eval_pieces",
    "initial_pieces",
    "piece_nodes",
    "land_pieces",
    "piece_integrals",
    "integrate",
    "invert_increasing",
    "find_level_crossing",
]

#: hard cap on panel splitting depth before giving up
_MAX_SPLIT_DEPTH = 48
#: hard cap on total accepted panels (runaway guard)
_MAX_PANELS = 200_000
#: a rejected piece whose 17/33 error is within this fraction of its weighted
#: values (2^10 ulps) is at the noise floor of its integrand's evaluation
_ROUNDING_FLOOR = 1024 * np.finfo(np.float64).eps
#: pieces accepted at the resolution limit with their error above their
#: share: a jump in f costs one, noise above the tolerance one per piece
_MAX_FORCED = 8
#: integral coefficients lead each piece's row, after lo and hi
_NB = N_HI + 2
_CHEB_K = np.arange(_NB, dtype=np.float64)
#: a landed piece: (lo, hi, integral coefficients, f coefficients)
Piece = tuple[float, float, np.ndarray, np.ndarray]
#: a landed interval: its one piece, or the right edges of all its pieces
#: but the last and the pieces
Landed = Piece | tuple[list[float], tuple[Piece, ...]]


@dataclass(frozen=True)
class QuadratureResult:
    """Value with its accumulated error estimate and cost."""

    value: float
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class Bracket:
    """Closed interval [lo, hi] known to contain the sought point; its width is finite."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (self.lo <= self.hi) or not math.isfinite(self.hi - self.lo):
            raise BracketInvalid(f"bad bracket [{self.lo}, {self.hi}]")


def initial_pieces(a: float, b: float, min_wavelength: float | None) -> list[float]:
    """The edges a = e_0 < ... < e_n = b of [a < b]'s initial pieces.

    Equal pieces no wider than half of ``min_wavelength`` (one piece when it
    is None); :func:`_pieces` starts from them, and :func:`piece_nodes` gives
    their nodes.
    """
    width = b - a
    n0 = 1
    if min_wavelength is not None and min_wavelength > 0.0:
        n0 = max(1, math.ceil(width / (0.5 * min_wavelength)))
    return [a + width * i / n0 for i in range(n0 + 1)]


def piece_nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The 33 Clenshaw-Curtis nodes of each piece [lo, hi], one row a piece.

    Bit for bit the nodes :func:`_pieces` evaluates a piece at, so values
    computed here for many pieces at once can start its loop.
    """
    lo, hi = lo[:, None], hi[:, None]
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * NODES_HI


def _pieces(
    fvals: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float,
    min_wavelength: float | None,
    first: np.ndarray | None = None,
) -> Iterator[tuple[float, np.ndarray]]:
    """The package's one quadrature policy: (error, row) per accepted piece of [a < b].

    Each piece [lo, hi] gets one batch of f at its 33 Clenshaw-Curtis nodes,
    in x = (2t - lo - hi) / (hi - lo); its error is the 17/33 difference and
    its row is ``[lo, hi, b_0..b_33, c_0..c_32]``, where c are the Chebyshev
    coefficients of f and b those of its integral from lo, in t units (the
    piece's integral is sum(b), since T_m(1) = 1).

    [a, b] starts as its :func:`initial_pieces`, sharing ``tol`` equally;
    ``first``, when given, holds their values, one row a piece at its
    :func:`piece_nodes`, and every other piece gets its own batch.  A piece
    whose error exceeds its share is halved, and each half gets half the
    share.  Pieces are processed depth-first, so
    rows come left to right.  A piece is also accepted at the resolution
    limit (width <= 1e-14 |lo|), which a jump in f reaches.  Raises
    :class:`NonConvergence` when a rejected piece's error is at the rounding
    floor of its own weighted values (noise shrinks with the width, as the
    share does, so halving cannot help), when more than _MAX_FORCED pieces
    reach the resolution limit above their share (noise that stays above
    it, where the floor test misses), past depth 48, or past _MAX_PANELS
    accepted pieces.
    """
    edges = initial_pieces(a, b, min_wavelength)
    n0 = len(edges) - 1
    # stack of (lo, hi, tol_share, depth, values or None); deterministic LIFO processing
    stack = [(edges[i], edges[i + 1], tol / n0, 0, None if first is None else first[i])
             for i in range(n0 - 1, -1, -1)]
    err_total = 0.0
    panels = 0
    forced = 0
    while stack:
        lo, hi, tshare, depth, v = stack.pop()
        half = 0.5 * (hi - lo)
        if v is None:
            v = fvals(0.5 * (lo + hi) + half * NODES_HI)
        err = abs(float(WEIGHTS_HI @ v) - float(WEIGHTS_LO @ v[::2])) * half
        if not math.isfinite(err):
            raise NonConvergence(f"non-finite error {err} at [{lo}, {hi}]", achieved=err)
        if err <= tshare or (hi - lo) <= 1e-14 * max(1.0, abs(lo)):
            if err > tshare:
                forced += 1
                if forced > _MAX_FORCED:
                    raise NonConvergence(f"{forced} pieces at the resolution limit on "
                                         f"[{a}, {b}] (err {err:.3e})", achieved=err)
            err_total += err
            panels += 1
            if panels > _MAX_PANELS:
                raise NonConvergence(
                    f"panel budget exceeded on [{a}, {b}]", achieved=err_total
                )
            coef = CHEB_FIT @ v
            coef[:_NB] *= half
            yield err, np.concatenate(([lo, hi], coef))
            continue
        if err <= _ROUNDING_FLOOR * half * float(WEIGHTS_HI @ np.abs(v)):
            raise NonConvergence(
                f"rounding floor at [{lo}, {hi}] (err {err:.3e} > {tshare:.3e})",
                achieved=err,
            )
        if depth >= _MAX_SPLIT_DEPTH:
            raise NonConvergence(
                f"splitting depth exceeded at [{lo}, {hi}] (err {err:.3e} > {tshare:.3e})",
                achieved=err,
            )
        mid = 0.5 * (lo + hi)
        stack.append((mid, hi, 0.5 * tshare, depth + 1, None))
        stack.append((lo, mid, 0.5 * tshare, depth + 1, None))


def adaptive_panels(
    fvals: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float,
    min_wavelength: float | None = None,
) -> tuple[float, float, int]:
    """Adaptive 17/33 quadrature: (value, error estimate, evaluations).

    ``fvals`` maps the 33 nodes of a piece to the integrand's values there;
    :func:`_pieces` does the rest, and the value is the sum of its pieces'
    integrals.
    """
    if a == b:
        return 0.0, 0.0, 0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    evals = 0

    def counted(ts: np.ndarray) -> np.ndarray:
        nonlocal evals
        evals += ts.shape[0]
        return fvals(ts)

    total = 0.0
    err_total = 0.0
    for err, row in _pieces(counted, a, b, tol, min_wavelength):
        total += float(piece_integrals(row))
        err_total += err
    return sign * total, err_total, evals


def chebyshev_pieces(
    fvals: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float,
    min_wavelength: float | None = None,
    first: np.ndarray | None = None,
) -> np.ndarray:
    """Piecewise Chebyshev interpolant of f on [a < b] and of its integral.

    One row per piece accepted by :func:`_pieces`, left to right:
    ``[lo, hi, b_0..b_33, c_0..c_32]``.  The pieces are exactly those
    :func:`adaptive_panels` sums, so the rows' integrals add up to its value.
    ``first``, when given, holds f at the :func:`piece_nodes` of the
    :func:`initial_pieces`, one row a piece, so that a caller can evaluate
    many spans' first pieces in one batch.
    """
    return np.array([row for _err, row in _pieces(fvals, a, b, tol, min_wavelength, first)])


def piece_integrals(rows: np.ndarray) -> np.ndarray:
    """Each piece's integral (a scalar for one row): T_m(1) = 1, so the sum of b."""
    return rows[..., 2:2 + _NB].sum(axis=-1)


def land_pieces(rows: np.ndarray, total: float, width: float) -> Landed:
    """Rows landed to integrate from the first lo and total ``total``, in the form
    :func:`eval_pieces` reads.

    The shortfall delta lands as a linear term over ``width`` (the rows' span);
    its slope joins f, which stays the integral's derivative.  The rows are
    shifted in place on the way and then dropped: each piece keeps its
    bounds as floats and its integral and f coefficients as vectors of their
    own.  One piece is the landed interval; more come with the right edges
    of all but the last, to bisect.
    """
    b = rows[:, 2:2 + _NB]
    ints = piece_integrals(rows)
    delta = total - float(ints.sum())
    share = delta * (rows[:, 1] - rows[:, 0]) / width
    # the integral at each piece's left end, then the linear term
    b[:, 0] += np.cumsum(ints + share) - (ints + share) + 0.5 * share
    b[:, 1] += 0.5 * share
    rows[:, 2 + _NB] += delta / width
    los, his = rows[:, 0].tolist(), rows[:, 1].tolist()
    pieces = tuple((lo, hi, row[2:2 + _NB].copy(), row[2 + _NB:].copy())
                   for lo, hi, row in zip(los, his, rows))
    return pieces[0] if len(pieces) == 1 else (his[:-1], pieces)


def eval_pieces(landed: Landed, t: float) -> tuple[float, float]:
    """(integral as landed, f) at t from one basis, read from :func:`land_pieces`."""
    if len(landed) == 2:
        edges, pieces = landed
        # the last edge is left out, so t past it reads the last piece
        landed = pieces[bisect.bisect_left(edges, t)]
    lo, hi, b, c = landed
    # clamped as min(1.0, max(-1.0, x)) clamps: rounding can put t a few
    # ulps outside its piece
    x = (2.0 * t - lo - hi) / (hi - lo)
    x = x if x > -1.0 else -1.0
    x = x if x < 1.0 else 1.0
    basis = np.cos(math.acos(x) * _CHEB_K)
    return float(basis @ b), float(basis[:-1] @ c)


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    min_wavelength: float | None = None,
) -> QuadratureResult:
    """Integrate f over [a, b] to absolute tolerance ``tol``.

    ``min_wavelength``, when given, caps the initial panel width at half the
    shortest oscillation the integrand contains; adaptivity then only ever
    shrinks panels further.  Raises :class:`NonConvergence` when the tolerance
    cannot be met within the splitting-depth budget.
    """
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    return QuadratureResult(*adaptive_panels(
        lambda xs: np.array([f(x) for x in xs.tolist()]), a, b, tol, min_wavelength
    ))


def _finite(fx: float, x: float) -> float:
    """fx = g(x), or :class:`NonConvergence` when it is NaN or infinite.

    A root loop cannot place a non-finite value on either side of a sign
    change: compared with 0 a NaN reads as "not negative", which would
    silently move the bracket.
    """
    if not math.isfinite(fx):
        raise NonConvergence(f"g({x!r}) = {fx!r} is not finite; no root can be bracketed")
    return fx


def _itp(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    f_lo: float,
    f_hi: float,
    tol: float,
) -> float:
    """The package's one root loop: ITP on [lo, hi], where g changes sign.

    f_lo = g(lo) and f_hi = g(hi) are nonzero with opposite signs.  Each step
    interpolates (the regula falsi point), truncates (moves it kappa1 w^2
    towards the midpoint; kappa2 = 2, kappa1 = 0.2 / w0 for the starting
    width w0), then projects it to within r of the midpoint (Oliveira &
    Takahashi, ACM TOMS 47(1), 2021; n0 = 0).  The slack s is what still lets
    the width reach tol within n_max steps, bisection's own count, so no g
    costs more steps than bisection (which can stop sooner only when a
    midpoint hits an exact zero), and a smooth g converges
    superlinearly.  r is 3/4 of s: with n0 = 0, a step that spent all of s
    and landed on the root's near side would leave none, and every later
    step would be a bisection (a reverse step next to a zero of Z then
    took all 36 steps; with the reserve it takes at most 13).  Three guards
    against rounding:

    * the slack is sized for a final width of tol less one ulp of the
      bracket, the most the projected point's rounding can add, and r is
      clamped at 0 (a bisection step);
    * n_max allows for bisection's rounding as well: inside that ulp band
      every step is bisection's own midpoint;
    * the truncation is at least tol / 10: one below the spacing of doubles
      near the root rounds back onto the regula falsi point, and the last
      steps could then never land across the root.

    Stops when the width is <= tol or the midpoint no longer lies strictly
    inside (the double-precision floor) and returns the final midpoint; an
    exact zero g(x) == 0 returns x at once.  Signs are compared, never
    multiplied, so values near the underflow threshold keep them; a
    non-finite value raises :class:`NonConvergence`.
    """
    _finite(f_lo, lo)
    _finite(f_hi, hi)
    w0 = hi - lo
    if not w0 > tol:
        return 0.5 * (lo + hi)
    # bisection's count: rounding its midpoints moves its widths by up to one
    # ulp, so it can finish once w0 <= (tol + ulp) 2^n
    ulp = math.ulp(max(abs(lo), abs(hi)))
    n_max = math.ceil(math.log2(w0) - math.log2(tol + ulp))
    while math.ldexp(tol + ulp, n_max) < w0:
        n_max += 1
    while n_max > 0 and math.ldexp(tol + ulp, n_max - 1) >= w0:
        n_max -= 1
    eps = 0.5 * tol - ulp
    kappa1 = 0.2 / w0
    lo_negative = f_lo < 0.0
    j = 0
    while hi - lo > tol:
        w = hi - lo
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        r = 0.75 * max(math.ldexp(eps, n_max - j) - 0.5 * w, 0.0)
        # regula falsi; f_lo / (f_lo - f_hi) lies in [0, 1] with no underflow
        x_f = lo + w * (f_lo / (f_lo - f_hi))
        d = mid - x_f
        delta = max(kappa1 * w * w, 0.1 * tol)
        x = x_f + math.copysign(delta, d) if delta <= abs(d) else mid
        if abs(x - mid) > r:
            x = mid - math.copysign(r, d)
        if not lo < x < hi:
            x = mid
        fx = _finite(g(x), x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == lo_negative:
            lo, f_lo = x, fx
        else:
            hi, f_hi = x, fx
        j += 1
    return 0.5 * (lo + hi)


def invert_increasing(
    g: Callable[[float], float],
    bracket: Bracket,
    target: float,
    tol: float,
) -> float:
    """Solve g(x) = target for strictly increasing g on the bracket.

    :func:`_itp` from the bracket to a width <= tol, returning the final
    midpoint: a handful of steps on a smooth g, and never more than
    bisection's ceil(log2(width / tol)) whatever g's shape.  The endpoint
    values must enclose the target or :class:`BracketInvalid` is raised; a
    non-finite value of g raises :class:`NonConvergence`.
    """
    lo, hi = bracket.lo, bracket.hi
    glo = g(lo) - target
    ghi = g(hi) - target
    if glo > 0.0 or ghi < 0.0:
        raise BracketInvalid(
            f"target {target!r} not enclosed: g({lo!r})-target={glo!r}, g({hi!r})-target={ghi!r}"
        )
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    return _itp(lambda x: g(x) - target, lo, hi, glo, ghi, tol)


def find_level_crossing(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    level: float,
    scan_points: int = 64,
    tol: float = 1e-11,
    refine_max: int = 8,
) -> float:
    """Leftmost x in the open interval (lo, hi) with g(x) = level.

    A uniform scan over ``scan_points`` interior samples looks for the first
    sign change of g - level; if none is found the scan density is doubled up
    to ``refine_max`` times before :class:`NoCrossing` is raised.  The first
    sign-changing sub-interval is polished by :func:`_itp` to width <= tol
    and the midpoint returned: between zeros of Z the chain weights are
    smooth, so the polish takes a handful of steps, and never more than
    bisection's ceil(log2(width / tol)).  An exact hit g(x) == level returns
    that x at once (a constant-offset g therefore returns the leftmost scan
    point, the documented tie-break).  A non-finite sample raises
    :class:`NonConvergence`.
    """
    if not (hi > lo):
        raise BracketInvalid(f"empty interval ({lo}, {hi})")
    def f(x: float) -> float:
        return g(x) - level

    n = max(2, scan_points)
    for _ in range(refine_max + 1):
        h = (hi - lo) / (n + 1)
        x_prev = lo + h
        f_prev = _finite(f(x_prev), x_prev)
        if f_prev == 0.0:
            return x_prev
        for i in range(2, n + 1):
            x = lo + i * h
            fx = _finite(f(x), x)
            if fx == 0.0:
                return x
            if (f_prev < 0.0) != (fx < 0.0):
                return _itp(f, x_prev, x, f_prev, fx, tol)
            x_prev, f_prev = x, fx
        n *= 2
    raise NoCrossing(
        f"no crossing of level {level!r} on ({lo!r}, {hi!r}) after {refine_max} refinements"
    )
