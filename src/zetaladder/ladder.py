"""The second-moment ladder: cumulative Z^2 mass and its normalizer inverse.

The model has three ingredients:

* the **normalizer** V(y) = y log y + (gamma - log 2pi) y, the leading shape
  of the mean-square integral of Z; V'(y) = log y + 1 + gamma - log 2pi is
  positive for y > 2 pi e^{-1-gamma} ~= 1.3, so V is invertible on the working
  domain;
* the **cumulative mass** A(T) = integral of Z(u)^2 over [0, T], maintained as
  a knot table (spacing <= 2, default 0.5), extendable in place without
  disturbing existing knots.  Each knot interval [j h, (j + 1) h] has one
  **fit**, the package's one Z^2 quadrature: ``numerics.chebyshev_pieces``
  rows of Z^2 and its integral, pieces halved while their 17/33 difference
  exceeds their share of quad_tol * h.  A new knot adds the sum of its
  interval's piece integrals and drops the rows; a call that adds many
  knots evaluates the first pieces of up to 16 intervals in one Z batch,
  and a scan's pool fits such chunks in its workers, appended here in
  order (:meth:`LadderModel.knot_increments`).  An off-knot query refits
  the interval, lands it on its knots and keeps it in memory in the form a
  lookup reads (about 0.9 KB a piece), so A is continuous, exact at knots,
  within quadrature tolerance between them, and one polynomial evaluation
  gives A and Z^2;
* the **forward map** phi1(t) = V^{-1}(A(t)), whose derivative is exactly
  ztilde_sq(t) = Z(t)^2 / V'(phi1(t)) -- inside the model too, since Z^2 is
  the derivative of the interpolated A; the **reverse step** solves
  A(u) = V(x) on the one knot interval that holds the root, where A is one
  interpolant, so the root loop (ITP) takes a handful of steps, and
  phi1(reverse_step(x)) = x up to the solver tolerances.

One **ladder step**, ``step(t) -> (phi1(t), omega(t), ztilde_sq(t))``, is the
one forward query: one lookup gives A(t) and Z(t)^2, one Newton solve phi1,
and no Z is evaluated.  ``phi1``, ``omega``, ``ztilde_sq`` and every chain
walk in :mod:`zetaladder.tower` read it: a ladder level costs one of each.

At working heights phi1(t) < t and the gap t - phi1(t) tracks
(1 - gamma) t / log t; both show up in the test suite as sampled properties,
not contracts.

Persistence: ``save_table``/``load_table`` write a versioned CSV ``t,a`` with
the configuration checksum and a sha256 of the knot values in header
comments; interpolants are never saved.  Loading under a different
configuration raises :class:`CacheHashMismatch` rather than silently mixing
incompatible values; a spacing header that is not the configured knot
spacing, an unparsable, non-finite or decreasing row, a first row that is not
A(0) = 0, a row j whose t does not read ``repr(j * spacing)``, or values that
do not match their sha256, raises :class:`CacheCorrupt`.
"""
from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import os
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from . import _kernels, zeta
from .config import DEFAULT_CONFIG, EULER_GAMMA, TABLE_FORMAT, RunConfig
from .errors import (
    CacheCorrupt,
    CacheHashMismatch,
    DomainTooSmall,
    NonConvergence,
    TableExhausted,
)
from .numerics import (
    Bracket,
    Landed,
    chebyshev_pieces,
    eval_pieces,
    initial_pieces,
    invert_increasing,
    land_pieces,
    piece_integrals,
    piece_nodes,
)

__all__ = [
    "CumulativeTable",
    "LadderModel",
    "mean_square_climb",
    "normalizer",
    "normalizer_prime",
]

_LOG_TWO_PI = math.log(2.0 * math.pi)
#: V(y) = y log y + _V_LINEAR y
_V_LINEAR = EULER_GAMMA - _LOG_TWO_PI
#: most knot intervals one Z batch per route serves when a call adds many
#: knots: a 33-node piece costs the RS kernel about 135 us alone and 50 us
#: in a chunk's batch (traced scan, 2-core machine)
_CHUNK = 16


def normalizer(y: float) -> float:
    """V(y) = y log y + (gamma - log 2pi) y, for y > 0."""
    if y <= 0.0:
        raise DomainTooSmall(f"normalizer requested at y={y} <= 0")
    return y * math.log(y) + _V_LINEAR * y


def normalizer_prime(y: float) -> float:
    """V'(y) = log y + 1 + gamma - log 2pi, for y > 0."""
    if y <= 0.0:
        raise DomainTooSmall(f"normalizer_prime requested at y={y} <= 0")
    return math.log(y) + 1.0 + EULER_GAMMA - _LOG_TWO_PI


def mean_square_climb(x: float, depth: int) -> float:
    """x after ``depth`` reverse steps predicted by the mean-square law.

    The ladder rests on integral_0^T Z^2 = T log(T/2pi) + (2 gamma - 1) T
    + O(T^1/2) (Hardy-Littlewood, Ingham), so one reverse step, the u with
    A(u) = V(x), is predicted by the root of that leading part Abar(u) =
    V(x).  Abar is convex and increasing above 2pi e^{-2 gamma}, and Newton
    from max(x, 2pi) settles in a few steps.  A prediction, not a bound: a
    tower top lands within about 1 % of it at working heights.  It is the
    package's one growth predictor: a scan's pool fits the table up to it,
    while a reverse step grows the table by whole chunks.
    """
    u = x
    for _ in range(depth):
        target, u = normalizer(u), max(u, 2.0 * math.pi)
        for _ in range(64):
            log_u = math.log(u) - _LOG_TWO_PI + 2.0 * EULER_GAMMA
            du = (u * (log_u - 1.0) - target) / log_u
            u -= du
            if abs(du) <= 1e-12 * u:
                break
    return u


def _min_wavelength(b: float) -> float:
    """Shortest Z oscillation scale on [0, b]: 2 pi / log(b / 2pi), floored."""
    return 2.0 * math.pi / max(0.5, math.log(max(b, 7.0) / (2.0 * math.pi)))


def _values_digest(values: array) -> str:
    """sha256 of the knot values' bytes: the saved table's content checksum."""
    return hashlib.sha256(values.tobytes()).hexdigest()


def _parse_float(path: str, text: str) -> float:
    try:
        val = float(text)
    except ValueError:
        raise CacheCorrupt(f"table {path}: unparsable number {text!r}") from None
    if not math.isfinite(val):
        raise CacheCorrupt(f"table {path}: non-finite number {text!r}")
    return val


@dataclass
class CumulativeTable:
    """Knot table for A(T): values[j] = A(j * spacing), append-only, 8 B a knot."""

    spacing: float
    config_hash: str
    values: array = field(default_factory=lambda: array("d", [0.0]))

    @property
    def t_covered(self) -> float:
        return (len(self.values) - 1) * self.spacing


class LadderModel:
    """Cumulative mass, forward map, and reverse step under one configuration.

    Not thread-safe (the table extends lazily); scan-level parallelism forks
    processes instead.
    """

    def __init__(self, config: RunConfig = DEFAULT_CONFIG,
                 table: CumulativeTable | None = None):
        self.config = config
        if table is not None and table.config_hash != config.config_hash():
            raise CacheHashMismatch(
                f"table built under {table.config_hash}, config is {config.config_hash()}"
            )
        self.table = table or CumulativeTable(
            spacing=config.knot_spacing, config_hash=config.config_hash()
        )
        #: knot interval j -> its landed interpolant; memory only, never saved
        self._pieces: dict[int, Landed] = {}
        #: V(t_min), the floor of A that step can invert; set by the first step
        self._v_min: float | None = None

    # -- cumulative mass ---------------------------------------------------

    def extend_to(self, t: float) -> None:
        """Grow the knot table to cover t; existing knots never change.

        Each new knot adds the integral of its interval's raw fit.  The new
        intervals are fitted in chunks of at most ``_CHUNK``, each chunk's
        first pieces in one Z batch per route (:meth:`_raw_fits`), so a
        build costs far fewer kernel calls than it fits pieces; a call that
        adds one knot fits it alone.  Every knot is bit-identical to one
        built alone, and a fit that raises leaves the table with exactly the
        knots below its interval.
        """
        for j0, j1 in self.missing_chunks(t):
            self.append_knots(self.knot_increments(j0, j1))

    def missing_chunks(self, t: float) -> list[tuple[int, int]]:
        """The knot intervals :meth:`extend_to` (t) fits, as (j0, j1) chunks.

        Chunks of at most ``_CHUNK`` intervals, from the top knot up, in
        order; empty when the table covers t.  Knots do not depend on where
        the chunks split, so the chunks may be fitted anywhere, in any
        order, as long as their increments are appended in this order.
        """
        if not math.isfinite(t):
            raise DomainTooSmall(f"table coverage requested at non-finite t={t}")
        if t > self.config.t_table_max:
            raise TableExhausted(
                f"requested coverage {t}, hard ceiling {self.config.t_table_max}"
            )
        need = int(math.ceil(t / self.table.spacing))
        return [(j, min(j + _CHUNK, need))
                for j in range(len(self.table.values) - 1, need, _CHUNK)]

    def knot_increments(self, j0: int, j1: int) -> Iterator[float]:
        """A((j + 1) h) - A(j h) for knot intervals j0..j1 - 1, in order.

        Each is the sum of the interval's :meth:`_raw_fits` piece integrals;
        the rows are dropped (kept, they cost ~3 MB up to t = 2200).  The
        table is not touched, so a forked process can fit a chunk for
        another's table.  A fit that raises stops the increments at its
        interval.
        """
        try:
            fits = self._raw_fits(j0, j1)
        except Exception:
            # a Z batch that raises (a kernel failing at some height): one
            # interval at a time, the one that holds it raises again with
            # the increments below it given, as a knot-by-knot build ends
            fits = (self._raw_fit(j) for j in range(j0, j1))
        for rows in fits:
            yield float(piece_integrals(rows).sum())

    def append_knots(self, increments: Iterable[float]) -> None:
        """Append one knot per increment: the top knot's value plus it."""
        vals = self.table.values
        for inc in increments:
            vals.append(vals[-1] + inc)

    def _interval(self, t: float) -> int:
        """The knot interval j with jh < t <= (j + 1)h, for t > 0, in the table.

        t / h can round up to the knot above t, or to the top knot; the
        interval below holds t then.  A t the table covers skips
        :meth:`extend_to`; NaN and +-inf still reach its typed error.
        """
        vals, h = self.table.values, self.table.spacing
        top = len(vals) - 1
        if not 0.0 < t <= top * h:
            self.extend_to(t)
            top = len(vals) - 1
        j = min(int(t / h), top)
        if t <= j * h or j == top:
            j -= 1
        return j

    def _raw_fit(self, j: int) -> np.ndarray:
        """Z^2 on knot interval j as chebyshev_pieces rows: :meth:`_raw_fits` of one."""
        return next(self._raw_fits(j, j + 1))

    def _raw_fits(self, j0: int, j1: int) -> Iterator[np.ndarray]:
        """Z^2 on knot intervals j0..j1 - 1 as chebyshev_pieces rows, in order.

        The one Z^2 quadrature, and the one place that picks the route:
        Riemann-Siegel batches, or the batched eta series for an interval
        that starts below the switch -- a piece never mixes the two, whose
        values differ by the RS error.  Nor does a piece straddle a jump of
        the RS formula: the interval is cut there first
        (``_kernels.rs_spans``), each span sharing the tolerance by its
        width.  Initial pieces are capped at half the shortest Z wavelength.

        For more than one interval, the first pieces of every span are
        evaluated here, before the first fit is yielded: one call per route,
        whose values are then taken by position.  Each span's splitting loop
        then runs alone, halves evaluated as they arise.  A height's Z^2 does
        not depend on its batch, so each fit is bit-identical to the interval
        fitted alone, which evaluates its pieces one batch each.
        """
        cfg = self.config
        h = self.table.spacing

        def rs_zsq(ts: np.ndarray) -> np.ndarray:
            z = _kernels.z_rs_many(ts, cfg.rs_terms)
            return z * z

        spans = []  # (j, a, b, wavelength, zsq), in order
        for j in range(j0, j1):
            lo, hi = j * h, (j + 1) * h
            if lo < cfg.rs_switch:
                cuts, zsq = [(lo, hi)], zeta.eta_mod_sq
            else:
                cuts, zsq = _kernels.rs_spans(lo, hi), rs_zsq
            wavelength = _min_wavelength(hi)
            spans += [(j, a, b, wavelength, zsq) for a, b in cuts]
        if j1 - j0 == 1:
            firsts = [None] * len(spans)
        else:
            firsts = []
            for zsq, group in itertools.groupby(spans, key=lambda span: span[4]):
                edges = [initial_pieces(a, b, wl) for _, a, b, wl, _ in group]
                nodes = piece_nodes(np.array([e for es in edges for e in es[:-1]]),
                                    np.array([e for es in edges for e in es[1:]]))
                vals = zsq(nodes.ravel()).reshape(nodes.shape)
                k = 0
                for es in edges:
                    firsts.append(vals[k:k + len(es) - 1])
                    k += len(es) - 1

        def fits() -> Iterator[np.ndarray]:
            for _j, group in itertools.groupby(zip(spans, firsts), key=lambda p: p[0][0]):
                rows = [chebyshev_pieces(zsq, a, b, cfg.quad_tol * (b - a), wavelength, first)
                        for (_, a, b, wavelength, zsq), first in group]
                yield rows[0] if len(rows) == 1 else np.vstack(rows)

        return fits()

    def _lookup(self, j: int, t: float) -> tuple[float, float]:
        """(A(t), Z(t)^2) for t in knot interval j; A is the knot value at a knot.

        The fit lands on the knots on first use (a loaded table's knots are not
        trusted to equal it) and is kept in the form :func:`eval_pieces`
        reads; dA/dt = Z^2 holds on it.
        """
        vals = self.table.values
        landed = self._pieces.get(j)
        if landed is None:
            landed = self._pieces[j] = land_pieces(
                self._raw_fit(j), vals[j + 1] - vals[j], self.table.spacing)
        integral, zsq = eval_pieces(landed, t)
        if (j + 1) * self.table.spacing == t:
            return vals[j + 1], zsq
        return vals[j] + integral, zsq

    def cumulative_hl(self, t: float) -> float:
        """A(t): the knot value at a knot (no fit), else its interval's interpolant."""
        if t < 0.0:
            raise DomainTooSmall(f"cumulative mass requested at t={t} < 0")
        if t == 0.0:
            return 0.0
        j = self._interval(t)
        if (j + 1) * self.table.spacing == t:
            return self.table.values[j + 1]
        return self._lookup(j, t)[0]

    # -- forward map and friends --------------------------------------------

    def step(self, t: float) -> tuple[float, float, float]:
        """(phi1(t), omega(t), ztilde_sq(t)): one lookup, then V^{-1}(A(t)) by Newton.

        Newton starts from max(t, t_min): V is convex and increasing above
        t_min, so from above it converges monotonically; t itself lies above
        the root at working heights.  Each Newton step takes V(y) and V'(y)
        from one log; V(t_min) is computed on the first step and kept.  Raises
        DomainTooSmall below t_start (or at t <= 0), when A(t) < V(t_min) or
        t_min <= 0, and NonConvergence when 64 steps do not settle to
        root_tol.
        """
        cfg = self.config
        if t < cfg.t_start or t <= 0.0:
            raise DomainTooSmall(f"phi1 requested at t={t}: needs t >= "
                                 f"t_start={cfg.t_start} and t > 0")
        a, zsq = self._lookup(self._interval(t), t)
        v_min = self._v_min
        if v_min is None:
            v_min = self._v_min = normalizer(cfg.t_min)
        if a < v_min:
            raise DomainTooSmall(f"A({t})={a} below normalizer floor "
                                 f"V({cfg.t_min})={v_min}")
        t_min, tol, log = cfg.t_min, 0.25 * cfg.root_tol, math.log
        y = max(t, t_min)
        for _ in range(64):
            # (normalizer(y) - a) / normalizer_prime(y), one log for both
            log_y = log(y)
            dy = (y * log_y + _V_LINEAR * y - a) / (log_y + 1.0 + EULER_GAMMA - _LOG_TWO_PI)
            y -= dy
            if y < t_min:  # max(y, t_min); a NaN stays NaN
                y = t_min
            if abs(dy) <= tol:
                om = log(y) + 1.0 + EULER_GAMMA - _LOG_TWO_PI
                return y, om, zsq / om
        raise NonConvergence(f"V^-1(A({t})={a}) did not converge in 64 Newton steps")

    def phi1(self, t: float) -> float:
        """V^{-1}(A(t)): the first part of :meth:`step`."""
        return self.step(t)[0]

    def omega(self, t: float) -> float:
        """Slope of the normalizer at the mapped point: V'(phi1(t)) > 0."""
        return self.step(t)[1]

    def ztilde_sq(self, t: float) -> float:
        """Z(t)^2 / omega(t) -- the exact derivative of phi1 at t."""
        return self.step(t)[2]

    def reverse_step(self, x: float) -> float:
        """The unique u with A(u) = V(x); above working heights u > x.

        A is increasing, so the knot table brackets the root.  The table
        grows toward it by whole chunks: each :meth:`extend_to` adds
        ``_CHUNK`` knots above the top one (one Z batch per route), never
        past ``t_table_max``, until the top knot reaches V(x).  So the table
        ends fewer than ``_CHUNK`` knots above the first knot that reaches
        V(x).

        The first knot j with A(j h) >= V(x) closes the knot interval
        [(j-1) h, j h].  Both ends are knots, and ``invert_increasing``
        narrows the interval to root_tol with off-knot A(t) evaluations, all
        on that one interval's interpolant: about 9 on average (x from 400
        to 2000), and never more than bisection's ceil(log2(h / root_tol)),
        36 at the defaults.
        """
        cfg = self.config
        if not math.isfinite(x):
            raise DomainTooSmall(f"reverse_step requested at non-finite x={x}")
        if x < cfg.t_min:
            raise DomainTooSmall(f"reverse_step requested at x={x} < t_min={cfg.t_min}")
        target = normalizer(x)
        h = self.table.spacing
        vals = self.table.values
        # the top knot the ceiling allows; one past it makes extend_to raise
        k_max = int(cfg.t_table_max / h)
        if k_max * h > cfg.t_table_max:
            k_max -= 1
        while vals[-1] < target:
            top = len(vals) - 1
            self.extend_to(max(min(top + _CHUNK, k_max), top + 1) * h)
        j = bisect.bisect_left(vals, target, 1)
        return invert_increasing(
            self.cumulative_hl, Bracket((j - 1) * h, j * h), target, cfg.root_tol
        )

    # -- persistence ---------------------------------------------------------

    def default_cache_path(self) -> str:
        d = self.config.resolve_cache_dir()
        return os.path.join(d, f"table_{self.table.config_hash}.csv")

    def save_table(self, path: str | None = None) -> str:
        path = path or self.default_cache_path()
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(f"# {TABLE_FORMAT}\n")
            fh.write(f"# config_hash={self.table.config_hash}\n")
            fh.write(f"# spacing={self.table.spacing!r}\n")
            fh.write(f"# values_sha256={_values_digest(self.table.values)}\n")
            fh.write("t,a\n")
            for j, v in enumerate(self.table.values):
                fh.write(f"{j * self.table.spacing!r},{v!r}\n")
        os.replace(tmp, path)
        return path

    @classmethod
    def load_table(cls, path: str, config: RunConfig = DEFAULT_CONFIG) -> "LadderModel":
        header: dict[str, str] = {}
        ts: list[str] = []
        values = array("d")
        with open(path) as fh:
            first = fh.readline().strip()
            if first != f"# {TABLE_FORMAT}":
                raise CacheHashMismatch(f"unrecognized table format line: {first!r}")
            for line in fh:
                line = line.strip()
                if line.startswith("#"):
                    key, _, val = line[1:].strip().partition("=")
                    header[key.strip()] = val.strip()
                    continue
                if line == "t,a" or not line:
                    continue
                t, _, a = line.partition(",")
                val = _parse_float(path, a)
                if val < (values[-1] if values else 0.0):
                    raise CacheCorrupt(f"table {path}: A decreases at t={t}")
                ts.append(t)
                values.append(val)
        want = config.config_hash()
        got = header.get("config_hash", "<missing>")
        if got != want:
            raise CacheHashMismatch(
                f"table {path} was built under config {got}, current is {want}"
            )
        if not values:
            raise CacheCorrupt(f"table {path} has no rows")
        if values[0] != 0.0:
            raise CacheCorrupt(f"table {path}: A(0) reads {values[0]!r}, not 0.0")
        spacing = _parse_float(path, header.get("spacing", repr(config.knot_spacing)))
        if spacing != config.knot_spacing:
            raise CacheCorrupt(f"table {path}: spacing {spacing!r} is not the "
                               f"configured knot spacing {config.knot_spacing!r}")
        for j, t in enumerate(ts):
            if t != repr(j * spacing):
                raise CacheCorrupt(f"table {path}: row {j} has t={t!r}, "
                                   f"expected {j * spacing!r}")
        if header.get("values_sha256") != _values_digest(values):
            raise CacheCorrupt(f"table {path}: values do not match their checksum")
        table = CumulativeTable(spacing=spacing, config_hash=got, values=values)
        return cls(config=config, table=table)
