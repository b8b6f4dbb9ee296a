"""The second-moment ladder: cumulative Z^2 mass and its normalizer inverse.

The model has three ingredients:

* the **normalizer** V(y) = y log y + (gamma - log 2pi) y, the leading shape
  of the mean-square integral of Z; V'(y) = log y + 1 + gamma - log 2pi is
  positive for y > 2 pi e^{-1-gamma} ~= 1.3, so V is invertible on the working
  domain;
* the **cumulative mass** A(T) = integral of Z(u)^2 over [0, T], maintained as
  a knot table at the fixed spacing h = 0.5, extendable in place without
  disturbing existing knots, up to the last knot at or below t_table_max
  (:attr:`LadderModel.top_knot`).  Each knot interval [j h, (j + 1) h] has one
  **fit**, the package's one Z^2 quadrature: rows of Z^2 and its integral
  from ``numerics.chebyshev_pieces``, one span for each of the interval's
  pieces on a stretch where Z^2 keeps one formula (``zeta.zsq_stretches``),
  pieces halved while their 17/33 difference exceeds their share of
  quad_tol * h.  A new knot adds the sum of its interval's piece integrals;
  a call that adds many knots fits up to 16 intervals in one array pass
  (``numerics.chebyshev_spans``): their first pieces in one Z batch per
  route, tested and integrated together, no rows kept, the splitting loop
  run only for a span whose first pieces miss their share.
  :meth:`LadderModel.extend_on` deals such chunks to a process pool's
  workers and appends their increments in order.  An off-knot query refits
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

The read path is short: a height maps to its knot interval by one rule,
``_first_knot``, the ceiling of t / h (exact, as h is a power of two);
``_landed`` gives that interval's landed form, fitting it on
first use; and ``numerics.eval_pieces`` reads it.  ``cumulative_hl`` is the
one reader of A: a knot reads its value, any other t one ``eval_pieces``.
One **ladder step**, ``step(t) -> (phi1(t), omega(t), ztilde_sq(t))``, is
the one forward query: one ``eval_pieces`` gives A(t) and Z(t)^2, one Newton
solve phi1, and no Z is evaluated.  ``phi1``, ``omega``, ``ztilde_sq`` and
every chain walk in :mod:`zetaladder.tower` read it: a ladder level costs
one of each.  A reverse step's root loop reads A through ``cumulative_hl``.

At working heights phi1(t) < t and the gap t - phi1(t) tracks
(1 - gamma) t / log t; both show up in the test suite as sampled properties,
not contracts.

Persistence: ``save_table``/``load_table`` write a versioned CSV ``t,a`` with
the configuration checksum and a sha256 of the knot values in header
comments; interpolants are never saved.  Loading under a different
configuration raises :class:`CacheHashMismatch` rather than silently mixing
incompatible values; a spacing header that is not the knot spacing, an
unparsable, non-finite or decreasing row, a first row that is not A(0) = 0,
a row j whose t does not read ``repr(j * spacing)``, or values that do not
match their sha256, raises :class:`CacheCorrupt`.
"""
from __future__ import annotations

import bisect
import contextlib
import hashlib
import itertools
import math
import os
from array import array
from dataclasses import dataclass, field
from typing import Any, ClassVar, Iterable, Iterator

import numpy as np

from . import zeta
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
    chebyshev_spans,
    eval_pieces,
    invert_increasing,
    land_pieces,
    rows_integral,
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
#: most knot intervals one pass serves when a call adds many knots: a
#: 33-node piece costs the RS kernel about 52 us alone and 15 us in a
#: 16-piece batch, and an interval's whole fit about 63 us alone and 19 us
#: in a chunk (t = 1000, best of 15, 2-core machine)
_CHUNK = 16


def normalizer(y: float) -> float:
    """V(y) = y log y + (gamma - log 2pi) y, for finite y > 0."""
    if not 0.0 < y < math.inf:
        raise DomainTooSmall(f"normalizer requested at y={y}, non-finite or <= 0")
    return y * math.log(y) + _V_LINEAR * y


#: V(t_min), the floor of A that a ladder step can invert
_V_MIN = normalizer(RunConfig.t_min)


def normalizer_prime(y: float) -> float:
    """V'(y) = log y + 1 + gamma - log 2pi, for finite y > 0."""
    if not 0.0 < y < math.inf:
        raise DomainTooSmall(f"normalizer_prime requested at y={y}, non-finite or <= 0")
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

    spacing: ClassVar[float] = RunConfig.knot_spacing
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
        self.table = table or CumulativeTable(config_hash=config.config_hash())
        #: knot interval j -> its landed interpolant; memory only, never saved
        self._pieces: dict[int, Landed] = {}
        #: the last knot at or below t_table_max: no table grows past it
        self.top_knot = math.floor(config.t_table_max / self.table.spacing)

    # -- cumulative mass ---------------------------------------------------

    def extend_to(self, t: float) -> None:
        """Grow the knot table to cover t; existing knots never change.

        Each new knot adds the integral of its interval's raw fit.  The new
        intervals are fitted in chunks of at most ``_CHUNK``, each in one
        pass (:meth:`knot_increments`), so a build costs far fewer kernel
        calls than it fits pieces; a call that adds one knot fits it alone.
        Every knot is bit-identical to one built alone, and a fit that
        raises leaves the table with exactly the knots below its interval.
        """
        for j0, j1 in self.missing_chunks(t):
            self.append_knots(self.knot_increments(j0, j1))

    def extend_on(self, pool: Any, workers: int, t: float) -> None:
        """:meth:`extend_to` (t) with the chunks fitted on ``pool``, stopping quietly.

        The chunks up to :attr:`top_knot` are dealt round-robin into one
        :func:`_fit_chunks` task per worker, and appended in order up to the
        first interval a worker could not fit, where ``extend_to`` raises.
        """
        chunks = self.missing_chunks(min(t, self.top_knot * self.table.spacing))
        done = pool.map(_fit_chunks, [(self.config, chunks[w::workers]) for w in range(workers)])
        fitted = itertools.chain.from_iterable(itertools.zip_longest(*done, fillvalue=[]))
        for (j0, j1), increments in zip(chunks, fitted):
            self.append_knots(increments)
            if len(increments) < j1 - j0:  # a fit raised in this chunk
                break

    def missing_chunks(self, t: float) -> list[tuple[int, int]]:
        """The knot intervals :meth:`extend_to` (t) fits, as (j0, j1) chunks.

        Chunks of at most ``_CHUNK`` intervals, from the top knot up, in
        order; empty when the table covers t.  Knots do not depend on where
        the chunks split, so :meth:`extend_on` fits them in other processes,
        in any order, and appends their increments in this order.  Raises
        TableExhausted when covering t needs a knot past :attr:`top_knot`.
        """
        need = self._first_knot(t)
        if need > self.top_knot:
            raise TableExhausted(
                f"requested coverage {t}, hard ceiling {self.config.t_table_max} "
                f"(last knot {self.top_knot * self.table.spacing!r})"
            )
        return [(j, min(j + _CHUNK, need))
                for j in range(len(self.table.values) - 1, need, _CHUNK)]

    def _first_knot(self, t: float) -> int:
        """The first knot j with j h >= t: the ceiling of t / h, for a finite t.

        h = 0.5 is a power of two, so t / h and j h are exact.  A t / h that
        is NaN or infinite has no ceiling and raises DomainTooSmall.
        """
        try:
            return math.ceil(t / self.table.spacing)
        except (ValueError, OverflowError):
            raise DomainTooSmall(f"table coverage requested at t={t}, "
                                 f"where t / h is non-finite") from None

    def knot_increments(self, j0: int, j1: int) -> Iterator[float]:
        """A((j + 1) h) - A(j h) for knot intervals j0..j1 - 1, in order.

        Each is the :func:`rows_integral` of the interval's fit.  A lone
        interval is :meth:`_raw_fit` alone.  A chunk of more is fitted by
        ``numerics.chebyshev_spans`` in one array pass over its
        :meth:`_spans`, each interval a group; the rows are dropped (kept,
        they cost ~3 MB up to t = 2200).  The table is not read, so
        :func:`_fit_chunks` fits on a bare model under the same
        configuration.  A fit that raises stops the increments at its
        interval.
        """
        if j1 - j0 == 1:
            yield rows_integral(self._raw_fit(j0))
            return
        try:
            increments = chebyshev_spans(*self._spans(j0, j1))
        except Exception:
            # a Z batch that raises (a kernel failing at some height): one
            # interval at a time, the one that holds it raises again with
            # the increments below it given, as a knot-by-knot build ends
            increments = (rows_integral(self._raw_fit(j)) for j in range(j0, j1))
        yield from increments

    def append_knots(self, increments: Iterable[float]) -> None:
        """Append one knot per increment: the top knot's value plus it."""
        vals = self.table.values
        for inc in increments:
            vals.append(vals[-1] + inc)

    def _raw_fit(self, j: int) -> np.ndarray:
        """Z^2 on knot interval j as chebyshev_pieces rows, one stretch at a time.

        The one Z^2 quadrature.  The interval is cut at its
        ``zeta.zsq_stretches``, on each of which Z^2 has one formula: the
        eta series below the switch, Riemann-Siegel above it, cut at each
        jump of that formula.  So no span mixes two routes, whose values
        differ by the RS error, or straddles a jump.  Each span shares the
        tolerance by its width, and its initial pieces are capped at half the
        shortest Z wavelength.
        """
        h, quad_tol = self.table.spacing, self.config.quad_tol
        wavelength = _min_wavelength((j + 1) * h)
        rows = [chebyshev_pieces(zsq, lo, hi, quad_tol * (hi - lo), wavelength)
                for zsq, lo, hi in zeta.zsq_stretches(j * h, (j + 1) * h)]
        return rows[0] if len(rows) == 1 else np.vstack(rows)

    def _spans(self, j0: int, j1: int) -> tuple:
        """Knot intervals j0..j1 - 1 cut as :meth:`_raw_fit` cuts each, as the
        arrays ``numerics.chebyshev_spans`` takes, one group an interval.

        The chunk [j0 h, j1 h] is asked once for its stretches, and each is
        cut at the knots inside it.  No jump's cut falls on a knot, so the
        spans are every interval's own, with the same tolerance and initial
        pieces, and each increment is bit for bit its interval's fitted
        alone.  The wavelength falls with t, so while half of it at the
        chunk's top spans a whole interval, every span is one piece.
        """
        h = self.table.spacing
        stretches = zeta.zsq_stretches(j0 * h, j1 * h)
        if len(stretches) == 1:  # no interval is cut
            knots = np.arange(j0, j1 + 1) * h
            runs, lo, hi = [(stretches[0][0], j1 - j0)], knots[:-1], knots[1:]
            group = np.arange(j1 - j0)
        else:
            knots = [j * h for j in range(j0, j1 + 1)]
            runs, lo, hi = [], [], []
            for zsq, a, b in stretches:
                inner = knots[bisect.bisect_right(knots, a):bisect.bisect_left(knots, b)]
                runs.append((zsq, len(inner) + 1))
                lo += [a, *inner]
                hi += [*inner, b]
            lo, hi = np.array(lo), np.array(hi)
            group = (lo // h).astype(np.intp) - j0
        width = hi - lo
        if 0.5 * _min_wavelength(j1 * h) >= h:  # below t ~ 3360 no span is split
            n0 = np.ones(lo.size, np.intp)
        else:  # at its interval's top, as _raw_fit caps it
            wavelength = np.array([_min_wavelength(b) for b in ((group + (j0 + 1)) * h).tolist()])
            n0 = np.ceil(width / (0.5 * wavelength)).astype(np.intp)  # >= 1: no span is empty
        return runs, lo, hi, self.config.quad_tol * width, n0, group

    def _landed(self, j: int) -> Landed:
        """Knot interval j in the form :func:`eval_pieces` reads, landed on first use.

        The fit lands on the knots (a loaded table's knots are not trusted to
        equal it) and is kept; dA/dt = Z^2 holds on it.
        """
        landed = self._pieces.get(j)
        if landed is None:
            vals = self.table.values
            landed = self._pieces[j] = land_pieces(
                self._raw_fit(j), vals[j + 1] - vals[j], self.table.spacing)
        return landed

    def cumulative_hl(self, t: float) -> float:
        """A(t), the one reader of A: a knot's value (no fit), else one :func:`eval_pieces`."""
        if t < 0.0:
            raise DomainTooSmall(f"cumulative mass requested at t={t} < 0")
        j = self._first_knot(t)
        if j >= len(self.table.values):
            self.extend_to(t)
        vals = self.table.values
        if j * self.table.spacing == t:
            return vals[j]
        # a landed interval is a non-empty tuple; None is one not landed yet
        return vals[j - 1] + eval_pieces(self._pieces.get(j - 1) or self._landed(j - 1), t)[0]

    # -- forward map and friends --------------------------------------------

    def step(self, t: float) -> tuple[float, float, float]:
        """(phi1(t), omega(t), ztilde_sq(t)): one read, then V^{-1}(A(t)) by Newton.

        One :func:`eval_pieces` gives Z(t)^2 and A(t) as :meth:`cumulative_hl`
        (t) reads it.  Newton starts from max(t, t_min): V is convex and
        increasing above t_min, so from above it converges monotonically; t
        itself lies above the root at working heights.  Each Newton step
        takes V(y) and V'(y) from one log.  It stops at |dy| <= root_tol / 4,
        or, from step 8 on, when an iterate repeats: the iterates then cycle
        at the rounding floor, and the smallest of the cycle is phi1.  Raises
        DomainTooSmall below t_start, at a NaN or infinite t and when A(t) <
        V(t_min), and NonConvergence when 64 steps do neither.
        """
        cfg = self.config
        if t < cfg.t_start:
            raise DomainTooSmall(f"phi1 requested at t={t}: needs t >= "
                                 f"t_start={cfg.t_start}")
        j = self._first_knot(t)  # raises at a NaN or infinite t
        if j >= len(self.table.values):
            self.extend_to(t)
        vals = self.table.values
        integral, zsq = eval_pieces(self._pieces.get(j - 1) or self._landed(j - 1), t)
        a = vals[j] if j * self.table.spacing == t else vals[j - 1] + integral
        if a < _V_MIN:
            raise DomainTooSmall(f"A({t})={a} below normalizer floor "
                                 f"V({cfg.t_min})={_V_MIN}")
        t_min, tol, log = cfg.t_min, 0.25 * cfg.root_tol, math.log
        y = max(t, t_min)
        late: list[float] = []  # the iterates from step 8 on
        for i in range(64):
            # (normalizer(y) - a) / normalizer_prime(y), one log for both
            log_y = log(y)
            dy = (y * log_y + _V_LINEAR * y - a) / (log_y + 1.0 + EULER_GAMMA - _LOG_TWO_PI)
            y -= dy
            if y < t_min:  # max(y, t_min); a NaN stays NaN
                y = t_min
            if abs(dy) <= tol:
                break
            if i >= 8:
                if y in late:  # a cycle at the rounding floor
                    y = min(late[late.index(y):])
                    break
                late.append(y)
        else:
            raise NonConvergence(f"V^-1(A({t})={a}) did not converge in 64 Newton steps")
        om = log(y) + 1.0 + EULER_GAMMA - _LOG_TWO_PI
        return y, om, zsq / om

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
        V(x).  A fit that raises fails the step only if the knots below its
        interval fall short of V(x), whatever chunk it came in.

        The first knot j with A(j h) >= V(x) closes the knot interval
        [(j-1) h, j h].  ``invert_increasing`` narrows it to root_tol,
        reading A with :meth:`cumulative_hl`: the bracket's ends are knots,
        and the root loop's u read the root's interval, landed on its first
        read.  The loop makes about 9 such reads on average (x from 400 to
        2000), and never more than bisection's ceil(log2(h / root_tol)), 36
        at the defaults.
        """
        cfg = self.config
        if x < cfg.t_min:
            raise DomainTooSmall(f"reverse_step requested at x={x} < t_min={cfg.t_min}")
        target = normalizer(x)  # raises at a non-finite x
        h = self.table.spacing
        vals = self.table.values
        while vals[-1] < target:
            top = len(vals) - 1
            try:  # one past top_knot makes extend_to raise
                self.extend_to(max(min(top + _CHUNK, self.top_knot), top + 1) * h)
            except Exception:  # extend_to kept the knots below the failing fit
                if vals[-1] < target:
                    raise
        j = bisect.bisect_left(vals, target, 1)
        return invert_increasing(self.cumulative_hl, Bracket((j - 1) * h, j * h), target,
                                 cfg.root_tol)

    # -- persistence ---------------------------------------------------------

    def default_cache_path(self) -> str:
        d = self.config.resolve_cache_dir()
        return os.path.join(d, f"table_{self.table.config_hash}.csv")

    def save_table(self, path: str | None = None) -> str:
        path = path or self.default_cache_path()
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        # a name no other writer of path uses; "x" creates it as "w" would
        tmp = f"{path}.{os.urandom(6).hex()}.tmp"
        try:
            with open(tmp, "x") as fh:
                fh.write(f"# {TABLE_FORMAT}\n")
                fh.write(f"# config_hash={self.table.config_hash}\n")
                fh.write(f"# spacing={self.table.spacing!r}\n")
                fh.write(f"# values_sha256={_values_digest(self.table.values)}\n")
                fh.write("t,a\n")
                for j, v in enumerate(self.table.values):
                    fh.write(f"{j * self.table.spacing!r},{v!r}\n")
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
        return path

    @classmethod
    def load_table(cls, path: str, config: RunConfig = DEFAULT_CONFIG) -> "LadderModel":
        header: dict[str, str] = {}
        ts: list[str] = []
        values = array("d")
        try:
            with open(path, encoding="utf-8") as fh:
                first = fh.readline().strip()
                if first != f"# {TABLE_FORMAT}":
                    raise CacheHashMismatch(f"table {path}: unrecognized format line {first!r}")
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
        except UnicodeDecodeError:
            raise CacheCorrupt(f"table {path} is not UTF-8 text") from None
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
                               f"knot spacing {config.knot_spacing!r}")
        for j, t in enumerate(ts):
            if t != repr(j * spacing):
                raise CacheCorrupt(f"table {path}: row {j} has t={t!r}, "
                                   f"expected {j * spacing!r}")
        if header.get("values_sha256") != _values_digest(values):
            raise CacheCorrupt(f"table {path}: values do not match their checksum")
        table = CumulativeTable(config_hash=got, values=values)
        return cls(config=config, table=table)


def _fit_chunks(task: tuple[RunConfig, list[tuple[int, int]]]) -> list[list[float]]:
    """One :meth:`LadderModel.extend_on` task: each chunk's increments, on a bare model."""
    config, chunks = task
    model = LadderModel(config)
    done: list[list[float]] = []
    for j0, j1 in chunks:
        done.append([])
        try:
            done[-1].extend(model.knot_increments(j0, j1))
        except Exception:  # a fit that raises: extend_on stops at its interval
            break
    return done
