"""Hardy's Z on the critical line: Z(t) = e^{i theta(t)} zeta(1/2 + it).

Two evaluation routes, switched at the constant ``RunConfig.rs_switch`` (t = 100):

* **rs** -- Riemann-Siegel main sum plus the four correction terms that
  `_kernels._CT` tabulates.  Absolute error is bounded by
  :func:`_kernels.err_bound_rs`, below 1e-6 for every t in [100, RS_CEILING]
  (1.9999e7); above it the bound's 5e-14 t floor passes 1e-6, and
  :func:`hardy_z`, :func:`zeta_mod_sq` and :func:`err_bound` raise RangeTooLarge.
* **eta** -- the alternating series for the Dirichlet eta function with
  Borwein's acceleration weights, converted through
  zeta(s) = eta(s) / (1 - 2^{1-s}).  Cost grows linearly with t, accuracy sits
  at rounding level; only used below the switch, where the main-sum route has
  too few terms to meet the error budget.  One batched series serves every
  caller: a fit's 33 nodes as one (nodes x terms) product per series length,
  a one-point Z or |zeta|^2 as a batch of one.  Each length's Borwein
  weights are built once and kept for every length below the switch
  (:func:`_borwein`); above t = 414.6 their sums overflow.

theta is Stirling's series for log-gamma, shifted up by 10, below t = 10
(within 1e-14 of the exact value) and a seven-term asymptotic expansion
above, with error < 5e-13 at the seam.

|zeta(1/2+it)|^2 == Z(t)^2 exactly; :func:`zeta_mod_sq` returns Z(t)^2 on the
rs route and |zeta|^2 from the eta series, without theta, below the switch;
:func:`eta_mod_sq` gives the latter over an array of heights.

The switch is used in two ways, both here.  A point query (:func:`hardy_z`,
:func:`zeta_mod_sq`, :func:`err_bound`) picks its route by its own height.  A
range is handed out as stretches (:func:`zsq_stretches`): on each, Z^2 has one
formula and one batched evaluator, the switch ending a stretch as the jumps
of the Riemann-Siegel formula do.  The ladder's knot fit cuts its intervals
at them and never reads the kernels itself.

``zeta_mod_sq`` keeps a ``config`` it does not read, and ``_rs_zsq`` passes
``z_rs_many`` the depth it only checks: the benchmark calls both shapes.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels
from .config import DEFAULT_CONFIG, RunConfig
from .errors import DomainTooSmall, RangeTooLarge

__all__ = ["ZSample", "rs_theta", "hardy_z", "zeta_mod_sq", "eta_mod_sq", "err_bound",
           "zsq_stretches"]

#: the top height of a point query: just below 2e7 the Riemann-Siegel error
#: bound's 5e-14 t floor reaches 1e-6
RS_CEILING = 1.9999e7
#: below this height the asymptotic theta expansion gives way to Stirling's
#: series for log Gamma(1/4 + it/2), taken at w = 10.25 + it/2 and shifted back
_THETA_EXACT_BELOW = 10.0
#: B_2k / (2k (2k - 1)), k = 1..8: Stirling's series for log Gamma(w) is
#: (w - 1/2) log w - w + log(2 pi) / 2 + sum_k B_2k / (2k (2k - 1) w^(2k - 1));
#: at |w| >= 10.25 the first term left out is below 1.2e-18
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)
#: the eta series' top height: t = 414.6 takes 402 terms, which stay in float
#: range, and at 403 terms the weighted sum overflows
_ETA_CEILING = 414.6
#: error budget of the eta route (rounding-dominated; observed < 2e-14)
_ETA_ERR = 1e-12
#: |2^{1-s}| and log 2 as Python's complex power takes them on the line
_SQRT_2 = 2.0 ** 0.5
_LOG_2 = math.log(2.0)


@dataclass(frozen=True)
class ZSample:
    """One evaluation of Hardy's Z with its provenance."""

    t: float
    z: float
    theta: float
    err_bound: float
    route: str  # "rs" | "eta"


def rs_theta(t: float) -> float:
    """theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi, for finite t >= 0.

    Below t = 10, from Stirling's series at w = z + 10, z = 1/4 + it/2:
    Gamma(z) = Gamma(w) / prod_{k<10} (z + k), so Im log Gamma(z) is the
    series' imaginary part less sum_k arg(z + k), each arg in (-pi, pi): the
    continuous branch, which theta follows.  log w is built from its modulus
    and argument, and the real constant log(2 pi) / 2 drops out.
    """
    if not 0.0 <= t < math.inf:
        raise DomainTooSmall(f"theta requested at t={t}: needs a finite t >= 0")
    if t >= _THETA_EXACT_BELOW:
        return _kernels.theta_asym(t)
    w = complex(10.25, 0.5 * t)
    log_w = complex(math.log(abs(w)), math.atan2(w.imag, w.real))
    r = 1.0 / (w * w)
    s = 0.0
    for c in reversed(_STIRLING):  # Horner's rule in 1/w^2
        s = s * r + c
    im_log_gamma = ((w - 0.5) * log_w - w + s / w).imag
    shift = sum(math.atan2(0.5 * t, 0.25 + k) for k in range(10))
    return im_log_gamma - shift - 0.5 * t * math.log(math.pi)


@functools.lru_cache(maxsize=128)
def _borwein(n: int) -> tuple[np.ndarray, np.float64, np.ndarray]:
    """The length-n series' signed Borwein coefficients, d_n and log(k + 1).

    Kept for 128 lengths, more than the 90 (33..122) below the switch, so a
    process computes each length's weights once, however many tables it
    builds (about 0.1 MB of arrays in all).  The arrays are read-only.
    """
    # Borwein weights d_k via the stable increasing recurrence
    i = np.arange(1, n + 1, dtype=np.float64)
    ratios = 4.0 * (n + i - 1.0) * (n - i + 1.0) / ((2.0 * i) * (2.0 * i - 1.0))
    terms = np.concatenate(([1.0], np.cumprod(ratios)))
    d = np.cumsum(terms)
    k = np.arange(n, dtype=np.float64)
    coeff = (d[:n] - d[n]) * np.where(k % 2 == 0, 1.0, -1.0)
    log_k1 = np.log(k + 1.0)
    coeff.flags.writeable = log_k1.flags.writeable = False
    return coeff, d[n], log_k1


def _eta_zeta(ts: np.ndarray) -> np.ndarray:
    """zeta(1/2 + it) at each height from the accelerated alternating series.

    Heights that share a series length n share one set of Borwein weights
    (:func:`_borwein`) and one (heights x n) product; a knot interval's nodes
    span at most two n.  Every node keeps the scalar recipe's arithmetic: the
    denominator 1 - 2^{1-s} takes Python's complex power apart, 2^{1-s} =
    sqrt(2) (cos phi, sin phi) with phi = (0.0 - t) log 2, whose cos and sin
    numpy takes as libm does (numpy's complex power differs by an ulp).
    """
    ts = np.asarray(ts, dtype=np.float64)
    out = np.empty(ts.shape, dtype=np.complex128)
    ns = ((1.5708 * ts + 45.0) / 1.7627).astype(np.int64) + 8
    for n in sorted(set(ns.tolist())):  # np.unique's first call costs ~1 MB
        sel = ns == n
        coeff, d_n, log_k1 = _borwein(n)
        t = ts[sel]
        neg_s = np.empty(t.shape, dtype=np.complex128)
        neg_s.real, neg_s.imag = -0.5, -t
        # in place, with the bits of exp(-s log(k + 1)) * coeff
        powers = np.multiply(neg_s[:, None], log_k1)
        np.exp(powers, out=powers)
        powers *= coeff
        eta = -powers.sum(axis=1) / d_n
        phi = (0.0 - t) * _LOG_2
        den = np.empty(t.shape, dtype=np.complex128)
        den.real, den.imag = 1.0 - _SQRT_2 * np.cos(phi), 0.0 - _SQRT_2 * np.sin(phi)
        out[sel] = eta / den
    return out


def eta_mod_sq(ts: np.ndarray) -> np.ndarray:
    """|zeta(1/2 + it)|^2 at each height t >= 0 from the eta series alone (no theta).

    Refuses, before any series is built, a negative or non-finite height
    (DomainTooSmall) and one above _ETA_CEILING (RangeTooLarge).
    """
    ts = np.asarray(ts, dtype=np.float64)
    if ts.size and not 0.0 <= ts.min() <= ts.max() <= _ETA_CEILING:
        if not 0.0 <= ts.min() <= ts.max() < math.inf:
            raise DomainTooSmall(f"eta_mod_sq requested on [{ts.min()}, {ts.max()}]: "
                                 "needs finite heights t >= 0")
        raise RangeTooLarge(f"eta_mod_sq requested up to t={ts.max()}: its series "
                            f"overflows above t = {_ETA_CEILING}")
    z = _eta_zeta(ts)
    # abs(z) ** 2 of each Python complex: numpy's h * h differs at ~1 node in 1000
    return np.array([h ** 2 for h in np.hypot(z.real, z.imag).tolist()])


def _eta_z(t: float, theta: float) -> float:
    """Z(t) = Re(e^{i theta} zeta(1/2 + it)) on the eta route."""
    return (complex(math.cos(theta), math.sin(theta)) * complex(_eta_zeta([t])[0])).real


def _check_height(t: float, what: str) -> None:
    """Refuse a height outside [0, RS_CEILING] with a typed error, before any work."""
    if not 0.0 <= t < math.inf:
        raise DomainTooSmall(f"{what} requested at t={t}: needs a finite t >= 0")
    if t > RS_CEILING:
        raise RangeTooLarge(f"{what} requested at t={t}: above t = {RS_CEILING:g} "
                            "the Riemann-Siegel error bound passes 1e-6")


def err_bound(t: float) -> float:
    """Absolute error budget of :func:`hardy_z` at a height 0 <= t <= RS_CEILING."""
    _check_height(t, "err_bound")
    if t < RunConfig.rs_switch:
        return _ETA_ERR
    return _kernels.err_bound_rs(t)


def hardy_z(t: float) -> ZSample:
    """Evaluate Z(t), 0 <= t <= RS_CEILING, with an explicit error bound and route tag."""
    _check_height(t, "hardy_z")
    th = rs_theta(t)
    if t < RunConfig.rs_switch:
        return ZSample(t, _eta_z(t, th), th, _ETA_ERR, "eta")
    return ZSample(t, _kernels.z_rs_one(t), th, _kernels.err_bound_rs(t), "rs")


def zeta_mod_sq(t: float, config: RunConfig = DEFAULT_CONFIG) -> float:
    """|zeta(1/2 + it)|^2: Z(t)^2 on the rs route, |zeta|^2 directly below the switch.

    ``config`` is not read: perfbench's ``_scalar_increment`` passes one.
    """
    if 0.0 <= t < RunConfig.rs_switch:
        return float(eta_mod_sq([t])[0])
    z = hardy_z(t).z
    return z * z


def _rs_zsq(ts: np.ndarray) -> np.ndarray:
    """Z^2 at each height t >= rs_switch from the batched Riemann-Siegel formula."""
    z = _kernels.z_rs_many(ts, RunConfig.rs_terms)
    return np.multiply(z, z, out=z)


def zsq_stretches(a: float, b: float) -> list[tuple[Callable, float, float]]:
    """[a, b] as (evaluator, lo, hi) stretches, in order, Z^2 one formula on each.

    :func:`eta_mod_sq` below the switch; the batched Riemann-Siegel Z^2 above
    it, cut where the main sum gains a term (``_kernels.rs_spans``), each cut
    leaving out its one-ulp gap.  The evaluators are module-level functions,
    the same objects on every call, so a caller may group stretches by them.
    """
    seam = RunConfig.rs_switch
    rs = [(_rs_zsq, lo, hi) for lo, hi in _kernels.rs_spans(max(a, seam), b)] if b > seam else []
    return ([(eta_mod_sq, a, min(b, seam))] if a < seam else []) + rs
