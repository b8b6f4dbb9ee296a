"""Hardy's Z on the critical line: Z(t) = e^{i theta(t)} zeta(1/2 + it).

Two evaluation routes, switched at ``config.rs_switch`` (default t = 100):

* **rs** -- Riemann-Siegel main sum plus ``config.rs_terms`` correction terms
  (Chebyshev-tabulated coefficient functions; see `_rs_tables`).  Absolute
  error is bounded by :func:`_kernels.err_bound_rs`; with the default four
  terms the bound stays below 1e-6 for every t >= 100.
* **eta** -- the alternating series for the Dirichlet eta function with
  Borwein's acceleration weights, converted through
  zeta(s) = eta(s) / (1 - 2^{1-s}).  Cost grows linearly with t, accuracy sits
  at rounding level; only used below the switch, where the main-sum route has
  too few terms to meet the error budget.

theta itself is exact (log-gamma) below t = 10 and a seven-term asymptotic
expansion above, with error < 5e-13 at the seam.

|zeta(1/2+it)|^2 == Z(t)^2 exactly; :func:`zeta_mod_sq` returns Z(t)^2 on the
rs route and |zeta|^2 from the eta series, without theta, below the switch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .config import DEFAULT_CONFIG, RunConfig
from .errors import DomainTooSmall

__all__ = ["ZSample", "rs_theta", "hardy_z", "zeta_mod_sq", "eta_mod_sq", "err_bound"]

TWO_PI = 2.0 * math.pi
#: below this height the asymptotic theta expansion is replaced by log-gamma
_THETA_EXACT_BELOW = 10.0
#: error budget of the eta route (rounding-dominated; observed < 2e-14)
_ETA_ERR = 1e-12


@dataclass(frozen=True)
class ZSample:
    """One evaluation of Hardy's Z with its provenance."""

    t: float
    z: float
    theta: float
    err_bound: float
    route: str  # "rs" | "eta"


def rs_theta(t: float, config: RunConfig = DEFAULT_CONFIG) -> float:
    """theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi, for t >= 0."""
    if t < 0.0:
        raise DomainTooSmall(f"theta requested at t={t} < 0")
    if t < _THETA_EXACT_BELOW:
        from scipy.special import loggamma  # here: importing it costs ~19 MB and ~0.25 s

        return float(loggamma(0.25 + 0.5j * t).imag - 0.5 * t * math.log(math.pi))
    return _kernels.theta_asym(t)


def _eta_zeta(t: float) -> complex:
    """zeta(1/2 + it) from the accelerated alternating series (cold path, t < switch)."""
    n = int((1.5708 * t + 45.0) / 1.7627) + 8
    # Borwein weights d_k via the stable increasing recurrence
    i = np.arange(1, n + 1, dtype=np.float64)
    ratios = 4.0 * (n + i - 1.0) * (n - i + 1.0) / ((2.0 * i) * (2.0 * i - 1.0))
    terms = np.concatenate(([1.0], np.cumprod(ratios)))
    d = np.cumsum(terms)
    s = complex(0.5, t)
    k = np.arange(n, dtype=np.float64)
    coeff = (d[:n] - d[n]) * np.where(k % 2 == 0, 1.0, -1.0)
    eta = -(coeff * np.exp(-s * np.log(k + 1.0))).sum() / d[n]
    return complex(eta / (1.0 - 2.0 ** (1.0 - s)))


def eta_mod_sq(t: float) -> float:
    """|zeta(1/2 + it)|^2 from the eta series alone, at any t >= 0 (no theta)."""
    return abs(_eta_zeta(t)) ** 2


def _eta_z(t: float, theta: float) -> float:
    """Z(t) = Re(e^{i theta} zeta(1/2 + it)) on the eta route."""
    return (complex(math.cos(theta), math.sin(theta)) * _eta_zeta(t)).real


def err_bound(t: float, config: RunConfig = DEFAULT_CONFIG) -> float:
    """Absolute error budget of :func:`hardy_z` at height t."""
    if t < 0.0:
        raise DomainTooSmall(f"err_bound requested at t={t} < 0")
    if t < config.rs_switch:
        return _ETA_ERR
    return _kernels.err_bound_rs(t, config.rs_terms)


def hardy_z(t: float, config: RunConfig = DEFAULT_CONFIG) -> ZSample:
    """Evaluate Z(t) with an explicit error bound and route tag."""
    if t < 0.0:
        raise DomainTooSmall(f"hardy_z requested at t={t} < 0 (Z is even; negate the argument)")
    th = rs_theta(t, config)
    if t < config.rs_switch:
        return ZSample(t, _eta_z(t, th), th, _ETA_ERR, "eta")
    z = _kernels.z_rs_one(t, config.rs_terms)
    return ZSample(t, z, th, _kernels.err_bound_rs(t, config.rs_terms), "rs")


def zeta_mod_sq(t: float, config: RunConfig = DEFAULT_CONFIG) -> float:
    """|zeta(1/2 + it)|^2: Z(t)^2 on the rs route, |zeta|^2 directly below the switch."""
    if 0.0 <= t < config.rs_switch:
        return eta_mod_sq(t)
    z = hardy_z(t, config).z
    return z * z
