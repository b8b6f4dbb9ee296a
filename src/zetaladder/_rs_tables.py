"""Chebyshev tables for the Riemann-Siegel correction functions.

The remainder of the main-sum formula for Hardy's Z is an expansion in
tau^{-1/2} (tau = t / 2pi) whose coefficient functions C_0..C_3 depend only on
the cyclic fraction p = sqrt(tau) - floor(sqrt(tau)) in [0, 1].  All four are
combinations of derivatives of the entire function

    Psi(x) = cos(2 pi (x^2 - x - 1/16)) / cos(2 pi x):

    C_0 = Psi
    C_1 = -Psi'''/ (96 pi^2)
    C_2 =  Psi^(6) / (18432 pi^4) + Psi'' / (64 pi^2)
    C_3 = -Psi^(9) / (5308416 pi^6) - Psi^(5) / (3840 pi^4) - Psi' / (64 pi^2)

Evaluating those derivatives pointwise is ill-conditioned near the removable
singularities at p = 1/4 + m/2, so instead each C_k is fitted once, at import,
by a degree-64 Chebyshev expansion on [0, 1].  Derivatives at the fit nodes
come from a Cauchy-integral trapezoid rule (an FFT over a radius-1/2 circle)
whose sample angles are offset half a step so no sample lands on the real
axis, where the quotient would degenerate to 0/0.  The tables reproduce
high-precision reference values to ~3e-15 (pinned in the test suite).

``_kernels`` evaluates each row only to index 28: no coefficient past it
exceeds 1.3e-15, and row 0's tail sums to 1.2e-14.
"""
from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi

#: Chebyshev degree of each fitted correction function
DEGREE = 64
#: contour radius and sample count for the derivative transform
_RADIUS = 0.5
_SAMPLES = 512


def _psi(z: np.ndarray) -> np.ndarray:
    return np.cos(TWO_PI * (z * z - z - 0.0625)) / np.cos(TWO_PI * z)


def _cheb_coeffs(values: np.ndarray) -> np.ndarray:
    """DCT-I style coefficients from values at extrema nodes cos(pi j / n)."""
    n = values.shape[0] - 1
    j = np.arange(n + 1)
    c = np.empty(n + 1)
    for k in range(n + 1):
        s = 0.5 * values[0] + 0.5 * values[n] * np.cos(np.pi * k)
        s += np.sum(values[1:n] * np.cos(np.pi * k * j[1:n] / n))
        c[k] = 2.0 / n * s
    c[0] *= 0.5
    c[n] *= 0.5
    return c


def build_tables(degree: int = DEGREE) -> np.ndarray:
    """(4, degree+1) Chebyshev coefficients of C_0..C_3 on p in [0, 1]."""
    j = np.arange(degree + 1)
    p = 0.5 * (1.0 + np.cos(np.pi * j / degree))

    ang = TWO_PI * (np.arange(_SAMPLES) + 0.5) / _SAMPLES
    ring = _RADIUS * np.exp(1j * ang)
    # one node's ring at a time: only its first 10 transform terms are kept
    hat = np.array([np.fft.fft(_psi(x + ring))[:10] for x in p]) / _SAMPLES

    korders = np.arange(10)
    fact = np.cumprod(np.concatenate(([1.0], np.arange(1.0, 10.0))))
    phase = np.exp(-1j * np.pi * korders / _SAMPLES)
    derivs = (hat * phase * fact / _RADIUS**korders).real  # (nodes, 10)

    pi2 = np.pi * np.pi
    c0 = derivs[:, 0]
    c1 = -derivs[:, 3] / (96.0 * pi2)
    c2 = derivs[:, 6] / (18432.0 * pi2 * pi2) + derivs[:, 2] / (64.0 * pi2)
    c3 = (-derivs[:, 9] / (5308416.0 * pi2**3)
          - derivs[:, 5] / (3840.0 * pi2 * pi2)
          - derivs[:, 1] / (64.0 * pi2))

    return np.ascontiguousarray(
        np.stack([_cheb_coeffs(v) for v in (c0, c1, c2, c3)]), dtype=np.float64
    )


#: module-level tables, built once at import (deterministic, ~1 ms)
CTAB: np.ndarray = build_tables()
