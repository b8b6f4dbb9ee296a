"""Nested Clenshaw-Curtis rule pair used by all quadrature in the package.

The high rule has N_HI+1 = 33 nodes x_j = cos(pi j / 32) on [-1, 1]; the low
rule's 17 nodes are exactly the even-indexed high nodes, so one batch of 33
integrand values yields both estimates and |I_hi - I_lo| is a usable error
estimate. Weights come from integrating the Chebyshev interpolant:

    w_j = (c_j / N) * (1 - sum_{k even, 2<=k<=N} b_k cos(k j pi / N) / (k^2 - 1))

with endpoint halving; they are computed once here and verified by the test
suite against polynomial exactness (degree <= N+1 for even N).

The same 33 values also give the degree-32 Chebyshev interpolant itself:
``CHEB_FIT`` maps them to the 34 coefficients of its integral from -1
(degree 33) followed by its own 33 coefficients, one matrix product for both.
"""
from __future__ import annotations

import numpy as np

N_LO = 16
N_HI = 32


def _cc_weights(n: int) -> np.ndarray:
    j = np.arange(n + 1)
    w = np.ones(n + 1)
    for k in range(2, n + 1, 2):
        b = 1.0 if k == n else 2.0
        w -= b * np.cos(k * j * np.pi / n) / (k * k - 1.0)
    w *= 2.0 / n
    w[0] *= 0.5
    w[n] *= 0.5
    return w


#: nodes of the 33-point rule on [-1, 1], descending from +1 to -1
NODES_HI: np.ndarray = np.cos(np.arange(N_HI + 1) * np.pi / N_HI)
WEIGHTS_HI: np.ndarray = _cc_weights(N_HI)
#: low-rule weights aligned to the even-indexed high nodes
WEIGHTS_LO: np.ndarray = _cc_weights(N_LO)


def _cheb_fit(n: int) -> np.ndarray:
    """(2n+3, n+1): node values -> integral coefficients b_0..b_{n+1}, then c_0..c_n."""
    k = np.arange(n + 1)
    # DCT-I: c_m = (2/n) sum'' f_j cos(pi m j / n), halved at m = 0, n and j = 0, n
    dct = (2.0 / n) * np.cos(np.pi * np.outer(k, k) / n)
    dct[:, [0, n]] *= 0.5
    dct[[0, n], :] *= 0.5
    # integral from -1: b_m = (c_{m-1} - c_{m+1}) / (2m), with c_0 counted twice
    # in b_1; b_0 makes the integral vanish at x = -1, where T_m = (-1)^m
    integ = np.zeros((n + 2, n + 1))
    for m in range(1, n + 2):
        integ[m, m - 1] += (2.0 if m == 1 else 1.0) / (2.0 * m)
        if m + 1 <= n:
            integ[m, m + 1] -= 1.0 / (2.0 * m)
    integ[0] = -((-1.0) ** np.arange(1, n + 2)) @ integ[1:]
    return np.ascontiguousarray(np.vstack([integ @ dct, dct]))


#: node values (in NODES_HI order) -> [integral coefficients (34), coefficients (33)]
CHEB_FIT: np.ndarray = _cheb_fit(N_HI)
