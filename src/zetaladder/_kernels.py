"""Hot numerical kernels: Riemann-Siegel Z, scalar and batched.

One source for every formula, in plain Python and numpy:

* scalar cores (``_theta_asym``, ``_rs_remainder``, ``_z_rs``) serve every
  one-point evaluation -- :func:`z_rs_one`, :func:`theta_asym`, and through
  them ``hardy_z``.  The ladder and the chain weights no longer call them:
  they read Z^2 from a knot interval's interpolant;
* one numpy batched evaluator, :func:`_z_rs_many_np`, serves arrays (the 33
  nodes of an interval's fit, or the first pieces of a table extension's
  new intervals at once, :func:`z_rs_many`).  It vectorizes the main sum,
  one product per branch N over log n and sqrt n sliced from tables grown
  on demand (:func:`_n_table`), and shares theta and the correction terms
  with the scalar core; a height's value does not depend on the rest of
  its batch, nor on whether it has one.  A 33-node call is mostly numpy
  dispatch, so the batch keeps its array operations few, without
  reordering any: each rounds as the formula reads.

The correction rows C_0..C_3 are a degree-64 Chebyshev table that
``_rs_tables`` ships as data (nothing is fitted at import), evaluated to
index 28, past which each row is below its noise floor.  Half its basis is
cosines, half products (Mason & Handscomb, *Chebyshev Polynomials*, 2003),
with the correction of 29 cosines bit for bit; the test suite checks it.

The scalar and batched paths differ only in how the main sum is accumulated,
so they agree to rounding (~1e-13 absolute on Z); the test suite pins it.
:func:`zsq_integral_rs` runs the package's one adaptive panel driver,
:func:`numerics.adaptive_panels`, over batched Z^2 panels; the ladder fits
its knot intervals itself, so only the tests and the benchmark's kernel
cases call it.

Only the t >= rs_switch regime lives here.  The low-t alternating-series route
is cold (the fits of knot intervals below t = 100 and direct low-t queries)
and stays in :mod:`zetaladder.zeta` as plain numpy.
"""
from __future__ import annotations

import math

import numpy as np

from ._rs_tables import CTAB
from .numerics import adaptive_panels

#: always False: the kernels have no compiled twin.  Kept only because the
#: perfbench tags its runs with it (``kernel_path``).
HAS_NUMBA = False

TWO_PI = 2.0 * math.pi
#: Chebyshev coefficients kept per correction row (k = 0..28): no dropped one
#: exceeds 1.3e-15, and row 0's dropped tail sums to 1.2e-14
_CT = np.ascontiguousarray(CTAB[:, :29].T)
_CHEB_K = np.arange(_CT.shape[0], dtype=np.float64)
#: the top degree taken as a cosine; the ones above come from products
_HALF = (_CT.shape[0] - 1) // 2
#: log n and sqrt n for n = 1, 2, ..., covering N <= 64 (t < 2 pi 65^2);
#: :func:`_n_table` grows them
_LOG_N = np.log(np.arange(1.0, 65.0))
_SQRT_N = np.sqrt(np.arange(1.0, 65.0))
#: Gabcke-style truncation constants: |remainder| <= _RS_BOUND[m-1] * t^{-(2m+1)/4}
#: for m correction terms, plus the argument-reduction noise floor added in
#: :func:`err_bound_rs`.
RS_BOUND_CONST = (0.127, 0.053, 0.011, 0.031)


# --------------------------------------------------------------------------
# scalar cores (all but _z_rs also serve the batch)
# --------------------------------------------------------------------------

def _theta_asym(t):
    """Riemann-Siegel theta, asymptotic expansion (abs err < 5e-13 for t >= 10)."""
    lg = np.log(t / TWO_PI)
    inv = 1.0 / t
    inv2 = inv * inv
    corr = inv * (1.0 / 48.0 + inv2 * (7.0 / 5760.0 + inv2 * (31.0 / 80640.0 + inv2 * (127.0 / 430080.0))))
    half_t = 0.5 * t
    return half_t * lg - half_t - math.pi / 8.0 + corr


def _rs_remainder(rt, big_n, nterms):
    """Signed correction sum (-1)^(N-1) sum_k C_k(p) rt^-k / sqrt(rt), p = rt - N.

    On a 1-D array rt, with N one float or an array like rt.  The Chebyshev
    basis is one (29, n) block: cos(k arccos u) for k <= 14, and
    T_{14+j} = 2 T_14 T_j - T_{14-j} above, where every coefficient is below
    4.4e-9: the last bits it moves in C_1..C_3 (190 at 10^6 heights) are lost
    in the sum, C_0 keeps its own.  Its C-order copy times the coefficient
    block gives C_0..C_3; BLAS sums that product alike for every n >= 2, so a
    lone height is stacked twice.
    """
    if rt.size == 1:  # one row would take BLAS's gemv path, which rounds otherwise
        return _rs_remainder(np.repeat(rt, 2), big_n, nterms)[:1]
    u = 2.0 * (rt - big_n) - 1.0
    basis = np.empty((_CT.shape[0], rt.size))
    low = np.multiply(_CHEB_K[:_HALF + 1, None], np.arccos(u), out=basis[:_HALF + 1])
    np.cos(low, out=low)
    high = np.multiply(2.0 * basis[_HALF], basis[1:_HALF + 1], out=basis[_HALF + 1:])
    high -= basis[_HALF - 1::-1]
    rows = np.ascontiguousarray(basis.T) @ _CT  # (n, 4)
    irt = 1.0 / rt
    corr = rows[:, nterms - 1] + 0.0  # as 0.0 / rt + C reads: -0.0 becomes +0.0
    for k in range(nterms - 2, -1, -1):
        corr = corr * irt + rows[:, k]
    # (-1)^(N-1) as an exact sign flip
    return (2.0 * (big_n % 2.0) - 1.0) * corr / np.sqrt(rt)


def _z_rs(t: float, nterms: int) -> float:
    """Hardy Z via the main-sum formula with `nterms` correction terms."""
    th = _theta_asym(t)
    tau = t / TWO_PI
    rt = math.sqrt(tau)
    big_n = int(rt)
    s = 0.0
    for n in range(1, big_n + 1):
        s += math.cos(th - t * math.log(n)) / math.sqrt(n)
    return 2.0 * s + _rs_remainder(np.array([rt]), np.array([float(big_n)]), nterms)[0]


# --------------------------------------------------------------------------
# batched evaluator + public kernel API
# --------------------------------------------------------------------------

def _n_table(big_n: int) -> tuple[np.ndarray, np.ndarray]:
    """(log n, sqrt n) for n = 1..N, sliced from tables grown on demand.

    A ufunc's value at n does not depend on the array it comes in, so each
    slice is bit for bit ``np.log`` / ``np.sqrt`` of ``arange(1, N + 1)``.
    """
    global _LOG_N, _SQRT_N
    if big_n > _LOG_N.size:
        n = np.arange(1.0, max(2 * _LOG_N.size, big_n) + 1.0)
        _LOG_N, _SQRT_N = np.log(n), np.sqrt(n)
    return _LOG_N[:big_n], _SQRT_N[:big_n]


def _main_sum(ts: np.ndarray, th: np.ndarray, big_n: int) -> np.ndarray:
    """sum_{n <= N} cos(theta - t log n) / sqrt(n) at heights that share one N."""
    log_n, sqrt_n = _n_table(big_n)
    terms = ts[:, None] * log_n
    np.subtract(th[:, None], terms, out=terms)
    np.cos(terms, out=terms)
    terms /= sqrt_n
    return np.add.reduce(terms, axis=1)


def _z_rs_many_np(ts: np.ndarray, nterms: int) -> np.ndarray:
    """Hardy Z on an array of heights: the scalar core with a vectorized main sum.

    Heights that share a branch N = floor(sqrt(t / 2 pi)) share one
    (heights x N) main sum, so a height's value never depends on the rest of
    its batch: padding shorter rows with zero terms would change the order
    in which numpy's pairwise sum adds them.
    """
    ts = np.asarray(ts, dtype=np.float64)
    th = _theta_asym(ts)
    rt = np.sqrt(ts / TWO_PI)
    big_n = np.floor(rt)  # as an int cast truncates rt > 0, kept as floats
    if not ts.size:
        return 0.0 * ts
    if (n_lo := int(big_n.min())) == (n_hi := int(big_n.max())):
        main = _main_sum(ts, th, n_lo)
        big_n = float(n_lo)  # the remainder's sign flip: one scalar product
    else:
        main = np.empty_like(ts)
        for nb in range(n_lo, n_hi + 1):
            sel = big_n == nb
            if sel.any():
                main[sel] = _main_sum(ts[sel], th[sel], nb)
    return 2.0 * main + _rs_remainder(rt, big_n, nterms)


def rs_spans(lo: float, hi: float) -> list[tuple[float, float]]:
    """[lo, hi] cut where the main sum gains its N-th term (t ~ 2 pi N^2).

    The truncated formula jumps there by its own error.  Every height in a
    span gets one N in :func:`_z_rs_many_np`; each cut leaves out the one-ulp
    gap between the last height of N - 1 and the first of N.
    """
    def branch(t: float) -> int:
        return int(math.sqrt(t / TWO_PI))  # as the kernels round it

    spans = []
    for n in range(branch(lo) + 1, branch(hi) + 1):
        c = TWO_PI * n * n  # nudged to the first height given n
        while branch(c) < n:
            c = math.nextafter(c, math.inf)
        while branch(below := math.nextafter(c, -math.inf)) >= n:
            c = below
        if lo < below and c < hi:
            spans.append((lo, below))
            lo = c
    return spans + [(lo, hi)]


def z_rs_many(ts: np.ndarray, nterms: int) -> np.ndarray:
    """Hardy Z on an array of heights (all must be >= the RS switch)."""
    return _z_rs_many_np(ts, nterms)


def z_rs_one(t: float, nterms: int) -> float:
    return float(_z_rs(float(t), nterms))


def theta_asym(t: float) -> float:
    return float(_theta_asym(float(t)))


def zsq_integral_rs(a: float, b: float, tol: float, min_wavelength: float,
                    nterms: int) -> tuple[float, float, int]:
    """Adaptive integral of Z^2 over [a, b] (RS regime only).

    Returns (value, error_estimate, evaluations).  Raises NonConvergence if
    the splitting budget is exhausted.
    """
    def zsq(ts: np.ndarray) -> np.ndarray:
        z = _z_rs_many_np(ts, nterms)
        return z * z

    return adaptive_panels(zsq, a, b, tol, min_wavelength)


def err_bound_rs(t: float, nterms: int) -> float:
    """Absolute error bound for the RS route with `nterms` correction terms.

    Truncation constant times t^{-(2m+1)/4} plus an empirically calibrated
    floor (5e-14 t) for cos argument-reduction noise in the main sum; the
    floor dominates only above t ~ 5000 where the truncation term has fallen
    below 1e-10.
    """
    m = nterms
    return RS_BOUND_CONST[m - 1] * t ** (-(2.0 * m + 1.0) / 4.0) + 5e-14 * t
