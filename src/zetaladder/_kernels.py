"""Hot numerical kernels: Riemann-Siegel Z, scalar and batched.

One source for every formula, in plain Python and numpy, each a function of
its heights alone: no state, and one depth, the correction terms C_0..C_3
that ``_CT``'s columns hold.

* scalar cores (``_theta_asym``, ``_rs_remainder``) serve every one-point
  evaluation -- :func:`z_rs_one`, :func:`theta_asym`, and through them
  ``hardy_z``.  The ladder and the chain weights no longer call them:
  they read Z^2 from a knot interval's interpolant;
* one numpy batched evaluator, :func:`_z_rs_many_np`, serves arrays (the 33
  nodes of an interval's fit, or the first pieces of a table extension's
  new intervals at once, :func:`z_rs_many`).  It vectorizes the main sum,
  one product per branch N over log n and sqrt n taken on each call,
  and shares theta and the correction terms with the scalar core; a
  height's value does not depend on the rest of its batch, whatever its
  size, nor on whether it has one.  A 33-node call is mostly numpy
  dispatch, so the batch keeps its array operations few, without
  reordering any: each rounds as the formula reads.

The correction functions C_0..C_3, combinations of derivatives of
Psi(x) = cos(2 pi (x^2 - x - 1/16)) / cos(2 pi x) at the cyclic fraction
p = sqrt(t / 2 pi) - N, ship as data: ``_CT`` holds the first 29 Chebyshev
coefficients of each as float reprs, so nothing is fitted at import.  They
come from a degree-64 fit whose dropped coefficients are each below 1.3e-15
and sum to at most 1.2e-14 per function.  The fit (``build_tables``,
Cauchy-integral derivatives at the 65 extrema nodes) lives in
``tests/_oracles.py``; the test suite checks ``_CT`` against it bit for bit,
and its dropped tail against the noise floor.  Half the basis is cosines,
half products (Mason & Handscomb, *Chebyshev Polynomials*, 2003), with the
correction of 29 cosines bit for bit; the test suite checks it, and peels
the rows apart through its own reference of any depth.

The scalar and batched paths differ only in how the main sum is accumulated,
so they agree to rounding (~1e-13 absolute on Z); the test suite pins it.
:func:`zsq_integral_rs` runs the package's one adaptive panel driver,
:func:`numerics.adaptive_panels`, over batched Z^2 panels; the ladder fits
its knot intervals itself, so only the tests and the benchmark's kernel
cases call it.  It and :func:`z_rs_many` keep the benchmark's call shape,
a depth ``nterms`` they only check, until the benchmark next changes.

Only the t >= rs_switch regime lives here.  The low-t alternating-series route
is cold (the fits of knot intervals below t = 100 and direct low-t queries)
and stays in :mod:`zetaladder.zeta` as plain numpy.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import UsageError
from .numerics import adaptive_panels

#: always False: the kernels have no compiled twin.  Kept only because the
#: perfbench tags its runs with it (``kernel_path``).
HAS_NUMBA = False

TWO_PI = 2.0 * math.pi
#: Chebyshev coefficients of the correction functions on p in [0, 1]: row k
#: holds (C_0, C_1, C_2, C_3)'s coefficient of T_k(2p - 1), k = 0..28
_CT = np.array([
    [0.6426672862397684, 2.981555974335137e-19, 0.0031461158539889114, 9.317362419797304e-19],
    [1.5092094240998222e-16, 0.010697913921003003, -2.371692252312041e-18, 7.123256221204023e-05],
    [0.27197299999785507, 8.131516293641283e-19, -0.002308783884530751, 4.819617469876969e-19],
    [1.0928757898653885e-16, 0.017170651243377882, -9.0801931945661e-19, 0.0002323430529816485],
    [0.010738605819340219, 5.149960319306146e-18, 5.769820766689829e-05, -8.470329472543003e-21],
    [9.194034422677078e-17, 0.002793211149788472, -4.87890977618477e-19, -0.00012929912045472425],
    [-0.0013743815296337787, 5.041540102057596e-18, 0.00035238862023665796, 6.2426328212641935e-19],
    [3.2959746043559335e-17, -3.637565371927636e-05, -5.421010862427522e-20, 1.8074496413671013e-05],
    [-0.0001246822188033722, 3.63207727782644e-18, 2.5246667458684075e-05, -2.337810934421869e-19],
    [3.174543961037557e-16, -2.7108955231155757e-05, 1.0164395367051604e-18, 6.526185187220365e-06],
    [-5.764599707545892e-07, -3.7947076036992655e-19, -3.4428211971933607e-06, 4.912791094074942e-20],
    [2.411265631607762e-16, -1.0483749866825685e-06, 4.743384504624082e-20, -1.1696365378453385e-07],
    [2.72806742834808e-07, 3.848917712323541e-18, -3.5350745566365934e-07, 9.571472303973594e-20],
    [1.43982048506075e-16, 5.8864671665043514e-08, 4.2690460541616737e-19, -7.34947612655467e-08],
    [8.077953025237283e-09, -7.047314121155779e-19, 3.73083018359512e-09, -4.0234064994579266e-19],
    [8.153200337090993e-17, 4.322967268660313e-09, 5.624298769768554e-19, -1.7750910080443648e-09],
    [-2.088461903415606e-10, 2.0057740190981832e-18, 1.2776951846933888e-09, 5.844527336054672e-20],
    [-1.43982048506075e-16, -1.1369591899901277e-11, -9.656175598699024e-19, 2.5555529619773325e-10],
    [-1.3115338676206179e-11, -3.74049749507499e-18, 2.187461774487854e-11, -2.702035101741218e-19],
    [2.5847379792054426e-16, -6.699842612124807e-12, -8.809142651444724e-20, 1.1376635846219434e-11],
    [-1.4280243654241076e-14, -1.7889335846010823e-18, -1.914141046187312e-12, -4.0318768289304696e-19],
    [-1.5612511283791264e-16, -1.0079589073119788e-13, 7.386127300057499e-19, -3.3498651105085507e-13],
    [1.0047518372857667e-14, 5.583641188300348e-18, -6.56291901791721e-14, 3.015437292225309e-19],
    [-3.3133218391157016e-16, 5.1529960853891055e-15, -1.2739375526704677e-18, -2.553718108017685e-14],
    [-1.1102230246251565e-16, 3.144186300207963e-18, 1.2571866291055667e-15, 2.2573428044327104e-19],
    [9.020562075079397e-17, 1.5395670849294163e-16, 4.3198680309969317e-19, 6.783378654791339e-17],
    [-1.3877787807814457e-16, -4.87890977618477e-19, 8.275173081495613e-17, 7.4750657595192e-20],
    [-2.3071822230491534e-16, 1.1709383462843448e-17, -4.2351647362715017e-20, 3.0460151816211894e-17],
    [1.3877787807814457e-17, 9.215718466126788e-18, 6.166399856011306e-19, 2.771915319889698e-19],
])
_CHEB_K = np.arange(_CT.shape[0], dtype=np.float64)
#: the top degree taken as a cosine; the ones above come from products
_HALF = (_CT.shape[0] - 1) // 2
#: most heights one correction product takes: BLAS rounds it alike for any
#: 2..4096 rows (not from about 8600, OpenBLAS on 2 cores), and 512 rows of
#: the basis stay in cache; the basis is built 4 * _BLOCK heights at a time
_BLOCK = 512
#: doubles one main-sum block holds (1 MB), whatever the batch and N
_CELLS = 2 ** 17


# --------------------------------------------------------------------------
# scalar cores (both also serve the batch)
# --------------------------------------------------------------------------

def _theta_asym(t):
    """Riemann-Siegel theta, asymptotic expansion (abs err < 5e-13 for t >= 10)."""
    lg = np.log(t / TWO_PI)
    inv = 1.0 / t
    inv2 = inv * inv
    corr = inv * (1.0 / 48.0 + inv2 * (7.0 / 5760.0 + inv2 * (31.0 / 80640.0 + inv2 * (127.0 / 430080.0))))
    half_t = 0.5 * t
    return half_t * lg - half_t - math.pi / 8.0 + corr


def _rs_remainder(rt, big_n):
    """Signed correction sum (-1)^(N-1) sum_k C_k(p) rt^-k / sqrt(rt), p = rt - N.

    On a 1-D array rt, with N one float or an array like rt.  A lone height
    is stacked twice: BLAS rounds a product of one row otherwise.
    """
    if rt.size == 1:  # one row would take BLAS's gemv path, which rounds otherwise
        return _rs_remainder(np.repeat(rt, 2), big_n)[:1]
    rows = _correction_rows(2.0 * (rt - big_n) - 1.0)
    irt = 1.0 / rt
    corr = rows[:, -1] + 0.0  # as 0.0 / rt + C reads: -0.0 becomes +0.0
    for k in range(_CT.shape[1] - 2, -1, -1):
        corr = corr * irt + rows[:, k]
    # (-1)^(N-1) as an exact sign flip
    return (2.0 * (big_n % 2.0) - 1.0) * corr / np.sqrt(rt)


def _correction_rows(u):
    """C_0..C_3 at each of at least two u = 2p - 1, as (heights, 4) rows.

    The Chebyshev basis is a (29, heights) block: cos(k arccos u) for
    k <= 14, and T_{14+j} = 2 T_14 T_j - T_{14-j} above, where every
    coefficient is below 4.4e-9: the last bits it moves in C_1..C_3 (190 at
    10^6 heights) are lost in the sum, C_0 keeps its own.  It is built for at
    most 4 * _BLOCK heights at a time, and each _BLOCK of its columns, copied
    in C order, times the coefficient block: a batch of at most _BLOCK takes
    one product, and a larger one keeps its working set in cache.  Parts
    from ``np.array_split`` differ by at most one height, so none has one.
    """
    if u.size > 4 * _BLOCK:
        return np.concatenate([_correction_rows(part)
                               for part in np.array_split(u, -(-u.size // (4 * _BLOCK)))])
    basis = np.empty((_CT.shape[0], u.size))
    low = np.multiply(_CHEB_K[:_HALF + 1, None], np.arccos(u), out=basis[:_HALF + 1])
    np.cos(low, out=low)
    high = np.multiply(2.0 * basis[_HALF], basis[1:_HALF + 1], out=basis[_HALF + 1:])
    high -= basis[_HALF - 1::-1]
    if u.size <= _BLOCK:
        return np.ascontiguousarray(basis.T) @ _CT
    return np.concatenate([np.ascontiguousarray(part.T) @ _CT
                           for part in np.array_split(basis, -(-u.size // _BLOCK), axis=1)])


# --------------------------------------------------------------------------
# batched evaluator + public kernel API
# --------------------------------------------------------------------------

def _main_sum(ts: np.ndarray, th: np.ndarray, big_n: int) -> np.ndarray:
    """sum_{n <= N} cos(theta - t log n) / sqrt(n) at heights that share one N.

    Each row of the (heights x N) terms is summed alone, so they are taken
    at most _CELLS at a time (at N <= 23, below t ~ 3360, a chunk's heights
    at once), and memory stays bounded at any N.
    """
    if ts.size > (step := max(1, _CELLS // big_n)):
        return np.concatenate([_main_sum(ts[k:k + step], th[k:k + step], big_n)
                               for k in range(0, ts.size, step)])
    n = np.arange(1.0, big_n + 1.0)
    terms = ts[:, None] * np.log(n)
    np.subtract(th[:, None], terms, out=terms)
    np.cos(terms, out=terms)
    terms /= np.sqrt(n)
    return np.add.reduce(terms, axis=1)


def _z_rs_many_np(ts: np.ndarray) -> np.ndarray:
    """Hardy Z on an array of heights: the scalar core with a vectorized main sum.

    Heights that share a branch N = floor(sqrt(t / 2 pi)) share one
    (heights x N) main sum, taken in blocks of whole rows, and
    :func:`_rs_remainder` takes the correction in blocks, so a height's
    value never depends on the rest of its batch, whatever its size: padding
    shorter rows with zero terms would change the order in which numpy's
    pairwise sum adds them.
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
    return 2.0 * main + _rs_remainder(rt, big_n)


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
    """Hardy Z on an array of heights (all must be >= the RS switch); nterms = 4."""
    if nterms != _CT.shape[1]:
        raise UsageError(f"the kernels sum {_CT.shape[1]} correction terms, not {nterms}")
    return _z_rs_many_np(ts)


def z_rs_one(t: float) -> float:
    """Hardy Z at one height: the main sum term by term, then the correction."""
    t = float(t)
    th = _theta_asym(t)
    rt = math.sqrt(t / TWO_PI)
    big_n = int(rt)
    s = 0.0
    for n in range(1, big_n + 1):
        s += math.cos(th - t * math.log(n)) / math.sqrt(n)
    return float(2.0 * s + _rs_remainder(np.array([rt]), np.array([float(big_n)]))[0])


def theta_asym(t: float) -> float:
    return float(_theta_asym(float(t)))


def zsq_integral_rs(a: float, b: float, tol: float, min_wavelength: float,
                    nterms: int) -> tuple[float, float, int]:
    """Adaptive integral of Z^2 over [a, b] (RS regime only).

    Returns (value, error_estimate, evaluations).  Raises NonConvergence if
    the splitting budget is exhausted.  nterms must be 4.
    """
    if nterms != _CT.shape[1]:
        raise UsageError(f"the kernels sum {_CT.shape[1]} correction terms, not {nterms}")

    def zsq(ts: np.ndarray) -> np.ndarray:
        z = _z_rs_many_np(ts)
        return z * z

    return adaptive_panels(zsq, a, b, tol, min_wavelength)


def err_bound_rs(t: float) -> float:
    """Absolute error bound for the RS route with its four correction terms.

    Gabcke-style truncation term 0.031 t^{-9/4} plus an empirically calibrated
    floor (5e-14 t) for cos argument-reduction noise in the main sum; the
    floor dominates only above t ~ 5000 where the truncation term has fallen
    below 1e-10.
    """
    return 0.031 * t ** -2.25 + 5e-14 * t
