"""Frozen high-precision reference values and reference code for the tests.

Every value in this module was computed independently of the package under
test, with mpmath at mp.dps = 30 (see the generator script noted below), and
is frozen here as string literals truncated to 22 significant digits.  Tests
compare package output against these constants; they must never be
regenerated from package code.

The last section holds reference code: the plain bisection loop the package's
root loop is measured against, the one-point eta series the package's batched
one must equal bit for bit (its denominator 1 - 2^{1-s} a Python complex
power), the Riemann-Siegel correction from a basis of cosines alone (which
the package's split basis must equal bit for bit), the ladder's read path as
it read interpolant rows (which its landed form must equal bit for bit), the
derivation of the Riemann-Siegel correction table the package ships as data
(which that table must equal bit for bit), a fresh re-evaluation of a solved
chain's defining identity, and small helpers that only the tests use (a
mixed-route Z batch, segment membership, a swapped delta pair).

Generator: mpmath 1.3.0 --
  zeros       mp.zetazero(n).imag
  hardy Z     mp.siegelz(t)
  theta       mp.siegeltheta(t)
  |zeta|^2    abs(mp.zeta(0.5 + 1j*t))**2
  gram0       root of theta(t) = 0 near 17.8 (Gram point g_0)
  C_j tables  Riemann-Siegel coefficient series: derivatives of
              Psi(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p),
              evaluated by high-precision Cauchy integrals at mp.dps = 30.
"""

from __future__ import annotations

import math

import numpy as np

# --- theta / Z point values -------------------------------------------------

GRAM0 = 17.84559954041086081683  # first nonnegative root of theta
THETA_100 = 87.97216523178721962548
THETA_10 = -3.067074396289895291702
Z_20 = 1.147842412185197277635  # note: positive (Z has a sign, not |Z|)
Z_1000 = 0.997794637521586613986
ZETA_SQ_1000 = 0.9955941386668344216045

# --- nontrivial zeros: ordinates of zeta on the critical line ---------------

ZEROS = {
    1: 14.13472514173469379046,
    2: 21.02203963877155499263,
    3: 25.01085758014568876321,
    4: 30.42487612585951321031,
    5: 32.93506158773918969066,
    10: 49.77383247767230218192,
    50: 143.1118458076206327394,
    100: 236.5242296658162058025,
    500: 811.1843588465062603379,
    1000: 1419.422480945995686466,
    2000: 2515.286482924712880038,
}

# consecutive runs (for sign-change-per-gap checks)
ZEROS_RUN_LOW = [
    14.13472514173469379046,
    21.02203963877155499263,
    25.01085758014568876321,
    30.42487612585951321031,
    32.93506158773918969066,
    37.58617815882567125722,
    40.9187190121474951874,
    43.3270732809149995195,
    48.00515088116715972794,
    49.77383247767230218192,
    52.97032147771446064415,
    56.44624769706339480437,
    59.34704400260235307965,
    60.83177852460980984426,
    65.11254404808160666088,
    67.07981052949417371448,
    69.54640171117397925293,
    72.06715767448190758252,
    75.70469069908393316833,
    77.14484006887480537268,
    79.33737502024936792276,
]
ZEROS_RUN_MID = [
    236.5242296658162058025,
    237.7698204809252040032,
    239.5554775733276287403,
    241.0491577962165864128,
]
ZEROS_RUN_HIGH = [
    1419.422480945995686466,
    1420.416526323751136034,
    1421.850567187048653911,
]

# --- |zeta(1/2 + it)|^2 samples (criterion: 1e-5 relative) -------------------

ZETA_SQ_SAMPLES = {
    250.0: 0.8438873573207097668982,
    775.5: 0.448120333779001205829,
    1234.5: 2.18448620639455899805,
    2500.25: 1.215506095250534445315,
    5000.0: 0.6468297022260685519216,
    9999.5: 14.10093045254730286563,
}

# --- Riemann-Siegel correction terms C_0..C_3 at spot fractional parts ------
# C_TABLES[p] = [C_0(p), C_1(p), C_2(p), C_3(p)].  C_1(1/4) = 1/96 exactly;
# C_0(0) = C_0(1) = cos(pi/8), C_0(1/2) = sin(pi/8).

C_TABLES = {
    0.0: [
        0.9238795325112867561282,
        -0.03059730649970626546068,
        0.001268874164589105006661,
        -0.0001986852094053024322293,
    ],
    0.1: [
        0.7107455789448921537561,
        0.0002880619960420042351806,
        0.002193140776579503325569,
        -0.0001061066250292585159434,
    ],
    0.25: [
        0.5,
        0.01041666666666666666667,
        0.004612789400674123148571,
        0.000258958589411704952177,
    ],
    0.5: [
        0.3826834323650897717285,
        8.38481452090977127668e-34,
        0.005188542830293168493785,
        -8.154326463708581690431e-35,
    ],
    0.64: [
        0.4177696721695504999216,
        -0.007140884873310980460849,
        0.005144401202956482097115,
        -0.0002955121061473029496968,
    ],
    0.75: [
        0.5,
        -0.01041666666666666666667,
        0.004612789400674123148571,
        -0.000258958589411704952177,
    ],
    1.0: [
        0.9238795325112867561282,
        0.03059730649970626546068,
        0.001268874164589105006661,
        0.0001986852094053024322293,
    ],
}

# --- cumulative second moment ------------------------------------------------
# int_0^100 Z(u)^2 du, mpmath quad subdivided at the zero ordinates (dps=25)
A_100 = 295.6350990547191303702

# --- normalizer ---------------------------------------------------------------
# V'(y) = log y + 1 + gamma - log 2 pi vanishes at 2 pi e^(-1 - gamma)
MONOTONE_FLOOR = 1.297788161915471521576

# --- closed-form constant used by the tower tests ---------------------------
# mean of sin^2 over [0, pi/4]: (1/2)(1 - 2/pi) -- exact, not an oracle,
# but kept here so the tests quote one authoritative float for it.
SIN2_MEAN_QUARTER_PI = 0.18169011381620932846  # 0.5 * (1 - 2/pi)


# --- reference code -------------------------------------------------------------


def chain_identity_residual(model, chain) -> float:
    """|f(alpha_0 - pi L) prod_r ztilde_sq(alpha_r) / level - 1|, re-evaluated.

    Each factor is read again at the chain's stored points through
    ``LadderModel.step`` (not the stored zt2, nor the package's own fresh
    re-evaluation) and the identity compared in log space, so enormous or
    tiny factors do not overflow it.
    """
    f0 = chain.gf.fn(float(chain.alpha[0]) - math.pi * chain.l)
    logs = [math.log(f0)] + [math.log(model.step(float(a))[2]) for a in chain.alpha[1:]]
    return abs(math.expm1(math.fsum(logs) - math.log(chain.level)))


def bisect(g, lo: float, hi: float, f_lo: float, tol: float) -> float:
    """Plain bisection of [lo, hi], on which g changes sign and f_lo = g(lo) != 0.

    Halves until the width is <= tol or the midpoint no longer lies strictly
    inside, and returns the final midpoint; an exact zero returns at once.
    The package's root loop must never need more evaluations than this.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f_mid = g(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) != (f_mid < 0.0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def eta_zeta(t: float) -> complex:
    """zeta(1/2 + it) from the Borwein-accelerated alternating eta series, one
    height at a time: the scalar recipe the package's batched series keeps."""
    n = int((1.5708 * t + 45.0) / 1.7627) + 8
    i = np.arange(1, n + 1, dtype=np.float64)
    ratios = 4.0 * (n + i - 1.0) * (n - i + 1.0) / ((2.0 * i) * (2.0 * i - 1.0))
    terms = np.concatenate(([1.0], np.cumprod(ratios)))
    d = np.cumsum(terms)
    s = complex(0.5, t)
    k = np.arange(n, dtype=np.float64)
    coeff = (d[:n] - d[n]) * np.where(k % 2 == 0, 1.0, -1.0)
    eta = -(coeff * np.exp(-s * np.log(k + 1.0))).sum() / d[n]
    return complex(eta / (1.0 - 2.0 ** (1.0 - s)))


def rs_remainder(rt: np.ndarray, big_n: np.ndarray, nterms: int) -> np.ndarray:
    """The signed Riemann-Siegel correction from all 29 basis rows as cosines,
    T_k(u) = cos(k arccos u), summed to depth nterms: at the package's one
    depth, 4, the form its split basis keeps, bit for bit, on every batch of
    two or more heights; shallower depths peel the rows apart."""
    from zetaladder._kernels import _CT

    u = 2.0 * (rt - big_n) - 1.0
    basis = np.arccos(u)[:, None] * np.arange(_CT.shape[0], dtype=np.float64)
    rows = np.cos(basis) @ _CT
    irt = 1.0 / rt
    corr = rows[:, nterms - 1] + 0.0
    for k in range(nterms - 2, -1, -1):
        corr = corr * irt + rows[:, k]
    return (2.0 * (big_n % 2.0) - 1.0) * corr / np.sqrt(rt)


#: Chebyshev degree of each fitted correction function
DEGREE = 64
#: contour radius and sample count for the derivative transform
_RADIUS = 0.5
_SAMPLES = 512


def _psi(z: np.ndarray) -> np.ndarray:
    return np.cos(2.0 * np.pi * (z * z - z - 0.0625)) / np.cos(2.0 * np.pi * z)


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
    """(4, degree+1) Chebyshev coefficients of C_0..C_3 on p in [0, 1].

    The derivation of ``zetaladder._kernels._CT``, which ships the first 29
    columns, transposed to one row per degree: each C_k at the extrema nodes
    from Cauchy-integral derivatives of Psi on a half-step-offset ring, then
    a DCT-I per row.  The columns past 28 are kept here so the test suite
    can check that the dropped tail is below noise.
    """
    j = np.arange(degree + 1)
    p = 0.5 * (1.0 + np.cos(np.pi * j / degree))

    ang = 2.0 * np.pi * (np.arange(_SAMPLES) + 0.5) / _SAMPLES
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


#: a row is [lo, hi, b_0..b_33, c_0..c_32]: integral, then f coefficients
_NB = 34
_CHEB_K = np.arange(_NB, dtype=np.float64)


def land_rows(rows: np.ndarray, total: float, width: float) -> np.ndarray:
    """Rows shifted in place to integrate from the first lo and total ``total``.

    The shortfall delta lands as a linear term over ``width``; its slope
    joins f.
    """
    b = rows[:, 2:2 + _NB]
    ints = b.sum(axis=-1)
    delta = total - float(ints.sum())
    share = delta * (rows[:, 1] - rows[:, 0]) / width
    b[:, 0] += np.cumsum(ints + share) - (ints + share) + 0.5 * share
    b[:, 1] += 0.5 * share
    rows[:, 2 + _NB] += delta / width
    return rows


def eval_rows(rows: np.ndarray, t: float) -> tuple[float, float]:
    """(integral as landed, f) at t from one basis and two dot products."""
    n = len(rows)
    row = rows[0 if n == 1 else min(int(np.searchsorted(rows[:, 1], t)), n - 1)]
    lo, hi = float(row[0]), float(row[1])
    x = min(1.0, max(-1.0, (2.0 * t - lo - hi) / (hi - lo)))
    basis = np.cos(math.acos(x) * _CHEB_K)
    return float(basis @ row[2:2 + _NB]), float(basis[:-1] @ row[2 + _NB:])


class RowReadPath:
    """A(t), Z(t)^2 and the ladder step of a model, read from landed rows.

    The model's knot table and raw fits, read the way the ladder read them
    before it landed each interval into its own form: a searchsorted over
    the rows, and Newton through ``normalizer``/``normalizer_prime`` with
    V(t_min) recomputed on every step.
    """

    def __init__(self, model):
        self.model = model
        self.rows: dict[int, np.ndarray] = {}

    def interval(self, t: float) -> int:
        vals, h = self.model.table.values, self.model.table.spacing
        if not 0.0 < t <= (len(vals) - 1) * h:
            self.model.extend_to(t)
        j = min(int(t / h), len(vals) - 1)
        if t <= j * h or j == len(vals) - 1:
            j -= 1
        return j

    def lookup(self, t: float) -> tuple[float, float]:
        j = self.interval(t)
        vals, h = self.model.table.values, self.model.table.spacing
        if j not in self.rows:
            self.rows[j] = land_rows(self.model._raw_fit(j), vals[j + 1] - vals[j], h)
        integral, zsq = eval_rows(self.rows[j], t)
        if (j + 1) * h == t:
            return vals[j + 1], zsq
        return vals[j] + integral, zsq

    def cumulative_hl(self, t: float) -> float:
        if t == 0.0:
            return 0.0
        j = self.interval(t)
        if (j + 1) * self.model.table.spacing == t:
            return self.model.table.values[j + 1]
        return self.lookup(t)[0]

    def step(self, t: float) -> tuple[float, float, float]:
        from zetaladder.ladder import normalizer, normalizer_prime

        cfg = self.model.config
        a, zsq = self.lookup(t)
        if a < normalizer(cfg.t_min):
            raise ValueError(f"A({t}) below the normalizer floor")
        y = max(t, cfg.t_min)
        for _ in range(64):
            dy = (normalizer(y) - a) / normalizer_prime(y)
            y = max(y - dy, cfg.t_min)
            if abs(dy) <= 0.25 * cfg.root_tol:
                om = normalizer_prime(y)
                return y, om, zsq / om
        raise ValueError(f"no convergence at {t}")


def z_many(ts: np.ndarray) -> np.ndarray:
    """Z over mixed heights, each routed like ``zeta.hardy_z``: the batched
    Riemann-Siegel kernel at or above the switch, the eta series below."""
    from zetaladder import _kernels, zeta
    from zetaladder.config import DEFAULT_CONFIG as config
    from zetaladder.errors import DomainTooSmall

    ts = np.asarray(ts, dtype=np.float64)
    if ts.size and float(ts.min()) < 0.0:
        raise DomainTooSmall("z_many requested below t=0")
    out = np.empty_like(ts)
    hi = ts >= config.rs_switch
    if hi.any():
        out[hi] = _kernels.z_rs_many(ts[hi], config.rs_terms)
    for idx in np.nonzero(~hi)[0]:
        t = float(ts[idx])
        out[idx] = zeta._eta_z(t, zeta.rs_theta(t))
    return out


def segment_contains(seg, t: float, slack: float = 1e-9) -> bool:
    """Whether t lies in the closed segment [seg.lo, seg.hi], widened by slack."""
    return seg.lo - slack <= t <= seg.hi + slack


def swapped(pair):
    """The delta pair with d3 and d4 exchanged."""
    return type(pair)(pair.d4, pair.d3)
