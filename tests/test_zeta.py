"""Hardy Z, theta, and |zeta|^2 against frozen independent reference values."""

from __future__ import annotations

import ast
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import zetaladder
from zetaladder import _kernels, zeta
from zetaladder.errors import DomainTooSmall, RangeTooLarge
from zetaladder.ladder import LadderModel
from zetaladder.zeta import ZSample, err_bound, hardy_z, rs_theta, zeta_mod_sq

from _oracles import (
    C_TABLES,
    GRAM0,
    THETA_10,
    THETA_100,
    Z_20,
    Z_1000,
    ZEROS,
    ZEROS_RUN_HIGH,
    ZEROS_RUN_LOW,
    ZEROS_RUN_MID,
    ZETA_SQ_1000,
    ZETA_SQ_SAMPLES,
    eta_zeta,
    z_many,
)

# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------


def test_theta_at_100_matches_reference():
    assert rs_theta(100.0) == pytest.approx(THETA_100, abs=5e-11)


def test_theta_at_10_matches_reference():
    # small-t branch goes through loggamma directly
    assert rs_theta(10.0) == pytest.approx(THETA_10, abs=1e-12)


def test_theta_vanishes_at_first_gram_point():
    assert rs_theta(GRAM0) == pytest.approx(0.0, abs=5e-12)


def test_theta_branches_agree_at_seam():
    # asymptotic and loggamma evaluations must agree where the branch flips
    from scipy.special import loggamma

    for t in (28.0, 30.0, 35.0, 50.0):
        exact = float(loggamma(0.25 + 0.5j * t).imag) - 0.5 * t * math.log(math.pi)
        assert rs_theta(t) == pytest.approx(exact, abs=1e-10)


def test_theta_rejects_negative_t():
    with pytest.raises(DomainTooSmall):
        rs_theta(-1.0)


@pytest.mark.parametrize("name", ["hardy_z", "zeta_mod_sq", "prime_pi", "rs_theta",
                                  "err_bound", "normalizer", "normalizer_prime"])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_exported_height_functions_refuse_non_finite_heights(name, t):
    # NaN passes a t < 0 guard; each raises a typed domain error instead of a
    # ValueError, an OverflowError or a NaN result (prime_pi(inf) passes its
    # sieve bound, a resource limit)
    fn = getattr(zetaladder, name)
    if name == "prime_pi" and t == math.inf:
        with pytest.raises(RangeTooLarge):
            fn(t)
        return
    with pytest.raises(DomainTooSmall):
        fn(t)


# ---------------------------------------------------------------------------
# Z point values and sign structure
# ---------------------------------------------------------------------------


def test_z_at_20_value_and_sign():
    s = hardy_z(20.0)
    assert isinstance(s, ZSample)
    assert s.route == "eta"
    assert s.z == pytest.approx(Z_20, abs=1e-11)
    assert s.z > 0.0


def test_z_at_1000_matches_reference():
    s = hardy_z(1000.0)
    assert s.route == "rs"
    assert s.z == pytest.approx(Z_1000, abs=5e-9)
    assert abs(s.z - Z_1000) <= 3.0 * s.err_bound + 1e-12


def test_zeta_mod_sq_at_1000():
    assert zeta_mod_sq(1000.0) == pytest.approx(ZETA_SQ_1000, rel=1e-8)


@pytest.mark.parametrize("t,ref", sorted(ZETA_SQ_SAMPLES.items()))
def test_zeta_mod_sq_sample_grid(t, ref):
    assert zeta_mod_sq(t) == pytest.approx(ref, rel=1e-6)


@pytest.mark.parametrize("n,t0", sorted(ZEROS.items()))
def test_z_vanishes_at_zero_ordinates(n, t0):
    assert abs(hardy_z(t0).z) <= 1e-6


def test_z_changes_sign_between_consecutive_zeros():
    # evaluate at midpoints of consecutive zero gaps: signs must alternate
    for run in (ZEROS_RUN_LOW, ZEROS_RUN_MID, ZEROS_RUN_HIGH):
        mids = [0.5 * (a + b) for a, b in zip(run, run[1:])]
        signs = [math.copysign(1.0, hardy_z(m).z) for m in mids]
        for s1, s2 in zip(signs, signs[1:]):
            assert s1 == -s2


def test_z_many_matches_scalar_on_mixed_routes():
    ts = np.array([15.0, 60.0, 99.9, 100.1, 500.0, 2500.25])
    vec = z_many(ts)
    for t, v in zip(ts, vec):
        assert v == pytest.approx(hardy_z(float(t)).z, abs=1e-12)


def test_zeta_mod_sq_below_switch_matches_z_squared():
    # below the switch |zeta|^2 comes from the eta series without theta
    for t in np.linspace(0.0, 100.0, 41)[1:-1]:
        assert zeta_mod_sq(float(t)) == pytest.approx(hardy_z(float(t)).z ** 2,
                                                      rel=0.0, abs=1e-13)


def _bits(zs) -> bytes:
    return np.asarray(zs, dtype=np.complex128).tobytes()


def test_batched_eta_is_the_scalar_series_at_every_build_node(monkeypatch):
    # the nodes of every knot interval below the switch, batched a chunk of
    # intervals at a time
    pieces = []
    batch = zeta.eta_mod_sq

    def recorded(ts):
        pieces.append(np.array(ts))
        return batch(ts)

    monkeypatch.setattr(zeta, "eta_mod_sq", recorded)
    LadderModel().extend_to(100.0)
    assert sum(map(len, pieces)) >= 200 * 33 and all(len(ts) % 33 == 0 for ts in pieces)
    for ts in pieces:
        ref = [eta_zeta(t) for t in ts.tolist()]
        assert _bits(zeta._eta_zeta(ts)) == _bits(ref)
        assert batch(ts).tolist() == [abs(z) ** 2 for z in ref]


def test_batched_eta_is_the_scalar_series_at_random_heights():
    # one batch over many series lengths, unsorted, scatters back in place;
    # its denominators 1 - 2^{1-s} from numpy's real cos and sin are the
    # reference's Python complex powers
    ts = np.random.default_rng(12).uniform(0.0, 100.0, 10_000)
    ref = [eta_zeta(t) for t in ts.tolist()]
    assert _bits(zeta._eta_zeta(ts)) == _bits(ref)
    assert zeta.eta_mod_sq(ts).tolist() == [abs(z) ** 2 for z in ref]
    assert [zeta_mod_sq(t) for t in ts[:40].tolist()] == [abs(z) ** 2 for z in ref[:40]]


def test_batched_eta_is_the_scalar_series_past_its_weight_cache():
    # t in [0, 100) spans about 90 series lengths, more than the 64 whose
    # weights are kept; the first lengths are evicted and built again
    zeta._borwein.cache_clear()
    ts = np.linspace(0.0, 99.9, 300)
    ref = [abs(eta_zeta(t)) ** 2 for t in ts.tolist()]
    assert zeta.eta_mod_sq(ts).tolist() == ref
    info = zeta._borwein.cache_info()
    assert info.misses > info.maxsize == 64 and info.currsize <= 64
    assert zeta.eta_mod_sq(ts[:20]).tolist() == ref[:20]
    assert zeta._borwein.cache_info().currsize <= 64


def test_hardy_z_below_the_switch_is_the_scalar_series():
    for t in np.linspace(0.0, 100.0, 57)[:-1].tolist():
        th = rs_theta(t)
        ref = (complex(math.cos(th), math.sin(th)) * eta_zeta(t)).real
        assert hardy_z(t).z == ref


def test_import_and_table_build_leave_scipy_special_unloaded():
    # scipy.special costs ~19 MB and ~0.25 s to import; only theta below
    # t = 10 needs it, and neither a table build nor a gap report reaches it.
    # The process pool's module (~1 MB) loads only where a scan forks, and
    # numpy.fft not at all: the correction table ships as data.
    import zetaladder

    src = os.path.dirname(os.path.dirname(os.path.abspath(zetaladder.__file__)))
    code = ("import sys, zetaladder\n"
            "from zetaladder.zeta import zeta_mod_sq\n"
            "m = zetaladder.LadderModel(zetaladder.RunConfig(l_floor=30))\n"
            "m.extend_to(120.0)\n"
            "zetaladder.gap_rho(zetaladder.ChainFactory(m).tower(30, 0.5, 1), 0)\n"
            "zeta_mod_sq(5.0)\n"
            "assert 'scipy.special' not in sys.modules, 'scipy.special imported'\n"
            "assert 'concurrent.futures.process' not in sys.modules, 'pool imported'\n"
            "assert 'numpy.fft' not in sys.modules, 'numpy.fft imported'\n")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_z_many_rejects_negative_heights():
    with pytest.raises(DomainTooSmall):
        z_many(np.array([10.0, -0.5]))


# ---------------------------------------------------------------------------
# route seam and error bounds
# ---------------------------------------------------------------------------


def test_routes_agree_across_switch_height():
    # the eta route evaluated above the switch, against the rs route there,
    # where the main-sum truncation is already decent
    for t in (150.0, 250.0, 399.0):
        a = hardy_z(t)
        assert a.route == "rs"
        eta = zeta._eta_z(t, rs_theta(t))
        assert a.z == pytest.approx(eta, abs=2.0 * err_bound(t) + 1e-11)


@pytest.mark.parametrize("a, b", [(0.0, 50.0), (50.0, 100.0), (99.5, 100.0), (100.0, 100.5),
                                  (80.0, 310.0), (3.0, 2200.0), (307.5, 308.0)])
def test_zsq_stretches_tile_the_range_but_the_jump_gaps(a, b):
    # eta below the switch, Riemann-Siegel above; a stretch ends at the seam,
    # and the only holes are the one-ulp gaps left at the jumps of the
    # Riemann-Siegel formula, none of which a stretch spans
    stretches = zeta.zsq_stretches(a, b)
    assert stretches[0][1] == a and stretches[-1][2] == b
    for f, lo, hi in stretches:
        assert lo < hi
        assert (f, hi <= 100.0, lo >= 100.0) in [(zeta.eta_mod_sq, True, False),
                                                (zeta._rs_zsq, False, True)]
        if f is zeta._rs_zsq:
            rt = np.sqrt(np.linspace(lo, hi, 33) / _kernels.TWO_PI)
            assert (rt.astype(np.int64) == int(rt[0])).all()
    for (f, _, hi), (g, nxt, _) in zip(stretches, stretches[1:]):
        if f is zeta.eta_mod_sq:
            assert g is zeta._rs_zsq and hi == nxt == 100.0
        else:
            assert nxt == math.nextafter(hi, math.inf)


def test_zsq_stretches_hand_out_module_level_evaluators():
    # callers batch stretches by evaluator identity, so every call gives the
    # same two objects; the Riemann-Siegel one is the batch kernel's Z squared
    seen = {f for a, b in [(0.0, 1.0), (99.0, 101.0), (500.0, 2000.0)]
            for f, _, _ in zeta.zsq_stretches(a, b)}
    assert seen == {zeta.eta_mod_sq, zeta._rs_zsq}
    ts = np.linspace(100.0, 2200.0, 101)
    z = _kernels.z_rs_many(ts, 4)
    assert zeta._rs_zsq(ts).tobytes() == (z * z).tobytes()


def test_only_zeta_imports_the_kernels():
    # zeta is the package's one door to the Riemann-Siegel kernels
    src = os.path.dirname(zetaladder.__file__)
    importers = set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
                names.append(node.module or "")
            else:
                continue
            if any("_kernels" in n.split(".") for n in names):
                importers.add(name)
    assert importers == {"zeta.py"}


def test_err_bound_below_the_switch_is_the_eta_budget():
    assert err_bound(50.0) == 1e-12


def test_err_bound_decreases_with_more_correction_terms():
    t = 300.0
    bounds = [_kernels.err_bound_rs(t, k) for k in (1, 2, 3, 4)]
    assert all(b > 0 for b in bounds)
    assert bounds == sorted(bounds, reverse=True)


def test_err_bound_shrinks_with_height_on_rs_route():
    assert err_bound(10_000.0) < err_bound(200.0)


def test_err_bound_covers_actual_error_at_reference_points():
    for t, ref in ((1000.0, Z_1000), (20.0, Z_20)):
        s = hardy_z(t)
        assert abs(s.z - ref) <= 3.0 * s.err_bound + 1e-12


# ---------------------------------------------------------------------------
# Riemann-Siegel correction tables
# ---------------------------------------------------------------------------


def _coeff(j: int, p: float) -> float:
    """Evaluate correction function C_j at fractional part p via chebval.

    Deliberately does NOT reuse the package's correction kernel, so the stored
    coefficient tables get an independent evaluation path here.
    """
    from zetaladder._rs_tables import CTAB

    return float(np.polynomial.chebyshev.chebval(2.0 * p - 1.0, CTAB[j]))


def test_c1_quarter_is_one_ninety_sixth():
    assert _coeff(1, 0.25) == pytest.approx(1.0 / 96.0, abs=1e-13)


@pytest.mark.parametrize("p", sorted(C_TABLES))
@pytest.mark.parametrize("j", [0, 1, 2, 3])
def test_c_tables_spot_values(p, j):
    ref = C_TABLES[p][j]
    assert _coeff(j, p) == pytest.approx(ref, abs=2e-13)


def test_c0_endpoint_symmetry():
    assert _coeff(0, 0.0) == pytest.approx(math.cos(math.pi / 8), abs=1e-13)
    assert _coeff(0, 0.5) == pytest.approx(math.sin(math.pi / 8), abs=1e-13)
    assert _coeff(0, 1.0) == pytest.approx(_coeff(0, 0.0), abs=1e-13)
