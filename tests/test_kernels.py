"""Kernel paths checked against each other and against the correction tables.

Every one-point Z goes through the scalar core; arrays go through the numpy
batch, which shares theta and the Riemann-Siegel correction with it but sums
the main series in one vectorized pass.  Both are plain Python and numpy:
there is no compiled twin.  The correction evaluates each Chebyshev row to
index 28 through one basis product, its rows past degree 14 taken from a
product identity; here it is checked bit for bit against a basis of cosines
alone, against the full degree-64 rows evaluated by ``chebval`` and, row by
row through the oracle's shallower depths, against the high-precision spot
values, and the shipped rows against their derivation, bit for bit.  The
kernels have one depth, the table's; the benchmark's call shapes that still
name it are refused any other.  A height's Z does not depend on its batch, a batch
of one included.  The Z^2 integral runs batched panels under the package's
one quadrature loop; ``numerics.integrate`` over scalar ``zeta_mod_sq``
reaches the same integral through the scalar core instead.  The formula
jumps where its main sum gains a term, and ``rs_spans`` cuts an interval
there.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetaladder import _kernels
from zetaladder.config import RunConfig
from zetaladder.errors import NonConvergence, UsageError
from zetaladder.numerics import integrate, piece_nodes
from zetaladder.zeta import err_bound, zeta_mod_sq

from _oracles import C_TABLES, build_tables, rs_remainder

_TS = (100.0, 120.0, 150.0, 314.159, 777.0, 1000.0, 2200.0, 2500.25, 4321.5, 9999.5)


def test_z_values_agree_between_paths():
    many = _kernels.z_rs_many(np.array(_TS), 4)
    one = np.array([_kernels.z_rs_one(t) for t in _TS])
    np.testing.assert_allclose(one, many, rtol=0.0, atol=1e-13)


def test_the_kernels_refuse_every_depth_but_the_tables():
    # the depth is _CT's column count; the two benchmark call shapes that
    # still name it only check it, and the hashed config names the same
    assert RunConfig.rs_terms == _kernels._CT.shape[1] == 4
    for nterms in (0, 3, 5):
        with pytest.raises(UsageError, match="4 correction terms"):
            _kernels.z_rs_many(np.array(_TS), nterms)
        with pytest.raises(UsageError, match="4 correction terms"):
            _kernels.zsq_integral_rs(500.0, 503.0, 1e-10, 1.0, nterms)


@settings(max_examples=40, deadline=None)
@given(spans=st.lists(st.tuples(st.floats(100.0, 5999.5), st.floats(1e-9, 0.5)),
                      min_size=2, max_size=12),
       seed=st.integers(0, 2**32 - 1))
@example(spans=[(1500.0, 0.5), (2200.0, 0.5)], seed=0)
def test_a_heights_z_does_not_depend_on_its_batch(spans, seed):
    # a table extension evaluates many pieces' nodes in one batch; each
    # must read, bit for bit, what the piece's own 33-node batch reads
    lo = np.array([a for a, _ in spans])
    nodes = piece_nodes(lo, lo + np.array([w for _, w in spans]))
    order = np.random.default_rng(seed).permutation(nodes.size)
    mixed = np.empty(nodes.size)
    mixed[order] = _kernels.z_rs_many(nodes.ravel()[order], 4)
    alone = np.concatenate([_kernels.z_rs_many(row, 4) for row in nodes])
    assert mixed.tobytes() == alone.tobytes()
    # and so must each height on its own, and in pairs
    flat = nodes.ravel()
    single = np.concatenate([_kernels.z_rs_many(flat[i:i + 1], 4) for i in range(flat.size)])
    pairs = np.concatenate([_kernels.z_rs_many(flat[i:i + 2], 4)
                            for i in range(0, flat.size, 2)])
    assert single.tobytes() == pairs.tobytes() == alone.tobytes()


def test_z_at_large_n_does_not_depend_on_its_batch():
    # N = 398 at t = 1e6 and 797 at 4e6, each main sum read after the other
    t = np.array([1e6 + 0.123])
    others = np.array([150.0, 2200.0, 999_999.0, 1e6 + 0.5])
    alone = _kernels.z_rs_many(t, 4)
    batch = _kernels.z_rs_many(np.concatenate([others[:2], t, others[2:]]), 4)[2:3]
    high = _kernels.z_rs_many(np.array([4e6, 4e6 + 0.25]), 4)
    again = _kernels.z_rs_many(t, 4)
    assert alone.tobytes() == batch.tobytes() == again.tobytes()
    assert high[:1].tobytes() == _kernels.z_rs_many(np.array([4e6]), 4).tobytes()


def test_theta_agrees_between_paths():
    batch = _kernels._theta_asym(np.array(_TS))
    for t, ref in zip(_TS, batch):
        assert _kernels.theta_asym(t) == pytest.approx(float(ref), abs=1e-13)


def test_zsq_integral_agrees_between_paths():
    a, b = 300.0, 312.0
    val, err, evals = _kernels.zsq_integral_rs(a, b, 1e-10, 1.0, 4)
    ref = integrate(zeta_mod_sq, a, b,
                    tol=1e-10, min_wavelength=1.0)
    assert val == pytest.approx(ref.value, abs=5e-11)
    assert err <= 1e-9 and ref.error_estimate <= 1e-9
    assert evals > 0 and evals % 33 == 0


def test_zsq_integral_empty_and_reversed_intervals():
    assert _kernels.zsq_integral_rs(500.0, 500.0, 1e-10, 1.0, 4) == (0.0, 0.0, 0)
    fwd = _kernels.zsq_integral_rs(500.0, 503.0, 1e-10, 1.0, 4)
    back = _kernels.zsq_integral_rs(503.0, 500.0, 1e-10, 1.0, 4)
    assert back[0] == -fwd[0]


def test_z_rs_many_of_no_heights_is_empty():
    out = _kernels.z_rs_many(np.array([]), 4)
    assert out.shape == (0,)


def test_zsq_integral_at_the_rounding_floor_raises_at_once():
    # the 17/33 difference floors at ~6.5e-13 here, from the noise of Z^2;
    # halving shrinks it with the tolerance share, so it never converges
    t0 = time.perf_counter()
    with pytest.raises(NonConvergence, match="rounding floor"):
        _kernels.zsq_integral_rs(2112.0, 2112.3716350247705, 5e-13, 1.08, 4)
    assert time.perf_counter() - t0 < 1.0


def test_rs_spans_cut_where_the_main_sum_gains_a_term():
    # t = 2 pi N^2 for N = 4..7 lie in [100, 310]: five spans, each with one N
    spans = _kernels.rs_spans(100.0, 310.0)
    assert len(spans) == 5
    assert spans[0][0] == 100.0 and spans[-1][1] == 310.0
    for (lo, hi), (nxt, _) in zip(spans, spans[1:]):
        assert nxt == math.nextafter(hi, math.inf)
    for n, (lo, hi) in enumerate(spans, start=3):
        rt = np.sqrt(np.linspace(lo, hi, 33) / _kernels.TWO_PI)
        assert (rt.astype(np.int64) == n).all()
    assert _kernels.rs_spans(300.0, 301.0) == [(300.0, 301.0)]


def test_err_bound_identical_between_paths():
    for t in (100.0, 1000.0, 9999.5):
        assert err_bound(t) == _kernels.err_bound_rs(t)
    assert _kernels.err_bound_rs(1000.0) == pytest.approx(
        0.031 * 1000.0 ** -2.25 + 5e-14 * 1000.0, rel=1e-15
    )


# ---------------------------------------------------------------------------
# the stacked Riemann-Siegel correction
# ---------------------------------------------------------------------------


def _remainder_heights() -> np.ndarray:
    """10^5 random heights in [100, 9000] plus heights with p = 0+ and p = 1-."""
    rng = np.random.default_rng(20261018)
    n = np.arange(4, 38, dtype=np.float64)
    edges = np.concatenate([n + 1e-12, n + 1.0 - 1e-12, n + 1e-9, n + 1.0 - 1e-9, n])
    ts = np.concatenate([rng.uniform(100.0, 9000.0, 100_000), 2.0 * np.pi * edges**2])
    return ts[(ts >= 100.0) & (ts <= 9000.0)]


@pytest.mark.parametrize("nterms", [1, 2, 3, 4])
def test_remainder_matches_full_rows(nterms):
    # reference: every fitted coefficient, evaluated row by row by chebval;
    # the kernel sums all four rows, the oracle's cosine basis fewer
    ts = _remainder_heights()
    rt = np.sqrt(ts / (2.0 * np.pi))
    big_n = rt.astype(np.int64)
    p = rt - big_n
    assert p.min() < 1e-11 and p.max() > 1.0 - 1e-11
    full = build_tables()
    ref = np.zeros_like(rt)
    for k in range(nterms - 1, -1, -1):
        ref = ref / rt + np.polynomial.chebyshev.chebval(2.0 * p - 1.0, full[k])
    ref *= np.where(big_n % 2 == 1, 1.0, -1.0) / np.sqrt(rt)
    got = _kernels._rs_remainder(rt, big_n) if nterms == 4 else rs_remainder(rt, big_n, nterms)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=5e-15)


def test_remainder_rows_match_spot_values():
    # with N = 1 and rt = 1 + p, the oracle's successive depths peel off one
    # row each: C_j(p) = (R_{j+1} - R_j) * rt^(j + 1/2)
    ps = np.array(sorted(C_TABLES))
    rt = 1.0 + ps
    one = np.ones(len(ps), dtype=np.int64)
    prev = np.zeros_like(rt)
    for j in range(4):
        cur = rs_remainder(rt, one, j + 1)
        rows = (cur - prev) * rt ** (j + 0.5)
        prev = cur
        ref = np.array([C_TABLES[p][j] for p in ps])
        np.testing.assert_allclose(rows, ref, rtol=0.0, atol=2e-13)


def _check_remainder_is_the_cosine_basis(count: int, seed: int) -> None:
    # sorted heights in [100, 2e5], batched as the kernel batches them: N as
    # one float where a batch has one, an array where it spans several
    rng = np.random.default_rng(seed)
    rt = np.sqrt(np.sort(rng.uniform(100.0, 2e5, count)) / _kernels.TWO_PI)
    big_n = np.floor(rt)
    for size in (528, 33):
        got, ref = [], []
        for i in range(0, rt.size, size):
            r, n = rt[i:i + size], big_n[i:i + size]
            if r.size == 1:  # the reference's one-row product takes BLAS's gemv path
                continue
            got.append(_kernels._rs_remainder(r, float(n[0]) if n[0] == n[-1] else n))
            ref.append(rs_remainder(r, n, 4))
        assert np.concatenate(got).tobytes() == np.concatenate(ref).tobytes()
    # one unsorted batch over many N
    pick = rng.permutation(rt.size)[:528]
    assert np.unique(big_n[pick]).size > 100
    assert (_kernels._rs_remainder(rt[pick], big_n[pick]).tobytes()
            == rs_remainder(rt[pick], big_n[pick], 4).tobytes())


def test_remainder_is_the_cosine_basis_bit_for_bit():
    # basis rows past degree 14 come from the product identity; its rounding
    # meets coefficients below 4.4e-9 and is lost in the remainder's sum
    _check_remainder_is_the_cosine_basis(100_000, 20261020)


@pytest.mark.fuzz
def test_remainder_is_the_cosine_basis_bit_for_bit_long():
    _check_remainder_is_the_cosine_basis(1_000_000, 20261021)


def test_dropped_chebyshev_tail_is_below_noise():
    # the derivation fits degree 64; the kernels keep degrees 0..28
    derived = build_tables()
    kept = _kernels._CT.shape[0]
    assert kept == 29 and derived.shape == (4, 65)
    assert np.abs(derived[:, kept:]).sum(axis=1).max() <= 1.3e-14


def test_shipped_correction_table_is_its_derivation_bit_for_bit():
    # _CT ships as float reprs; the contour-FFT fit they were written from
    # lives in the oracles and must reproduce every bit
    ct = _kernels._CT
    assert ct.dtype == np.float64 and ct.shape == (29, 4)
    assert ct.flags["C_CONTIGUOUS"]
    assert ct.tobytes() == np.ascontiguousarray(build_tables()[:, :29].T).tobytes()
