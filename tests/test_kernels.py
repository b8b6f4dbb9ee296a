"""Kernel paths checked against each other.

Every one-point Z goes through the scalar core; arrays go through the numpy
batch, which shares theta and the Clenshaw recurrence with it but sums the
main series in one vectorized pass.  The Z^2 integral runs batched panels;
``numerics.integrate`` over scalar ``zeta_mod_sq`` reaches the same integral
through the scalar core instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from zetaladder import _kernels
from zetaladder.config import DEFAULT_CONFIG
from zetaladder.numerics import integrate
from zetaladder.zeta import err_bound, zeta_mod_sq

_TS = (100.0, 120.0, 150.0, 314.159, 777.0, 1000.0, 2200.0, 2500.25, 4321.5, 9999.5)


def test_z_values_agree_between_paths():
    many = _kernels.z_rs_many(np.array(_TS), 4)
    one = np.array([_kernels.z_rs_one(t, 4) for t in _TS])
    np.testing.assert_allclose(one, many, rtol=0.0, atol=1e-13)


def test_scalar_and_vector_kernels_agree():
    # every correction depth, one point at a time and as one batch
    for nterms in (1, 2, 3):
        many = _kernels.z_rs_many(np.array(_TS), nterms)
        for t, ref in zip(_TS, many):
            assert _kernels.z_rs_one(t, nterms) == pytest.approx(float(ref), abs=1e-13)


def test_theta_agrees_between_paths():
    batch = _kernels._theta_asym(np.array(_TS))
    for t, ref in zip(_TS, batch):
        assert _kernels.theta_asym(t) == pytest.approx(float(ref), abs=1e-13)


def test_zsq_integral_agrees_between_paths():
    a, b = 300.0, 312.0
    val, err, evals = _kernels.zsq_integral_rs(a, b, 1e-10, 1.0, 4)
    ref = integrate(lambda u: zeta_mod_sq(u, DEFAULT_CONFIG), a, b,
                    tol=1e-10, min_wavelength=1.0)
    assert val == pytest.approx(ref.value, abs=5e-11)
    assert err <= 1e-9 and ref.error_estimate <= 1e-9
    assert evals > 0 and evals % 33 == 0


def test_zsq_integral_empty_and_reversed_intervals():
    assert _kernels.zsq_integral_rs(500.0, 500.0, 1e-10, 1.0, 4) == (0.0, 0.0, 0)
    fwd = _kernels.zsq_integral_rs(500.0, 503.0, 1e-10, 1.0, 4)
    back = _kernels.zsq_integral_rs(503.0, 500.0, 1e-10, 1.0, 4)
    assert back[0] == -fwd[0]


def test_err_bound_identical_between_paths():
    for t in (100.0, 1000.0, 9999.5):
        assert err_bound(t, DEFAULT_CONFIG) == _kernels.err_bound_rs(t, 4)
    assert _kernels.err_bound_rs(1000.0, 4) == pytest.approx(
        0.031 * 1000.0 ** -2.25 + 5e-14 * 1000.0, rel=1e-15
    )
