"""Special-function kernels checked against arbitrary-precision oracles."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudlayers.numerics import (MIN_ARG, PARAM_CEIL, bessel_i_ratio,
                                  clamp_positive, digamma, log_bessel_i0,
                                  trigamma)
from oracles import finite_diff_gradient

mpmath.mp.dps = 50

# Grid spanning the small-argument and asymptotic regimes.
GRID = [0.01, 0.1, 0.5, 1.0, 1.5, 2.0, 5.0, 10.0, 37.5, 100.0, 500.0]


@pytest.mark.parametrize("x", GRID)
def test_digamma_against_mpmath(x):
    expected = float(mpmath.digamma(x))
    assert digamma(x) == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("x", GRID)
def test_trigamma_against_mpmath(x):
    expected = float(mpmath.psi(1, x))
    assert trigamma(x) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("k", [0.01, 0.5, 1.0, 2.0, 10.0, 50.0])
def test_bessel_i_against_mpmath(order, k):
    # I0 = exp(log I0) and I1 = I0 * (I1 / I0), from the kept pair.
    value = np.exp(log_bessel_i0(k)) * (bessel_i_ratio(k) if order else 1.0)
    expected = float(mpmath.besseli(order, k))
    assert value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("k", [0.01, 1.0, 10.0, 100.0, 700.0, 5000.0])
def test_log_bessel_i0_against_mpmath(k):
    expected = float(mpmath.log(mpmath.besseli(0, k)))
    assert log_bessel_i0(k) == pytest.approx(expected, rel=1e-12)
    assert np.isfinite(log_bessel_i0(k))


@pytest.mark.parametrize("k", [0.01, 1.0, 10.0, 100.0, 700.0])
def test_bessel_i_ratio_against_mpmath(k):
    expected = float(mpmath.besseli(1, k) / mpmath.besseli(0, k))
    assert bessel_i_ratio(k) == pytest.approx(expected, rel=1e-11)


def test_bessel_i_ratio_large_kappa_tends_to_one():
    assert bessel_i_ratio(1e5) == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("fn", [digamma, trigamma, log_bessel_i0,
                                bessel_i_ratio])
@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_positivity_is_enforced(fn, bad):
    with pytest.raises(ValueError):
        fn(bad)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.05, max_value=200.0))
def test_digamma_recurrence(x):
    assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x,
                                             rel=1e-10, abs=1e-10)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.1, max_value=50.0))
def test_bessel_ratio_is_dlog_i0(k):
    # d/dk log I0(k) = I1(k) / I0(k).
    fd = finite_diff_gradient(lambda v: log_bessel_i0(v[0]), np.array([k]))
    assert bessel_i_ratio(k) == pytest.approx(fd[0], rel=1e-5, abs=1e-7)


def test_clamp_positive_bounds():
    assert clamp_positive(0.0) == MIN_ARG
    assert clamp_positive(1e300) == PARAM_CEIL
    assert clamp_positive(3.0) == 3.0


def test_finite_diff_gradient_on_quadratic():
    # grad of x0^2 + 3 x0 x1 at (1, 2) is (2 + 6, 3) = (8, 3).
    f = lambda x: x[0] ** 2 + 3.0 * x[0] * x[1]
    g = finite_diff_gradient(f, np.array([1.0, 2.0]))
    np.testing.assert_allclose(g, [8.0, 3.0], atol=1e-6)
