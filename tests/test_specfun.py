"""Unit tests for the special-function primitives."""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringosc.errors import DomainError
from ringosc.specfun import (
    _laguerre_frexp,
    gamma_ratio_prefactor,
    hyp1f1_terminating,
    jacobi_poly,
    laguerre_poly,
)


# ---------------------------------------------------------------- oracles


def jacobi_series_oracle(n, a, b, x):
    # explicit hypergeometric series definition, independent of the recurrence
    total = 0.0
    for k in range(n + 1):
        total += (
            math.gamma(a + n + 1)
            / (math.factorial(n) * math.gamma(a + b + n + 1))
            * math.comb(n, k)
            * math.gamma(a + b + n + k + 1)
            / math.gamma(a + k + 1)
            * ((x - 1.0) / 2.0) ** k
        )
    return total


def hyp1f1_binomial_oracle(n, b, y):
    # (-n)_k / k! = (-1)^k C(n, k); Pochhammer built afresh per term.
    # Returns the sum and the term-magnitude scale (what cancellation
    # noise is proportional to in either summation route).
    total = 0.0
    scale = 0.0
    for k in range(n + 1):
        poch = 1.0
        for j in range(k):
            poch *= b + j
        term = (-1.0) ** k * math.comb(n, k) * y ** k / poch
        total += term
        scale += abs(term)
    return total, scale


# ----------------------------------------------------------------- jacobi


def test_jacobi_degree_zero_is_one():
    assert jacobi_poly(0, 1.5, 0.3) == 1.0


@pytest.mark.parametrize("a", [0.0, 0.7, 1.5, 3.2])
@pytest.mark.parametrize("x", [-0.8, -0.1, 0.4, 1.0])
def test_jacobi_degree_one_symmetric(a, x):
    assert jacobi_poly(1, a, x) == pytest.approx((a + 1.0) * x, rel=1e-14, abs=1e-14)


def test_jacobi_degree_three_vs_series_oracle():
    value = jacobi_poly(3, 2.0, 0.5)
    oracle = jacobi_series_oracle(3, 2.0, 2.0, 0.5)
    assert value == pytest.approx(oracle, rel=1e-13)
    assert value == pytest.approx(-0.625, rel=1e-13)  # frozen from the oracle


# degrees up to 120 and symmetric indices a = b across (-0.9, 60], those of
# the angular states, on Chebyshev points of [-1, 1] plus the endpoints and
# points 1e-6 inside them
JACOBI_MP_DEGREES = (1, 2, 5, 12, 30, 60, 90, 120)
JACOBI_MP_INDICES = (-0.899, -0.5, 0.0, 1.0, 2.3, 13.7, 60.0)
JACOBI_MP_X = tuple(math.cos(math.pi * (k + 0.5) / 31) for k in range(31)) + (-1.0, -1.0 + 1e-6, 1.0 - 1e-6, 1.0)


@pytest.mark.parametrize("n", JACOBI_MP_DEGREES)
def test_jacobi_vs_mpmath(n):
    # The error is measured against the largest |P| on the grid, which is
    # |P(1)| = |P(-1)| whenever a >= -1/2.  A relative error is not bounded
    # near the zeros of P: the recurrence rounds at the scale of P, so a
    # value far below that scale carries a large relative error.
    with mp.workdps(40):
        for a in JACOBI_MP_INDICES:
            want = [mp.jacobi(n, a, a, x) for x in JACOBI_MP_X]
            scale = max(abs(w) for w in want)
            for x, w in zip(JACOBI_MP_X, want):
                err = abs(jacobi_poly(n, a, x) - w) / scale
                assert err <= 1e-12, (n, a, x, float(err))


@given(
    s=st.integers(min_value=0, max_value=10),
    a=st.floats(min_value=-0.9, max_value=5.0),
    x=st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_jacobi_symmetric_parity(s, a, x):
    plus = jacobi_poly(s, a, x)
    minus = jacobi_poly(s, a, -x)
    scale = max(1.0, abs(plus))
    assert abs(minus - (-1.0) ** s * plus) <= 1e-12 * scale


@pytest.mark.parametrize("degree,a,x", [(-1, 1.0, 1.0), (2, -1.0, 0.5), (2, math.inf, 0.0)])
def test_jacobi_bad_params(degree, a, x):
    with pytest.raises(DomainError):
        jacobi_poly(degree, a, x)


def test_jacobi_argument_out_of_range():
    with pytest.raises(DomainError):
        jacobi_poly(2, 1.0, 1.5)


# --------------------------------------------------------------- laguerre


def test_laguerre_low_degrees():
    assert laguerre_poly(0, 2.5, 7.0) == 1.0
    assert laguerre_poly(1, 2.5, 0.75) == 2.75
    # L_2^(a)(y) = ((a + 1)(a + 2) - 2 (a + 2) y + y^2) / 2
    assert laguerre_poly(2, 1.0, 3.0) == pytest.approx(-1.5, rel=1e-15)


# degrees up to 300 and indices across (-1, 60], on y in [0, 60] plus a
# point 1e-6 above 0
LAGUERRE_MP_DEGREES = (1, 2, 5, 12, 40, 100, 200, 300)
LAGUERRE_MP_INDICES = (-0.999, -0.5, 0.0, 0.5, 2.5, 12.5, 37.0, 60.0)
LAGUERRE_MP_Y = tuple(2.0 * k for k in range(31)) + (1e-6,)


@pytest.mark.parametrize("n", LAGUERRE_MP_DEGREES)
def test_laguerre_vs_mpmath(n):
    # The error is measured against the largest |L| on the grid: the
    # recurrence rounds at the scale of L, so near its zeros a relative
    # error is not bounded.  It grows with n, to 8.2e-14 at n = 300.
    # zeroprec lets mpmath return the exact zero L_1^(37)(38) = 0.
    with mp.workdps(40):
        for a in LAGUERRE_MP_INDICES:
            want = [mp.laguerre(n, a, y, zeroprec=1000) for y in LAGUERRE_MP_Y]
            scale = max(abs(w) for w in want)
            for y, w in zip(LAGUERRE_MP_Y, want):
                err = abs(laguerre_poly(n, a, y) - w) / scale
                assert err <= 1e-12, (n, a, y, float(err))


@pytest.mark.parametrize("n", (0,) + LAGUERRE_MP_DEGREES)
def test_laguerre_frexp_has_the_bits_of_the_recurrence(n):
    for a in LAGUERRE_MP_INDICES:
        for y in LAGUERRE_MP_Y:
            m, e = _laguerre_frexp(n, a, y)
            assert math.ldexp(m, e) == laguerre_poly(n, a, y), (n, a, y)


@pytest.mark.parametrize(
    "n,a,y",
    [(-1, 0.5, 1.0), (2.5, 0.5, 1.0), (2, -1.0, 1.0), (2, math.inf, 1.0), (2, math.nan, 1.0),
     (2, 0.5, -0.1), (2, 0.5, math.inf), (2, 0.5, math.nan)],
)
def test_laguerre_bad_params(n, a, y):
    with pytest.raises(DomainError):
        laguerre_poly(n, a, y)


# -------------------------------------------------------------------- 1f1


def test_hyp1f1_n_zero_is_one():
    assert hyp1f1_terminating(0, 1.5, 2.7) == 1.0


def test_hyp1f1_two_terms():
    # 1 - y/b with y = 1, b = 2
    assert hyp1f1_terminating(1, 2.0, 1.0) == pytest.approx(0.5, rel=1e-15)


def test_hyp1f1_vs_laguerre_identity():
    # 1F1(-n; b; y) = L_n^(b-1)(y) / C(n + b - 1, n), scale = (b)_n / n!
    n, b, y = 3, 2.5, 0.8
    scale = (b * (b + 1) * (b + 2)) / math.factorial(n)
    oracle = laguerre_poly(n, b - 1.0, y) / scale
    value = hyp1f1_terminating(n, b, y)
    assert value == pytest.approx(oracle, rel=1e-13)
    assert value == pytest.approx(0.24642539682539685, rel=1e-13)  # frozen from the oracle


@given(
    n=st.integers(min_value=0, max_value=20),
    b=st.floats(min_value=0.5, max_value=10.0),
    y=st.floats(min_value=0.0, max_value=30.0),
)
@settings(max_examples=200, deadline=None)
def test_hyp1f1_vs_brute_force(n, b, y):
    # 1e-13 relative to the term-magnitude scale: for strongly alternating
    # arguments the cancellation noise of *any* double-precision summation
    # is proportional to that scale, not to the (tiny) sum
    value = hyp1f1_terminating(n, b, y)
    oracle, scale = hyp1f1_binomial_oracle(n, b, y)
    assert abs(value - oracle) <= 1e-13 * max(1.0, scale)


@pytest.mark.parametrize("n", [1, 2, 5, 10, 20])
@pytest.mark.parametrize("b,y", [(1.5, 0.05), (4.0, 0.15), (9.5, 0.45)])
def test_hyp1f1_vs_brute_force_strict_mild_cancellation(n, b, y):
    # with y <= b/(n+1) the alternating terms decrease, cancellation is
    # bounded, and a plain relative comparison is meaningful
    assert y <= b / (n + 1)
    value = hyp1f1_terminating(n, b, y)
    oracle, _ = hyp1f1_binomial_oracle(n, b, y)
    assert value == pytest.approx(oracle, rel=1e-13, abs=1e-14)


@pytest.mark.parametrize("n,b,y", [(-1, 1.5, 0.1), (2, 0.0, 0.1), (2, -3.0, 0.1), (2, 1.5, -0.1)])
def test_hyp1f1_bad_params(n, b, y):
    with pytest.raises(DomainError):
        hyp1f1_terminating(n, b, y)


# ----------------------------------------------------------- gamma ratio


def test_gamma_ratio_examples():
    assert gamma_ratio_prefactor(0, 2.0) == 1.0
    assert gamma_ratio_prefactor(1, 0.0) == pytest.approx(1.5, rel=1e-15)
    assert gamma_ratio_prefactor(2, 1.0) == pytest.approx(4.375, rel=1e-15)


def test_gamma_ratio_matches_lgamma():
    for n, ell in [(5, 0.0), (17, 2.5), (1000, 2.0)]:
        expected = math.exp(
            math.lgamma(n + 1.5 + ell) - math.lgamma(1.5 + ell) - math.lgamma(n + 1.0)
        )
        value = gamma_ratio_prefactor(n, ell)
        assert math.isfinite(value)
        assert value == pytest.approx(expected, rel=1e-11)


@pytest.mark.parametrize("ell", [0.0, 0.5, 1.0, 2.7])
def test_gamma_ratio_times_factorial_increasing(ell):
    # prefactor * n! telescopes Gamma(n + 3/2 + ell)/Gamma(3/2 + ell),
    # increasing in n whenever ell > -1/2
    values = [gamma_ratio_prefactor(n, ell) * math.factorial(n) for n in range(12)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_gamma_ratio_domain():
    with pytest.raises(DomainError):
        gamma_ratio_prefactor(2, -1.5)
    with pytest.raises(DomainError):
        gamma_ratio_prefactor(-1, 0.0)
