"""Tests for the partition-function routes and their cross-agreement."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from ringosc.errors import ConvergenceError, DomainError, UsageError
from ringosc.partition import (
    ONE_D,
    THREE_D,
    VARIANT_DERIVED,
    VARIANT_PAPER,
    PartitionSpec,
    convergence_integral,
    em_1d_z_derivatives,
    em_3d_z_derivatives,
    em_bundle_1d,
    em_bundle_3d,
    em_sum,
    ladder_log_z_moments,
    partition_closed_form_1d,
    partition_direct,
    partition_em,
    partition_em_1d,
    partition_em_1d_fraction,
    partition_em_3d,
    partition_em_3d_fraction,
    suggested_cutoff,
)


def closed_form_3d(alpha):
    # independent oracle: sum (1+k)^2 x^k = (1 + x) / (1 - x)^3
    x = math.exp(-2.0 / alpha)
    return (1.0 + x) / (1.0 - x) ** 3


# ----------------------------------------------------------------- direct


def test_direct_1d_low_temperature_limit():
    value = partition_direct(PartitionSpec(ONE_D, 0.01))
    assert value.Z == pytest.approx(1.0, rel=1e-12)


def test_direct_1d_matches_geometric_closed_form():
    value = partition_direct(PartitionSpec(ONE_D, 1.0))
    exact = partition_closed_form_1d(1.0)
    assert exact.Z == pytest.approx(1.5819767068693265, rel=1e-15)  # frozen oracle
    assert value.Z == pytest.approx(exact.Z, rel=1e-13)
    assert value.method == "direct"
    assert exact.method == "closed_form_exact"


def test_direct_3d_at_unit_alpha():
    value = partition_direct(PartitionSpec(THREE_D, 1.0))
    assert value.Z == pytest.approx(1.7562281006643259, rel=1e-13)  # frozen high-cutoff oracle
    assert value.Z == pytest.approx(closed_form_3d(1.0), rel=1e-13)


@pytest.mark.parametrize("mode", [THREE_D, ONE_D])
@pytest.mark.parametrize("alpha", [0.3, 1.0, 7.0, 60.0])
def test_direct_tail_is_certified(mode, alpha):
    value = partition_direct(PartitionSpec(mode, alpha))
    assert value.tail_bound <= 1e-14 * value.Z
    assert value.Z >= 1.0  # first retained term


def test_direct_cutoff_too_small():
    with pytest.raises(ConvergenceError) as excinfo:
        partition_direct(PartitionSpec(THREE_D, 10.0, cutoff=5))
    suggested = excinfo.value.suggested_cutoff
    assert suggested is not None and suggested > 5
    value = partition_direct(PartitionSpec(THREE_D, 10.0, cutoff=suggested))
    assert value.Z == pytest.approx(closed_form_3d(10.0), rel=1e-13)


def test_direct_monotone_increasing_and_positive():
    grid = np.geomspace(0.2, 80.0, 50)
    values = [partition_direct(PartitionSpec(THREE_D, float(a))).Z for a in grid]
    assert all(v > 0.0 for v in values)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_suggested_cutoff_scales_with_alpha():
    assert suggested_cutoff(THREE_D, 1.0) < suggested_cutoff(THREE_D, 10.0) < suggested_cutoff(THREE_D, 100.0)


def test_spec_validation():
    with pytest.raises(DomainError):
        PartitionSpec(THREE_D, -1.0)
    with pytest.raises(UsageError):
        PartitionSpec("2d", 1.0)
    with pytest.raises(DomainError):
        PartitionSpec(THREE_D, 1.0, em_order=0)


# ---------------------------------------------------------------- moments


def brute_force_moments(mode, alpha, terms=2000):
    """(Z, mean, variance) of the excitation from the truncated term sum."""
    n = np.arange(terms, dtype=float)
    e, w = (2.0 * n, (1.0 + n) ** 2) if mode == THREE_D else (n, np.ones_like(n))
    b = w * np.exp(-e / alpha)
    z = b.sum()
    mean = (e * b).sum() / z
    return z, mean, ((e - mean) ** 2 * b).sum() / z


def test_moments_match_direct_sum():
    for mode in (THREE_D, ONE_D):
        for alpha in (0.3, 2.0, 20.0):
            z, mean, var = brute_force_moments(mode, alpha)
            log_z, got_mean, got_var = ladder_log_z_moments(mode, alpha)
            assert math.exp(log_z) == pytest.approx(z, rel=1e-13)
            assert got_mean == pytest.approx(mean, rel=1e-12)
            assert got_var == pytest.approx(var, rel=1e-12)
    assert math.exp(ladder_log_z_moments(THREE_D, 2.0)[0]) == pytest.approx(closed_form_3d(2.0), rel=1e-14)


def test_moments_1d_geometric():
    # mean of the geometric ladder: q/(1-q), variance q/(1-q)^2
    alpha = 1.5
    q = math.exp(-1.0 / alpha)
    log_z, mean, var = ladder_log_z_moments(ONE_D, alpha)
    assert log_z == pytest.approx(-math.log(1.0 - q), rel=1e-14)
    assert mean == pytest.approx(q / (1.0 - q), rel=1e-12)
    assert var == pytest.approx(q / (1.0 - q) ** 2, rel=1e-12)


@pytest.mark.parametrize("mode", [THREE_D, ONE_D])
def test_closed_form_ladder_matches_certified_direct_sum(mode):
    for alpha in np.geomspace(0.5, 1e3, 40):
        alpha = float(alpha)
        direct = partition_direct(PartitionSpec(mode, alpha)).Z
        closed = math.exp(ladder_log_z_moments(mode, alpha)[0])
        assert abs(closed - direct) <= 1e-14 * direct


def test_closed_form_ladder_validation():
    with pytest.raises(UsageError):
        ladder_log_z_moments("2d", 1.0)
    with pytest.raises(DomainError):
        ladder_log_z_moments(THREE_D, 0.0)


KERNELS = {
    "ladder_3d": lambda a: ladder_log_z_moments(THREE_D, a),
    "ladder_1d": lambda a: ladder_log_z_moments(ONE_D, a),
    "em_3d": em_3d_z_derivatives,
    "em_1d": em_1d_z_derivatives,
    "em_1d_paper": lambda a: em_1d_z_derivatives(a, VARIANT_PAPER),
}


@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
def test_kernels_on_arrays_equal_scalar_calls(kernel):
    # both log branches of the ladder (x > 0.5 from alpha ~ 1.44 in 3d) and
    # the underflow of x below alpha ~ 2.7e-3 lie on the grid
    grid = np.geomspace(1e-3, 1e8, 500)
    columns = kernel(grid)
    for i, a in enumerate(grid.tolist()):
        assert tuple(col[i] for col in columns) == tuple(kernel(a))


@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_kernels_reject_a_bad_array_element(kernel, bad):
    with pytest.raises(DomainError, match="alpha_bar must be > 0"):
        kernel(np.array([1.0, bad, 2.0]))


# ------------------------------------------------------------------- em


def test_em_sum_constant_function():
    assert em_sum(3.0, 11.0, [0.0, 0.0]) == pytest.approx(3.0 / 2.0 + 11.0, rel=1e-15)


def test_em_sum_pure_exponential():
    # f = e^(-bx), b = 2: 1/2 + 1/b + b/12 - b^3/720
    b = 2.0
    value = em_sum(1.0, 1.0 / b, [-b, -(b ** 3)], 2)
    assert value == pytest.approx(0.5 + 0.5 + 2.0 / 12.0 - 8.0 / 720.0, rel=1e-15)


def test_em_bundle_3d_derivatives():
    _, _, derivs = em_bundle_3d(1.0, 2)
    b = 2.0
    assert derivs[0] == pytest.approx(2.0 - b, rel=1e-15)
    assert derivs[1] == pytest.approx(-b ** 3 + 6.0 * b ** 2 - 6.0 * b, rel=1e-15)


@pytest.mark.parametrize("alpha", [0.7, 1.0, 3.0, 20.0])
def test_em_engine_reproduces_closed_forms(alpha):
    spec3 = PartitionSpec(THREE_D, alpha, em_order=2)
    assert partition_em(spec3).Z == pytest.approx(partition_em_3d(alpha).Z, rel=1e-12)
    spec1 = PartitionSpec(ONE_D, alpha, em_order=2)
    assert partition_em(spec1).Z == pytest.approx(partition_em_1d(alpha).Z, rel=1e-12)


def test_em_3d_at_unit_alpha_is_79_over_45():
    assert partition_em_3d_fraction(Fraction(1)) == Fraction(79, 45)
    assert partition_em_3d(1.0).Z == pytest.approx(79.0 / 45.0, rel=1e-15)


def test_em_3d_high_temperature_ratio():
    ratios = [partition_em_3d(a).Z / (a ** 3 / 4.0) for a in (10.0, 20.0, 50.0, 100.0)]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))  # monotone toward 1
    assert ratios[-1] == pytest.approx(1.0, rel=0.05)


def test_em_3d_vs_direct_tenth_of_percent():
    direct = partition_direct(PartitionSpec(THREE_D, 10.0)).Z
    assert abs(partition_em_3d(10.0).Z - direct) / direct < 1e-3


def test_em_vs_direct_error_monotone_decreasing():
    rels = []
    for alpha in (1.0, 2.0, 5.0, 10.0, 20.0, 50.0):
        direct = partition_direct(PartitionSpec(THREE_D, alpha)).Z
        rels.append(abs(partition_em_3d(alpha).Z - direct) / direct)
    assert all(b < a for a, b in zip(rels, rels[1:]))
    assert rels[3] < 1e-3 and rels[5] < 1e-4


def test_em_1d_exact_fractions_at_unit_alpha():
    assert partition_em_1d_fraction(Fraction(1), VARIANT_DERIVED) == Fraction(1139, 720)
    assert partition_em_1d_fraction(Fraction(1), VARIANT_PAPER) == Fraction(8549, 5400)
    assert partition_em_1d(1.0, VARIANT_DERIVED).Z == pytest.approx(1.5819444444444444, rel=1e-15)
    assert partition_em_1d(1.0, VARIANT_PAPER).Z == pytest.approx(1.5831481481481481, rel=1e-15)


def test_em_1d_derived_tracks_exact_form():
    rels = []
    for alpha in (1.0, 2.0, 5.0, 10.0):
        exact = partition_closed_form_1d(alpha).Z
        rels.append(abs(partition_em_1d(alpha).Z - exact) / exact)
    assert all(b < a for a, b in zip(rels, rels[1:]))
    assert rels[0] < 1e-4


def test_em_1d_leading_linear_term():
    assert partition_em_1d(1e6, VARIANT_DERIVED).Z / 1e6 == pytest.approx(1.0, rel=1e-5)
    # in the alternate variant the linear term only dominates before the
    # cubic tail takes over (it breaks the large-alpha limit outright);
    # that failure mode is the point of keeping it behind a switch
    assert partition_em_1d(10.0, VARIANT_PAPER).Z / 10.0 == pytest.approx(1.0, rel=0.05)
    assert partition_em_1d(100.0, VARIANT_PAPER).Z < 0.0


# ----------------------------------------------------------- the integral


def test_convergence_integral_value():
    assert convergence_integral(1.0) == pytest.approx(1.25 * math.exp(-3.0), rel=1e-15)
    assert convergence_integral(1.0) == pytest.approx(0.06223383545982993, rel=1e-14)  # frozen


@pytest.mark.parametrize("u", [0.5, 1.0, 2.0])
def test_convergence_integral_vs_quadrature(u):
    numeric, _ = quad(lambda x: (1.0 + x) ** 2 * math.exp(-u * (2.0 * x + 3.0)), 0.0, np.inf)
    assert convergence_integral(u) == pytest.approx(numeric, rel=1e-10)


def test_convergence_integral_suppressed_at_low_temperature():
    assert convergence_integral(50.0) < 1e-60
    values = [convergence_integral(u) for u in (1.0, 2.0, 5.0, 10.0)]
    assert all(b < a for a, b in zip(values, values[1:]))
