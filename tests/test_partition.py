"""Tests for the partition-function routes and their cross-agreement."""

import math
import re
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from ringosc import partition
from ringosc.errors import ConvergenceError, DomainError, UsageError
from ringosc.partition import (
    ALPHA_MAX,
    BLOCK,
    DIRECT_ALPHA_MAX,
    ONE_D,
    THREE_D,
    VARIANT_DERIVED,
    VARIANT_PAPER,
    PartitionSpec,
    em_coefficients,
    em_z_derivatives,
    ladder_log_z_moments,
    partition_closed_form,
    partition_direct,
    partition_em,
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
    exact = partition_closed_form(ONE_D, 1.0)
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


def test_direct_cutoff_too_small(monkeypatch):
    # the sum checks its tail bound itself, whatever truncation it was given
    monkeypatch.setattr(partition, "suggested_cutoff", lambda mode, alpha_bar: 5)
    with pytest.raises(ConvergenceError, match="^cutoff 5 leaves tail bound"):
        partition_direct(PartitionSpec(THREE_D, 10.0))
    monkeypatch.undo()
    value = partition_direct(PartitionSpec(THREE_D, 10.0))
    assert value.Z == pytest.approx(closed_form_3d(10.0), rel=1e-13)


@pytest.mark.parametrize("mode", [THREE_D, ONE_D])
def test_closed_forms_are_finite_up_to_alpha_max(mode):
    grid = np.geomspace(1e-3, ALPHA_MAX, 300).tolist()
    assert all(math.isfinite(partition_em(mode, a).Z) for a in grid)
    assert all(math.isfinite(v) for a in grid for v in ladder_log_z_moments(mode, a))
    assert all(math.isfinite(partition_closed_form(mode, a).Z) for a in grid)
    for bad in (ALPHA_MAX * 1.0000001, 1e120):
        with pytest.raises(DomainError, match="at most 1e\\+100"):
            PartitionSpec(mode, bad)
        with pytest.raises(DomainError):
            em_z_derivatives(mode, np.array([1.0, bad]))


def test_direct_monotone_increasing_and_positive():
    grid = np.geomspace(0.2, 80.0, 50)
    values = [partition_direct(PartitionSpec(THREE_D, float(a))).Z for a in grid]
    assert all(v > 0.0 for v in values)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_suggested_cutoff_scales_with_alpha():
    assert suggested_cutoff(THREE_D, 1.0) < suggested_cutoff(THREE_D, 10.0) < suggested_cutoff(THREE_D, 100.0)


@pytest.mark.parametrize("mode", [THREE_D, ONE_D])
def test_direct_alpha_max_is_the_largest_accepted_cutoff(monkeypatch, mode):
    bound = DIRECT_ALPHA_MAX[mode]
    assert suggested_cutoff(mode, bound) <= 2 ** 26
    with pytest.raises(ConvergenceError):
        suggested_cutoff(mode, 1.001 * bound)
    # refused before any work, with a message that names the bound
    monkeypatch.setattr(partition, "suggested_cutoff", None)
    with pytest.raises(DomainError, match=re.escape(f"at most {bound:g}, got")):
        partition_direct(PartitionSpec(mode, 1.001 * bound))


GOLDEN_ALPHAS = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 1000.0)


@pytest.mark.parametrize("mode", [THREE_D, ONE_D])
def test_direct_sum_of_one_block_is_the_whole_array_sum(mode):
    for alpha in GOLDEN_ALPHAS:
        n0 = suggested_cutoff(mode, alpha)
        assert n0 + 1 <= BLOCK
        idx = np.arange(n0 + 1, dtype=float)
        if mode == THREE_D:
            terms = (1.0 + idx) ** 2 * np.exp(-2.0 * idx / alpha)
        else:
            terms = np.exp(-idx / alpha)
        assert partition_direct(PartitionSpec(mode, alpha)).Z == float(terms.sum())


def exact_z(mode, alpha):
    # independent oracle: the geometric closed form in 40-digit arithmetic
    with mp.workdps(40):
        x = mp.exp(-(2 if mode == THREE_D else 1) / mp.mpf(alpha))
        return float((1 + x) / (1 - x) ** 3 if mode == THREE_D else 1 / (1 - x))


@pytest.mark.parametrize("mode, alpha", [(THREE_D, 1e4), (ONE_D, 1e4), (THREE_D, 1e5)])
def test_direct_sum_of_many_blocks_meets_the_closed_form(mode, alpha):
    assert suggested_cutoff(mode, alpha) + 1 > 2 * BLOCK
    assert partition_direct(PartitionSpec(mode, alpha)).Z == pytest.approx(exact_z(mode, alpha), rel=1e-14)


@pytest.mark.parametrize("mode", [THREE_D, ONE_D])
def test_direct_sum_memory_does_not_grow_with_alpha(mode):
    # numpy reports its buffers to tracemalloc; the whole series at 1e5 is about 100 MiB
    tracemalloc.start()
    try:
        partition_direct(PartitionSpec(mode, 1e5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_exact_3d_column_meets_the_direct_sum():
    for alpha in np.geomspace(0.2, 1e4).tolist():
        direct = partition_direct(PartitionSpec(THREE_D, alpha)).Z
        assert partition_closed_form(THREE_D, alpha).Z == pytest.approx(direct, rel=1e-14)


def test_spec_validation():
    with pytest.raises(DomainError):
        PartitionSpec(THREE_D, -1.0)
    with pytest.raises(UsageError):
        PartitionSpec("2d", 1.0)


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
    "em_3d": lambda a: em_z_derivatives(THREE_D, a),
    "em_1d": lambda a: em_z_derivatives(ONE_D, a),
    "em_1d_paper": lambda a: em_z_derivatives(ONE_D, a, VARIANT_PAPER),
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


def em_z(mode, alpha, variant=VARIANT_DERIVED):
    return partition_em(mode, alpha, variant).Z


def sympy_em_table(mode, order):
    """{power of alpha: Fraction} of the order-K Euler-Maclaurin formula,
    assembled by sympy: integral, f(0)/2 and the Bernoulli corrections.
    It is the one derivation of the tables ``em_coefficients`` states."""
    import sympy as sp

    x, a = sp.symbols("x alpha", positive=True)
    f = (1 + x) ** 2 * sp.exp(-2 * x / a) if mode == THREE_D else sp.exp(-x / a)
    z = sp.integrate(f, (x, 0, sp.oo)) + f.subs(x, 0) / 2
    for k in range(1, order + 1):
        z -= sp.bernoulli(2 * k) / sp.factorial(2 * k) * sp.diff(f, x, 2 * k - 1).subs(x, 0)
    table = {}
    for term in sp.Add.make_args(sp.expand(z)):
        coeff, power = term.as_coeff_exponent(a)
        table[int(power)] = table.get(int(power), 0) + Fraction(int(coeff.p), int(coeff.q))
    return table


@pytest.mark.parametrize("mode", [THREE_D, ONE_D])
def test_em_coefficients_match_sympy_assembly(mode):
    assert dict(em_coefficients(mode)) == sympy_em_table(mode, 2)


def test_em1d_has_no_cubic_term_at_any_order():
    # the 'paper' tail -alpha^3/5400 is no term of the summation formula:
    # each Bernoulli correction adds a negative power of alpha only
    for order in range(1, 9):
        assert 3 not in sympy_em_table(ONE_D, order), order


def test_em_paper_table_swaps_the_cubic_tail():
    table = sympy_em_table(ONE_D, 2)
    assert table.pop(-3) == Fraction(-1, 720)
    table[3] = Fraction(-1, 5400)
    assert dict(em_coefficients(ONE_D, VARIANT_PAPER)) == table


@pytest.mark.parametrize(
    "variant, mode, alpha",
    [("magic", THREE_D, 1), ("magic", THREE_D, 2), ("magic", ONE_D, 1), ("magic", ONE_D, 5),
     (VARIANT_PAPER, THREE_D, 1), (VARIANT_PAPER, THREE_D, 2)],
)
def test_em_coefficients_reject_a_variant_the_form_lacks(variant, mode, alpha):
    with pytest.raises(UsageError):
        em_coefficients(mode, variant)
    with pytest.raises(UsageError):
        em_z_derivatives(mode, alpha, variant)
    with pytest.raises(UsageError):
        partition_em(mode, alpha, variant)


@pytest.mark.parametrize(
    "mode, variant, alpha",
    [(THREE_D, VARIANT_DERIVED, 1e-107), (THREE_D, VARIANT_DERIVED, 1e-200),
     (ONE_D, VARIANT_DERIVED, 1e-107), (ONE_D, VARIANT_PAPER, 5e-324)],
)
def test_partition_em_refuses_a_z_past_the_float_range(mode, variant, alpha):
    # -1/(90 a^3) and 1/(12 a) leave the float range, or a^3 underflows to 0
    with pytest.raises(DomainError, match=f"alpha_bar={alpha}"):
        partition_em(mode, alpha, variant)


def test_partition_em_evaluates_z_alone():
    # dZ and d2Z divide by a^2 and a^3, which underflow to 0 here; Z does not
    assert em_z(ONE_D, 1e-200, VARIANT_PAPER) == 1e200 / 12.0
    with pytest.raises(DomainError, match="alpha_bar=1e-200"):
        em_z_derivatives(ONE_D, 1e-200, VARIANT_PAPER)


def test_em_coefficients_are_cached_and_read_only():
    table = em_coefficients(THREE_D)
    assert em_coefficients(THREE_D) is table
    with pytest.raises(TypeError):
        table[0] = Fraction(0)


@pytest.mark.parametrize("mode, variant", [(THREE_D, VARIANT_DERIVED), (ONE_D, VARIANT_DERIVED), (ONE_D, VARIANT_PAPER)])
def test_em_float_evaluation_within_summation_bound(mode, variant):
    # the a-priori bound of a sum of n rounded terms: (n + 2) u sum |c_k a^k|
    polys = [em_coefficients(mode, variant)]
    for _ in range(2):
        polys.append({k - 1: k * c for k, c in polys[-1].items() if k})
    grid = np.geomspace(0.2, 1e8, 3000)
    columns = em_z_derivatives(mode, grid, variant)
    for i, a in enumerate(grid.tolist()):
        floats = em_z_derivatives(mode, a, variant)
        assert floats == tuple(col[i] for col in columns)
        assert em_z(mode, a, variant) == floats[0]
        for got, want, poly in zip(floats, em_z_derivatives(mode, Fraction(a), variant), polys):
            bound = (len(poly) + 2) * 2.0 ** -53 * sum(abs(float(c) * a ** k) for k, c in poly.items())
            assert abs(Fraction(got) - want) <= bound, (a, got, float(want))


@pytest.mark.parametrize("mode", [THREE_D, ONE_D])
def test_em_any_order_within_summation_bound(mode):
    # the one order left: partition_em against the order-2 Bernoulli sum
    # that sympy builds, independently of em_coefficients
    table = sympy_em_table(mode, 2)
    for a in np.geomspace(0.2, 1e8, 60).tolist():
        want = sum(c * Fraction(a) ** k for k, c in table.items())
        bound = (len(table) + 2) * 2.0 ** -53 * sum(abs(float(c) * a ** k) for k, c in table.items())
        got = partition_em(mode, a).Z
        assert got == em_z(mode, a)
        assert abs(Fraction(got) - want) <= bound, a


def test_em_order_2_derivatives_differentiate_the_table():
    a = Fraction(3, 7)
    z, dz, d2z = em_z_derivatives(THREE_D, a)
    table = em_coefficients(THREE_D)
    assert z == sum(c * a ** k for k, c in table.items())
    assert dz == sum(k * c * a ** (k - 1) for k, c in table.items())
    assert d2z == sum(k * (k - 1) * c * a ** (k - 2) for k, c in table.items())


@pytest.mark.parametrize("alpha", [0.7, 1.0, 3.0, 20.0])
def test_em_engine_reproduces_closed_forms(alpha):
    assert em_z(THREE_D, alpha) == em_z_derivatives(THREE_D, alpha)[0]
    assert em_z(THREE_D, alpha) == pytest.approx(float(em_z_derivatives(THREE_D, Fraction(alpha))[0]), rel=1e-15)
    assert em_z(ONE_D, alpha) == em_z_derivatives(ONE_D, alpha)[0]
    assert em_z(ONE_D, alpha) == pytest.approx(float(em_z_derivatives(ONE_D, Fraction(alpha))[0]), rel=1e-15)


def test_em_3d_at_unit_alpha_is_79_over_45():
    assert em_z_derivatives(THREE_D, Fraction(1))[0] == Fraction(79, 45)
    assert em_z(THREE_D, 1.0) == pytest.approx(79.0 / 45.0, rel=1e-15)


def test_em_3d_high_temperature_ratio():
    ratios = [em_z(THREE_D, a) / (a ** 3 / 4.0) for a in (10.0, 20.0, 50.0, 100.0)]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))  # monotone toward 1
    assert ratios[-1] == pytest.approx(1.0, rel=0.05)


def test_em_3d_vs_direct_tenth_of_percent():
    direct = partition_direct(PartitionSpec(THREE_D, 10.0)).Z
    assert abs(em_z(THREE_D, 10.0) - direct) / direct < 1e-3


def test_em_vs_direct_error_monotone_decreasing():
    rels = []
    for alpha in (1.0, 2.0, 5.0, 10.0, 20.0, 50.0):
        direct = partition_direct(PartitionSpec(THREE_D, alpha)).Z
        rels.append(abs(em_z(THREE_D, alpha) - direct) / direct)
    assert all(b < a for a, b in zip(rels, rels[1:]))
    assert rels[3] < 1e-3 and rels[5] < 1e-4


def test_em_1d_exact_fractions_at_unit_alpha():
    assert em_z_derivatives(ONE_D, Fraction(1), VARIANT_DERIVED)[0] == Fraction(1139, 720)
    assert em_z_derivatives(ONE_D, Fraction(1), VARIANT_PAPER)[0] == Fraction(8549, 5400)
    assert em_z(ONE_D, 1.0, VARIANT_DERIVED) == pytest.approx(1.5819444444444444, rel=1e-15)
    assert em_z(ONE_D, 1.0, VARIANT_PAPER) == pytest.approx(1.5831481481481481, rel=1e-15)


def test_em_1d_derived_tracks_exact_form():
    rels = []
    for alpha in (1.0, 2.0, 5.0, 10.0):
        exact = partition_closed_form(ONE_D, alpha).Z
        rels.append(abs(em_z(ONE_D, alpha) - exact) / exact)
    assert all(b < a for a, b in zip(rels, rels[1:]))
    assert rels[0] < 1e-4


def test_em_1d_leading_linear_term():
    assert em_z(ONE_D, 1e6, VARIANT_DERIVED) / 1e6 == pytest.approx(1.0, rel=1e-5)
    # in the alternate variant the linear term only dominates before the
    # cubic tail takes over (it breaks the large-alpha limit outright);
    # that failure mode is the point of keeping it behind a switch
    assert em_z(ONE_D, 10.0, VARIANT_PAPER) / 10.0 == pytest.approx(1.0, rel=0.05)
    assert em_z(ONE_D, 100.0, VARIANT_PAPER) < 0.0
