"""Tests of the template-equation machinery."""

import math

import pytest

from ringosc import spectrum
from ringosc.errors import BranchError, ConvergenceError, DomainError
from ringosc.nu_solver import NUProblem, derive, quantization_residual, solve_bracketed
from ringosc.spectrum import (
    PotentialParams,
    angular_constant_from_quantization,
    angular_problem,
    angular_solution,
    radial_problem,
)


# ------------------------------------------------------------------ derive


def test_derive_all_zero_cascade():
    d = derive(NUProblem(1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    assert (d.beta4, d.beta5, d.beta6, d.beta7, d.beta8, d.beta9) == (0, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("xi1,xi2,xi3", [(0.0, 0.0, 0.0), (0.3, -1.2, 2.0)])
def test_derive_half_beta3(xi1, xi2, xi3):
    d = derive(NUProblem(0.0, 0.0, 0.5, xi1, xi2, xi3))
    assert d.beta4 == 0.5
    assert d.beta5 == -0.5
    assert d.beta6 == pytest.approx(0.25 + xi1, rel=1e-15)


@pytest.mark.parametrize("ell", [0.0, 1.0, 2.5])
@pytest.mark.parametrize("eps", [0.3, 2.0])
def test_derive_radial_template_literal(ell, eps):
    # beta3 = 0 radial template read literally, eigenvalue in the constant slot
    mu = 0.5 * (ell + 1.0)
    d = derive(NUProblem(2.0 * mu + 0.5, 1.0, 0.0, 0.0, 0.0, mu + 0.25 - eps))
    assert d.beta4 == pytest.approx(0.25 - mu, rel=1e-15)
    assert d.beta5 == 0.5
    assert d.beta9 == 0.25


@pytest.mark.parametrize("field", range(6))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_problem_rejects_non_finite_coefficient(field, bad):
    names = ("beta1", "beta2", "beta3", "xi1", "xi2", "xi3")
    values = [0.5, 1.0, 0.0, 0.25, -1.5, 2.0]
    values[field] = bad
    with pytest.raises(DomainError, match=f"^{names[field]} must be finite$"):
        NUProblem(*values)
    with pytest.raises(DomainError, match=f"^{names[field]} "):
        NUProblem(**dict(zip(names, values)))


def test_problem_checks_finiteness_through_make_and_replace():
    p = NUProblem(0.5, 1.0, 0.0, 0.25, -1.5, 2.0)
    assert NUProblem._make(p) == p and p._replace(xi2=3.0).xi2 == 3.0
    with pytest.raises(DomainError, match="^xi2 must be finite$"):
        p._replace(xi2=math.nan)
    with pytest.raises(DomainError, match="^beta1 must be finite$"):
        NUProblem._make([math.inf, 1.0, 0.0, 0.25, -1.5, 2.0])
    # six finite coefficients whose sum overflows are accepted
    assert NUProblem(1e308, 1e308, 0.0, 0.0, 0.0, 0.0).beta2 == 1e308


def test_derive_deterministic():
    p = NUProblem(0.7, -0.2, 0.5, 1.1, -0.4, 0.9)
    assert derive(p) == derive(p)


def _derive_vector(b1, b2, b3, x1, x2, x3):
    d = derive(NUProblem(b1, b2, b3, x1, x2, x3))
    return [d.beta4, d.beta5, d.beta6, d.beta7, d.beta8, d.beta9]


def _analytic_jacobian(b1, b2, b3, x1, x2, x3):
    # rows: beta4..beta9, columns: b1, b2, b3, x1, x2, x3
    b4 = 0.5 * (1.0 - b1)
    b5 = 0.5 * (b2 - 2.0 * b3)
    b7 = 2.0 * b4 * b5 - x2
    b8 = b4 * b4 + x3
    db4 = [-0.5, 0.0, 0.0, 0.0, 0.0, 0.0]
    db5 = [0.0, 0.5, -1.0, 0.0, 0.0, 0.0]
    db6 = [0.0, b5, -2.0 * b5, 1.0, 0.0, 0.0]
    db7 = [2.0 * b5 * db4[0], 2.0 * b4 * db5[1], 2.0 * b4 * db5[2], 0.0, -1.0, 0.0]
    db8 = [2.0 * b4 * db4[0], 0.0, 0.0, 0.0, 0.0, 1.0]
    db9 = [
        b3 * (db7[0] + b3 * db8[0]) + db6[0],
        b3 * db7[1] + db6[1],
        (b7 + 2.0 * b3 * b8) + b3 * db7[2] + db6[2],
        db6[3],
        b3 * db7[4],
        b3 * b3 * db8[5],
    ]
    return [db4, db5, db6, db7, db8, db9]


def test_derive_sensitivity_matches_analytic_partials():
    base = (0.7, -0.2, 0.5, 1.1, -0.4, 0.9)
    jac = _analytic_jacobian(*base)
    h = 1e-6
    for col in range(6):
        bumped_up = list(base)
        bumped_dn = list(base)
        bumped_up[col] += h
        bumped_dn[col] -= h
        up = _derive_vector(*bumped_up)
        dn = _derive_vector(*bumped_dn)
        for row in range(6):
            fd = (up[row] - dn[row]) / (2.0 * h)
            assert fd == pytest.approx(jac[row][col], rel=1e-6, abs=1e-8)


# ------------------------------------------------------------ quantization


def test_residual_trivial_zero():
    d = derive(NUProblem(1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    assert quantization_residual(d, 0) == 0.0


@pytest.mark.parametrize("a2,a3", [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
@pytest.mark.parametrize("s", [0, 1, 3])
@pytest.mark.parametrize("m", [0, 2])
def test_standard_rule_annihilated_by_closed_form_L(a2, a3, s, m):
    p = PotentialParams(a1=1.0, a2=a2, a3=a3)
    sol = angular_solution(p, s, m)
    lam = sol.ell_eff * (sol.ell_eff + 1.0)
    d = derive(angular_problem(p, m, lam))
    assert quantization_residual(d, s) == pytest.approx(0.0, abs=1e-10)


def test_radial_energy_root_is_linear_ladder():
    for n in range(4):
        for ell in range(4):
            def residual(e):
                return quantization_residual(derive(radial_problem(ell, e)), n)

            root = solve_bracketed(residual, 0.0, 60.0)
            target = 4.0 * n + 2.0 * ell + 3.0
            assert abs(root - target) / target < 1e-10


def test_negative_beta8_raises_branch_error():
    d = derive(NUProblem(0.0, 0.0, 0.0, 0.0, 0.0, -1.0))
    assert d.beta8 < 0.0  # derive itself stays total
    with pytest.raises(BranchError, match="beta8"):
        quantization_residual(d, 0)
    d = derive(NUProblem(1.0, 0.0, 0.0, -1.0, 0.0, 0.0))
    assert d.beta8 == 0.0 and d.beta9 < 0.0
    with pytest.raises(BranchError, match="beta9"):
        quantization_residual(d, 0)


def test_residual_rejects_negative_s():
    d = derive(NUProblem(1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        quantization_residual(d, -1)


# --------------------------------------------------------------- factors


def test_angular_factors_are_symmetric_jacobi():
    # the NU Jacobi indices of the bound solution, from beta10 and beta11
    # of the angular template, are (Lambda, Lambda), the indices that
    # angular_wavefunction uses
    p = PotentialParams(a1=1.0, a2=1.0, a3=1.0)
    m, s = 1, 2
    sol = angular_solution(p, s, m)
    d = derive(angular_problem(p, m, sol.ell_eff * (sol.ell_eff + 1.0)))
    b1, b2, b3 = d.problem.beta1, d.problem.beta2, d.problem.beta3
    r8, r9 = math.sqrt(d.beta8), math.sqrt(d.beta9)
    beta10 = b1 + 2.0 * d.beta4 + 2.0 * r8
    beta11 = b2 - 2.0 * d.beta5 + 2.0 * (r9 + b3 * r8)
    assert beta10 - 1.0 == pytest.approx(sol.Lambda, rel=1e-10)
    assert beta11 / b3 - beta10 - 1.0 == pytest.approx(sol.Lambda, rel=1e-10)


# ------------------------------------------------------------ root finder


def counting(func):
    """func and a list whose length is the number of calls of it."""
    calls = []

    def counted(x):
        calls.append(x)
        return func(x)

    return counted, calls


def test_solve_bracketed_expands_and_finds_root():
    # the two points need not bracket an affine root: the secant reaches it
    func, calls = counting(lambda x: x - 37.5)
    assert solve_bracketed(func, 0.0, 1.0) == pytest.approx(37.5, rel=1e-12)
    assert len(calls) == 3


def test_solve_bracketed_refuses_a_nonlinear_residual():
    with pytest.raises(ConvergenceError, match="not affine"):
        solve_bracketed(lambda x: math.exp(x) - 5.0, 0.0, 1.0)


@pytest.mark.parametrize("root", [0.3, 1.0 / 3.0, 0.999])
def test_solve_bracketed_affine_root_in_bracket_costs_three_evaluations(root):
    # two endpoints and the secant, which lands on the root of an affine residual
    func, calls = counting(lambda x: 2.5 * (x - root))
    assert solve_bracketed(func, 0.0, 1.0) == pytest.approx(root, abs=1e-12)
    assert len(calls) == 3


@pytest.mark.parametrize("n,ell", [(0, 0.0), (3, 1.5), (17, 4.0), (60, 0.37), (199, 12.0)])
def test_radial_root_costs_three_evaluations(n, ell):
    # the radial rule is affine in E and its root lies inside spectrum's bracket
    func, calls = counting(lambda e: quantization_residual(derive(radial_problem(ell, e)), n))
    root = solve_bracketed(func, 0.0, 8.0 * (n + ell + 2.0))
    assert root == pytest.approx(4.0 * n + 2.0 * ell + 3.0, rel=1e-12)
    assert len(calls) == 3


@pytest.mark.parametrize("s,m", [(0, 0), (2, 1), (7, 3), (12, 6), (0, 6), (3, 40), (0, 1000), (10, 1000)])
def test_angular_root_costs_three_evaluations(monkeypatch, s, m):
    # beta8 and beta9 of the angular rule do not contain ell(ell+1), so it is
    # affine too, and one secant lands on the root also where Lambda is large
    p = PotentialParams(a1=1.0, a2=0.8, a3=1.3)
    func, calls = counting(derive)
    monkeypatch.setattr(spectrum, "derive", func)
    L = angular_constant_from_quantization(p, s, m)
    assert L == pytest.approx(angular_solution(p, s, m).L, rel=1e-12)
    assert len(calls) == 3


@pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (2.0, 1.0), (math.nan, 1.0)])
def test_solve_bracketed_needs_lo_below_hi(lo, hi):
    with pytest.raises(DomainError, match="^need lo < hi"):
        solve_bracketed(lambda x: x - 0.5, lo, hi)


def test_solve_bracketed_no_root():
    with pytest.raises(ConvergenceError):
        solve_bracketed(lambda x: 1.0 + x * x, -1.0, 1.0)
