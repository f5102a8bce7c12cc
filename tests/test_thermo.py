"""Tests for the thermal functions, sweeps and the jump scan."""

import math
import pickle

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringosc.errors import DomainError, UsageError
from ringosc.partition import (
    ALPHA_MAX,
    ONE_D,
    THREE_D,
    VARIANT_DERIVED,
    VARIANT_PAPER,
    em_coefficients,
    em_z_derivatives,
)
from ringosc.thermo import (
    EM_ALPHA_RANGE,
    SweepSpec,
    ThermoPoint,
    continuity_scan,
    scan_jumps,
    sweep,
    thermo_point,
)


# the (derivative scheme, Z method) pairs a sweep takes: central differences
# take the exact ladder only
ROUTES = [("analytic", "direct"), ("analytic", "em"), ("central_difference", "direct")]
EM_SCHEMES = [scheme for scheme, z_method in ROUTES if z_method == "em"]


# ------------------------------------------------------------- identities


@pytest.mark.parametrize("mode", [THREE_D, ONE_D])
@pytest.mark.parametrize("scheme, z_method", ROUTES)
def test_u_equals_f_plus_alpha_s(mode, z_method, scheme):
    tol = 1e-9 if scheme == "analytic" else 1e-6
    grid = (0.7, 2.0, 13.0, 40.0)
    for pt in sweep(SweepSpec(grid, mode=mode, z_method=z_method, derivative_scheme=scheme)).points:
        assert abs(pt.U_bar - (pt.F_bar + pt.alpha_bar * pt.S_bar)) <= tol * max(1.0, abs(pt.U_bar))


def test_c_is_derivative_of_u():
    for alpha in np.geomspace(1.0, 50.0, 25):
        alpha = float(alpha)
        h = 1e-5 * alpha
        u_plus = thermo_point(alpha + h).U_bar
        u_minus = thermo_point(alpha - h).U_bar
        fd = (u_plus - u_minus) / (2.0 * h)
        c = thermo_point(alpha).C_bar
        assert abs(fd - c) / abs(c) < 1e-5


def test_direct_specific_heat_never_negative():
    for mode in (THREE_D, ONE_D):
        for alpha in np.geomspace(0.05, 100.0, 120):
            pt = thermo_point(float(alpha), mode=mode, z_method="direct")
            assert pt.C_bar >= -1e-9


def test_finite_difference_converges_quadratically():
    # halving the step cuts the FD-vs-analytic gap by about 4x on the
    # smooth closed form
    alpha = 2.0
    z, dz, _ = em_z_derivatives(THREE_D, alpha)
    g1_exact = dz / z

    def g1_fd(eta_rel):
        pt = None
        eta = eta_rel * alpha
        gp = math.log(em_z_derivatives(THREE_D, alpha + eta)[0])
        gm = math.log(em_z_derivatives(THREE_D, alpha - eta)[0])
        return (gp - gm) / (2.0 * eta)

    err_coarse = abs(g1_fd(2e-3) - g1_exact)
    err_fine = abs(g1_fd(1e-3) - g1_exact)
    assert 3.0 < err_coarse / err_fine < 5.0


# ------------------------------------------------- exact closed-form ladder


def mp_thermal(alpha, mode):
    """F, U, S, C of the exact ladder: ln Z from (1+x)/(1-x)^3 or 1/(1-x),
    written with log1p so that no digit of x is lost where 1 - x rounds to 1,
    and its derivatives by mpmath differentiation in s = ln alpha."""
    with mp.workdps(50):
        c = 2 if mode == THREE_D else 1

        def log_z(s):
            x = mp.exp(-c / mp.exp(s))
            return mp.log1p(x) - 3 * mp.log1p(-x) if mode == THREE_D else -mp.log1p(-x)

        a, s = mp.mpf(alpha), mp.log(alpha)
        g, g1, g2 = log_z(s), mp.diff(log_z, s, 1), mp.diff(log_z, s, 2)
        return {"F_bar": float(-a * g), "U_bar": float(a * g1), "S_bar": float(g + g1), "C_bar": float(g1 + g2)}


@pytest.mark.parametrize("mode", [THREE_D, ONE_D])
def test_direct_route_matches_mpmath_reference(mode):
    for alpha in np.geomspace(1e-2, 1e8, 61):
        pt = thermo_point(float(alpha), mode=mode, z_method="direct")
        for name, want in mp_thermal(float(alpha), mode).items():
            assert getattr(pt, name) == pytest.approx(want, rel=1e-13, abs=0.0), (name, alpha)


# the direct route's error bound: DIRECT_ULPS max(1, c/alpha) ulp of each
# column, c/alpha being the condition number of x = e^(-c/alpha) in alpha;
# where x is subnormal or rounds to 0 it carries an absolute error of up to
# 2^-1074, which C = var/alpha^2 (var ~ 16 x in 3d, x in 1d) turns into the
# absolute term UNDERFLOW_TERM/alpha^2
DIRECT_ULPS = 6.0
UNDERFLOW_TERM = 16.0 * 2.0 ** -1074


def mp_closed_forms(alpha, mode):
    """F, U, S, C of the exact ladder in 80-digit mpmath, from the closed forms
    ``ladder_log_z_moments`` states: 1 - x through expm1, and its log through
    log1p(-x) wherever x is small enough that 1 - x would round to 1."""
    with mp.workdps(80):
        a = mp.mpf(alpha)
        neg_u = -(2 if mode == THREE_D else 1) / a
        x, r = mp.exp(neg_u), -mp.expm1(neg_u)
        log_r = mp.log1p(-x) if x < 0.5 else mp.log(r)
        if mode == ONE_D:
            log_z, mean, var = -log_r, x / r, x / r ** 2
        else:
            log_z = mp.log1p(x) - 3 * log_r
            mean, var = 2 * (x / (1 + x) + 3 * x / r), 4 * (x / (1 + x) ** 2 + 3 * x / r ** 2)
        return {"F_bar": -a * log_z, "U_bar": mean, "S_bar": log_z + mean / a, "C_bar": var / a ** 2}


@settings(max_examples=300, deadline=None)
@given(mode=st.sampled_from([THREE_D, ONE_D]), exponent=st.floats(-3.0, 100.0))
def test_direct_route_within_its_error_bound(mode, exponent):
    alpha = 10.0 ** exponent  # log-uniform over [1e-3, 1e100]
    pt = thermo_point(alpha, mode=mode, z_method="direct")
    ulps = DIRECT_ULPS * max(1.0, (2.0 if mode == THREE_D else 1.0) / alpha)
    for name, want in mp_closed_forms(alpha, mode).items():
        with mp.workdps(80):
            error = float(abs(mp.mpf(getattr(pt, name)) - want))
        assert error <= ulps * math.ulp(float(want)) + UNDERFLOW_TERM / alpha ** 2, (name, alpha, error)


def test_free_energy_survives_z_rounding_to_one():
    # Z = 1 + 4 e^-200 rounds to 1.0, yet F = -0.04 e^-200 is representable
    pt = thermo_point(0.01, mode=THREE_D, z_method="direct")
    assert pt.Z == 1.0
    assert pt.F_bar == pytest.approx(-5.5356e-89, rel=1e-4, abs=0.0)
    assert pt.F_bar == pytest.approx(mp_thermal(0.01, THREE_D)["F_bar"], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("mode", [THREE_D, ONE_D])
def test_monotonicity_flags_over_wide_range(mode):
    result = sweep(SweepSpec.from_grid(0.01, 1e6, 500, "log", mode=mode, z_method="direct"))
    assert all(result.monotonicity.values()), result.monotonicity


@pytest.mark.parametrize("mode, cap", [(THREE_D, 3.0), (ONE_D, 1.0)])
@pytest.mark.parametrize("alpha", [5e6, 1e8])
def test_direct_route_finite_at_high_temperature(mode, cap, alpha):
    pt = thermo_point(alpha, mode=mode, z_method="direct")
    assert all(math.isfinite(v) for v in (pt.Z, pt.F_bar, pt.U_bar, pt.S_bar, pt.C_bar))
    assert pt.C_bar == pytest.approx(cap, rel=1e-12)


# ------------------------------------------------- the per-point loop as reference


def loop_point(a, mode, z_method, scheme, lib, fd_step_rel=1e-5):
    """One point by the per-point formulas that the array kernel replaced,
    with exp, expm1, log and log1p taken from lib: math, or numpy, whose
    scalar functions round exactly as its array functions do."""

    def ladder(a):
        u = (2.0 if mode == THREE_D else 1.0) / a
        x, r = lib.exp(-u), -lib.expm1(-u)
        log_r = lib.log(r) if x > 0.5 else lib.log1p(-x)
        mean = x / r
        var = mean / r
        if mode == ONE_D:
            return -log_r, mean, var
        p = x / (1.0 + x)
        return lib.log1p(x) - 3.0 * log_r, 2.0 * (p + 3.0 * mean), 4.0 * (p / (1.0 + x) + 3.0 * var)

    if scheme == "analytic":
        if z_method == "direct":
            lz, u, var = ladder(a)
            z, c = lib.exp(lz), var / (a * a)
        else:
            z, dz, d2z = em_z_derivatives(mode, a)
            g1 = dz / z
            g2 = d2z / z - g1 * g1
            lz, u, c = lib.log(z), a * a * g1, 2.0 * a * g1 + a * a * g2
    else:
        eta = fd_step_rel * a
        g_plus, lz, g_minus = ladder(a + eta)[0], ladder(a)[0], ladder(a - eta)[0]
        g1 = (g_plus - g_minus) / (2.0 * eta)
        g2 = (g_plus - 2.0 * lz + g_minus) / (eta * eta)
        z, u, c = lib.exp(lz), a * a * g1, 2.0 * a * g1 + a * a * g2
    return ThermoPoint(a, float(z), float(-a * lz), float(u), float(lz + u / a), float(c), z_method)


# the larger lower end of the two derived Euler-Maclaurin ranges, the 3d one
EM_ALPHA_MIN = EM_ALPHA_RANGE[THREE_D, VARIANT_DERIVED][0]


def reference_grid(z_method):
    grid = np.geomspace(1e-3, 1e8, 2000)
    return tuple((grid[grid >= EM_ALPHA_MIN] if z_method == "em" else grid).tolist())


@pytest.mark.parametrize("mode", [THREE_D, ONE_D])
@pytest.mark.parametrize("scheme, z_method", ROUTES)
def test_sweep_equals_point_loop(mode, z_method, scheme):
    grid = reference_grid(z_method)
    result = sweep(SweepSpec(grid, mode=mode, z_method=z_method, derivative_scheme=scheme))
    assert result.points == tuple(loop_point(a, mode, z_method, scheme, np) for a in grid)


@pytest.mark.parametrize("mode", [THREE_D, ONE_D])
@pytest.mark.parametrize("z_method", ["direct", "em"])
def test_sweep_within_ulps_of_math_loop(mode, z_method):
    # numpy's exp, expm1, log and log1p may each differ from libm's by one
    # ulp; a field passes through at most three of them and a few roundings,
    # so 8 ulp, and Z = exp(ln Z) turns an error of ln Z into a relative one
    # |ln Z| times larger.  Central differences are left to the exact test
    # above: their quotients turn one ulp of ln Z into up to 1e11 ulp of C.
    grid = reference_grid(z_method)
    for pt in sweep(SweepSpec(grid, mode=mode, z_method=z_method)).points:
        ref = loop_point(pt.alpha_bar, mode, z_method, "analytic", math)
        for name in ("Z", "F_bar", "U_bar", "S_bar", "C_bar"):
            got, want = getattr(pt, name), getattr(ref, name)
            scale = max(1.0, abs(math.log(want))) if name == "Z" else 1.0
            assert abs(got - want) <= 8 * scale * math.ulp(want), (name, pt.alpha_bar, got, want)


SWEEP_CASES = {
    # below alpha ~ 2.7e-3 (3d) and 1.3e-3 (1d) x underflows: F, U and S are
    # exact zeros there, and a pair of two zeros is not judged
    "direct_3d_wide": dict(alphas=reference_grid("direct")),
    "direct_1d_wide": dict(alphas=reference_grid("direct"), mode=ONE_D),
    # the grid of `sweep --alpha-min 0.001 --alpha-max 0.01 --points 8 --figure f1`,
    # whose four zeros once made the strict flags False
    "direct_3d_underflow": dict(alphas=tuple(np.geomspace(0.001, 0.01, 8).tolist())),
    # C from second differences is noisy above alpha ~ 6, so its flag is False
    "central_3d": dict(alphas=tuple(np.geomspace(0.25, 31.0, 40).tolist()), derivative_scheme="central_difference"),
    # the alternate 1d tail gives C a maximum at alpha ~ 2.93, so its C flag is False
    "em_1d_paper": dict(alphas=tuple(np.linspace(0.5, EM_ALPHA_RANGE[ONE_D, VARIANT_PAPER][1], 300).tolist()),
                        mode=ONE_D, z_method="em", variant=VARIANT_PAPER),
}


@pytest.mark.parametrize("case", SWEEP_CASES.values(), ids=SWEEP_CASES.keys())
def test_monotonicity_flags_equal_pairwise_comparisons(case):
    result = sweep(SweepSpec(**case))

    def pairs(attr):
        values = [getattr(pt, attr) for pt in result.points]
        return list(zip(values, values[1:]))

    assert result.monotonicity == {
        "F_bar_strictly_decreasing": all(b < a or a == b == 0.0 for a, b in pairs("F_bar")),
        "U_bar_strictly_increasing": all(b > a or a == b == 0.0 for a, b in pairs("U_bar")),
        "S_bar_strictly_increasing": all(b > a or a == b == 0.0 for a, b in pairs("S_bar")),
        "C_bar_non_decreasing": all(b >= a - 1e-12 for a, b in pairs("C_bar")),
    }


@pytest.mark.parametrize("mode", [THREE_D, ONE_D])
@pytest.mark.parametrize("scheme, z_method", ROUTES)
def test_point_equals_sweep_point(mode, z_method, scheme):
    # thermo_point runs the analytic scheme; a one-point sweep runs either
    options = dict(mode=mode, z_method=z_method, derivative_scheme=scheme)
    grid = reference_grid("em")[::50]
    inside = sweep(SweepSpec(grid, **options)).points
    for a, in_grid in zip(grid, inside):
        pt = sweep(SweepSpec((a,), **options)).points[0]
        assert pt == in_grid
        if scheme == "analytic":
            assert thermo_point(a, mode, z_method) == pt
        assert all(type(v) is float for v in pt[:6])


def test_thermo_point_keeps_fields_and_repr():
    pt = thermo_point(1.0)
    assert pt._fields == ("alpha_bar", "Z", "F_bar", "U_bar", "S_bar", "C_bar", "method")
    assert repr(pt) == "ThermoPoint(" + ", ".join(f"{k}={v!r}" for k, v in pt._asdict().items()) + ")"


@pytest.mark.parametrize("mode", [THREE_D, ONE_D])
@pytest.mark.parametrize("z_method", ["direct", "em"])
def test_sweep_points_keep_type_fields_and_repr(mode, z_method):
    points = sweep(SweepSpec(reference_grid("em")[::100], mode=mode, z_method=z_method)).points
    assert points
    for pt in points:
        assert type(pt) is ThermoPoint
        assert pt._fields == ThermoPoint._fields
        assert list(pt._asdict()) == list(ThermoPoint._fields) and tuple(pt._asdict().values()) == pt
        assert repr(pt) == "ThermoPoint(" + ", ".join(f"{k}={v!r}" for k, v in pt._asdict().items()) + ")"
        assert pt == ThermoPoint(*pt) and hash(pt) == hash(ThermoPoint(*pt))
        copy = pickle.loads(pickle.dumps(pt))
        assert type(copy) is ThermoPoint and copy == pt
    assert type(thermo_point(points[0].alpha_bar, mode, z_method)) is ThermoPoint


# ------------------------------------------------------------ high-T limits


def test_high_t_limits_3d():
    pt = thermo_point(100.0, mode=THREE_D, z_method="direct")
    assert pt.U_bar == pytest.approx(300.0, rel=2e-2)
    assert pt.C_bar == pytest.approx(3.0, rel=1e-2)


def test_high_t_limit_1d_is_three_times_smaller():
    pt = thermo_point(100.0, mode=ONE_D, z_method="direct")
    assert pt.C_bar == pytest.approx(1.0, rel=1e-2)


def test_em_z_approaches_asymptote_monotonically():
    # the leading high-temperature behaviour of the 3d ladder is Z ~ alpha^3/4
    ratios = []
    for alpha in (10.0, 20.0, 50.0, 100.0):
        ratios.append(em_z_derivatives(THREE_D, alpha)[0] / (alpha ** 3 / 4.0))
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(1.0, rel=0.05)


# ----------------------------------------------------------------- sweeps


def test_sweep_monotonicity_flags_3d():
    spec = SweepSpec.from_grid(1.0, 100.0, 60, "log", mode=THREE_D, z_method="direct")
    result = sweep(spec)
    assert result.monotonicity == {
        "F_bar_strictly_decreasing": True,
        "U_bar_strictly_increasing": True,
        "S_bar_strictly_increasing": True,
        "C_bar_non_decreasing": True,
    }


def test_sweep_emits_in_grid_order():
    spec = SweepSpec.from_grid(0.5, 10.0, 17, "lin", mode=ONE_D)
    result = sweep(spec)
    alphas = [pt.alpha_bar for pt in result.points]
    assert alphas == sorted(alphas)
    assert len(alphas) == 17


def test_sweep_1d_values_below_3d_on_shared_grid():
    # the high-temperature regime where the degeneracy weight matters;
    # below alpha ~ 0.8 the ordering genuinely reverses
    grid = tuple(float(a) for a in np.geomspace(1.0, 100.0, 40))
    three = sweep(SweepSpec(alphas=grid, mode=THREE_D)).points
    one = sweep(SweepSpec(alphas=grid, mode=ONE_D)).points
    for pt3, pt1 in zip(three, one):
        assert pt1.U_bar <= pt3.U_bar
        assert pt1.S_bar <= pt3.S_bar
        assert pt1.C_bar <= pt3.C_bar
        assert abs(pt1.F_bar) <= abs(pt3.F_bar)


def test_specific_heat_bounded_by_limits():
    for mode, cap in ((THREE_D, 3.0), (ONE_D, 1.0)):
        spec = SweepSpec.from_grid(0.5, 100.0, 200, "log", mode=mode)
        for pt in sweep(spec).points:
            assert pt.C_bar <= cap + 1e-2


def test_em_sweep_past_its_range_is_refused_before_it_runs():
    # the alternate 1d closed form turns C negative past alpha ~ 26.76 and Z
    # past ~ 73.7: the grid is refused by its last alpha, before any point runs
    grid = (10.0, 50.0, 100.0)
    with pytest.raises(DomainError, match=r"\[0.1216, 26.75\].*got alpha_bar=100.0$") as excinfo:
        SweepSpec(alphas=grid, mode=ONE_D, z_method="em", variant=VARIANT_PAPER)
    assert type(excinfo.value) is DomainError


@pytest.mark.parametrize(
    "mode, variant, alpha",
    [(THREE_D, VARIANT_DERIVED, 1e-107), (THREE_D, VARIANT_DERIVED, 1e-200),
     (ONE_D, VARIANT_DERIVED, 1e-200), (ONE_D, VARIANT_PAPER, 1e-300)],
)
@pytest.mark.parametrize("scheme", EM_SCHEMES)
def test_em_value_past_the_float_range_is_refused(mode, variant, alpha, scheme):
    # a power of alpha leaves the float range: the float division by one that
    # underflowed to 0 raised ZeroDivisionError, and a sweep printed Z, U, S
    # or C as NaN; both now lie below the form's range and are refused
    with pytest.raises(DomainError, match=f"got alpha_bar={alpha}$"):
        SweepSpec((alpha, 1.0), mode=mode, z_method="em", derivative_scheme=scheme, variant=variant)
    if variant == VARIANT_DERIVED:
        with pytest.raises(DomainError, match=f"got alpha_bar={alpha}$"):
            thermo_point(alpha, mode, "em")


def em_polynomials(mode, variant):
    """(Z, numerator of C) of an Euler-Maclaurin table as sympy polynomials
    in alpha: both Laurent polynomials times the power of alpha that clears
    their denominators, which keeps their sign at alpha > 0."""
    import sympy as sp

    a = sp.Symbol("alpha", positive=True)
    table = em_coefficients(mode, variant)
    z = sum(sp.Rational(c.numerator, c.denominator) * a ** k for k, c in table.items())
    z1, z2 = sp.diff(z, a), sp.diff(z, a, 2)
    # C = (2 a Z' Z + a^2 (Z'' Z - Z'^2)) / Z^2
    c_num = 2 * a * z1 * z + a ** 2 * (z2 * z - z1 * z1)
    shift = -min(table)
    return sp.Poly(sp.expand(z * a ** shift), a), sp.Poly(sp.expand(c_num * a ** (2 * shift)), a)


@pytest.mark.parametrize("mode, variant", list(EM_ALPHA_RANGE))
def test_em_alpha_range_ends_are_the_roots_of_c_rounded_inward(mode, variant):
    import sympy as sp

    z, c_num = em_polynomials(mode, variant)
    top = EM_ALPHA_RANGE[mode, variant][1]
    lo, hi = (sp.Rational(repr(end)) for end in EM_ALPHA_RANGE[mode, variant])
    # no root of Z or of the numerator of C in [lo, hi], and both positive at
    # lo: Z > 0 and C > 0 on the whole range
    assert z.count_roots(lo, hi) == 0 and z.eval(lo) > 0
    assert c_num.count_roots(lo, hi) == 0 and c_num.eval(lo) > 0
    # each finite end lies within one unit of its 4th digit of a root, and C < 0 just outside
    ends = [(lo, -1)] + ([] if top == ALPHA_MAX else [(hi, 1)])
    for end, side in ends:
        step = sp.Integer(10) ** (sp.floor(sp.log(end, 10)) - 3)
        outside = end + side * step
        assert c_num.count_roots(*sorted((end, outside))) == 1, (end, outside)
        assert c_num.eval(outside) < 0


# ---------------------------------------- the zeros of Z: no phase transition
#
# A transition at a real beta_c = 1/alpha_c needs zeros of Z that reach the
# real positive beta axis there (Yang and Lee 1952; Fisher 1965).  The exact
# ladders have none; each Euler-Maclaurin form has one real positive zero,
# an artefact of its truncation, and its stated alpha range avoids it.


def test_exact_ladders_have_no_zero_at_real_positive_beta():
    import sympy as sp

    beta = sp.symbols("beta")
    x3, x1 = sp.exp(-2 * beta), sp.exp(-beta)
    for z in ((1 + x3) / (1 - x3) ** 3, 1 / (1 - x1)):  # 3d and 1d, Z(beta = 1/alpha)
        assert sp.solveset(z, beta, sp.Interval.open(0, sp.oo)) is sp.S.EmptySet, z


def test_exact_3d_ladder_vanishes_only_pi_over_2_off_the_real_axis():
    import sympy as sp

    beta = sp.symbols("beta")
    x = sp.exp(-2 * beta)
    # Z = (1 + x)/(1 - x)^3 vanishes where 1 + x does: x = -1, where (1 - x)^3 = 8
    zeros = sp.solveset(1 + x, beta, sp.S.Complexes)
    assert isinstance(zeros, sp.ImageSet) and zeros.base_sets == (sp.S.Integers,)
    (n,) = zeros.lamda.variables
    # each zero is i pi q(n) with q(n) = +-n +- 1/2, so the set is {i pi (k + 1/2)}
    q = sp.Poly(sp.expand(zeros.lamda.expr / (sp.I * sp.pi)), n)
    slope, offset = q.all_coeffs()
    assert abs(slope) == 1 and abs(offset) == sp.Rational(1, 2)
    for k in range(-3, 3):
        zero = sp.I * sp.pi * (k + sp.Rational(1, 2))
        assert x.subs(beta, zero) == -1 and ((1 - x) ** 3).subs(beta, zero) == 8
    # |Im| = pi |q(n)| is least at the two n with |q(n)| = 1/2: pi/2 ~ 1.571 from the real axis
    distance = min(abs(sp.im(zeros.lamda.expr.subs(n, k))) for k in range(-3, 3))
    assert distance == sp.pi / 2 and round(float(distance), 3) == 1.571


def test_exact_1d_ladder_and_textbook_oscillator_have_no_zeros():
    import sympy as sp

    beta = sp.symbols("beta")
    for z in (1 / (1 - sp.exp(-beta)), (2 * sp.sinh(beta)) ** -3):
        assert sp.solveset(z, beta, sp.S.Complexes) is sp.S.EmptySet, z


# the real positive root of alpha^3 Z_em per table, and the unit of its last pinned digit
EM_Z_ROOTS = {
    (THREE_D, VARIANT_DERIVED): (0.1616, 1e-4),
    (ONE_D, VARIANT_DERIVED): (0.0987, 1e-4),
    (ONE_D, VARIANT_PAPER): (73.73, 1e-2),
}


@pytest.mark.parametrize("mode, variant", list(EM_Z_ROOTS))
def test_em_z_has_one_real_positive_zero_outside_its_alpha_range(mode, variant):
    import sympy as sp

    a = sp.symbols("alpha")
    # every table's lowest power is at least -3, so alpha^3 Z is a polynomial
    z3 = sp.Poly(sum(sp.Rational(c.numerator, c.denominator) * a ** (k + 3)
                     for k, c in em_coefficients(mode, variant).items()), a)
    (root,) = [r for r in sp.real_roots(z3) if r > 0]
    pinned, unit = EM_Z_ROOTS[mode, variant]
    assert abs(float(root) - pinned) <= unit / 2, float(root)
    # Z has one sign on each side of its one positive root, and it is > 0 on
    # the side the range takes: above the root for 'derived', below for 'paper'
    lo, hi = (sp.Rational(repr(end)) for end in EM_ALPHA_RANGE[mode, variant])
    assert 0 < lo < hi
    assert root < lo if variant == VARIANT_DERIVED else hi < root
    assert z3.eval(lo) > 0 and z3.eval(hi) > 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode, variant", list(EM_ALPHA_RANGE))
@pytest.mark.parametrize("scheme", EM_SCHEMES)
def test_em_sweep_over_its_whole_range_is_physical(mode, variant, scheme):
    lo, hi = EM_ALPHA_RANGE[mode, variant]
    result = sweep(SweepSpec(tuple(np.geomspace(lo, hi, 20001).tolist()), mode=mode, z_method="em",
                             derivative_scheme=scheme, variant=variant))
    values = np.array([pt[:6] for pt in result.points])
    assert np.isfinite(values).all()
    z, c = values[:, 1], values[:, 5]
    assert (z > 0.0).all() and (c >= 0.0).all(), (z.min(), c.min())
    if variant == VARIANT_DERIVED:
        assert all(result.monotonicity.values()), result.monotonicity


@pytest.mark.parametrize("mode, variant", list(EM_ALPHA_RANGE))
def test_em_central_difference_is_usage_error(mode, variant):
    # inside the form's range, so only the pairing of the options is refused
    with pytest.raises(UsageError) as excinfo:
        SweepSpec((1.0, 2.0), mode=mode, z_method="em", derivative_scheme="central_difference", variant=variant)
    assert type(excinfo.value) is UsageError
    assert str(excinfo.value) == (
        "derivative_scheme 'central_difference' takes only the z_method 'direct', got 'em'")


def test_sweep_spec_validation():
    with pytest.raises(DomainError):
        SweepSpec(alphas=(1.0, 0.5))
    with pytest.raises(DomainError):
        SweepSpec(alphas=(-1.0, 0.5))
    with pytest.raises(UsageError, match="^mode must be one of"):
        SweepSpec(alphas=(1.0,), mode="2d")
    with pytest.raises(UsageError):
        SweepSpec.from_grid(1.0, 2.0, 5, "cubic")
    with pytest.raises(UsageError):
        SweepSpec.from_grid(1.0, 1.0, 1, "cubic")  # checked on a one-point grid too
    # a central difference steps past the last alpha, which must leave it in range
    with pytest.raises(DomainError, match="got alpha_bar=1e\\+100$"):
        SweepSpec((1.0, ALPHA_MAX), derivative_scheme="central_difference")


def test_thermo_point_validation():
    with pytest.raises(DomainError):
        thermo_point(-1.0)
    with pytest.raises(UsageError):
        thermo_point(1.0, z_method="magic")
    with pytest.raises(UsageError, match="^mode must be one of"):
        thermo_point(1.0, mode="2d")
    with pytest.raises(DomainError):
        thermo_point(0.1, mode=THREE_D, z_method="em")  # the 3d closed form is <= 0 there
    # Z > 0 there, but C < 0; below the range perfbench's point.em.3d.negative_z expects a plain DomainError
    with pytest.raises(DomainError, match=r"alpha_bar in \[0.3632, 1e\+100\].*got alpha_bar=0.3$") as excinfo:
        thermo_point(0.3, mode=THREE_D, z_method="em")
    assert type(excinfo.value) is DomainError


@pytest.mark.parametrize("mode", [THREE_D, ONE_D])
def test_every_route_is_finite_up_to_alpha_max(mode):
    # past alpha ~ 1e154 the specific heat divided by alpha^2 overflowed, and
    # past ~7e102 Z itself
    grid = np.geomspace(1e-3, ALPHA_MAX, 400)
    for z_method, lo in (("direct", 1e-3), ("em", EM_ALPHA_RANGE[mode, VARIANT_DERIVED][0])):
        points = sweep(SweepSpec(tuple(grid[grid >= lo]), mode=mode, z_method=z_method)).points
        assert np.isfinite([pt[:6] for pt in points]).all()
        assert thermo_point(ALPHA_MAX, mode, z_method) == points[-1]


@pytest.mark.parametrize("mode", [THREE_D, ONE_D])
def test_specific_heat_is_zero_where_alpha_squared_underflows(mode):
    # below alpha ~ 1.57e-162, alpha^2 underflows to 0 where the variance is exactly 0:
    # C was 0/0 = nan, with a RuntimeWarning, and the sweep's C flag read False
    grid = (1.5e-162, 1e-200, 1e-300)
    with np.errstate(divide="raise", invalid="raise"):
        for alpha in grid:
            point = thermo_point(alpha, mode)
            assert np.isfinite(point[:6]).all()
            assert point.C_bar == 0.0
        result = sweep(SweepSpec(tuple(sorted(grid)), mode=mode))
    assert all(np.isfinite(pt[:6]).all() and pt.C_bar == 0.0 for pt in result.points)
    assert all(result.monotonicity.values())


@pytest.mark.parametrize("bad", [ALPHA_MAX * 1.0000001, 1e300, math.inf])
def test_alpha_above_alpha_max_is_domain_error(bad):
    with pytest.raises(DomainError, match="at most 1e\\+100"):
        thermo_point(bad)
    with pytest.raises(DomainError, match="at most 1e\\+100"):
        SweepSpec((1.0, bad))
    with pytest.raises(DomainError, match="alpha_max <= 1e\\+100"):
        SweepSpec.from_grid(1.0, bad, 10, z_method="em")


# -------------------------------------------------------------- jump scan


def test_scan_smooth_curve_passes():
    spec = SweepSpec.from_grid(0.1, 50.0, 2000, "log", mode=THREE_D, z_method="direct")
    report = continuity_scan(spec, jump_threshold=10.0)
    assert report.passed
    assert report.max_ratio < 1.5  # smooth curves sit near ratio 1
    # the library entry scans the C column that the CLI and verify scan
    assert continuity_scan(spec) == report == scan_jumps(spec.alphas, [pt.C_bar for pt in sweep(spec).points])


SCAN_CASES = [(scheme, mode, z_method, variant) for scheme, z_method in ROUTES for mode, variant in
              (EM_ALPHA_RANGE if z_method == "em" else [(THREE_D, VARIANT_DERIVED), (ONE_D, VARIANT_DERIVED)])]


@pytest.mark.parametrize("scheme, mode, z_method, variant", SCAN_CASES)
def test_scan_reads_the_c_column_of_the_sweep(mode, z_method, variant, scheme):
    lo, hi = EM_ALPHA_RANGE[mode, variant] if z_method == "em" else (0.05, ALPHA_MAX)
    spec = SweepSpec.from_grid(lo, min(hi, 1e4), 300, mode=mode, z_method=z_method,
                               derivative_scheme=scheme, variant=variant)
    c_column = [pt.C_bar for pt in sweep(spec).points]
    assert continuity_scan(spec) == scan_jumps(spec.alphas, c_column)
    # 0.5 lies below the largest ratio of every case, so the threshold is passed on and fails
    low = continuity_scan(spec, 0.5)
    assert low == scan_jumps(spec.alphas, c_column, 0.5) and not low.passed


def test_scan_constant_input_has_zero_jumps():
    alphas = np.linspace(1.0, 10.0, 100)
    report = scan_jumps(alphas, np.full_like(alphas, 1.7), jump_threshold=10.0)
    assert report.passed
    assert report.max_ratio == 0.0


def test_scan_flags_injected_jump():
    alphas = np.linspace(1.0, 10.0, 500)
    cbar = np.tanh(alphas)  # smooth baseline
    cbar[250:] += 0.5  # a genuine step
    report = scan_jumps(alphas, cbar, jump_threshold=10.0)
    assert not report.passed
    assert report.alpha_at_max == alphas[249]


def test_scan_mock_logarithmic_z_is_flat():
    # ln Z = c ln(alpha) has exactly constant C = c; analytic evaluation
    # leaves only rounding, far below any jump threshold
    c = 1.7
    alphas = np.geomspace(0.5, 50.0, 1000)
    g1 = c / alphas
    g2 = -c / alphas ** 2
    cbar = 2.0 * alphas * g1 + alphas ** 2 * g2
    report = scan_jumps(alphas, cbar, jump_threshold=10.0)
    assert report.passed
    assert report.max_ratio < 1e-3  # rounding slopes sit far below the 1e-9 floor
