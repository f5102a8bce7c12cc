"""Tests for the parameter records, angular constants, energies, degeneracies
and wavefunctions."""

import copy
import math
import pickle

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_gegenbauer, gammaln

from ringosc.errors import DomainError, UsageError
from ringosc.spectrum import (
    AngularSolution,
    PotentialParams,
    angular_constant_from_quantization,
    angular_solution,
    angular_wavefunction,
    degeneracy,
    degeneracy_sum,
    energy_over_xi,
    energy_over_xi_special_case,
    radial_energy_from_quantization,
    radial_wavefunction,
    total_wavefunction,
)

NATURAL = PotentialParams(a1=1.0)
UNIT_XI = PotentialParams(a1=math.sqrt(2.0))  # xi = 1 in natural units


# ------------------------------------------------------------- parameters


def test_potential_params_validation():
    # each message names the first bad field in signature order
    for kwargs, message in (
        ({"a1": 0.0, "a2": -1.0}, "a1 must be > 0, got 0.0"),
        ({"a1": math.nan}, "a1 must be > 0, got nan"),
        ({"a1": 1.0, "a2": -0.5, "mass": 0.0}, "a2 must be >= 0, got -0.5"),
        ({"a1": 1.0, "a3": math.inf}, "a3 must be >= 0, got inf"),
        ({"a1": 1.0, "mass": -1.0, "hbar": 0.0}, "mass must be > 0, got -1.0"),
        ({"a1": 1.0, "hbar": 0.0}, "hbar must be > 0, got 0.0"),
    ):
        with pytest.raises(DomainError) as info:
            PotentialParams(**kwargs)
        assert str(info.value) == message


# ---------------------------------------------------------------- records

SOLUTION = AngularSolution(s=1, m=2, Lambda=2.5, L=3.25, ell_eff=3.75)
RECORDS = [PotentialParams(1.5, 0.25, 2.0, mass=3.0, hbar=0.5), SOLUTION]


def test_records_build_by_position_and_keyword():
    assert PotentialParams(1.5, 0.25, 2.0, 3.0, 0.5) == PotentialParams(hbar=0.5, mass=3.0, a3=2.0, a2=0.25, a1=1.5)
    p = PotentialParams(2.0)
    assert (p.a1, p.a2, p.a3, p.mass, p.hbar) == (2.0, 0.0, 0.0, 1.0, 1.0)
    assert AngularSolution(1, 2, 2.5, 3.25, 3.75) == SOLUTION
    assert (SOLUTION.s, SOLUTION.m, SOLUTION.Lambda, SOLUTION.L, SOLUTION.ell_eff) == (1, 2, 2.5, 3.25, 3.75)
    assert SOLUTION.ell_int == 3
    for build in (
        lambda: PotentialParams(),
        lambda: PotentialParams(1.0, 0.0, 0.0, 1.0, 1.0, 1.0),
        lambda: PotentialParams(1.0, a1=1.0),
        lambda: PotentialParams(a1=1.0, xi=1.0),
        lambda: AngularSolution(1, 2, 2.5, 3.25),
    ):
        with pytest.raises(TypeError):
            build()


def test_records_compare_and_hash_by_field():
    p = PotentialParams(a1=1.0, a2=0.5)
    assert p == PotentialParams(1.0, 0.5, 0.0, 1.0, 1.0) and hash(p) == hash(PotentialParams(1.0, 0.5))
    assert p != PotentialParams(1.0, 0.5, hbar=2.0)
    assert len({p, PotentialParams(a1=1.0, a2=0.5), NATURAL}) == 2
    same = AngularSolution(1, 2, 2.5, 3.25, 3.75)
    assert SOLUTION == same and hash(SOLUTION) == hash(same)
    assert SOLUTION != AngularSolution(1, 2, 2.5, 3.25, 4.0)
    # a record equals nothing of another type, whatever its values
    assert p != (1.0, 0.5, 0.0, 1.0, 1.0) and SOLUTION != (1, 2, 2.5, 3.25, 3.75)
    assert PotentialParams(1.0, 2.0, 2.5, 3.25, 3.75) != AngularSolution(1.0, 2.0, 2.5, 3.25, 3.75)
    assert p.__eq__(SOLUTION) is NotImplemented


def test_record_repr_text():
    assert repr(PotentialParams(a1=1.0, a2=0.5)) == "PotentialParams(a1=1.0, a2=0.5, a3=0.0, mass=1.0, hbar=1.0)"
    assert repr(SOLUTION) == "AngularSolution(s=1, m=2, Lambda=2.5, L=3.25, ell_eff=3.75)"


@pytest.mark.parametrize(
    "record, names",
    [(RECORDS[0], ("a1", "a2", "a3", "mass", "hbar", "extra")), (SOLUTION, ("s", "m", "Lambda", "L", "ell_eff", "extra"))],
    ids=["params", "solution"],
)
def test_record_fields_are_read_only(record, names):
    before = repr(record)
    for name in names:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, 2.0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert repr(record) == before


@pytest.mark.parametrize("record", RECORDS, ids=["params", "solution"])
def test_records_survive_pickle_and_copy(record):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(record, protocol))
        assert type(clone) is type(record) and clone == record and repr(clone) == repr(record)
    for clone in (copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record) and clone == record and repr(clone) == repr(record)


def test_unpickling_a_bad_potential_is_domain_error():
    # the stream that pickles a record as its constructor call, with a1 = -1
    stream = b"cringosc.spectrum\nPotentialParams\n(F-1.0\nF0.0\nF0.0\nF1.0\nF1.0\ntR."
    with pytest.raises(DomainError, match="^a1 must be > 0, got -1.0$"):
        pickle.loads(stream)
    assert pickle.loads(stream.replace(b"F-1.0", b"F1.0")) == NATURAL


# ---------------------------------------------------------------- angular


def test_angular_solution_oscillator_ground():
    sol = angular_solution(NATURAL, s=0, m=0)
    assert sol.Lambda == pytest.approx(1.0, rel=1e-15)
    assert sol.L == pytest.approx(0.5, rel=1e-15)  # -1 + sqrt(9)/2
    assert sol.ell_eff == pytest.approx(1.0, rel=1e-15)
    assert sol.ell_int == 1


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("s", [0, 2])
def test_angular_lambda_pure_oscillator(m, s):
    sol = angular_solution(NATURAL, s=s, m=m)
    assert sol.Lambda == pytest.approx(math.sqrt(1.0 + m * m), rel=1e-14)


@pytest.mark.parametrize("a2", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("s", [0, 1, 3])
def test_angular_L_a2_only(a2, s):
    # with a3 = 0 the root closes: L = -1/2 + Lambda + s
    p = PotentialParams(a1=1.0, a2=a2)
    sol = angular_solution(p, s=s, m=1)
    assert sol.L == pytest.approx(-0.5 + sol.Lambda + s, rel=1e-14)


@pytest.mark.parametrize("a2,a3", [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
def test_angular_quantization_reproduces_closed_form(a2, a3):
    p = PotentialParams(a1=1.0, a2=a2, a3=a3)
    for s in range(4):
        for m in range(4):
            closed_form = angular_solution(p, s, m).L
            solved = angular_constant_from_quantization(p, s, m)
            assert abs(solved - closed_form) / abs(closed_form) < 1e-10


def test_angular_solution_rejects_bad_quantum_numbers():
    with pytest.raises(DomainError):
        angular_solution(NATURAL, s=-1, m=0)
    with pytest.raises(DomainError):
        angular_solution(NATURAL, s=0, m=-2)
    # past the largest s or m, L would leave the float range (m = 1e155 was a
    # raw OverflowError, s = 1e400 too)
    for s, m, name in ((10**400, 0, "s"), (0, 10**155, "m"), (math.inf, 0, "s")):
        with pytest.raises(DomainError, match=f"^{name} must be at most 3e\\+153, where L stays finite"):
            angular_solution(NATURAL, s, m)
    # energy_over_xi_special_case leaves this check to angular_solution
    for s, m in ((-1, 0), (0, 1.5)):
        with pytest.raises(DomainError, match="^s and m must be non-negative integers$"):
            energy_over_xi_special_case(NATURAL, "oscillator", 0, s, m)


# ----------------------------------------------------------------- energy


def test_energy_substitutions():
    assert energy_over_xi(0, 0) == 3.0
    assert energy_over_xi(1, 2) == 11.0


def test_radial_quantization_ladder():
    for n in range(4):
        for ell in range(4):
            root = radial_energy_from_quantization(n, ell)
            assert abs(root - energy_over_xi(n, ell)) / energy_over_xi(n, ell) < 1e-10


def operator_levels_over_xi(ell, count=4, r_max=12.0):
    """The count lowest E/xi of -u''/2 + (r^2 + ell(ell+1)/(2 r^2)) u = E u
    on (0, r_max) with u = 0 at both ends, hbar = M = a1 = 1, so xi =
    1/sqrt(2): second-order differences on 4000 and on 8000 interior points,
    eigenvalues of each tridiagonal matrix, and one Richardson step."""
    from scipy.linalg import eigh_tridiagonal

    def levels(points):
        h = r_max / (points + 1)
        r = h * np.arange(1, points + 1)
        diagonal = 1.0 / h ** 2 + r ** 2 + ell * (ell + 1.0) / (2.0 * r ** 2)
        off = np.full(points - 1, -0.5 / h ** 2)
        return eigh_tridiagonal(diagonal, off, eigvals_only=True, select="i", select_range=(0, count - 1))

    coarse, fine = levels(4000), levels(8000)
    return math.sqrt(2.0) * (4.0 * fine - coarse) / 3.0


@pytest.mark.parametrize("ell", [0.0, 0.5, 1.0, 2.0, 2.7, 5.3])
def test_radial_ladder_is_the_spectrum_of_the_schrodinger_operator(ell):
    # the ladder and the NU root find against the operator itself, which
    # shares no mapping with either; the order of the eigenvalues also pins
    # n as the node count
    levels = operator_levels_over_xi(ell)
    for n, level in enumerate(levels):
        assert abs(level - energy_over_xi(n, ell)) <= 1e-6 * energy_over_xi(n, ell), (n, level)
        assert abs(level - radial_energy_from_quantization(n, ell)) <= 1e-6 * level, (n, level)


def operator_angular_ells(a2, a3, m, count=4):
    """The count lowest ell of the separated theta equation, hbar = M = 1, in
    Liouville form u = sqrt(sin theta) Theta:

        -u'' + ((A + B - 1/4)/sin^2 theta - 1/4) u = (ell(ell + 1) + B) u

    on (0, pi) with u = 0 at both ends, A = m^2 + 2 a2^2 and B = 2 a3^2:
    second-order differences on 4000 and on 8000 interior points,
    eigenvalues of each tridiagonal matrix, one Richardson step, and ell
    as the root >= -1/2 of ell(ell + 1) = eigenvalue - B."""
    from scipy.linalg import eigh_tridiagonal

    big_a, big_b = m * m + 2.0 * a2 ** 2, 2.0 * a3 ** 2

    def levels(points):
        h = math.pi / (points + 1)
        theta = h * np.arange(1, points + 1)
        diagonal = 2.0 / h ** 2 + (big_a + big_b - 0.25) / np.sin(theta) ** 2 - 0.25
        off = np.full(points - 1, -1.0 / h ** 2)
        return eigh_tridiagonal(diagonal, off, eigvals_only=True, select="i", select_range=(0, count - 1))

    eigenvalues = (4.0 * levels(8000) - levels(4000)) / 3.0
    return -0.5 + np.sqrt(eigenvalues - big_b + 0.25), big_a, big_b


# (a2, a3, m), each with A + B > 0; nu = sqrt(A + B) is at least 1, where the
# differences converge at second order
ANGULAR_OPERATOR_CASES = [(0.0, 0.0, 1), (0.7, 0.4, 1), (0.0, 1.0, 1), (1.0, 1.0, 2), (0.3, 0.0, 3)]


def test_angular_constants_against_the_theta_operator():
    # the operator's eigenvalues give ell = -1/2 + sqrt((s + nu + 1/2)^2 - B),
    # nu = sqrt(A + B), where the paper's Lambda = sqrt(1 + A + B) gives
    # ell_eff; the order of the eigenvalues pins s as the node count
    gaps = []
    for a2, a3, m in ANGULAR_OPERATOR_CASES:
        ells, big_a, big_b = operator_angular_ells(a2, a3, m)
        nu = math.sqrt(big_a + big_b)
        p = PotentialParams(a1=1.0, a2=a2, a3=a3)
        for s, ell in enumerate(ells):
            assert abs(ell + 0.5 - math.sqrt((s + nu + 0.5) ** 2 - big_b)) <= 1e-6, (a2, a3, m, s)
            gaps.append(angular_solution(p, s, m).ell_eff - ell)
    # a measured fact, not a tolerance: the paper's ell_eff lies 0.16 to 0.41 above
    assert (round(min(gaps), 2), round(max(gaps), 2)) == (0.16, 0.41)


def test_energy_domain():
    with pytest.raises(DomainError):
        energy_over_xi(-1, 0)
    with pytest.raises(DomainError):
        energy_over_xi(0, -0.5)
    for N in (-2, 0.5):
        with pytest.raises(DomainError, match="^N must be a non-negative integer"):
            energy_over_xi_special_case(NATURAL, "oscillator", N, 0, 0)


@pytest.mark.parametrize("ell", [math.nan, math.inf, -math.inf])
def test_a_nan_or_infinite_ell_names_ell(ell):
    with pytest.raises(DomainError, match=f"^ell must be >= 0, got {ell}$"):
        energy_over_xi(0, ell)
    with pytest.raises(DomainError, match=f"^ell must be >= 0, got {ell}$"):
        radial_wavefunction(NATURAL, 0, ell, 1.0)


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
def test_a_nan_or_infinite_r_names_r(r):
    with pytest.raises(DomainError, match=f"^r must be >= 0, got {r}$"):
        radial_wavefunction(NATURAL, 0, 0.5, r)


# ---------------------------------------------------------- special cases


def test_oscillator_case_ground():
    # Lambda = 1 so ell = [Lambda + s] = 1 even at s = m = 0: E/xi = 5
    assert energy_over_xi_special_case(UNIT_XI, "oscillator", N=0, s=0, m=0) == pytest.approx(5.0, rel=1e-14)


def test_a2_only_continuous_at_zero_coupling():
    eps = PotentialParams(a1=math.sqrt(2.0), a2=1e-9)
    for N, s, m in [(0, 0, 0), (2, 1, 1)]:
        with_eps = energy_over_xi_special_case(eps, "a2_only", N, s, m)
        osc = energy_over_xi_special_case(UNIT_XI, "oscillator", N, s, m)
        assert with_eps == pytest.approx(osc, rel=1e-12)


def test_a3_only_limit_is_a2_only_form():
    # as a3 -> 0 the discriminant closes onto L = -1/2 + Lambda + s
    p = PotentialParams(a1=1.0, a3=1e-10)
    sol = angular_solution(p, s=2, m=1)
    assert sol.L == pytest.approx(-0.5 + sol.Lambda + 2, rel=1e-12)


@pytest.mark.parametrize("mass", [8.98846567431158e307, 1.7e308])
@pytest.mark.parametrize("s,m", [(0, 0), (3, 2)])
def test_zero_couplings_at_huge_mass(mass, s, m):
    # 2 M overflows to inf here; zero couplings must still add 0, not inf * 0 = nan
    sol = angular_solution(PotentialParams(a1=1.0, mass=mass), s, m)
    assert sol.Lambda == math.sqrt(1.0 + m * m)
    assert sol.L == -0.5 + sol.Lambda + s


@pytest.mark.parametrize("a2,a3", [(1.0, 0.0), (0.0, 1.0), (0.8, 0.8)])
def test_overflowing_angular_strength_is_domain_error(a2, a3):
    # 2 M a^2/hbar^2, or the sum of the two, passes the float range at
    # M = 1e308, although the true Lambda, about 1.4e154, is a float
    p = PotentialParams(a1=1.0, a2=a2, a3=a3, mass=1e308)
    with pytest.raises(DomainError, match=r"^2 M a\^2 / hbar\^2 overflows a float at mass=1e\+308"):
        angular_solution(p, 0, 0)


@pytest.mark.parametrize("a3", [1e16, 1e17])
@pytest.mark.parametrize("s,m", [(0, 0), (1, 0), (3, 2)])
def test_angular_constant_at_large_a3_vs_mpmath(a3, s, m):
    # (1 + 2s + 2 Lambda)^2 and 8 M a3^2/hbar^2 agree to about 1/Lambda here,
    # so their difference in floats kept no digit of L
    p = PotentialParams(a1=1.0, a2=0.3, a3=a3)
    with mp.workdps(60):
        b = 2 * mp.mpf(a3) ** 2
        lam = mp.sqrt(1 + m * m + 2 * mp.mpf(0.3) ** 2 + b)
        want = -1 + mp.sqrt((1 + 2 * s + 2 * lam) ** 2 - 4 * b) / 2
    sol = angular_solution(p, s, m)
    assert sol.L == pytest.approx(float(want), rel=4e-16)
    assert sol.ell_eff == sol.L + 0.5


def test_special_case_param_mismatch():
    with pytest.raises(UsageError, match="^a2_only case requires a3 == 0$"):
        energy_over_xi_special_case(PotentialParams(a1=1.0, a3=1.0), "a2_only", 0, 0, 0)
    with pytest.raises(UsageError, match="^a3_only case requires a2 == 0$"):
        energy_over_xi_special_case(PotentialParams(a1=1.0, a2=1.0), "a3_only", 0, 0, 0)
    for p in (PotentialParams(a1=1.0, a2=1.0), PotentialParams(a1=1.0, a3=1.0)):
        with pytest.raises(UsageError, match="^oscillator case requires a2 == a3 == 0$"):
            energy_over_xi_special_case(p, "oscillator", 0, 0, 0)
    with pytest.raises(UsageError):
        energy_over_xi_special_case(NATURAL, "bogus", 0, 0, 0)


# ------------------------------------------------------------- degeneracy


def test_degeneracy_values():
    assert degeneracy(0) == 1
    assert degeneracy(2) == 9


@pytest.mark.parametrize("count", [degeneracy, degeneracy_sum])
@pytest.mark.parametrize("n_prime", [-1, 1.5])
def test_degeneracy_domain(count, n_prime):
    with pytest.raises(DomainError, match="^n_prime must be a non-negative integer"):
        count(n_prime)


def test_degeneracy_brute_force_agreement():
    for n_prime in range(51):
        assert degeneracy_sum(n_prime) == degeneracy(n_prime)


def test_level_regrouping():
    # every (n, ell) with 2n + ell = n' sits at E/xi = 2 n' + 3, and the
    # unconstrained counting regroups into weight (1 + n')^2
    for n_prime in range(7):
        for ell in range(n_prime + 1):
            if (n_prime - ell) % 2 == 0:
                n = (n_prime - ell) // 2
                assert energy_over_xi(n, ell) == 2 * n_prime + 3
        assert sum(2 * ell + 1 for ell in range(n_prime + 1)) == degeneracy(n_prime)


# ---------------------------------------------------------------- radial f


def test_radial_wavefunction_vanishes_at_origin():
    assert radial_wavefunction(NATURAL, 0, 0, 0.0) == 0.0


def test_radial_wavefunction_finite_everywhere():
    # at r = 1e150 the polynomial alone overflows and the weight underflows
    for r in (0.0, 0.3, 2.0, 8.0, 25.0, 1e150):
        value = radial_wavefunction(NATURAL, 2, 1, r)
        assert math.isfinite(value)


@pytest.mark.parametrize(
    "ell,r", [(-1.2, 0.0), (-0.5, 1.0), (math.nan, 1.0), (math.inf, 1.0), (0.0, -0.1), (0.0, math.nan), (0.0, math.inf)]
)
def test_radial_wavefunction_domain(ell, r):
    with pytest.raises(DomainError):
        radial_wavefunction(NATURAL, 2, ell, r)


# states where the alternating 1F1 sum cancels (n >= 40), where y^mu alone
# overflows (ell = 200) while the value lies below the smallest double, and
# where the weight y^mu e^(-y/2) overflows (e^711 at y = 302.4) while the
# value, with L_1 = 0.1, lies just below the largest double
@pytest.mark.parametrize(
    "n,ell,r",
    [(40, 0.0, 3.0), (80, 0.0, 5.0), (150, 0.0, 5.0), (0, 200.0, 100.0), (1, 301.0, math.sqrt(302.4 / math.sqrt(2.0)))],
)
def test_radial_wavefunction_vs_mpmath(n, ell, r):
    with mp.workdps(40):
        y = mp.mpf(math.sqrt(2.0) * r * r)  # the y the library evaluates at
        want = float(y ** ((ell + 1) / 2) * mp.exp(-y / 2) * mp.laguerre(n, ell + 0.5, y))
    assert radial_wavefunction(NATURAL, n, ell, r) == pytest.approx(want, rel=1e-12, abs=0.0)


# the value itself lies past the largest double: e^2277 at the peak y = 801
# of the n = 0 weight, and 4.0e308 at y = 302 for n = 1
@pytest.mark.parametrize(
    "n,ell,r", [(0, 800.0, math.sqrt(801 / math.sqrt(2.0))), (1, 301.0, math.sqrt(302.0 / math.sqrt(2.0)))]
)
def test_radial_wavefunction_past_the_float_range_is_domain_error(n, ell, r):
    with pytest.raises(DomainError, match=f"at n={n}, ell={ell}, r={r}$"):
        radial_wavefunction(NATURAL, n, ell, r)


def test_radial_wavefunction_at_a_node_under_a_weight_past_the_float_range():
    # y = 302.5 = 1 + a is the node of L_1^(a), a = 301.5, where the weight is e^711
    r = 14.625313716598718
    assert math.sqrt(2.0) * r * r == 302.5
    assert radial_wavefunction(NATURAL, 1, 301.0, r) == 0.0


@pytest.mark.parametrize("n", [300, 400])
@pytest.mark.parametrize("ell", [0.0, 2.5])
def test_radial_wavefunction_at_large_n_vs_mpmath(n, ell):
    # L_n overflows and the weight underflows on this grid, while f itself
    # is of order 1 (n = 400, y = 1450 gives -0.979); the error is measured
    # against the largest |f| on the grid, as in test_laguerre_vs_mpmath
    rs = [math.sqrt(y / math.sqrt(2.0)) for y in range(1300, 1801, 25)]
    with mp.workdps(30):
        ys = [mp.mpf(math.sqrt(2.0) * r * r) for r in rs]  # the y the library evaluates at
        want = [y ** ((ell + 1) / 2) * mp.exp(-y / 2) * mp.laguerre(n, ell + 0.5, y) for y in ys]
    scale = max(abs(w) for w in want)
    for r, w in zip(rs, want):
        err = abs(radial_wavefunction(NATURAL, n, ell, r) - w) / scale
        assert err <= 1e-12, (n, ell, r, float(err))


def _count_nodes(n, ell):
    r = np.linspace(1e-3, 6.0, 4001)
    f = np.array([radial_wavefunction(NATURAL, n, ell, ri) for ri in r])
    signs = np.sign(f[np.abs(f) > 1e-13 * np.max(np.abs(f))])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("ell", [0, 1, 2])
def test_radial_node_counts(n, ell):
    assert _count_nodes(n, ell) == n


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("ell", [0, 1, 2])
def test_radial_ode_residual(n, ell):
    # second difference of f plus 2M/hbar^2 [E - V_eff] f must vanish
    h = 1e-4
    r = np.linspace(0.1, 5.0, 197)
    f = np.array([radial_wavefunction(NATURAL, n, ell, ri) for ri in r])
    fp = np.array([radial_wavefunction(NATURAL, n, ell, ri + h) for ri in r])
    fm = np.array([radial_wavefunction(NATURAL, n, ell, ri - h) for ri in r])
    second = (fp - 2.0 * f + fm) / h ** 2
    e = NATURAL.hbar * NATURAL.a1 / math.sqrt(2.0 * NATURAL.mass) * energy_over_xi(n, ell)
    veff = e - NATURAL.a1 ** 2 * r ** 2 - ell * (ell + 1.0) / (2.0 * r ** 2)
    residual = second + 2.0 * veff * f
    assert np.max(np.abs(residual)) < 1e-5 * np.max(np.abs(f))


@pytest.mark.parametrize("ell", [0, 1, 2])
def test_radial_orthogonality(ell):
    for na in range(3):
        for nb in range(na + 1, 3):
            overlap, _ = quad(
                lambda r: radial_wavefunction(NATURAL, na, ell, r) * radial_wavefunction(NATURAL, nb, ell, r),
                0.0,
                10.0,
                epsabs=1e-13,
                epsrel=1e-12,
                limit=200,
            )
            na_norm = math.sqrt(quad(lambda r: radial_wavefunction(NATURAL, na, ell, r) ** 2, 0, 10, limit=200)[0])
            nb_norm = math.sqrt(quad(lambda r: radial_wavefunction(NATURAL, nb, ell, r) ** 2, 0, 10, limit=200)[0])
            assert abs(overlap) / (na_norm * nb_norm) < 1e-8


# --------------------------------------------------------------- angular f


def test_angular_wavefunction_zero_at_equator():
    sol = angular_solution(PotentialParams(a1=1.0, a2=1.0), s=1, m=1)
    assert sol.Lambda > 0.0
    assert angular_wavefunction(sol, math.pi / 2.0) == 0.0


def test_angular_wavefunction_s0_prefactor():
    sol = angular_solution(NATURAL, s=0, m=1)
    theta = 2.0
    y = 1.0 + math.cos(theta)
    expected = y ** (1.0 + sol.Lambda) * abs(1.0 - y) ** sol.Lambda
    assert angular_wavefunction(sol, theta) == pytest.approx(expected, rel=1e-14)


def test_angular_wavefunction_domain():
    sol = angular_solution(NATURAL, s=0, m=0)
    with pytest.raises(DomainError):
        angular_wavefunction(sol, 0.0)
    with pytest.raises(DomainError):
        angular_wavefunction(sol, math.pi)


@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_angular_jacobi_factor_matches_gegenbauer(s):
    # P_s^(L, L)(x) = [G(2L+1) G(s+L+1)] / [G(L+1) G(s+2L+1)] C_s^(L+1/2)(x)
    p = PotentialParams(a1=1.0, a2=0.7, a3=0.4)
    sol = angular_solution(p, s=s, m=1)
    lam = sol.Lambda
    factor = math.exp(gammaln(2 * lam + 1) - gammaln(lam + 1) + gammaln(s + lam + 1) - gammaln(s + 2 * lam + 1))
    for theta in (0.4, 1.2, 2.0, 2.8):
        y = 1.0 + math.cos(theta)
        expected = (
            y ** (1.0 + lam) * abs(1.0 - y) ** lam * factor * eval_gegenbauer(s, lam + 0.5, 1.0 - y)
        )
        assert angular_wavefunction(sol, theta) == pytest.approx(expected, rel=1e-10, abs=1e-12)


# ------------------------------------------------------------------ total


def test_total_wavefunction_real_for_m0():
    sol = angular_solution(NATURAL, s=1, m=0)
    psi = total_wavefunction(NATURAL, 1, sol, r=1.3, theta=1.0, phi=0.7)
    assert psi.imag == 0.0


def test_total_wavefunction_modulus_phi_independent():
    sol = angular_solution(PotentialParams(a1=1.0, a2=0.5), s=1, m=2)
    values = [
        abs(total_wavefunction(PotentialParams(a1=1.0, a2=0.5), 1, sol, 1.1, 0.9, phi))
        for phi in (0.0, 1.0, 2.5, 5.0)
    ]
    assert max(values) - min(values) < 1e-14 * max(values)


def test_total_wavefunction_ground_factorizes():
    # n = s = 0: both polynomial factors are 1
    sol = angular_solution(NATURAL, s=0, m=0)
    r, theta = 0.9, 1.1
    psi = total_wavefunction(NATURAL, 0, sol, r, theta)
    expected = radial_wavefunction(NATURAL, 0, sol.ell_eff, r) * angular_wavefunction(sol, theta)
    assert psi.real == pytest.approx(expected, rel=1e-14)
