"""Spectral data for the oscillator potential with angular barrier terms

    V(r, theta) = a1^2 r^2 + (a2^2 / sin^2 theta + a3^2 cot^2 theta) / r^2.

Separating the Schroedinger equation in spherical coordinates leaves a
radial oscillator equation carrying the separation constant ell(ell + 1)
and an angular equation whose bound solutions fix that constant.  Both
become instances of the template equation in ``nu_solver`` after the
substitutions y = 1 + cos(theta) (angular) and y proportional to r^2
(radial); this module builds those instances, solves the termination
rules, and assembles the un-normalized wavefunction pieces: the radial
factor is a generalized Laguerre polynomial and the angular factor a
symmetric Jacobi polynomial, each evaluated by one three-term recurrence
(``specfun.laguerre_poly`` and ``specfun.jacobi_poly``).

Energies are reported in units of the level spacing scale

    xi = sqrt(hbar^2 a1^2 / (2 M)),

as the pure numbers E/xi = 4n + 2 ell + 3, so no value of xi is formed:
the thermal functions take alpha = 1/(beta xi), and the one check that
needs E itself (``verification``'s radial ODE residual) forms it there.

Conventions adopted here:

* The separation constant generally gives a non-integer effective
  ell_eff = L + 1/2.  Both interpretations of the bracketed integer rule
  are exposed: ``AngularSolution.ell_eff`` keeps the exact real value
  (used anywhere the radial equation is actually evaluated) and
  ``AngularSolution.ell_int`` floors it (reporting only).
* The angular factor (1 - y)^Lambda is not real-valued on half the
  domain when Lambda is non-integer; ``angular_wavefunction`` evaluates
  it as |1 - y|^Lambda, which preserves moduli and node positions and
  never silently returns complex values.
* Wavefunctions are un-normalized throughout; norms are a quadrature
  away when needed.

``PotentialParams`` and ``AngularSolution`` are immutable records over
``__slots__`` (``_Record``), not dataclasses or named tuples.  The root
finds and wavefunctions read their fields (p.mass, p.hbar, sol.Lambda,
sol.ell_eff, ...) on every call: a slot read costs what a dataclass field
read does, and a named-tuple field read markedly more.  Without
``dataclasses``, and the ``inspect`` it imports, the layer loads in a few
milliseconds.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, UsageError
from .nu_solver import NUProblem, derive, quantization_residual, solve_bracketed
from .specfun import _laguerre_frexp, jacobi_poly, laguerre_poly

__all__ = [
    "PotentialParams",
    "AngularSolution",
    "angular_solution",
    "angular_problem",
    "angular_constant_from_quantization",
    "radial_problem",
    "radial_energy_from_quantization",
    "energy_over_xi",
    "energy_over_xi_special_case",
    "degeneracy",
    "degeneracy_sum",
    "radial_wavefunction",
    "angular_wavefunction",
    "total_wavefunction",
    "SPECIAL_CASES",
    "QUANTUM_NUMBER_MAX",
]

# the largest s and m of an angular solution: without couplings the
# discriminant of L is about 16 max(s, m)^2, which leaves the float range
# where s = m passes 3.35e153
QUANTUM_NUMBER_MAX = 3e153


class _Record:
    """An immutable record over ``__slots__``.

    Equality, hash, repr and pickling go field by field in slot order, as
    a frozen dataclass's do; setting or deleting a field raises
    ``AttributeError``.  A record is pickled as its constructor call, so
    an unpickled record passes the checks a new one does.
    """

    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PotentialParams(_Record):
    """Couplings and constants of the potential.

    a1 sets the oscillator and must be positive for bound states; a2 and
    a3 are the angular couplings.  Defaults are natural units.
    """

    __slots__ = ("a1", "a2", "a3", "mass", "hbar")

    def __init__(self, a1: float, a2: float = 0.0, a3: float = 0.0, mass: float = 1.0, hbar: float = 1.0):
        if not (math.isfinite(a1) and a1 > 0.0):
            raise DomainError(f"a1 must be > 0, got {a1}")
        for name, value in (("a2", a2), ("a3", a3)):
            if not (math.isfinite(value) and value >= 0.0):
                raise DomainError(f"{name} must be >= 0, got {value}")
        for name, value in (("mass", mass), ("hbar", hbar)):
            if not (math.isfinite(value) and value > 0.0):
                raise DomainError(f"{name} must be > 0, got {value}")
        self._fill(a1, a2, a3, mass, hbar)


def _strength(p: PotentialParams, a: float) -> float:
    """2 M a^2 / hbar^2, the strength of the angular coupling a (a2 or a3).

    a = 0 gives exactly 0, whatever M and hbar.  Where a^2 or hbar^2 alone
    leaves the float range, a/hbar is squared instead, so the strength
    over- or underflows as the quotient itself does, to inf or to 0.
    """
    if a == 0.0:
        return 0.0
    try:
        return a ** 2 * p.mass * 2.0 / p.hbar ** 2
    except (OverflowError, ZeroDivisionError):
        ratio = a / p.hbar
        return ratio * p.mass * 2.0 * ratio


def big_lambda(p: PotentialParams, m: int) -> float:
    """Lambda = sqrt(1 + m^2 + 2 M a2^2/hbar^2 + 2 M a3^2/hbar^2)."""
    return math.sqrt(1.0 + (m * m + _strength(p, p.a2)) + _strength(p, p.a3))


class AngularSolution(_Record):
    """Angular quantum data for node count s and magnetic number m."""

    __slots__ = ("s", "m", "Lambda", "L", "ell_eff")

    def __init__(self, s: int, m: int, Lambda: float, L: float, ell_eff: float):
        self._fill(s, m, Lambda, L, ell_eff)

    @property
    def ell_int(self) -> int:
        """Integer angular momentum by the floor reading of [L + 1/2]."""
        return math.floor(self.L + 0.5)


def angular_solution(p: PotentialParams, s: int, m: int) -> AngularSolution:
    """Closed-form angular constants Lambda and L.

    L = -1 + (1/2) sqrt((1 + 2s + 2 Lambda)^2 - 8 M a3^2 / hbar^2); the
    effective angular momentum entering the radial equation is
    ell_eff = L + 1/2.  Since Lambda^2 holds the a3 term, the discriminant
    equals (1 + 2s)(1 + 2s + 4 Lambda) + 4 (1 + m^2 + 2 M a2^2 / hbar^2),
    which is taken instead: it keeps every digit at large a3, where the
    two squares agree to about 1/Lambda, and it is never below 9.  s or m
    past ``QUANTUM_NUMBER_MAX``, or 2 M a^2/hbar^2 past the float range,
    is a ``DomainError``.
    """
    for name, value in (("s", s), ("m", m)):
        if value > QUANTUM_NUMBER_MAX:
            raise DomainError(
                f"{name} must be at most {QUANTUM_NUMBER_MAX:g}, where L stays finite; got {name}={value}"
            )
    if s < 0 or int(s) != s or m < 0 or int(m) != m:
        raise DomainError("s and m must be non-negative integers")
    lam = big_lambda(p, m)
    odd = 1.0 + 2.0 * s
    L = -1.0 + 0.5 * math.sqrt(odd * (odd + 4.0 * lam) + 4.0 * (1.0 + (m * m + _strength(p, p.a2))))
    if not math.isfinite(L):  # an infinite Lambda makes L infinite too
        raise DomainError(f"2 M a^2 / hbar^2 overflows a float at mass={p.mass}, a2={p.a2}, a3={p.a3}, hbar={p.hbar}")
    return AngularSolution(s=int(s), m=int(m), Lambda=lam, L=L, ell_eff=L + 0.5)


def angular_problem(p: PotentialParams, m: int, separation_constant: float) -> NUProblem:
    """Template coefficients of the angular equation in y = 1 + cos(theta).

    The unknown is the separation constant ell(ell+1).  With
    A = m^2 + 2 M a2^2/hbar^2 and B = 2 M a3^2/hbar^2 the coefficients are

        b1 = b2 = 0, b3 = 1/2,
        x1 = (ell(ell+1) + B)/4, x2 = (ell(ell+1) + B)/2, x3 = (A + B)/4.
    """
    A = m * m + _strength(p, p.a2)
    B = _strength(p, p.a3)
    q = separation_constant + B
    return NUProblem(0.0, 0.0, 0.5, 0.25 * q, 0.5 * q, 0.25 * (A + B))


def angular_constant_from_quantization(p: PotentialParams, s: int, m: int) -> float:
    """L obtained by root-finding the standard termination rule.

    Solves for the separation constant ell(ell+1) embedded in the angular
    template coefficients, then converts the root to L via
    ell_eff = -1/2 + sqrt(1/4 + ell(ell+1)) and L = ell_eff - 1/2.
    Agreeing with ``angular_solution(p, s, m).L`` is the correctness
    check on the whole angular mapping.

    The rule is affine in ell(ell+1), so the secant through its values at
    0 and (s + Lambda + 1)^2 lands on the root; the two points need not
    bracket it.
    """

    def residual(separation_constant: float) -> float:
        d = derive(angular_problem(p, m, separation_constant))
        return quantization_residual(d, s)

    root = solve_bracketed(residual, 0.0, (s + big_lambda(p, m) + 1.0) ** 2)
    ell_eff = -0.5 + math.sqrt(0.25 + root)
    return ell_eff - 0.5


def radial_problem(ell: float, e_over_xi: float) -> NUProblem:
    """Template coefficients of the reduced radial equation.

    After stripping the asymptotic factor y^mu e^(-y/2) with
    mu = (ell + 1)/2 from the radial oscillator equation in
    y = sqrt(2M) a1 r^2 / hbar, the remainder satisfies the template with

        b1 = 2 mu + 1/2, b2 = 1, b3 = 0,
        x1 = x3 = 0, x2 = E/(4 xi) - mu - 1/4,

    i.e. the energy sits in the linear-in-y coefficient.
    """
    mu = 0.5 * (ell + 1.0)
    return NUProblem(2.0 * mu + 0.5, 1.0, 0.0, 0.0, 0.25 * e_over_xi - mu - 0.25, 0.0)


def radial_energy_from_quantization(n: int, ell: float) -> float:
    """E/xi from root-finding the termination rule on the radial template.

    Uses the standard rule with b3 = 0 substituted (its b3-proportional
    terms vanish identically), which is the rule that terminates the
    confluent series of the radial solutions.  The root must land on the
    ladder 4n + 2 ell + 3.
    """

    def residual(e_over_xi: float) -> float:
        return quantization_residual(derive(radial_problem(ell, e_over_xi)), n)

    return solve_bracketed(residual, 0.0, 8.0 * (n + ell + 2.0))


def energy_over_xi(n: int, ell: float) -> float:
    """Dimensionless level 4n + 2 ell + 3."""
    if n < 0 or int(n) != n:
        raise DomainError(f"n must be a non-negative integer, got {n}")
    if ell < 0.0:
        raise DomainError(f"ell must be >= 0, got {ell}")
    return 4.0 * n + 2.0 * ell + 3.0


# the couplings each special case drops, which must be zero
_DROPPED_COUPLINGS = {"a2_only": ("a3",), "a3_only": ("a2",), "oscillator": ("a2", "a3")}
SPECIAL_CASES = tuple(_DROPPED_COUPLINGS)


def energy_over_xi_special_case(p: PotentialParams, case: str, N: int, s: int, m: int) -> float:
    """Dimensionless level E/xi = 2(N + ell) + 3 of the reduced-coupling cases.

    Each case only checks that the couplings it drops are zero; the
    integer ell is then the floor reading ``angular_solution(p, s, m).ell_int``
    (which checks s and m) of the general angular constants, which those
    zeros reduce to the case's closed form:

    * ``a2_only``    (requires a3 = 0): Lambda keeps a2 only, L = -1/2 + Lambda + s
    * ``a3_only``    (requires a2 = 0): Lambda keeps a3 only,
                     L = -1 + (1/2) sqrt((1 + 2 Lambda + 2s)^2 - 8 M a3^2/hbar^2)
    * ``oscillator`` (requires a2 = a3 = 0): Lambda = sqrt(1 + m^2), ell = [Lambda + s]

    N = 2n counts even radial excitations, so the oscillator case equals
    the ladder 4n + 2 ell + 3.  Note the ground configuration keeps
    ell = [Lambda + s] >= 1 even for s = m = 0; that offset against the
    textbook oscillator is a property of these closed forms, preserved
    as stated.
    """
    if N < 0 or int(N) != N:
        raise DomainError(f"N must be a non-negative integer, got {N}")
    if case not in _DROPPED_COUPLINGS:
        raise UsageError(f"unknown case {case!r}; expected one of {SPECIAL_CASES}")
    dropped = _DROPPED_COUPLINGS[case]
    if any(getattr(p, name) != 0.0 for name in dropped):
        raise UsageError(f"{case} case requires {' == '.join(dropped)} == 0")
    ell = angular_solution(p, s, m).ell_int
    return 2.0 * (N + ell) + 3.0


def degeneracy(n_prime: int) -> int:
    """Degeneracy (1 + n')^2 of the level with n' = 2n + ell.

    This is the closed form of the sum of 2 ell + 1 over ell = 0..n',
    i.e. the counting that runs ell over every integer up to n' without
    a parity constraint; ``degeneracy_sum`` is the loop it closes.
    """
    if n_prime < 0 or int(n_prime) != n_prime:
        raise DomainError(f"n_prime must be a non-negative integer, got {n_prime}")
    return (1 + int(n_prime)) ** 2


def degeneracy_sum(n_prime: int) -> int:
    """Brute-force degeneracy count, Sum of (2 ell + 1) over ell = 0..n'."""
    if n_prime < 0 or int(n_prime) != n_prime:
        raise DomainError(f"n_prime must be a non-negative integer, got {n_prime}")
    return sum(2 * ell + 1 for ell in range(int(n_prime) + 1))


def radial_variable(p: PotentialParams, r: float) -> float:
    """y = sqrt(2M) a1 r^2 / hbar."""
    return math.sqrt(2.0 * p.mass) * p.a1 * r * r / p.hbar


def radial_wavefunction(p: PotentialParams, n: int, ell: float, r: float) -> float:
    """Un-normalized reduced radial function f(r) = y^mu e^(-y/2) L_n^(ell+1/2)(y).

    mu = (ell + 1)/2, so f vanishes at the origin and decays as a
    Gaussian.  The Laguerre polynomial equals the paper's Gamma-ratio
    prefactor times the terminating series 1F1(-n; 3/2 + ell; y) and is
    evaluated by its recurrence, which keeps its digits where that
    alternating sum cancels.  y^mu e^(-y/2) is taken as one exponential,
    so it underflows to 0 where y^mu alone would overflow.  Where the
    polynomial overflows or the weight under- or overflows (n in the
    hundreds, ell in the hundreds, or a huge r), the polynomial is rerun as
    m 2^e and the value taken as exp(mu ln y - y/2 + e ln 2) m; a value
    past the float range even so is a ``DomainError``.  Needs ell >= 0 and
    a finite r >= 0.
    """
    if r < 0.0:
        raise DomainError(f"r must be >= 0, got {r}")
    if ell < 0.0:
        raise DomainError(f"ell must be >= 0, got {ell}")
    y = radial_variable(p, r)
    mu = 0.5 * (ell + 1.0)
    poly = laguerre_poly(n, ell + 0.5, y)
    if y == 0.0:
        return y ** mu * poly
    log_weight = mu * math.log(y) - 0.5 * y
    try:
        value = math.exp(log_weight) * poly
    except OverflowError:  # the weight alone leaves the float range; m 2^e may bring it back
        value = math.inf
    if value == 0.0 or not math.isfinite(value):
        m, e = _laguerre_frexp(n, ell + 0.5, y)
        if m == 0.0:  # a node of the polynomial: 0 however large the weight
            return m
        try:
            value = math.exp(log_weight + e * math.log(2.0)) * m
        except OverflowError:
            raise DomainError(f"radial function past the float range at n={n}, ell={ell}, r={r}") from None
    return value


def angular_wavefunction(sol: AngularSolution, theta: float) -> float:
    """Un-normalized angular function at interior theta.

    Evaluates y^(1 + Lambda) (1 - y)^Lambda P_s^(Lambda, Lambda)(1 - y)
    at y = 1 + cos(theta), with the (1 - y)^Lambda factor taken as
    |1 - y|^Lambda: for non-integer Lambda the literal power is not
    real-valued on theta < pi/2, and the modulus is what node and zero
    diagnostics need.  As y >= 0, the two powers are taken as one,
    y |y (1 - y)|^Lambda.  theta = 0 and pi are coordinate singularities
    and rejected.
    """
    if not 0.0 < theta < math.pi:
        raise DomainError(f"theta must lie strictly inside (0, pi), got {theta}")
    y = 1.0 + math.cos(theta)
    w = 1.0 - y
    jac = jacobi_poly(sol.s, sol.Lambda, w)
    return y * abs(y * w) ** sol.Lambda * jac


def total_wavefunction(
    p: PotentialParams,
    n: int,
    sol: AngularSolution,
    r: float,
    theta: float,
    phi: float = 0.0,
) -> complex:
    """Un-normalized product wavefunction f(r) Theta(theta) e^(-i m phi).

    The radial factor is evaluated at the exact effective ell_eff of the
    angular solution.  Real (zero imaginary part) whenever m = 0; the
    modulus is independent of phi for every m.
    """
    radial = radial_wavefunction(p, n, sol.ell_eff, r)
    ang = angular_wavefunction(sol, theta)
    return radial * ang * cmath.exp(-1j * sol.m * phi)

