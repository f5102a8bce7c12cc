"""Parametric Nikiforov-Uvarov machinery for the template equation

    F'' + (b1 - b2 y) / (y (1 - b3 y)) F'
        - (x1 y^2 - x2 y + x3) / (y (1 - b3 y))^2 F = 0.

``derive`` turns the six template coefficients into the downstream
parameter set, ``quantization_residual`` evaluates the standard
termination rule, and ``solve_bracketed`` finds the root of a residual in
the unknown a caller embedded in the coefficients.  Its first trial point
is the secant of the bracket, which is exact for an affine residual; the
radial rule (beta9 = 1/4, beta7 linear in E) and the angular rule
(beta9 = beta8/4 free of ell(ell+1)) are both affine in their unknown.

``NUProblem`` and ``NUDerived`` are plain tuple records: a root find
builds both at every residual evaluation, and ``derive`` and
``quantization_residual`` read them by unpacking, which is cheaper than
one read by field name per coefficient.

beta8 and beta9 are returned raw, possibly negative; every square root
is taken at the point of use behind an explicit check, so ``derive`` is
total and the non-existence of a bound state surfaces as a
``BranchError`` rather than a NaN.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import BranchError, ConvergenceError, DomainError

RESIDUAL_TOL = 1e-12  # |f| at which solve_bracketed accepts a root
MAX_EXPANSIONS = 60  # bracket doublings before it gives up on a sign change
MAX_ITERATIONS = 256  # refinement steps before it returns its best point

__all__ = [
    "NUProblem",
    "NUDerived",
    "derive",
    "quantization_residual",
    "solve_bracketed",
]


class NUProblem(namedtuple("NUProblem", "beta1 beta2 beta3 xi1 xi2 xi3")):
    """The six coefficients of the template equation, as a tuple record.

    Building one, by its fields or through ``_make`` and ``_replace``,
    raises ``DomainError`` naming the first coefficient that is not
    finite.
    """

    __slots__ = ()

    def __new__(cls, beta1, beta2, beta3, xi1, xi2, xi3):
        values = (beta1, beta2, beta3, xi1, xi2, xi3)
        # one finite sum means six finite terms; only a failed sum needs the field-by-field look
        if not math.isfinite(beta1 + beta2 + beta3 + xi1 + xi2 + xi3):
            for name, value in zip(cls._fields, values):
                if not math.isfinite(value):
                    raise DomainError(f"{name} must be finite")
        return tuple.__new__(cls, values)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class NUDerived(namedtuple("NUDerived", "problem beta4 beta5 beta6 beta7 beta8 beta9")):
    """Derived parameters beta4..beta9 plus the source problem, as a tuple record.

    sqrt(beta8) and sqrt(beta9) are taken through ``_root8`` and
    ``_root9``, which raise ``BranchError`` when the radicand is negative.
    """

    __slots__ = ()

    def _root8(self) -> float:
        if self.beta8 < 0.0:
            raise BranchError(f"beta8 = {self.beta8} < 0: no real bound-state branch")
        return math.sqrt(self.beta8)

    def _root9(self) -> float:
        if self.beta9 < 0.0:
            raise BranchError(f"beta9 = {self.beta9} < 0: no real bound-state branch")
        return math.sqrt(self.beta9)


def derive(problem: NUProblem) -> NUDerived:
    """Compute beta4..beta9 from the template coefficients.

    Pure arithmetic, no branching; beta8 and beta9 may come out negative
    and are returned as-is.
    """
    beta1, beta2, beta3, xi1, xi2, xi3 = problem
    b4 = 0.5 * (1.0 - beta1)
    b5 = 0.5 * (beta2 - 2.0 * beta3)
    b6 = b5 * b5 + xi1
    b7 = 2.0 * b4 * b5 - xi2
    b8 = b4 * b4 + xi3
    b9 = beta3 * (b7 + beta3 * b8) + b6
    return NUDerived(problem, b4, b5, b6, b7, b8, b9)


def quantization_residual(derived: NUDerived, s: int) -> float:
    """Left-hand side of the standard termination rule at node count s.

    A bound state corresponds to a root in whatever unknown (energy,
    separation constant) the caller embedded in the template
    coefficients.  With b3 = 0 the b3-proportional terms vanish
    identically, which is the rule that terminates a confluent series.
    """
    if s < 0 or int(s) != s:
        raise DomainError(f"s must be a non-negative integer, got {s}")
    problem, _, beta5, _, beta7, beta8, _ = derived
    _, beta2, beta3, _, _, _ = problem
    r8 = derived._root8()
    r9 = derived._root9()
    return (
        beta2 * s
        - (2.0 * s + 1.0) * beta5
        + (2.0 * s + 1.0) * (r9 + beta3 * r8)
        + s * (s - 1.0) * beta3
        + beta7
        + 2.0 * beta3 * beta8
        + 2.0 * r8 * r9
    )


def solve_bracketed(func, lo: float, hi: float) -> float:
    """Root of a continuous scalar function, bracketing then refining.

    The initial interval is expanded by doubling until the endpoints
    straddle a sign change.  The first trial point is the secant of that
    bracket (the midpoint if rounding puts the secant on an endpoint),
    and each later one the secant of the shrunk bracket, falling back to
    its midpoint when the secant leaves it.  Terminates when
    |f| <= RESIDUAL_TOL or the bracket is at rounding width.

    Derivative-free on purpose: the termination-rule residuals are
    monotone in their embedded unknown, so bracketing is robust and
    cheap.  Both rules that ``spectrum`` solves are affine in their
    unknown, so the first secant lands on the root and a root inside the
    initial bracket costs three evaluations of ``func``.
    """
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    flo = func(lo)
    fhi = func(hi)
    expansions = 0
    while flo * fhi > 0.0:
        if expansions >= MAX_EXPANSIONS:
            raise ConvergenceError(f"no sign change found in expanded bracket [{lo}, {hi}]")
        width = hi - lo
        lo -= width
        hi += width
        flo = func(lo)
        fhi = func(hi)
        expansions += 1
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    a, b, fa, fb = lo, hi, flo, fhi  # fa and fb keep opposite signs, so fb != fa
    for _ in range(MAX_ITERATIONS):
        x = b - fb * (b - a) / (fb - fa)
        if not a < x < b:
            x = 0.5 * (a + b)
        fx = func(x)
        if abs(fx) <= RESIDUAL_TOL:
            return x
        if fa * fx < 0.0:
            b, fb = x, fx
        else:
            a, fa = x, fx
        if b - a <= 1e-15 * max(1.0, abs(a), abs(b)):
            return 0.5 * (a + b)
    return x
