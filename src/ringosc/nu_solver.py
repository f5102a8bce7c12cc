"""Parametric Nikiforov-Uvarov machinery for the template equation

    F'' + (b1 - b2 y) / (y (1 - b3 y)) F'
        - (x1 y^2 - x2 y + x3) / (y (1 - b3 y))^2 F = 0.

``derive`` turns the six template coefficients into the downstream
parameter set, ``quantization_residual`` evaluates the standard
termination rule, and ``solve_bracketed`` solves that rule for the
unknown a caller embedded in the coefficients.  The rule is affine in
that unknown for both problems ``spectrum`` builds: the radial rule has
beta9 = 1/4 and beta7 linear in E, and in the angular rule beta8 and
beta9 = beta8/4 do not contain ell(ell+1).  So ``solve_bracketed`` is a
two-point secant, checked by one more evaluation, not a general root
finder.

``NUProblem`` and ``NUDerived`` are plain tuple records: a root find
builds both at every residual evaluation, and ``derive`` and
``quantization_residual`` read them by unpacking, which is cheaper than
one read by field name per coefficient.

beta8 and beta9 are returned raw, possibly negative; their square roots
are taken in ``quantization_residual`` behind a sign check, so ``derive``
is total and the non-existence of a bound state surfaces as a
``BranchError`` rather than a NaN.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import BranchError, ConvergenceError, DomainError

RESIDUAL_TOL = 1e-12  # |f| at the secant root, relative to the larger endpoint |f|

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
    """Derived parameters beta4..beta9 plus the source problem, as a tuple record."""

    __slots__ = ()


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
    problem, _, beta5, _, beta7, beta8, beta9 = derived
    _, beta2, beta3, _, _, _ = problem
    if beta8 < 0.0:
        raise BranchError(f"beta8 = {beta8} < 0: no real bound-state branch")
    if beta9 < 0.0:
        raise BranchError(f"beta9 = {beta9} < 0: no real bound-state branch")
    r8 = math.sqrt(beta8)
    r9 = math.sqrt(beta9)
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
    """Root of a residual that is affine in its unknown, from two points.

    The root is the secant through (lo, func(lo)) and (hi, func(hi)); the
    two points need not bracket it.  A third evaluation checks the
    result: it is returned when |func(x)| <= RESIDUAL_TOL times the larger
    endpoint residual, and ``ConvergenceError`` is raised otherwise, or
    when the two endpoint residuals are equal.  Both termination rules
    that ``spectrum`` solves are affine in their unknown, so every root
    costs three evaluations of ``func``.
    """
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    flo = func(lo)
    fhi = func(hi)
    if fhi == flo:
        raise ConvergenceError(f"residual takes the same value {fhi} at {lo} and {hi}: no secant root")
    x = hi - fhi * (hi - lo) / (fhi - flo)
    fx = func(x)
    if not abs(fx) <= RESIDUAL_TOL * max(abs(flo), abs(fhi)):
        raise ConvergenceError(f"residual {fx} at the secant root {x} of [{lo}, {hi}]: not affine in its unknown")
    return x
