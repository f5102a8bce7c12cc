"""Canonical partition functions of the 4n + 2 ell + 3 level ladder.

Routes to Z, all in the dimensionless temperature alpha = 1/(beta xi):

* ``ladder_log_z_moments`` evaluates the exact infinite ladder in closed
  form: ln Z and the mean and variance of the excitation, O(1) per
  temperature, at one alpha or elementwise over an array of them.  This
  is the ``direct`` route of the thermal functions;
* ``partition_direct`` sums the Boltzmann series term by term and
  certifies the truncation with an explicit closed-form tail bound, so
  it serves as the reference for every closed form;
* ``partition_em_3d`` / ``partition_em_1d`` evaluate the second-order
  Euler-Maclaurin closed forms;
* ``em_sum`` plus the derivative bundles assemble the Euler-Maclaurin
  approximant at any order the Bernoulli table covers.

The ground-state energy is subtracted inside the series, so both ladders
start at a bare 1 and Z(alpha -> 0+) = 1:

    3d: Z = sum_{n'>=0} (1 + n')^2 exp(-2 n'/alpha)   (degenerate ladder)
    1d: Z = sum_{N>=0}  exp(-N/alpha)                  (single ladder)

Both series are geometric: with x = e^(-2/alpha) the 3d one is
(1 + x)/(1 - x)^3, and with x = e^(-1/alpha) the 1d one is 1/(1 - x),
also exposed as ``partition_closed_form_1d``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, DomainError, UsageError
from .specfun import BERNOULLI_K_MAX, bernoulli

__all__ = [
    "THREE_D",
    "ONE_D",
    "PartitionSpec",
    "PartitionValue",
    "partition_direct",
    "partition_closed_form_1d",
    "suggested_cutoff",
    "ladder_log_z_moments",
    "em_sum",
    "em_bundle_3d",
    "em_bundle_1d",
    "partition_em",
    "partition_em_3d",
    "partition_em_3d_fraction",
    "partition_em_1d",
    "partition_em_1d_fraction",
    "convergence_integral",
    "VARIANT_DERIVED",
    "VARIANT_PAPER",
]

THREE_D = "3d"
ONE_D = "1d"

VARIANT_DERIVED = "derived"
VARIANT_PAPER = "paper"


def _check_mode(mode: str) -> None:
    if mode not in (THREE_D, ONE_D):
        raise UsageError(f"mode must be {THREE_D!r} or {ONE_D!r}, got {mode!r}")


def _check_alpha(alpha_bar) -> None:
    """alpha_bar, a float or an array of them, must be finite and > 0."""
    if isinstance(alpha_bar, np.ndarray):
        bad = ~((alpha_bar > 0.0) & (alpha_bar < math.inf))
        if bad.any():
            raise DomainError(f"alpha_bar must be > 0, got {alpha_bar[bad][0]}")
    elif not (math.isfinite(alpha_bar) and alpha_bar > 0.0):
        raise DomainError(f"alpha_bar must be > 0, got {alpha_bar}")


@dataclass(frozen=True)
class PartitionSpec:
    """How to evaluate Z: ladder, temperature, truncation, order, variant.

    ``cutoff`` of None means auto-select the smallest truncation whose
    tail bound certifies ``tail_rtol`` relative accuracy.  ``variant``
    only matters for the 1d closed form (see ``partition_em_1d``).
    """

    mode: str
    alpha_bar: float
    cutoff: int | None = None
    em_order: int = 2
    variant: str = VARIANT_DERIVED
    tail_rtol: float = 1e-14

    def __post_init__(self):
        _check_mode(self.mode)
        _check_alpha(self.alpha_bar)
        if self.cutoff is not None and self.cutoff < 0:
            raise DomainError(f"cutoff must be >= 0, got {self.cutoff}")
        if not 1 <= self.em_order <= BERNOULLI_K_MAX:
            raise DomainError(f"em_order must be in 1..{BERNOULLI_K_MAX}, got {self.em_order}")
        if self.variant not in (VARIANT_DERIVED, VARIANT_PAPER):
            raise UsageError(f"variant must be 'derived' or 'paper', got {self.variant!r}")


@dataclass(frozen=True)
class PartitionValue:
    """A partition-function value with its provenance.

    ``method`` is one of 'direct', 'euler_maclaurin', 'closed_form_exact';
    ``tail_bound`` is the certified bound on everything a direct sum
    dropped (zero for closed forms).
    """

    Z: float
    method: str
    tail_bound: float = 0.0


def _boltzmann_factor(mode: str, alpha_bar: float) -> float:
    # common ratio of successive terms (ignoring weights)
    return math.exp(-2.0 / alpha_bar) if mode == THREE_D else math.exp(-1.0 / alpha_bar)


def _tail_bound(mode: str, n0: int, x: float) -> float:
    """Exact closed form of the dropped tail past index n0 (0 < x < 1).

    For the 1d geometric series the tail is x^(n0+1)/(1-x); for the
    weighted 3d series it follows from the quadratic-weight geometric
    sums with shifted index.  Being exact, it is in particular a valid
    (and tight) bound.
    """
    if x <= 0.0:
        return 0.0
    lead = x ** (n0 + 1)
    if lead == 0.0:
        return 0.0
    r = 1.0 - x
    if mode == ONE_D:
        return lead / r
    c = n0 + 2.0
    return lead * (c * c / r + 2.0 * c * x / r ** 2 + x * (1.0 + x) / r ** 3)


def suggested_cutoff(mode: str, alpha_bar: float, tail_rtol: float = 1e-14) -> int:
    """Smallest truncation index whose tail bound meets tail_rtol.

    Uses Z >= 1 (the first retained term), so a tail bound below
    tail_rtol is below tail_rtol times the partial sum.
    """
    _check_mode(mode)
    _check_alpha(alpha_bar)
    x = _boltzmann_factor(mode, alpha_bar)
    hi = 16
    while _tail_bound(mode, hi, x) > tail_rtol:
        hi *= 2
        if hi > 10 ** 8:
            raise ConvergenceError(f"tail bound will not reach {tail_rtol} at alpha={alpha_bar}")
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if _tail_bound(mode, mid, x) > tail_rtol:
            lo = mid
        else:
            hi = mid
    return hi


def _series_terms(mode: str, alpha_bar: float, n0: int) -> np.ndarray:
    idx = np.arange(n0 + 1, dtype=float)
    if mode == THREE_D:
        return (1.0 + idx) ** 2 * np.exp(-2.0 * idx / alpha_bar)
    return np.exp(-idx / alpha_bar)


def partition_direct(spec: PartitionSpec) -> PartitionValue:
    """Truncated Boltzmann sum with a certified tail bound.

    Raises ``ConvergenceError`` (carrying a workable cutoff) if an
    explicit cutoff is too small for the requested tail target.
    """
    x = _boltzmann_factor(spec.mode, spec.alpha_bar)
    if spec.cutoff is None:
        n0 = suggested_cutoff(spec.mode, spec.alpha_bar, spec.tail_rtol)
    else:
        n0 = int(spec.cutoff)
    z = float(_series_terms(spec.mode, spec.alpha_bar, n0).sum())
    tail = _tail_bound(spec.mode, n0, x)
    if tail > spec.tail_rtol * z:
        raise ConvergenceError(
            f"cutoff {n0} leaves tail bound {tail:.3e} > {spec.tail_rtol:.1e} * Z",
            suggested_cutoff=suggested_cutoff(spec.mode, spec.alpha_bar, spec.tail_rtol),
        )
    return PartitionValue(Z=z, method="direct", tail_bound=tail)


def partition_closed_form_1d(alpha_bar: float) -> PartitionValue:
    """Exact geometric closed form 1/(1 - e^(-1/alpha)) of the 1d ladder."""
    _check_alpha(alpha_bar)
    return PartitionValue(Z=1.0 / -math.expm1(-1.0 / alpha_bar), method="closed_form_exact")


def ladder_log_z_moments(mode: str, alpha_bar):
    """(ln Z, mean, variance) of the excitation e = (E - E0)/xi over the
    exact infinite ladder, in closed form, at one alpha or elementwise over
    an array of them.

    With x = e^(-c/alpha), c = 2 (3d) or 1 (1d), and L = log(1 - x):

        3d (e = 2n'): ln Z = log1p(x) - 3L,  mean = 2 (x/(1+x) + 3x/(1-x)),
                      var = 4 (x/(1+x)^2 + 3x/(1-x)^2);
        1d (e = N):   ln Z = -L,  mean = x/(1-x),  var = x/(1-x)^2.

    ln Z is returned directly, so it keeps its digits where Z rounds to 1,
    and the variance is a sum of non-negative terms, so the specific heat
    is non-negative by construction.
    """
    _check_mode(mode)
    _check_alpha(alpha_bar)
    u = (2.0 if mode == THREE_D else 1.0) / alpha_bar
    x = np.exp(-u)
    r = -np.expm1(-u)  # 1 - x without cancellation
    # log(r) loses the x term once r rounds to 1; log1p(-x) cancels near x = 1.
    # [()] turns the 0-d result of a scalar alpha back into a scalar.
    log_r = np.where(x > 0.5, np.log(r), np.log1p(-np.minimum(x, 0.5)))[()]
    mean = x / r
    var = mean / r
    if mode == ONE_D:
        return -log_r, mean, var
    p = x / (1.0 + x)
    return np.log1p(x) - 3.0 * log_r, 2.0 * (p + 3.0 * mean), 4.0 * (p / (1.0 + x) + 3.0 * var)


def em_sum(f0: float, integral: float, odd_derivatives, k_max: int | None = None) -> float:
    """Euler-Maclaurin approximant of sum_{m>=0} f(m):

        f(0)/2 + integral_0^inf f - sum_{k=1}^{k_max} B_2k/(2k)! f^(2k-1)(0).

    The caller supplies f(0), the improper integral and the odd
    derivatives at zero exactly; nothing is differentiated numerically.
    odd_derivatives[k-1] holds f^(2k-1)(0).
    """
    if k_max is None:
        k_max = len(odd_derivatives)
    if k_max > len(odd_derivatives):
        raise DomainError(f"need {k_max} odd derivatives, got {len(odd_derivatives)}")
    total = 0.5 * f0 + integral
    for k in range(1, k_max + 1):
        total -= float(bernoulli(k)) / math.factorial(2 * k) * odd_derivatives[k - 1]
    return total


def em_bundle_3d(alpha_bar: float, k_max: int = BERNOULLI_K_MAX):
    """f(0), improper integral and odd derivatives for f(x) = (1+x)^2 e^(-2x/alpha).

    With b = 2/alpha: the integral is (alpha^3/4)[1 + (2/alpha)(1 + 1/alpha)]
    and f^(m)(0) = (-b)^m + 2m(-b)^(m-1) + m(m-1)(-b)^(m-2).
    """
    _check_alpha(alpha_bar)
    b = 2.0 / alpha_bar
    integral = 0.25 * alpha_bar ** 3 * (1.0 + (2.0 / alpha_bar) * (1.0 + 1.0 / alpha_bar))
    derivs = []
    for k in range(1, k_max + 1):
        m = 2 * k - 1
        derivs.append((-b) ** m + 2.0 * m * (-b) ** (m - 1) + m * (m - 1.0) * (-b) ** (m - 2))
    return 1.0, integral, derivs


def em_bundle_1d(alpha_bar: float, k_max: int = BERNOULLI_K_MAX):
    """f(0), improper integral and odd derivatives for f(x) = e^(-x/alpha)."""
    _check_alpha(alpha_bar)
    b = 1.0 / alpha_bar
    derivs = [-(b ** (2 * k - 1)) for k in range(1, k_max + 1)]
    return 1.0, alpha_bar, derivs


def partition_em(spec: PartitionSpec) -> PartitionValue:
    """Euler-Maclaurin partition function at the order spec.em_order.

    At order 2 this agrees term by term with the closed forms
    ``partition_em_3d`` and the derived variant of ``partition_em_1d``.
    """
    bundle = em_bundle_3d if spec.mode == THREE_D else em_bundle_1d
    f0, integral, derivs = bundle(spec.alpha_bar, spec.em_order)
    return PartitionValue(Z=em_sum(f0, integral, derivs, spec.em_order), method="euler_maclaurin")


def partition_em_3d(alpha_bar: float) -> PartitionValue:
    """Second-order Euler-Maclaurin closed form of the 3d ladder:

        Z = 1/3 + (alpha^3/4)[1 + (2/alpha)(1 + 1/alpha)]
            + (1/(20 alpha))[3 + (2/(3 alpha))(1 - 1/(3 alpha))].

    Evaluated exactly in this grouping; ``partition_em_3d_fraction`` is
    the same expression in exact rational arithmetic.
    """
    _check_alpha(alpha_bar)
    a = alpha_bar
    z = (
        1.0 / 3.0
        + 0.25 * a ** 3 * (1.0 + (2.0 / a) * (1.0 + 1.0 / a))
        + (1.0 / (20.0 * a)) * (3.0 + (2.0 / (3.0 * a)) * (1.0 - 1.0 / (3.0 * a)))
    )
    return PartitionValue(Z=z, method="euler_maclaurin")


def partition_em_3d_fraction(alpha_bar: Fraction) -> Fraction:
    """The 3d closed form in exact rational arithmetic."""
    a = Fraction(alpha_bar)
    if a <= 0:
        raise DomainError(f"alpha_bar must be > 0, got {a}")
    return (
        Fraction(1, 3)
        + Fraction(1, 4) * a ** 3 * (1 + (2 / a) * (1 + 1 / a))
        + (1 / (20 * a)) * (3 + (2 / (3 * a)) * (1 - 1 / (3 * a)))
    )


def partition_em_1d(alpha_bar: float, variant: str = VARIANT_DERIVED) -> PartitionValue:
    """Second-order closed form of the 1d ladder, in two variants.

    'derived' is what the Euler-Maclaurin assembly actually gives,

        Z = 1/2 + alpha + 1/(12 alpha) - 1/(720 alpha^3);

    'paper' swaps the last term for -alpha^3/5400, an alternate form of
    the same order kept for comparison.  The alternate tail grows with alpha (it
    turns the whole form negative beyond alpha ~ 73.7) and does not
    follow from the summation formula at any order, so 'derived' is the
    default everywhere.
    """
    _check_alpha(alpha_bar)
    a = alpha_bar
    base = 0.5 + a + 1.0 / (12.0 * a)
    if variant == VARIANT_DERIVED:
        return PartitionValue(Z=base - 1.0 / (720.0 * a ** 3), method="euler_maclaurin")
    if variant == VARIANT_PAPER:
        return PartitionValue(Z=base - a ** 3 / 5400.0, method="euler_maclaurin")
    raise UsageError(f"variant must be 'derived' or 'paper', got {variant!r}")


def partition_em_1d_fraction(alpha_bar: Fraction, variant: str = VARIANT_DERIVED) -> Fraction:
    """The 1d closed forms in exact rational arithmetic."""
    a = Fraction(alpha_bar)
    if a <= 0:
        raise DomainError(f"alpha_bar must be > 0, got {a}")
    base = Fraction(1, 2) + a + 1 / (12 * a)
    if variant == VARIANT_DERIVED:
        return base - 1 / (720 * a ** 3)
    if variant == VARIANT_PAPER:
        return base - a ** 3 / 5400
    raise UsageError(f"variant must be 'derived' or 'paper', got {variant!r}")


def convergence_integral(beta_xi: float) -> float:
    """Closed form of the weighted Boltzmann integral that dominates the
    3d series:

        int_0^inf (1+x)^2 e^(-beta xi (2x+3)) dx
            = [1 + 2 beta xi (1 + beta xi)] e^(-3 beta xi) / (4 (beta xi)^3).

    Its finiteness is what makes the series summable; the value is also a
    quadrature-checkable identity.
    """
    if not (math.isfinite(beta_xi) and beta_xi > 0.0):
        raise DomainError(f"beta_xi must be > 0, got {beta_xi}")
    u = beta_xi
    return (1.0 + 2.0 * u * (1.0 + u)) * math.exp(-3.0 * u) / (4.0 * u ** 3)


def em_3d_z_derivatives(alpha_bar):
    """(Z, dZ/dalpha, d2Z/dalpha2) of the 3d closed form, at one alpha or
    elementwise over an array of them.

    Differentiated term by term from the expanded representation
    Z = a^3/4 + a^2/2 + a/2 + 1/3 + 3/(20a) + 1/(30a^2) - 1/(90a^3).
    """
    _check_alpha(alpha_bar)
    # powers as products: numpy's array power rounds differently from the
    # scalar one, and a point must match the same alpha inside a sweep
    a = alpha_bar
    a2 = a * a
    a3 = a2 * a
    a4 = a2 * a2
    z = a3 / 4.0 + a2 / 2.0 + a / 2.0 + 1.0 / 3.0 + 3.0 / (20.0 * a) + 1.0 / (30.0 * a2) - 1.0 / (90.0 * a3)
    dz = 0.75 * a2 + a + 0.5 - 3.0 / (20.0 * a2) - 1.0 / (15.0 * a3) + 1.0 / (30.0 * a4)
    d2z = 1.5 * a + 1.0 + 3.0 / (10.0 * a3) + 1.0 / (5.0 * a4) - 2.0 / (15.0 * a4 * a)
    return z, dz, d2z


def em_1d_z_derivatives(alpha_bar, variant: str = VARIANT_DERIVED):
    """(Z, dZ/dalpha, d2Z/dalpha2) of the selected 1d closed form, at one
    alpha or elementwise over an array of them."""
    _check_alpha(alpha_bar)
    a = alpha_bar
    a2 = a * a
    a3 = a2 * a
    base = 0.5 + a + 1.0 / (12.0 * a)
    dbase = 1.0 - 1.0 / (12.0 * a2)
    d2base = 1.0 / (6.0 * a3)
    if variant == VARIANT_DERIVED:
        return (
            base - 1.0 / (720.0 * a3),
            dbase + 1.0 / (240.0 * a2 * a2),
            d2base - 1.0 / (60.0 * a3 * a2),
        )
    if variant == VARIANT_PAPER:
        return (
            base - a3 / 5400.0,
            dbase - a2 / 1800.0,
            d2base - a / 900.0,
        )
    raise UsageError(f"variant must be 'derived' or 'paper', got {variant!r}")
