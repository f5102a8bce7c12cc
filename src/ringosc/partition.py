"""Canonical partition functions of the 4n + 2 ell + 3 level ladder.

Routes to Z, all in the dimensionless temperature alpha = 1/(beta xi):

* ``ladder_log_z_moments`` evaluates the exact infinite ladder in closed
  form: ln Z and the mean and variance of the excitation, O(1) per
  temperature, at one alpha or elementwise over an array of them.  This
  is the ``direct`` route of the thermal functions;
* ``partition_direct`` sums the Boltzmann series term by term and
  certifies the truncation with an explicit closed-form tail bound, so
  it serves as the reference for every closed form.  It sums blocks of
  ``BLOCK`` terms, so its memory does not grow with alpha, and takes
  alpha up to ``DIRECT_ALPHA_MAX``, where the certified cutoff reaches
  the 2^26 terms ``suggested_cutoff`` gives at most;
* ``em_coefficients`` is the paper's second-order Euler-Maclaurin
  approximant as one exact table of rational coefficients of powers of
  alpha; ``partition_em`` evaluates it and ``em_z_derivatives`` gives Z,
  dZ and d2Z, over an array too, or exactly at a Fraction.

The ground-state energy is subtracted inside the series, so both ladders
start at a bare 1 and Z(alpha -> 0+) = 1:

    3d: Z = sum_{n'>=0} (1 + n')^2 exp(-2 n'/alpha)   (degenerate ladder)
    1d: Z = sum_{N>=0}  exp(-N/alpha)                  (single ladder)

Both series are geometric: with x = e^(-2/alpha) the 3d one is
(1 + x)/(1 - x)^3, and with x = e^(-1/alpha) the 1d one is 1/(1 - x);
``partition_closed_form`` gives either.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .errors import ConvergenceError, DomainError, UsageError

__all__ = [
    "THREE_D",
    "ONE_D",
    "MODES",
    "ALPHA_MAX",
    "DIRECT_ALPHA_MAX",
    "PartitionSpec",
    "PartitionValue",
    "partition_direct",
    "partition_closed_form",
    "suggested_cutoff",
    "ladder_log_z_moments",
    "em_coefficients",
    "em_z_derivatives",
    "partition_em",
    "VARIANT_DERIVED",
    "VARIANT_PAPER",
    "VARIANTS",
]

THREE_D = "3d"
ONE_D = "1d"
MODES = (THREE_D, ONE_D)

VARIANT_DERIVED = "derived"
VARIANT_PAPER = "paper"
VARIANTS = (VARIANT_DERIVED, VARIANT_PAPER)

TAIL_RTOL = 1e-14  # relative accuracy a direct sum certifies
# the largest alpha_bar taken: Z ~ alpha^3/4 of the 3d ladder leaves the float
# range near alpha = 7e102, and the specific heat divides by alpha^2
ALPHA_MAX = 1e100
# the largest alpha_bar whose cutoff suggested_cutoff accepts (at most
# 2^26 terms), rounded down to 4 significant digits
DIRECT_ALPHA_MAX = {THREE_D: 1.638e6, ONE_D: 1.445e6}
BLOCK = 2 ** 16  # terms summed at once by partition_direct


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise UsageError(f"mode must be one of {MODES}, got {mode!r}")


def _check_alpha(alpha_bar) -> None:
    """alpha_bar, a float or an array of them, must lie in (0, ALPHA_MAX];
    for an array the error names the first bad element."""
    if isinstance(alpha_bar, np.ndarray):
        bad = ~((alpha_bar > 0.0) & (alpha_bar <= ALPHA_MAX))
        if bad.any():
            raise DomainError(f"alpha_bar must be > 0 and at most {ALPHA_MAX:g}, got {alpha_bar[np.argmax(bad)]}")
    elif not 0.0 < alpha_bar <= ALPHA_MAX:
        raise DomainError(f"alpha_bar must be > 0 and at most {ALPHA_MAX:g}, got {alpha_bar}")


@dataclass(frozen=True)
class PartitionSpec:
    """The ladder and temperature of a direct sum."""

    mode: str
    alpha_bar: float

    def __post_init__(self):
        _check_mode(self.mode)
        _check_alpha(self.alpha_bar)


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


def _ratio(mode: str, alpha_bar: float) -> tuple[float, float]:
    """x = e^(-c/alpha), the common ratio of successive terms (ignoring
    weights), and 1 - x without cancellation; c = 2 (3d) or 1 (1d)."""
    u = (2.0 if mode == THREE_D else 1.0) / alpha_bar
    return math.exp(-u), -math.expm1(-u)


def _tail_bound(mode: str, n0: int, x: float, r: float) -> float:
    """Exact closed form of the dropped tail past index n0, with r = 1 - x.

    For the 1d geometric series the tail is x^(n0+1)/(1-x); for the
    weighted 3d series it follows from the quadratic-weight geometric
    sums with shifted index.  Being exact, it is in particular a valid
    (and tight) bound.
    """
    lead = x ** (n0 + 1)
    if mode == ONE_D:
        return lead / r
    c = n0 + 2.0
    return lead * (c * c / r + 2.0 * c * x / r ** 2 + x * (1.0 + x) / r ** 3)


def suggested_cutoff(mode: str, alpha_bar: float) -> int:
    """Smallest truncation index whose tail bound meets TAIL_RTOL.

    Uses Z >= 1 (the first retained term), so a tail bound below
    TAIL_RTOL is below TAIL_RTOL times the partial sum.
    """
    _check_mode(mode)
    _check_alpha(alpha_bar)
    x, r = _ratio(mode, alpha_bar)
    hi = 16
    while _tail_bound(mode, hi, x, r) > TAIL_RTOL:
        hi *= 2
        if hi > 10 ** 8:
            raise ConvergenceError(f"tail bound will not reach {TAIL_RTOL} at alpha={alpha_bar}")
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if _tail_bound(mode, mid, x, r) > TAIL_RTOL:
            lo = mid
        else:
            hi = mid
    return hi


def _series_terms(mode: str, alpha_bar: float, start: int, stop: int) -> np.ndarray:
    """Terms start to stop - 1 of the Boltzmann series."""
    idx = np.arange(start, stop, dtype=float)
    if mode == THREE_D:
        return (1.0 + idx) ** 2 * np.exp(-2.0 * idx / alpha_bar)
    return np.exp(-idx / alpha_bar)


def partition_direct(spec: PartitionSpec) -> PartitionValue:
    """Boltzmann sum truncated at ``suggested_cutoff``, with its certified
    tail bound; raises ``DomainError`` above ``DIRECT_ALPHA_MAX`` and
    ``ConvergenceError`` if the tail bound exceeds ``TAIL_RTOL`` times the
    sum.  The terms are summed in blocks of ``BLOCK``, so memory does not
    grow with alpha; a sum of one block is numpy's sum of the whole series.
    """
    bound = DIRECT_ALPHA_MAX[spec.mode]
    if spec.alpha_bar > bound:
        raise DomainError(f"the {spec.mode} direct sum takes alpha_bar at most {bound:g}, got {spec.alpha_bar}")
    n0 = suggested_cutoff(spec.mode, spec.alpha_bar)
    blocks = range(0, n0 + 1, BLOCK)
    z = math.fsum(_series_terms(spec.mode, spec.alpha_bar, i, min(i + BLOCK, n0 + 1)).sum() for i in blocks)
    tail = _tail_bound(spec.mode, n0, *_ratio(spec.mode, spec.alpha_bar))
    if tail > TAIL_RTOL * z:
        raise ConvergenceError(f"cutoff {n0} leaves tail bound {tail:.3e} > {TAIL_RTOL:.1e} * Z")
    return PartitionValue(Z=z, method="direct", tail_bound=tail)


def partition_closed_form(mode: str, alpha_bar: float) -> PartitionValue:
    """Exact geometric closed form of the ladder: (1 + x)/(1 - x)^3 (3d)
    or 1/(1 - x) (1d), with x = e^(-c/alpha)."""
    _check_mode(mode)
    _check_alpha(alpha_bar)
    x, r = _ratio(mode, alpha_bar)
    return PartitionValue(Z=1.0 / r if mode == ONE_D else (1.0 + x) / r ** 3, method="closed_form_exact")


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


# the tables em_coefficients states, keyed by (mode, variant)
_EM_TABLES = {
    (THREE_D, VARIANT_DERIVED): MappingProxyType({
        3: Fraction(1, 4), 2: Fraction(1, 2), 1: Fraction(1, 2), 0: Fraction(1, 3),
        -1: Fraction(3, 20), -2: Fraction(1, 30), -3: Fraction(-1, 90),
    }),
    (ONE_D, VARIANT_DERIVED): MappingProxyType({
        1: Fraction(1), 0: Fraction(1, 2), -1: Fraction(1, 12), -3: Fraction(-1, 720),
    }),
    (ONE_D, VARIANT_PAPER): MappingProxyType({
        3: Fraction(-1, 5400), 1: Fraction(1), 0: Fraction(1, 2), -1: Fraction(1, 12),
    }),
}


def em_coefficients(mode: str, variant: str = VARIANT_DERIVED):
    """The second-order Euler-Maclaurin approximant of Z as a Laurent
    polynomial in alpha: a read-only ``{power of alpha: Fraction}``, stated
    once and never rebuilt per call.

    With f(x) = w(x) e^(-c x/alpha), w = (1+x)^2 and c = 2 (3d) or w = 1
    and c = 1 (1d), the approximant of sum_{m>=0} f(m) is

        integral_0^inf f + f(0)/2 - sum_{k=1}^{2} B_2k/(2k)! f^(2k-1)(0),

    where x^j e^(-cx/alpha) integrates to j! (alpha/c)^(j+1) and its m-th
    derivative at 0 is m!/(m-j)! (-c/alpha)^(m-j).  That gives

        3d: Z = a^3/4 + a^2/2 + a/2 + 1/3 + 3/(20a) + 1/(30a^2) - 1/(90a^3),
        1d: Z = a + 1/2 + 1/(12a) - 1/(720a^3).

    'paper' swaps the 1d tail for -a^3/5400, an alternate form kept for
    comparison: it does not follow from the summation formula at any order
    and turns Z negative beyond alpha ~ 73.7, so 'derived' is the default
    everywhere.  The 3d form has no 'paper' variant.
    """
    _check_mode(mode)
    if (mode, variant) not in _EM_TABLES:
        raise UsageError(f"the {mode} form has no variant {variant!r}; 'paper' is 1d only")
    return _EM_TABLES[mode, variant]


@functools.cache
def _em_terms(mode: str, variant: str):
    """(top, polys): Z, dZ/dalpha and d2Z/dalpha2 of a table, each as the
    (k, p, q) terms of its powers a^k, k >= 0, then the (-k, p, q) terms of
    its powers k < 0, highest power first, and the largest |k| of all.
    p and q are ints, so the terms serve a float, an array or a Fraction."""
    tables = [em_coefficients(mode, variant)]
    for _ in range(2):
        tables.append({k - 1: k * v for k, v in tables[-1].items() if k})
    polys = []
    for table in tables:
        terms = [(k, v.numerator, v.denominator) for k, v in sorted(table.items(), reverse=True)]
        polys.append((tuple(t for t in terms if t[0] >= 0), tuple((-k, p, q) for k, p, q in terms if k < 0)))
    return max(abs(k) for table in tables for k in table), tuple(polys)


def _em_evaluate(alpha_bar, top, polys):
    """Each polynomial of ``polys`` at alpha_bar, summed from the highest
    power down, with p/q entering as p a^k/q (k >= 0) or p/(q a^-k).

    Powers are products, since numpy's array power rounds differently from
    the scalar one and a point must match the same alpha inside a sweep.
    Where a power leaves the float range a value can be inf or NaN, which
    its callers reject; a float power that underflows to 0 cannot divide,
    so there the form is a ``DomainError`` at once.
    """
    powers = [alpha_bar ** 0, alpha_bar]  # a 1 of alpha's own type
    values = []
    # the callers reject the inf and NaN past the float range, so numpy need not warn
    with np.errstate(all="ignore"):
        for _ in range(top - 1):
            powers.append(powers[-1] * alpha_bar)
        for up, down in polys:
            total = 0
            for k, p, q in up:
                total += p * powers[k] / q
            try:
                for k, p, q in down:
                    total += p / (q * powers[k])
            except ZeroDivisionError:
                raise DomainError(f"the Euler-Maclaurin form leaves the float range at alpha_bar={alpha_bar}") from None
            values.append(total)
    return values


def em_z_derivatives(mode: str, alpha_bar, variant: str = VARIANT_DERIVED):
    """(Z, dZ/dalpha, d2Z/dalpha2) of the Euler-Maclaurin form, at one
    alpha, elementwise over an array of them, or exactly at a Fraction.
    The derivatives are those of the table's coefficients; where they leave
    the float range they can be inf or NaN."""
    _check_alpha(alpha_bar)
    return tuple(_em_evaluate(alpha_bar, *_em_terms(mode, variant)))


def partition_em(mode: str, alpha_bar: float, variant: str = VARIANT_DERIVED) -> PartitionValue:
    """Euler-Maclaurin partition function, ``em_z_derivatives(mode,
    alpha_bar, variant)[0]``; a ``DomainError`` where it is not a finite
    float.  Unlike the thermal route it takes any alpha_bar in (0,
    ALPHA_MAX], so it can be compared with the other routes anywhere."""
    _check_mode(mode)
    _check_alpha(alpha_bar)
    top, polys = _em_terms(mode, variant)
    (z,) = _em_evaluate(alpha_bar, top, polys[:1])
    if not math.isfinite(z):
        raise DomainError(f"the Euler-Maclaurin Z is {z} at alpha_bar={alpha_bar}, past the float range")
    return PartitionValue(Z=z, method="euler_maclaurin")
