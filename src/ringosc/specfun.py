"""Special functions needed by the spectral module.

Everything here is exact at desk scale: the symmetric Jacobi polynomials
of the angular factor and the Laguerre polynomials of the radial one, by
their three-term recurrences (DLMF 18.9).  The terminating confluent
hypergeometric sum and the Gamma-function ratio are the paper's form of
the radial polynomial, L_n^(a)(y) = C(n + a, n) 1F1(-n; a + 1; y)
(DLMF 13.6); they are kept as the oracle that ``verification`` checks
the Laguerre recurrence against, and nothing else calls them.  No
general special-function library is involved.

All functions are pure and hold no state.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = [
    "jacobi_poly",
    "laguerre_poly",
    "hyp1f1_terminating",
    "gamma_ratio_prefactor",
]


def jacobi_poly(degree: int, a: float, x: float) -> float:
    """Evaluate the symmetric Jacobi polynomial P_degree^(a, a)(x) for x in [-1, 1].

    Uses the ascending three-term recurrence, which avoids the
    cancellation of the explicit series form.  With both indices equal
    to a it reads, divided through by 4(k + a - 1),

        P_k = (k + a) ((2k + 2a - 1) x P_{k-1} - (k + a - 1) P_{k-2}) / (k (k + 2a)).

    The angular solutions take only these symmetric indices, a = Lambda.
    The series definition is deliberately kept out of the library; it
    lives in the test suite as an independent oracle.
    """
    if degree < 0 or int(degree) != degree:
        raise DomainError(f"degree must be a non-negative integer, got {degree}")
    if not math.isfinite(a) or a <= -1.0:
        raise DomainError(f"a must be finite and > -1, got {a}")
    if not math.isfinite(x) or abs(x) > 1.0 + 1e-9:
        raise DomainError(f"jacobi argument must lie in [-1, 1], got {x}")
    if degree == 0:
        return 1.0
    prev, cur = 1.0, (a + 1.0) * x
    for k in range(2, int(degree) + 1):
        ka = k + a
        cur, prev = ka * ((2.0 * ka - 1.0) * x * cur - (ka - 1.0) * prev) / (k * (ka + a)), cur
    return cur


def laguerre_poly(n: int, a: float, y: float) -> float:
    """Evaluate the generalized Laguerre polynomial L_n^(a)(y) for y >= 0.

    Runs the forward recurrence
    L_{k+1} = ((2k + 1 + a - y) L_k - (k + a) L_{k-1}) / (k + 1) from
    L_0 = 1 and L_1 = 1 + a - y.  Unlike the alternating 1F1 sum it
    rounds at the scale of the polynomial, not of its largest term.
    """
    if n < 0 or int(n) != n:
        raise DomainError(f"n must be a non-negative integer, got {n}")
    if not math.isfinite(a) or a <= -1.0:
        raise DomainError(f"a must be finite and > -1, got {a}")
    if not math.isfinite(y) or y < 0.0:
        raise DomainError(f"argument must be finite and >= 0, got {y}")
    if n == 0:
        return 1.0
    c = a - y
    prev, cur = 1.0, 1.0 + c
    for k in range(1, int(n)):
        cur, prev = ((2.0 * k + 1.0 + c) * cur - (k + a) * prev) / (k + 1.0), cur
    return cur


def _laguerre_frexp(n: int, a: float, y: float) -> tuple[float, int]:
    """(m, e) with L_n^(a)(y) = m 2^e, for arguments ``laguerre_poly`` has
    checked, where L itself leaves the float range.

    Runs the same recurrence, with both terms divided by the power of two
    of the newer one after every step.  The division is exact, so m 2^e
    has the bits of ``laguerre_poly`` wherever that is finite.
    """
    if n == 0:
        return 1.0, 0
    c = a - y
    cur, e = math.frexp(1.0 + c)
    prev = math.ldexp(1.0, -e)
    for k in range(1, int(n)):
        cur, prev = ((2.0 * k + 1.0 + c) * cur - (k + a) * prev) / (k + 1.0), cur
        cur, shift = math.frexp(cur)
        prev = math.ldexp(prev, -shift)
        e += shift
    return cur, e


def hyp1f1_terminating(n: int, b: float, y: float) -> float:
    """Sum the n + 1 nonzero terms of 1F1(-n; b; y), n a non-negative integer.

    Successive terms follow from the ratio (k - n) y / ((b + k)(k + 1)),
    so no factorials or Pochhammer symbols are formed explicitly.
    """
    if n < 0 or int(n) != n:
        raise DomainError(f"n must be a non-negative integer, got {n}")
    if not math.isfinite(b) or (b <= 0.0 and b == math.floor(b)):
        raise DomainError(f"b must not be a non-positive integer, got {b}")
    if not math.isfinite(y) or y < 0.0:
        raise DomainError(f"argument must be finite and >= 0, got {y}")
    term = 1.0
    total = 1.0
    for k in range(int(n)):
        term *= (k - n) * y / ((b + k) * (k + 1.0))
        total += term
    return total


def gamma_ratio_prefactor(n: int, ell: float) -> float:
    """Gamma(n + 3/2 + ell) / (n! Gamma(3/2 + ell)) without Gamma calls.

    Evaluated as the telescoping product of the n ratios
    (3/2 + ell + j) / (1 + j), which stays in range for n up to ~1e3
    where a naive Gamma quotient would overflow.
    """
    if n < 0 or int(n) != n:
        raise DomainError(f"n must be a non-negative integer, got {n}")
    if 1.5 + ell <= 0.0:
        raise DomainError(f"need 3/2 + ell > 0, got ell = {ell}")
    out = 1.0
    for j in range(int(n)):
        out *= (1.5 + ell + j) / (1.0 + j)
    return out
