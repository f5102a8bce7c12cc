"""Independent oracles for every output the benchmark checks.

Nothing here imports ringosc, and nothing is a stored copy of its output:

* the exact thermal functions of both geometric ladders in mpmath, with
  ln Z = log1p(x) - 3 log1p(-x), x = e^(-2/alpha) (3d) and
  ln Z = -log1p(-x), x = e^(-1/alpha) (1d), so Z is never rounded to 1;
* the second-order Euler-Maclaurin forms, assembled from the summation
  formula as Laurent polynomials in alpha with exact rational
  coefficients (Bernoulli numbers from their own recurrence);
* the ladder 4n + 2l + 3, the closed-form angular constants Lambda and L
  and the reduced-coupling energies;
* radial functions y^mu e^(-y/2) L_n^(l+1/2)(y) through mpmath.laguerre
  and angular factors through mpmath.jacobi.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

DPS = 30


def thermal_exact(alpha: float, mode: str) -> dict:
    """Z, F, U, S and C of the exact ladder at one temperature."""
    with mp.workdps(DPS):
        a = mp.mpf(alpha)
        u = 2 / a if mode == "3d" else 1 / a
        x = mp.exp(-u)
        one_minus_x = -mp.expm1(-u)
        if mode == "3d":
            log_z = mp.log1p(x) - 3 * mp.log(one_minus_x)
            mean = 2 * (x / (1 + x) + 3 * x / one_minus_x)
            var = 4 * (x / (1 + x) ** 2 + 3 * x / one_minus_x ** 2)
        else:
            log_z = -mp.log(one_minus_x)
            mean = x / one_minus_x
            var = x / one_minus_x ** 2
        return {
            "Z": float(mp.exp(log_z)),
            "F_bar": float(-a * log_z),
            "U_bar": float(mean),
            "S_bar": float(log_z + mean / a),
            "C_bar": float(var / a ** 2),
        }


def _bernoulli(m: int) -> Fraction:
    """B_m from sum_{j<=m} C(m+1, j) B_j = 0, B_0 = 1."""
    b = [Fraction(1)]
    for k in range(1, m + 1):
        b.append(-sum(math.comb(k + 1, j) * b[j] for j in range(k)) / (k + 1))
    return b[m]


def em_laurent(mode: str, variant: str = "derived") -> dict:
    """Second-order Euler-Maclaurin Z as {power of alpha: coefficient}.

    sum_{m>=0} f(m) ~ int_0^inf f + f(0)/2 - sum_{k=1,2} B_2k/(2k)! f^(2k-1)(0)
    with f(x) = w(x) e^(-c x/alpha), w = (1+x)^2, c = 2 (3d) or w = 1, c = 1 (1d).
    The 'paper' 1d variant replaces -1/(720 alpha^3) by -alpha^3/5400.
    """
    w, c = ((1, 2, 1), 2) if mode == "3d" else ((1,), 1)
    z: dict = {}

    def add(power, coeff):
        z[power] = z.get(power, Fraction(0)) + coeff

    # int_0^inf x^j e^(-b x) dx = j! / b^(j+1), with 1/b = alpha/c
    for j, wj in enumerate(w):
        add(j + 1, Fraction(wj * math.factorial(j), c ** (j + 1)))
    add(0, Fraction(w[0], 2))
    for k in (1, 2):
        m = 2 * k - 1
        scale = -_bernoulli(2 * k) / math.factorial(2 * k)
        # f^(m)(0) = sum_j C(m, j) j! w_j (-b)^(m-j), b = c/alpha
        for j, wj in enumerate(w):
            if j <= m:
                add(-(m - j), scale * math.comb(m, j) * math.factorial(j) * wj * (-c) ** (m - j))
    if mode == "1d" and variant == "paper":
        add(-3, Fraction(1, 720))
        add(3, Fraction(-1, 5400))
    return {p: q for p, q in z.items() if q != 0}


def _laurent_eval(coeffs: dict, a: Fraction) -> Fraction:
    return sum((q * a ** p for p, q in coeffs.items()), Fraction(0))


def _laurent_deriv(coeffs: dict) -> dict:
    return {p - 1: q * p for p, q in coeffs.items() if p != 0}


def em_value(alpha: float, mode: str, variant: str = "derived") -> tuple[float, float]:
    """(Z, sum of |terms|) of the Euler-Maclaurin form at the float alpha.

    The term magnitude sets the rounding a float evaluation may show when
    the form passes through zero.
    """
    coeffs = em_laurent(mode, variant)
    a = Fraction(alpha)
    z = _laurent_eval(coeffs, a)
    scale = sum(abs(q * a ** p) for p, q in coeffs.items())
    return float(z), float(scale)


def thermal_em(alpha: float, mode: str, variant: str = "derived") -> dict:
    """F, U, S and C from the Euler-Maclaurin Z and its exact derivatives."""
    coeffs = em_laurent(mode, variant)
    d1 = _laurent_deriv(coeffs)
    d2 = _laurent_deriv(d1)
    a = Fraction(alpha)
    z, dz, d2z = (_laurent_eval(c, a) for c in (coeffs, d1, d2))
    g1 = dz / z
    u = a * a * g1
    c = 2 * a * g1 + a * a * (d2z / z - g1 * g1)
    with mp.workdps(DPS):
        log_z = mp.log(mp.mpf(z.numerator) / z.denominator)
        af = mp.mpf(a.numerator) / a.denominator
        return {
            "Z": float(z),
            "F_bar": float(-af * log_z),
            "U_bar": float(u),
            "S_bar": float(log_z + mp.mpf(u.numerator) / u.denominator / af),
            "C_bar": float(c),
        }


def ladder(n: int, ell: float) -> float:
    """E/xi = 4n + 2 ell + 3."""
    return 4.0 * n + 2.0 * ell + 3.0


def angular_constants(a2: float, a3: float, s: int, m: int, mass: float = 1.0, hbar: float = 1.0) -> tuple:
    """(Lambda, L) from the closed forms, in mpmath."""
    with mp.workdps(DPS):
        k = 2 * mp.mpf(mass) / mp.mpf(hbar) ** 2
        lam = mp.sqrt(1 + m * m + k * (mp.mpf(a2) ** 2 + mp.mpf(a3) ** 2))
        big_l = -1 + mp.sqrt((1 + 2 * s + 2 * lam) ** 2 - 4 * k * mp.mpf(a3) ** 2) / 2
        return float(lam), float(big_l)


def case_energy_over_xi(case: str, a2: float, a3: float, big_n: int, s: int, m: int) -> float:
    """E/xi = 2(N + ell) + 3 of the reduced-coupling cases (hbar = M = 1)."""
    with mp.workdps(DPS):
        if case == "a2_only":
            big_l = -mp.mpf(1) / 2 + mp.sqrt(1 + m * m + 2 * mp.mpf(a2) ** 2) + s
        elif case == "a3_only":
            lam = mp.sqrt(1 + m * m + 2 * mp.mpf(a3) ** 2)
            big_l = -1 + mp.sqrt((1 + 2 * lam + 2 * s) ** 2 - 8 * mp.mpf(a3) ** 2) / 2
        else:
            big_l = -mp.mpf(1) / 2 + mp.sqrt(1 + m * m) + s
        ell = int(mp.floor(big_l + mp.mpf(1) / 2))
    return 2.0 * (big_n + ell) + 3.0


def radial_function(n: int, ell: float, r: float, a1: float = 1.0) -> float:
    """y^mu e^(-y/2) L_n^(ell+1/2)(y), y = sqrt(2) a1 r^2, mu = (ell+1)/2 (hbar = M = 1)."""
    with mp.workdps(DPS):
        y = mp.sqrt(2) * mp.mpf(a1) * mp.mpf(r) ** 2
        ell = mp.mpf(ell)
        return float(y ** ((ell + 1) / 2) * mp.exp(-y / 2) * mp.laguerre(n, ell + mp.mpf(1) / 2, y))


def angular_function(s: int, lam: float, theta: float) -> float:
    """y^(1+Lambda) |1-y|^Lambda P_s^(Lambda,Lambda)(1-y), y = 1 + cos(theta)."""
    with mp.workdps(DPS):
        w = -mp.cos(mp.mpf(theta))
        lam = mp.mpf(lam)
        return float((1 - w) ** (1 + lam) * abs(w) ** lam * mp.jacobi(s, lam, lam, w))
