"""Thermal functions from a partition-function provider.

All four dimensionless quantities follow from ln Z(alpha) with
alpha = 1/(beta xi):

    F = -alpha ln Z
    U = alpha^2 d(ln Z)/d(alpha)
    S = ln Z + alpha d(ln Z)/d(alpha)
    C = 2 alpha d(ln Z)/d(alpha) + alpha^2 d2(ln Z)/d(alpha)^2

U = F + alpha S and C = dU/dalpha are exact consequences of these
definitions and double as wiring checks.  Two providers of ln Z:

* ``direct`` evaluates the exact infinite ladder in closed form
  (``partition.ladder_log_z_moments``): ln Z itself, U as the mean
  excitation and C as its variance over alpha^2, O(1) per point at any
  temperature; where x = e^(-c/alpha) is subnormal or 0, U, S and C come
  from their leading terms in x, formed in log space, so they keep their
  digits.  ``partition_direct`` remains the term-by-term certified
  reference for it;
* ``em`` uses the second-order Euler-Maclaurin form
  (``partition.em_z_derivatives``), whose derivatives are those of its
  table of rational coefficients.  The form is a high-temperature
  approximant, so it is taken only inside ``EM_ALPHA_RANGE``, where its Z
  and C are positive; a point, and a sweep's grid by its two ends, are
  checked against that range before any work, so no sweep fails partway.

Derivatives are analytic by default; a sweep of the exact ladder can take
central differences on ln Z instead, with the fixed relative step
``FD_STEP_REL``.  The em form takes its analytic derivatives only.

One array kernel evaluates every quantity elementwise over a whole grid of
alphas: ``sweep`` calls it once per grid and ``thermo_point`` calls it with
its single alpha, so a point and the matching sweep point agree bit for
bit.  Sweep points are emitted in grid order.

``scan_jumps`` flags a step of C whose slope exceeds ``JUMP_THRESHOLD``
times that of its neighbours, the signature of a first-order transition,
and fails a NaN slope ratio; ``continuity_scan`` runs it on the C array
the kernel gives for a grid, without building the sweep's points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import DomainError, UsageError
from .partition import (
    ALPHA_MAX,
    LADDER_TERMS,
    ONE_D,
    THREE_D,
    VARIANT_DERIVED,
    VARIANT_PAPER,
    _check_alpha,
    _check_mode,
    em_coefficients,
    em_z_derivatives,
    ladder_log_z_moments,
)

__all__ = [
    "ThermoPoint",
    "SweepSpec",
    "SweepResult",
    "ContinuityReport",
    "thermo_point",
    "sweep",
    "scan_jumps",
    "continuity_scan",
    "Z_METHODS",
    "SPACINGS",
    "EM_ALPHA_RANGE",
    "JUMP_THRESHOLD",
    "POINTS_MAX",
]

Z_METHODS = ("direct", "em")
_GRIDS = {"log": np.geomspace, "lin": np.linspace}  # the grid of each spacing of from_grid
SPACINGS = tuple(_GRIDS)
DERIVATIVE_SCHEMES = ("analytic", "central_difference")
FD_STEP_REL = 1e-5  # relative step of the central differences
JUMP_THRESHOLD = 10.0  # the slope ratio above which the jump scan flags a step
POINTS_MAX = 10 ** 5  # the most points a grid of from_grid may have
LEAST_FLOAT = 5e-324  # the least positive (subnormal) float
LOG_LEAST_NORMAL = math.log(2.0 ** -1022)  # below it, x = e^(-c/alpha) is subnormal or 0
# the alpha_bar range of each Euler-Maclaurin form, keyed by (mode, variant):
# each end is a positive root of the numerator of the form's C, rounded
# inward to 4 digits, so that C > 0 inside; Z > 0 there too (the 'paper'
# form's Z has its root at 73.73)
EM_ALPHA_RANGE = {
    (THREE_D, VARIANT_DERIVED): (0.3632, ALPHA_MAX),  # root 0.363129
    (ONE_D, VARIANT_DERIVED): (0.2582, ALPHA_MAX),  # root 0.258100
    (ONE_D, VARIANT_PAPER): (0.1216, 26.75),  # roots 0.121592 and 26.7559
}


class ThermoPoint(NamedTuple):
    """One temperature point: Z and the four dimensionless quantities."""

    alpha_bar: float
    Z: float
    F_bar: float
    U_bar: float
    S_bar: float
    C_bar: float
    method: str


def _check_route(mode, z_method, derivative_scheme, variant, ends):
    """Refuse a route the kernel does not have, or an alpha of ``ends``, a point's alpha
    or a grid's two ends, already in (0, ALPHA_MAX], that the route cannot take."""
    _check_mode(mode)
    if z_method not in Z_METHODS:
        raise UsageError(f"z_method must be one of {Z_METHODS}, got {z_method!r}")
    if derivative_scheme not in DERIVATIVE_SCHEMES:
        raise UsageError(f"derivative_scheme must be one of {DERIVATIVE_SCHEMES}")
    if derivative_scheme != "analytic" and z_method != "direct":
        raise UsageError(f"derivative_scheme {derivative_scheme!r} takes only the z_method 'direct', got {z_method!r}")
    if z_method == "em":
        em_coefficients(mode, variant)  # rejects a variant the form does not have
        lo, hi = EM_ALPHA_RANGE[mode, variant]
        for a in ends:
            if not lo <= a <= hi:
                raise DomainError(f"the {mode} {variant!r} Euler-Maclaurin form takes alpha_bar in [{lo:g}, {hi:g}], "
                                  f"where its C is positive; got alpha_bar={a}")
    elif variant != VARIANT_DERIVED:
        raise UsageError(f"z_method 'direct' takes only the variant 'derived', got {variant!r}")
    if derivative_scheme == "central_difference" and ends and ends[-1] + FD_STEP_REL * ends[-1] > ALPHA_MAX:
        raise DomainError(f"central differences evaluate ln Z at alpha_bar (1 + {FD_STEP_REL:g}), at most "
                          f"{ALPHA_MAX:g}; got alpha_bar={ends[-1]}")


def _keep_small_x_digits(mode, a, u, s, c):
    """U, S and C, each taken from its leading term in x = e^(-c/alpha),
    formed in log space, wherever x is subnormal or 0.  There ln Z, U and C
    alpha^2 are k_Z x, k_U x and k_C x to the last bit, k_U = c k_Z, k_C = c^2 k_Z:

        U = exp(ln k_U - c/alpha),  S = exp(ln(k_Z alpha + k_U) - ln alpha - c/alpha),
        C = exp(ln k_C - c/alpha - 2 ln alpha).

    S takes ln alpha apart from k_U/alpha, which overflows at the least alphas.
    (c, k_Z) is the ladder's row of ``partition.LADDER_TERMS``.
    """
    c_x, k_z = LADDER_TERMS[mode]
    small_x = np.less(a, c_x / -LOG_LEAST_NORMAL)
    if not small_x.any():
        return u, s, c
    k_u, k_c = c_x * k_z, c_x * c_x * k_z
    neg_u, log_a = -c_x / a, np.log(a)
    forms = (np.exp(np.log(k_u) + neg_u), np.exp(np.log(k_z * a + k_u) - log_a + neg_u),
             np.exp(np.log(k_c) + neg_u - 2.0 * log_a))
    return tuple(np.where(small_x, form, value) for form, value in zip(forms, (u, s, c)))


def _thermo_arrays(a, mode, z_method, derivative_scheme, variant):
    """(Z, F, U, S, C) elementwise at a, one alpha or a 1-d array of them."""
    if z_method == "em":
        z, dz, d2z = em_z_derivatives(mode, a, variant)
        log_z, g1 = np.log(z), dz / z
        g2 = d2z / z - g1 * g1
    elif derivative_scheme == "analytic":
        log_z, u, var = ladder_log_z_moments(mode, a)
        # var > 0 only above alpha ~ 1e-3, where adding the least float leaves a * a
        # as it is; below alpha ~ 1.57e-162 it keeps a * a above 0, so the C that
        # _keep_small_x_digits replaces there is 0, not 0/0 with a RuntimeWarning
        u, s, c = _keep_small_x_digits(mode, a, u, log_z + u / a, var / (a * a + LEAST_FLOAT))
        return np.exp(log_z), -a * log_z, u, s, c
    else:
        eta = FD_STEP_REL * a
        g_plus, log_z, g_minus = ladder_log_z_moments(mode, np.stack((a + eta, a, a - eta)))[0]
        g1 = (g_plus - g_minus) / (2.0 * eta)
        g2 = (g_plus - 2.0 * log_z + g_minus) / (eta * eta)
        z = np.exp(log_z)
    # g1 and g2 are the first two alpha-derivatives of ln Z
    u = a * a * g1
    return z, -a * log_z, u, log_z + u / a, 2.0 * a * g1 + a * a * g2


def _grid_arrays(spec):
    """(Z, F, U, S, C) over the grid of ``spec``.  Below alpha ~ 1e-308,
    -c/alpha overflows to -inf, whose x = e^(-c/alpha) is the 0 the ladder
    has there, so the overflow is no fault to warn of; a point's division
    is of Python floats, which never warn."""
    with np.errstate(over="ignore"):
        return _thermo_arrays(np.array(spec.alphas), spec.mode, spec.z_method, spec.derivative_scheme, spec.variant)


def thermo_point(alpha_bar: float, mode: str = THREE_D, z_method: str = "direct") -> ThermoPoint:
    """Z and analytic (F, U, S, C) at one temperature; ``sweep`` takes the other schemes and variants."""
    a = float(alpha_bar)
    _check_alpha(a)
    _check_route(mode, z_method, "analytic", VARIANT_DERIVED, (a,))
    values = _thermo_arrays(a, mode, z_method, "analytic", VARIANT_DERIVED)
    return tuple.__new__(ThermoPoint, (a, *map(float, values), z_method))


@dataclass(frozen=True)
class SweepSpec:
    """A temperature grid plus how to evaluate each point."""

    alphas: tuple
    mode: str = THREE_D
    z_method: str = "direct"
    derivative_scheme: str = "analytic"
    variant: str = VARIANT_DERIVED

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        object.__setattr__(self, "alphas", alphas)
        _check_alpha(np.array(alphas))
        if any(b <= a for a, b in zip(alphas, alphas[1:])):
            raise DomainError("alpha grid must be strictly increasing")
        # the grid increases, so its ends bound every alpha the kernel evaluates
        _check_route(self.mode, self.z_method, self.derivative_scheme, self.variant, alphas[:1] + alphas[-1:])

    @staticmethod
    def from_grid(alpha_min, alpha_max, points, spacing="log", **kwargs) -> "SweepSpec":
        if not 1 <= points <= POINTS_MAX:
            raise DomainError(f"points must be in [1, {POINTS_MAX}], got {points}")
        if not 0.0 < alpha_min <= alpha_max <= ALPHA_MAX:
            raise DomainError(f"need 0 < alpha_min <= alpha_max <= {ALPHA_MAX:g}, got [{alpha_min}, {alpha_max}]")
        if spacing not in SPACINGS:
            raise UsageError(f"spacing must be one of {SPACINGS}, got {spacing!r}")
        return SweepSpec(alphas=_GRIDS[spacing](alpha_min, alpha_max, points), **kwargs)


@dataclass(frozen=True)
class SweepResult:
    """Sweep points in grid order plus grid-level monotonicity flags."""

    points: tuple
    monotonicity: dict


def _strict(holds, values) -> bool:
    """Whether the strict comparison ``holds`` of each consecutive pair of
    ``values`` is true at every pair but those of two exact zeros."""
    if holds.all():
        return True
    zero = values == 0.0
    return bool(np.all(holds | (zero[1:] & zero[:-1])))


def sweep(spec: SweepSpec) -> SweepResult:
    """One ThermoPoint per grid value and the shape summary of the curves.

    The monotonicity flags are grid-level statements (checked at every
    consecutive pair), matching what a plotted curve can show.  A pair
    whose two values are both exactly 0 is not judged by the strict flags:
    at low alpha the Boltzmann factor underflows and F, U and S are exact
    zeros at several grid points.
    """
    arrays = _grid_arrays(spec)
    _, f, u, s, c = arrays
    slack = 1e-12
    monotonicity = {
        "F_bar_strictly_decreasing": _strict(f[1:] < f[:-1], f),
        "U_bar_strictly_increasing": _strict(u[1:] > u[:-1], u),
        "S_bar_strictly_increasing": _strict(s[1:] > s[:-1], s),
        "C_bar_non_decreasing": bool(np.all(c[1:] >= c[:-1] - slack)),
    }
    rows = zip(spec.alphas, *(v.tolist() for v in arrays), repeat(spec.z_method))
    # tuple.__new__ builds each record in C, where ThermoPoint._make would run a
    # Python frame per point; the records are the same ThermoPoint tuples
    points = tuple(map(tuple.__new__, repeat(ThermoPoint), rows))
    return SweepResult(points=points, monotonicity=monotonicity)


@dataclass(frozen=True)
class ContinuityReport:
    """Outcome of the specific-heat jump scan."""

    max_ratio: float
    alpha_at_max: float
    passed: bool


def scan_jumps(alphas, cbar, jump_threshold: float = JUMP_THRESHOLD) -> ContinuityReport:
    """Flag single-step jumps in C(alpha) against the local slope.

    Each discrete slope |dC|/dalpha with a neighbour on each side is
    compared with the mean of those two neighbours: a smooth curve gives
    ratios near one, while a genuine discontinuity concentrates in one step
    and sends its ratio orders of magnitude up.  The first and last steps
    are not judged, because their one neighbour differs through curvature
    alone.  ``passed`` means no step exceeded jump_threshold times its
    neighbourhood, i.e. no first-order-transition signature; a NaN ratio
    becomes ``max_ratio`` and fails, so a C that holds NaN is not smooth.
    """
    alphas = np.asarray(alphas, dtype=float)
    cbar = np.asarray(cbar, dtype=float)
    if alphas.shape != cbar.shape or alphas.ndim != 1:
        raise UsageError("alphas and cbar must be 1-d arrays of equal length")
    if alphas.size < 3:
        return ContinuityReport(0.0, float(alphas[0]) if alphas.size else 0.0, True)
    slopes = np.abs(np.diff(cbar)) / np.diff(alphas)
    ratios = np.zeros_like(slopes)
    # the floor keeps a flat neighbourhood from dividing by zero
    ratios[1:-1] = slopes[1:-1] / np.maximum(0.5 * (slopes[:-2] + slopes[2:]), 1e-9)
    max_index = int(np.argmax(ratios))
    max_ratio = float(ratios[max_index])
    return ContinuityReport(max_ratio, float(alphas[max_index]), bool(max_ratio <= jump_threshold))


def continuity_scan(spec: SweepSpec, jump_threshold: float = JUMP_THRESHOLD) -> ContinuityReport:
    """Jump scan of the specific heat over the grid of ``spec``.

    It takes C straight from the thermal kernel, the same array that
    ``sweep`` turns into its points, so it builds no points and no
    monotonicity flags; a caller that already holds the sweep calls
    ``scan_jumps`` on its C column and gets the same report."""
    c = _grid_arrays(spec)[4]
    return scan_jumps(spec.alphas, c, jump_threshold)
