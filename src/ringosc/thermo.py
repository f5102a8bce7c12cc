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
  temperature.  ``partition_direct`` remains the term-by-term certified
  reference for it;
* ``em`` uses the second-order Euler-Maclaurin form
  (``partition.em_z_derivatives``), whose derivatives are those of its
  table of rational coefficients.  The form is a high-temperature
  approximant, so it is taken only inside ``EM_ALPHA_RANGE``, where its Z
  and C are positive; a point, and a sweep's grid by its two ends, are
  checked against that range before any work, so no sweep fails partway.

Derivatives are analytic by default; a sweep can take central
differences on ln Z instead, with the fixed relative step ``FD_STEP_REL``.

One array kernel evaluates every quantity elementwise over a whole grid of
alphas: ``sweep`` calls it once per grid and ``thermo_point`` calls it with
its single alpha, so a point and the matching sweep point agree bit for
bit.  Sweep points are emitted in grid order.

``scan_jumps`` flags a step of C whose slope exceeds ``JUMP_THRESHOLD``
times that of its neighbours, the signature of a first-order transition;
``continuity_scan`` runs it on a fresh sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import DomainError, UsageError
from .partition import (
    ALPHA_MAX,
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
]

Z_METHODS = ("direct", "em")
SPACINGS = ("log", "lin")
DERIVATIVE_SCHEMES = ("analytic", "central_difference")
FD_STEP_REL = 1e-5  # relative step of the central differences
JUMP_THRESHOLD = 10.0  # the slope ratio above which the jump scan flags a step
LEAST_FLOAT = 5e-324  # the least positive (subnormal) float
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


def _check_options(mode, z_method, derivative_scheme, variant):
    _check_mode(mode)
    if z_method not in Z_METHODS:
        raise UsageError(f"z_method must be one of {Z_METHODS}, got {z_method!r}")
    if derivative_scheme not in DERIVATIVE_SCHEMES:
        raise UsageError(f"derivative_scheme must be one of {DERIVATIVE_SCHEMES}")
    if z_method == "em":
        em_coefficients(mode, variant)  # rejects a variant the form does not have
    elif variant != VARIANT_DERIVED:
        raise UsageError(f"z_method 'direct' takes only the variant 'derived', got {variant!r}")


def _check_em_alpha(mode, variant, alpha_bar):
    lo, hi = EM_ALPHA_RANGE[mode, variant]
    if not lo <= alpha_bar <= hi:
        raise DomainError(f"the {mode} {variant!r} Euler-Maclaurin form takes alpha_bar in [{lo:g}, {hi:g}], "
                          f"where its C is positive; got alpha_bar={alpha_bar}")


def _thermo_arrays(a, mode, z_method, derivative_scheme, variant):
    """(Z, F, U, S, C) elementwise at a, one alpha or a 1-d array of them."""
    if derivative_scheme == "analytic":
        if z_method == "direct":
            log_z, u, var = ladder_log_z_moments(mode, a)
            # var > 0 only above alpha ~ 1e-3, where adding the least float leaves a * a
            # as it is; below alpha ~ 1.57e-162 it keeps a * a above 0, so C is 0, not 0/0
            z, c = np.exp(log_z), var / (a * a + LEAST_FLOAT)
        else:
            z, dz, d2z = em_z_derivatives(mode, a, variant)
            g1 = dz / z
            g2 = d2z / z - g1 * g1
            log_z, u, c = np.log(z), a * a * g1, 2.0 * a * g1 + a * a * g2
    else:
        eta = FD_STEP_REL * a
        shifted = (a + eta, a, a - eta)
        if z_method == "direct":
            g_plus, log_z, g_minus = (ladder_log_z_moments(mode, x)[0] for x in shifted)
        else:
            g_plus, log_z, g_minus = (np.log(em_z_derivatives(mode, x, variant)[0]) for x in shifted)
        g1 = (g_plus - g_minus) / (2.0 * eta)
        g2 = (g_plus - 2.0 * log_z + g_minus) / (eta * eta)
        z, u, c = np.exp(log_z), a * a * g1, 2.0 * a * g1 + a * a * g2
    return z, -a * log_z, u, log_z + u / a, c


def thermo_point(alpha_bar: float, mode: str = THREE_D, z_method: str = "direct") -> ThermoPoint:
    """Z and analytic (F, U, S, C) at one temperature; ``sweep`` takes the other schemes and variants."""
    _check_options(mode, z_method, "analytic", VARIANT_DERIVED)
    a = float(alpha_bar)
    if z_method == "em":
        _check_em_alpha(mode, VARIANT_DERIVED, a)
    values = _thermo_arrays(a, mode, z_method, "analytic", VARIANT_DERIVED)
    return ThermoPoint(a, *map(float, values), z_method)


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
        _check_options(self.mode, self.z_method, self.derivative_scheme, self.variant)
        # the grid increases, so its ends bound every alpha the kernel evaluates
        ends = alphas[:1] + alphas[-1:]
        if self.z_method == "em":
            for a in ends:
                _check_em_alpha(self.mode, self.variant, a)
        if self.derivative_scheme == "central_difference" and ends and ends[-1] + FD_STEP_REL * ends[-1] > ALPHA_MAX:
            raise DomainError(f"central differences evaluate ln Z at alpha_bar (1 + {FD_STEP_REL:g}), at most "
                              f"{ALPHA_MAX:g}; got alpha_bar={ends[-1]}")

    @staticmethod
    def from_grid(alpha_min, alpha_max, points, spacing="log", **kwargs) -> "SweepSpec":
        if points < 1:
            raise DomainError(f"points must be >= 1, got {points}")
        if not 0.0 < alpha_min <= alpha_max <= ALPHA_MAX:
            raise DomainError(f"need 0 < alpha_min <= alpha_max <= {ALPHA_MAX:g}, got [{alpha_min}, {alpha_max}]")
        if spacing not in SPACINGS:
            raise UsageError(f"spacing must be one of {SPACINGS}, got {spacing!r}")
        if spacing == "log":
            grid = np.geomspace(alpha_min, alpha_max, points)
        else:
            grid = np.linspace(alpha_min, alpha_max, points)
        return SweepSpec(alphas=tuple(float(a) for a in grid), **kwargs)


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
    arrays = _thermo_arrays(np.array(spec.alphas), spec.mode, spec.z_method, spec.derivative_scheme, spec.variant)
    _, f, u, s, c = arrays
    slack = 1e-12
    monotonicity = {
        "F_bar_strictly_decreasing": _strict(f[1:] < f[:-1], f),
        "U_bar_strictly_increasing": _strict(u[1:] > u[:-1], u),
        "S_bar_strictly_increasing": _strict(s[1:] > s[:-1], s),
        "C_bar_non_decreasing": bool(np.all(c[1:] >= c[:-1] - slack)),
    }
    rows = zip(spec.alphas, *(v.tolist() for v in arrays), repeat(spec.z_method))
    points = tuple(map(ThermoPoint._make, rows))
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
    neighbourhood, i.e. no first-order-transition signature.
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
    ratios[np.isnan(ratios)] = 0.0  # a NaN ratio is not judged
    max_index = int(np.argmax(ratios))
    max_ratio = float(ratios[max_index])
    return ContinuityReport(max_ratio, float(alphas[max_index]), bool(max_ratio <= jump_threshold))


def continuity_scan(spec: SweepSpec, jump_threshold: float = JUMP_THRESHOLD) -> ContinuityReport:
    """Jump scan of the specific heat of a sweep of ``spec``; a caller that
    already holds the sweep calls ``scan_jumps`` on its C column."""
    return scan_jumps(spec.alphas, [pt.C_bar for pt in sweep(spec).points], jump_threshold)
