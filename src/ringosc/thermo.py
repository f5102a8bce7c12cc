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
* ``em`` uses the second-order Euler-Maclaurin closed forms, whose
  derivatives are taken term by term.

Derivatives are analytic by default; central differences on ln Z are
available as an alternative scheme.

Every function here is a pure per-point computation; sweep points are
independent and emitted in grid order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SweepError, UsageError
from .partition import (
    ONE_D,
    THREE_D,
    VARIANT_DERIVED,
    em_1d_z_derivatives,
    em_3d_z_derivatives,
    ladder_log_z_moments,
)

__all__ = [
    "ThermoPoint",
    "SweepSpec",
    "SweepResult",
    "ContinuityReport",
    "HighTAsymptotics",
    "thermo_point",
    "sweep",
    "scan_jumps",
    "continuity_scan",
    "high_t_asymptotics",
]

Z_METHODS = ("direct", "em")
DERIVATIVE_SCHEMES = ("analytic", "central_difference")


@dataclass(frozen=True)
class ThermoPoint:
    """One temperature point: Z and the four dimensionless quantities."""

    alpha_bar: float
    Z: float
    F_bar: float
    U_bar: float
    S_bar: float
    C_bar: float
    method: str


def _em_z_derivatives(alpha_bar, mode, variant):
    if mode == THREE_D:
        z, dz, d2z = em_3d_z_derivatives(alpha_bar)
    else:
        z, dz, d2z = em_1d_z_derivatives(alpha_bar, variant)
    if z <= 0.0:
        raise DomainError(f"partition function {z} <= 0 at alpha={alpha_bar}")
    return z, dz, d2z


def _analytic_z_u_c(alpha_bar, mode, z_method, variant):
    """(Z, ln Z, U, C) from exact derivatives of ln Z."""
    if z_method == "direct":
        log_z, mean, var = ladder_log_z_moments(mode, alpha_bar)
        return math.exp(log_z), log_z, mean, var / alpha_bar ** 2
    z, dz, d2z = _em_z_derivatives(alpha_bar, mode, variant)
    g1 = dz / z
    g2 = d2z / z - g1 * g1
    return z, math.log(z), alpha_bar ** 2 * g1, 2.0 * alpha_bar * g1 + alpha_bar ** 2 * g2


def _log_z(alpha_bar, mode, z_method, variant):
    if z_method == "direct":
        return ladder_log_z_moments(mode, alpha_bar)[0]
    return math.log(_em_z_derivatives(alpha_bar, mode, variant)[0])


def thermo_point(
    alpha_bar: float,
    mode: str = THREE_D,
    z_method: str = "direct",
    derivative_scheme: str = "analytic",
    *,
    variant: str = VARIANT_DERIVED,
    fd_step_rel: float = 1e-5,
) -> ThermoPoint:
    """Evaluate Z and (F, U, S, C) at one dimensionless temperature."""
    if not (math.isfinite(alpha_bar) and alpha_bar > 0.0):
        raise DomainError(f"alpha_bar must be > 0, got {alpha_bar}")
    if z_method not in Z_METHODS:
        raise UsageError(f"z_method must be one of {Z_METHODS}, got {z_method!r}")
    if derivative_scheme not in DERIVATIVE_SCHEMES:
        raise UsageError(f"derivative_scheme must be one of {DERIVATIVE_SCHEMES}")

    if derivative_scheme == "analytic":
        z, log_z0, u, c = _analytic_z_u_c(alpha_bar, mode, z_method, variant)
    else:
        eta = fd_step_rel * alpha_bar
        g_plus = _log_z(alpha_bar + eta, mode, z_method, variant)
        g0 = _log_z(alpha_bar, mode, z_method, variant)
        g_minus = _log_z(alpha_bar - eta, mode, z_method, variant)
        g1 = (g_plus - g_minus) / (2.0 * eta)
        g2 = (g_plus - 2.0 * g0 + g_minus) / eta ** 2
        z = math.exp(g0)
        log_z0 = g0
        u = alpha_bar ** 2 * g1
        c = 2.0 * alpha_bar * g1 + alpha_bar ** 2 * g2

    f = -alpha_bar * log_z0
    s = log_z0 + u / alpha_bar
    return ThermoPoint(alpha_bar, z, f, u, s, c, method=z_method)


@dataclass(frozen=True)
class SweepSpec:
    """A temperature grid plus how to evaluate each point."""

    alphas: tuple
    mode: str = THREE_D
    z_method: str = "direct"
    derivative_scheme: str = "analytic"
    variant: str = VARIANT_DERIVED
    fd_step_rel: float = 1e-5

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        object.__setattr__(self, "alphas", alphas)
        if any(not (math.isfinite(a) and a > 0.0) for a in alphas):
            raise DomainError("every grid alpha must be finite and > 0")
        if any(b <= a for a, b in zip(alphas, alphas[1:])):
            raise DomainError("alpha grid must be strictly increasing")
        if not 1e-8 < self.fd_step_rel < 1e-2:
            raise DomainError(f"fd_step_rel must lie in (1e-8, 1e-2), got {self.fd_step_rel}")

    @staticmethod
    def from_grid(alpha_min, alpha_max, points, spacing="log", **kwargs) -> "SweepSpec":
        if points < 1:
            raise DomainError(f"points must be >= 1, got {points}")
        if not 0.0 < alpha_min <= alpha_max:
            raise DomainError(f"need 0 < alpha_min <= alpha_max, got [{alpha_min}, {alpha_max}]")
        if points == 1:
            grid = np.array([alpha_min])
        elif spacing == "log":
            grid = np.geomspace(alpha_min, alpha_max, points)
        elif spacing == "lin":
            grid = np.linspace(alpha_min, alpha_max, points)
        else:
            raise UsageError(f"spacing must be 'lin' or 'log', got {spacing!r}")
        return SweepSpec(alphas=tuple(float(a) for a in grid), **kwargs)


@dataclass(frozen=True)
class SweepResult:
    """Sweep points in grid order plus grid-level monotonicity flags."""

    points: tuple
    monotonicity: dict


def sweep(spec: SweepSpec) -> SweepResult:
    """One ThermoPoint per grid value and the shape summary of the curves.

    The monotonicity flags are grid-level statements (checked at every
    consecutive pair), matching what a plotted curve can show.  A failing
    point aborts the sweep and reports its grid index.
    """
    points = []
    for i, a in enumerate(spec.alphas):
        try:
            points.append(
                thermo_point(
                    a,
                    mode=spec.mode,
                    z_method=spec.z_method,
                    derivative_scheme=spec.derivative_scheme,
                    variant=spec.variant,
                    fd_step_rel=spec.fd_step_rel,
                )
            )
        except Exception as exc:
            raise SweepError(f"sweep failed at grid index {i} (alpha={a}): {exc}", index=i) from exc

    def pairs(attr):
        vals = [getattr(pt, attr) for pt in points]
        return list(zip(vals, vals[1:]))

    slack = 1e-12
    monotonicity = {
        "F_bar_strictly_decreasing": all(b < a for a, b in pairs("F_bar")),
        "U_bar_strictly_increasing": all(b > a for a, b in pairs("U_bar")),
        "S_bar_strictly_increasing": all(b > a for a, b in pairs("S_bar")),
        "C_bar_non_decreasing": all(b >= a - slack for a, b in pairs("C_bar")),
    }
    return SweepResult(points=tuple(points), monotonicity=monotonicity)


@dataclass(frozen=True)
class ContinuityReport:
    """Outcome of the specific-heat jump scan."""

    max_jump: float
    max_slope: float
    max_ratio: float
    index: int
    alpha_at_max: float
    threshold: float
    passed: bool


def scan_jumps(alphas, cbar, jump_threshold: float = 10.0, slope_floor: float = 1e-9) -> ContinuityReport:
    """Flag single-step jumps in C(alpha) against the local slope.

    Each discrete slope |dC|/dalpha is compared with the mean of its
    neighbours: a smooth curve gives ratios near one, while a genuine
    discontinuity concentrates in one step and sends its ratio orders of
    magnitude up.  ``passed`` means no step exceeded jump_threshold times
    its neighbourhood, i.e. no first-order-transition signature.
    """
    alphas = np.asarray(alphas, dtype=float)
    cbar = np.asarray(cbar, dtype=float)
    if alphas.shape != cbar.shape or alphas.ndim != 1:
        raise UsageError("alphas and cbar must be 1-d arrays of equal length")
    if alphas.size < 3:
        return ContinuityReport(0.0, 0.0, 0.0, 0, float(alphas[0]) if alphas.size else 0.0, jump_threshold, True)
    jumps = np.abs(np.diff(cbar))
    slopes = jumps / np.diff(alphas)
    max_ratio = 0.0
    max_index = 0
    for i in range(slopes.size):
        neighbours = []
        if i > 0:
            neighbours.append(slopes[i - 1])
        if i + 1 < slopes.size:
            neighbours.append(slopes[i + 1])
        reference = max(float(np.mean(neighbours)), slope_floor)
        ratio = slopes[i] / reference
        if ratio > max_ratio:
            max_ratio = ratio
            max_index = i
    k = int(np.argmax(jumps))
    return ContinuityReport(
        max_jump=float(jumps[k]),
        max_slope=float(slopes.max()),
        max_ratio=float(max_ratio),
        index=max_index,
        alpha_at_max=float(alphas[max_index]),
        threshold=jump_threshold,
        passed=bool(max_ratio <= jump_threshold),
    )


def continuity_scan(spec: SweepSpec, jump_threshold: float = 10.0, *, points=None) -> ContinuityReport:
    """Jump scan of the specific heat over a sweep grid.

    ``points`` can inject precomputed ThermoPoints (or any objects with
    alpha_bar and C_bar), which is also the hook for scanning a mock
    provider.
    """
    if points is None:
        points = sweep(spec).points
    alphas = [pt.alpha_bar for pt in points]
    cbar = [pt.C_bar for pt in points]
    return scan_jumps(alphas, cbar, jump_threshold)


@dataclass(frozen=True)
class HighTAsymptotics:
    """Leading high-temperature behaviour of the 3d ladder."""

    Z: float
    U: float
    C: float


def high_t_asymptotics(alpha_bar: float) -> HighTAsymptotics:
    """Z ~ alpha^3/4, U ~ 3 alpha, C ~ 3 (meaningful for alpha >> 1)."""
    if not (math.isfinite(alpha_bar) and alpha_bar > 0.0):
        raise DomainError(f"alpha_bar must be > 0, got {alpha_bar}")
    return HighTAsymptotics(Z=alpha_bar ** 3 / 4.0, U=3.0 * alpha_bar, C=3.0)
