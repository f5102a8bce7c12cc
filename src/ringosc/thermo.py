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

One array kernel evaluates every quantity elementwise over a whole grid of
alphas: ``sweep`` calls it once per grid and ``thermo_point`` calls it with
its single alpha, so a point and the matching sweep point agree bit for
bit.  Sweep points are emitted in grid order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

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

MODES = (THREE_D, ONE_D)
Z_METHODS = ("direct", "em")
DERIVATIVE_SCHEMES = ("analytic", "central_difference")


class ThermoPoint(NamedTuple):
    """One temperature point: Z and the four dimensionless quantities."""

    alpha_bar: float
    Z: float
    F_bar: float
    U_bar: float
    S_bar: float
    C_bar: float
    method: str


def _check_options(mode, z_method, derivative_scheme):
    if mode not in MODES:
        raise UsageError(f"mode must be one of {MODES}, got {mode!r}")
    if z_method not in Z_METHODS:
        raise UsageError(f"z_method must be one of {Z_METHODS}, got {z_method!r}")
    if derivative_scheme not in DERIVATIVE_SCHEMES:
        raise UsageError(f"derivative_scheme must be one of {DERIVATIVE_SCHEMES}")


def _em_z_derivatives(alphas, mode, variant):
    """(Z, dZ, d2Z) of the Euler-Maclaurin form at each entry of ``alphas``.

    The entries (floats, or arrays over one grid) are the evaluations every
    grid point needs, in the order a point-by-point evaluation makes them,
    so a non-positive Z is reported at the first grid index and, within
    it, at the alpha where that evaluation fails first.
    """
    if mode == THREE_D:
        bundles = [em_3d_z_derivatives(x) for x in alphas]
    else:
        bundles = [em_1d_z_derivatives(x, variant) for x in alphas]
    if any(np.any(z <= 0.0) for z, _, _ in bundles):
        zs = np.stack([np.atleast_1d(z) for z, _, _ in bundles], axis=1)
        i, k = divmod(int(np.argmax(zs <= 0.0)), len(alphas))
        alpha = np.atleast_1d(alphas[k])[i]
        raise DomainError(f"partition function {float(zs[i, k])} <= 0 at alpha={float(alpha)}", index=i)
    return bundles


def _thermo_arrays(a, mode, z_method, derivative_scheme, variant, fd_step_rel):
    """(Z, F, U, S, C) elementwise at a, one alpha or a 1-d array of them."""
    if derivative_scheme == "analytic":
        if z_method == "direct":
            log_z, u, var = ladder_log_z_moments(mode, a)
            z, c = np.exp(log_z), var / (a * a)
        else:
            ((z, dz, d2z),) = _em_z_derivatives((a,), mode, variant)
            g1 = dz / z
            g2 = d2z / z - g1 * g1
            log_z, u, c = np.log(z), a * a * g1, 2.0 * a * g1 + a * a * g2
    else:
        eta = fd_step_rel * a
        shifted = (a + eta, a, a - eta)
        if z_method == "direct":
            g_plus, log_z, g_minus = (ladder_log_z_moments(mode, x)[0] for x in shifted)
        else:
            g_plus, log_z, g_minus = (np.log(z) for z, _, _ in _em_z_derivatives(shifted, mode, variant))
        g1 = (g_plus - g_minus) / (2.0 * eta)
        g2 = (g_plus - 2.0 * log_z + g_minus) / (eta * eta)
        z, u, c = np.exp(log_z), a * a * g1, 2.0 * a * g1 + a * a * g2
    return z, -a * log_z, u, log_z + u / a, c


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
    _check_options(mode, z_method, derivative_scheme)
    a = float(alpha_bar)
    values = _thermo_arrays(a, mode, z_method, derivative_scheme, variant, fd_step_rel)
    return ThermoPoint(a, *map(float, values), z_method)


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
        _check_options(self.mode, self.z_method, self.derivative_scheme)

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
    a = np.array(spec.alphas)
    try:
        arrays = _thermo_arrays(a, spec.mode, spec.z_method, spec.derivative_scheme, spec.variant, spec.fd_step_rel)
    except DomainError as exc:
        i = exc.index
        raise SweepError(f"sweep failed at grid index {i} (alpha={spec.alphas[i]}): {exc}", index=i) from exc
    _, f, u, s, c = arrays
    slack = 1e-12
    monotonicity = {
        "F_bar_strictly_decreasing": bool(np.all(f[1:] < f[:-1])),
        "U_bar_strictly_increasing": bool(np.all(u[1:] > u[:-1])),
        "S_bar_strictly_increasing": bool(np.all(s[1:] > s[:-1])),
        "C_bar_non_decreasing": bool(np.all(c[1:] >= c[:-1] - slack)),
    }
    rows = zip(spec.alphas, *(v.tolist() for v in arrays), repeat(spec.z_method))
    points = tuple(map(ThermoPoint._make, rows))
    return SweepResult(points=points, monotonicity=monotonicity)


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
        return ContinuityReport(0.0, 0.0, 0.0, 0, float(alphas[0]) if alphas.size else 0.0, jump_threshold, True)
    jumps = np.abs(np.diff(cbar))
    slopes = jumps / np.diff(alphas)
    ratios = np.zeros_like(slopes)
    ratios[1:-1] = slopes[1:-1] / np.maximum(0.5 * (slopes[:-2] + slopes[2:]), slope_floor)
    ratios[np.isnan(ratios)] = 0.0  # a NaN ratio is not judged
    max_index = int(np.argmax(ratios))
    max_ratio = float(ratios[max_index])
    k = int(np.argmax(jumps))
    return ContinuityReport(
        max_jump=float(jumps[k]),
        max_slope=float(slopes.max()),
        max_ratio=max_ratio,
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
