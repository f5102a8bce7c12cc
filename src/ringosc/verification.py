"""Self-contained cross-check suite behind the ``verify`` subcommand.

Each check pits one implementation route against an independent one
(quantization root vs closed-form ladder, closed form vs certified sum,
analytic derivative vs finite difference, closed-form count vs
brute-force loop) and reports the measured discrepancy next to its
tolerance.  A check folds its measured errors with ``_worst``, which
keeps a NaN, and ``_judged`` alone decides its pass, measured <= tol, so
a route that returns NaN fails.  Two informational entries never fail
the run: the known gap between the two 1d closed-form variants, and the
zeros of Z that settle the paper's phase-transition question.

``ALL_CHECKS`` is the one implementation of the acceptance criteria, run
one check per case by ``tests/test_acceptance.py``.  Each tolerance or
threshold is written once and stated in the result, as ``tolerance`` or
as "(tol|bound|threshold ...)" in ``info``, where that test pins it; the
jump threshold is ``thermo.JUMP_THRESHOLD``, the one the ``sweep``
subcommand applies.  The thermal checks read whole grids from
``thermo.sweep``, whose points carry the bits of ``thermo_point``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from . import partition, specfun, spectrum, thermo

__all__ = ["CheckResult", "run_all", "ALL_CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    info: str = ""
    informational: bool = False


def _worst(errors) -> float:
    """The largest of ``errors``, or NaN when any of them is NaN: every check
    folds its measured errors here, so a route that returns NaN fails its
    check instead of dropping out of a running ``max``."""
    return float(np.max(np.fromiter(errors, dtype=float)))


def _judged(name: str, measured: float, tol: float, info: str = "", ok: bool = True) -> CheckResult:
    """The result of a check that can fail, and the one place that sets
    ``passed``: ``ok`` holds and measured <= tol, which a NaN fails."""
    return CheckResult(name, bool(ok and measured <= tol), measured, tol, info)


def _info(name: str, measured: float, info: str) -> CheckResult:
    """An informational result, which states ``measured`` and never fails the run."""
    return CheckResult(name, True, measured, math.inf, info, informational=True)


def _within(name: str, parts, ok: bool = True, note: str = "") -> CheckResult:
    """A check of several (label, measured, tol) parts, each against its own tol:
    ``measured`` is the largest measured/tol, against a tolerance of 1."""
    info = [f"{label}: {measured:.3e} (tol {tol:.0e})" for label, measured, tol in parts]
    worst_scaled = _worst(measured / tol for _, measured, tol in parts)
    return _judged(name, worst_scaled, 1.0, "; ".join(info + ([note] if note else [])), ok)


def check_radial_spectrum() -> CheckResult:
    tol = 1e-10
    pairs = ((spectrum.energy_over_xi(n, ell), spectrum.radial_energy_from_quantization(n, ell))
             for n in range(4) for ell in range(4))
    worst = _worst(abs(found - target) / target for target, found in pairs)
    return _judged("radial quantization reproduces E/xi = 4n + 2l + 3", worst, tol, "(n, l) in {0..3}^2")


def check_angular_constants() -> CheckResult:
    tol = 1e-10
    cases = ((spectrum.PotentialParams(a1=1.0, a2=a2, a3=a3), s, m)
             for a2, a3 in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)) for s in range(4) for m in range(4))
    pairs = ((spectrum.angular_solution(*case).L, spectrum.angular_constant_from_quantization(*case)) for case in cases)
    worst = _worst(abs(solved - closed_form) / abs(closed_form) for closed_form, solved in pairs)
    return _judged("angular quantization reproduces the closed-form L", worst, tol,
                   "s, m in {0..3}^2, (a2, a3) in {0,1}^2")


def check_em3d_rational() -> CheckResult:
    value = partition.em_z_derivatives(partition.THREE_D, Fraction(1))[0]
    exact = Fraction(79, 45)
    return _judged("3d closed form at alpha = 1 equals 79/45 in rational arithmetic",
                   float(abs(value - exact)), 0.0, f"value = {value}", ok=value == exact)


def check_em3d_vs_direct() -> CheckResult:
    parts = []
    for alpha, tol in ((10.0, 1e-3), (50.0, 1e-4)):
        direct = partition.partition_direct(partition.PartitionSpec(partition.THREE_D, alpha)).Z
        em = partition.partition_em(partition.THREE_D, alpha).Z
        parts.append((f"alpha={alpha:g} rel", abs(em - direct) / direct, tol))
    return _within("3d closed form vs certified direct sum", parts)


def check_em1d_vs_exact() -> CheckResult:
    tol = 1e-4
    pairs = ((partition.partition_closed_form(partition.ONE_D, a).Z, partition.partition_em(partition.ONE_D, a).Z)
             for a in (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0))
    worst = _worst(abs(derived - exact) / exact for exact, derived in pairs)
    return _judged("1d derived closed form vs exact geometric form", worst, tol, "alpha in {1..100}")


def info_em1d_variant_gap() -> CheckResult:
    derived = partition.partition_em(partition.ONE_D, 1.0).Z
    alt = partition.partition_em(partition.ONE_D, 1.0, partition.VARIANT_PAPER).Z
    gap = abs(alt - derived) / derived
    return _info("1d closed-form variant gap (informational)", gap,
                 "the 'paper' variant tail -alpha^3/5400 does not follow from the "
                 "summation formula at any order (the assembly gives -1/(720 alpha^3)); "
                 f"rel gap at alpha=1 is {gap:.3e} and that variant turns negative "
                 "beyond alpha ~ 73.7")


def info_phase_transition_zeros() -> CheckResult:
    # a transition at a real beta = 1/alpha needs zeros of Z that reach the real
    # beta axis there (Yang and Lee 1952); the 3d Z = (1 + x)/(1 - x)^3,
    # x = e^(-2 beta), vanishes only where 1 + x does, and the 1d Z = 1/(1 - x)
    # nowhere; beta = -ln(x)/2 over every branch of the log of x = -1 is
    # i pi (k + 1/2), pi/2 from the real axis at the nearest
    distance = math.pi / 2.0
    em_zeros = []
    for mode, variant in thermo.EM_ALPHA_RANGE:  # one key per Euler-Maclaurin table
        table = partition.em_coefficients(mode, variant)
        # alpha^3 Z_em is a polynomial: no table has a power below alpha^-3
        roots = np.roots([float(table.get(k, 0)) for k in range(max(table), -4, -1)])
        (root,) = roots.real[(roots.imag == 0.0) & (roots.real > 0.0)]
        em_zeros.append(f"{root:.4g} ({mode} {variant})")
    return _info("zeros of Z: no phase transition on the exact ladders (informational)", distance,
                 "the 3d ladder's Z vanishes only at beta = i pi (k + 1/2), "
                 f"{distance:.3f} from the real beta axis, and the 1d ladder's Z nowhere; "
                 f"the real positive zeros of alpha^3 Z_em, {', '.join(em_zeros)}, come from truncating "
                 "the Euler-Maclaurin forms, not from the ladders")


def check_high_t_limits() -> CheckResult:
    pt3 = thermo.thermo_point(100.0, mode=partition.THREE_D, z_method="direct")
    pt1 = thermo.thermo_point(100.0, mode=partition.ONE_D, z_method="direct")
    parts = (
        ("3d C(100) vs 3", abs(pt3.C_bar / 3.0 - 1.0), 1e-2),
        ("1d C(100) vs 1", abs(pt1.C_bar - 1.0), 1e-2),
        ("3d U(100)/alpha vs 3", abs(pt3.U_bar / 300.0 - 1.0), 2e-2),
    )
    return _within("high-temperature limits", parts)


def check_thermo_identities() -> CheckResult:
    def points(alphas):  # the analytic 3d direct-route points at alphas
        return thermo.sweep(thermo.SweepSpec(alphas)).points

    worst_identity = _worst(
        abs(pt.U_bar - (pt.F_bar + pt.alpha_bar * pt.S_bar)) / max(1.0, abs(pt.U_bar))
        for pt in points(np.geomspace(0.5, 50.0, 200))
    )
    a = np.geomspace(1.0, 50.0, 40)
    h = 1e-5 * a
    worst_c = _worst(
        abs((plus.U_bar - minus.U_bar) / (2.0 * step) - pt.C_bar) / abs(pt.C_bar)
        for pt, plus, minus, step in zip(points(a), points(a + h), points(a - h), h.tolist())
    )
    return _within(
        "thermodynamic identities U = F + alpha S and C = dU/dalpha",
        (("identity rel", worst_identity, 1e-9), ("dU/dalpha rel", worst_c, 1e-5)),
    )


def check_figure_shapes() -> CheckResult:
    notes, ratios = [], []
    ok = True
    # C tends to 3 (3d) and 1 (1d) at high temperature; the bound allows 1e-2 over that
    for mode, c_bound in ((partition.THREE_D, 3.0 + 1e-2), (partition.ONE_D, 1.0 + 1e-2)):
        spec = thermo.SweepSpec.from_grid(0.5, 100.0, 1200, "log", mode=mode, z_method="direct")
        result = thermo.sweep(spec)
        monotone = all(result.monotonicity.values())
        bounded = all(pt.C_bar <= c_bound for pt in result.points)
        scan = thermo.scan_jumps(spec.alphas, [pt.C_bar for pt in result.points])
        ok = ok and monotone and bounded
        ratios.append(scan.max_ratio)
        notes.append(
            f"{mode}: monotone={monotone}, C bounded={bounded} (bound {c_bound:g}), "
            f"max jump ratio={scan.max_ratio:.2f} (threshold {thermo.JUMP_THRESHOLD:g})"
        )
    return _judged("figure shapes: monotone curves, bounded C, no jump signature", _worst(ratios),
                   thermo.JUMP_THRESHOLD, "; ".join(notes), ok)


def check_degeneracy() -> CheckResult:
    worst = _worst(abs(spectrum.degeneracy_sum(n_prime) - spectrum.degeneracy(n_prime)) for n_prime in range(51))
    return _judged("degeneracy: brute-force sum equals (1 + n')^2 for n' <= 50", worst, 0.0)


def _radial_ode_residual(p, n, ell, r_grid, h=1e-4):
    e = p.hbar * p.a1 / math.sqrt(2.0 * p.mass) * spectrum.energy_over_xi(n, ell)  # xi (4n + 2 ell + 3)
    f = np.array([spectrum.radial_wavefunction(p, n, ell, r) for r in r_grid])
    f_plus = np.array([spectrum.radial_wavefunction(p, n, ell, r + h) for r in r_grid])
    f_minus = np.array([spectrum.radial_wavefunction(p, n, ell, r - h) for r in r_grid])
    second = (f_plus - 2.0 * f + f_minus) / h ** 2
    veff = e - p.a1 ** 2 * r_grid ** 2 - ell * (ell + 1.0) * p.hbar ** 2 / (2.0 * p.mass * r_grid ** 2)
    residual = second + (2.0 * p.mass / p.hbar ** 2) * veff * f
    return _worst(np.abs(residual)) / np.max(np.abs(f))


def check_wavefunctions() -> CheckResult:
    p = spectrum.PotentialParams(a1=1.0)
    r_grid = np.linspace(0.1, 5.0, 241)
    worst_ode = _worst(_radial_ode_residual(p, n, ell, r_grid) for n in range(3) for ell in range(3))
    overlaps = []
    for ell in range(3):
        norms = [
            math.sqrt(quad(lambda r, n=n: spectrum.radial_wavefunction(p, n, ell, r) ** 2, 0.0, 10.0, limit=200)[0])
            for n in range(3)
        ]
        for na in range(3):
            for nb in range(na + 1, 3):
                overlap, _ = quad(
                    lambda r: spectrum.radial_wavefunction(p, na, ell, r)
                    * spectrum.radial_wavefunction(p, nb, ell, r),
                    0.0,
                    10.0,
                    epsabs=1e-13,
                    epsrel=1e-12,
                    limit=200,
                )
                overlaps.append(abs(overlap) / (norms[na] * norms[nb]))
    nodes_ok = True
    r_fine = np.linspace(1e-3, 6.0, 4001)
    for n in range(3):
        for ell in range(3):
            f = np.array([spectrum.radial_wavefunction(p, n, ell, r) for r in r_fine])
            signs = np.sign(f[np.abs(f) > 1e-13 * np.max(np.abs(f))])
            nodes = int(np.count_nonzero(signs[1:] != signs[:-1]))
            nodes_ok = nodes_ok and nodes == n
    # the Laguerre recurrence against the paper's form, Gamma ratio times
    # 1F1; the error is relative to the largest |f| of the state, which
    # covers the cancellation of the alternating 1F1 sum
    paper_errors = []
    r_coarse = r_grid[::4].tolist()
    for ell in (0.0, 2.5):
        for n in range(11):
            prefactor = specfun.gamma_ratio_prefactor(n, ell)
            want = []
            for r in r_coarse:
                y = spectrum.radial_variable(p, r)
                series = specfun.hyp1f1_terminating(n, 1.5 + ell, y)
                want.append(y ** (0.5 * (ell + 1.0)) * math.exp(-0.5 * y) * prefactor * series)
            got = [spectrum.radial_wavefunction(p, n, ell, r) for r in r_coarse]
            scale = max(abs(w) for w in want)
            paper_errors.append(_worst(abs(g - w) for g, w in zip(got, want)) / scale)
    return _within(
        "radial wavefunctions: ODE residual, orthogonality, node counts, 1F1 form",
        (("ode rel", worst_ode, 1e-5), ("overlap", _worst(overlaps), 1e-8), ("1F1 form", _worst(paper_errors), 1e-10)),
        ok=nodes_ok,
        note=f"nodes ok={nodes_ok}",
    )


ALL_CHECKS = (
    check_radial_spectrum,
    check_angular_constants,
    check_em3d_rational,
    check_em3d_vs_direct,
    check_em1d_vs_exact,
    check_high_t_limits,
    check_thermo_identities,
    check_figure_shapes,
    check_degeneracy,
    check_wavefunctions,
    info_em1d_variant_gap,
    info_phase_transition_zeros,
)


def run_all() -> list[CheckResult]:
    """Run every check in order; informational entries never fail."""
    return [check() for check in ALL_CHECKS]
