"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one line (visible with ``pytest -s`` or on failure) so a
full run reads as a checklist.  Tolerances are pinned here, not tuned.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from ringosc.partition import (
    ONE_D,
    THREE_D,
    VARIANT_DERIVED,
    VARIANT_PAPER,
    PartitionSpec,
    convergence_integral,
    partition_closed_form_1d,
    em_z_derivatives,
    partition_direct,
    partition_em,
)
from ringosc.spectrum import (
    PotentialParams,
    angular_constant_from_quantization,
    angular_solution,
    degeneracy,
    degeneracy_sum,
    energy,
    energy_over_xi,
    radial_energy_from_quantization,
    radial_wavefunction,
)
from ringosc.thermo import SweepSpec, continuity_scan, sweep, thermo_point


def report(number, label, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance {number:02d}] {status} {label}: {detail}")
    assert passed, f"criterion {number}: {label} ({detail})"


def test_c01_radial_spectrum_reproduction():
    worst = 0.0
    for n in range(4):
        for ell in range(4):
            target = energy_over_xi(n, ell)
            found = radial_energy_from_quantization(n, ell)
            worst = max(worst, abs(found - target) / target)
    report(1, "NU radial quantization gives E/xi = 4n+2l+3", worst < 1e-10, f"max rel err {worst:.2e} < 1e-10")


def test_c02_angular_constants_reproduction():
    worst = 0.0
    for a2, a3 in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
        p = PotentialParams(a1=1.0, a2=a2, a3=a3)
        for s in range(4):
            for m in range(4):
                closed_form = angular_solution(p, s, m).L
                solved = angular_constant_from_quantization(p, s, m)
                worst = max(worst, abs(solved - closed_form) / abs(closed_form))
    report(2, "NU angular quantization matches the closed-form L", worst < 1e-10, f"max rel err {worst:.2e} < 1e-10")


def test_c03_partition_identity_3d():
    exact_rational = em_z_derivatives(THREE_D, Fraction(1))[0] == Fraction(79, 45)
    rels = {}
    for alpha, tol in ((10.0, 1e-3), (50.0, 1e-4)):
        direct = partition_direct(PartitionSpec(THREE_D, alpha)).Z
        rels[alpha] = (abs(partition_em(PartitionSpec(THREE_D, alpha)).Z - direct) / direct, tol)
    passed = exact_rational and all(rel < tol for rel, tol in rels.values())
    detail = "Z(1) = 79/45 exactly; " + "; ".join(
        f"alpha={a:g}: rel {rel:.2e} < {tol:.0e}" for a, (rel, tol) in rels.items()
    )
    report(3, "3d closed form vs certified direct sum", passed, detail)


def test_c04_partition_identity_1d():
    worst = 0.0
    for alpha in (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0):
        exact = partition_closed_form_1d(alpha).Z
        worst = max(worst, abs(partition_em(PartitionSpec(ONE_D, alpha, variant=VARIANT_DERIVED)).Z - exact) / exact)
    derived = partition_em(PartitionSpec(ONE_D, 1.0, variant=VARIANT_DERIVED)).Z
    gap = abs(partition_em(PartitionSpec(ONE_D, 1.0, variant=VARIANT_PAPER)).Z - derived) / derived
    # the alternate-variant tail is informational by design: it does not
    # follow from the summation formula, which the verify report states
    report(
        4,
        "1d derived closed form vs exact geometric form",
        worst < 1e-4,
        f"max rel err {worst:.2e} < 1e-4 (alternate-variant gap {gap:.2e}, informational)",
    )


def test_c05_high_temperature_limits():
    pt3 = thermo_point(100.0, mode=THREE_D, z_method="direct")
    pt1 = thermo_point(100.0, mode=ONE_D, z_method="direct")
    c3 = abs(pt3.C_bar / 3.0 - 1.0)
    c1 = abs(pt1.C_bar - 1.0)
    u3 = abs(pt3.U_bar / 300.0 - 1.0)
    passed = c3 < 1e-2 and c1 < 1e-2 and u3 < 2e-2
    report(
        5,
        "high-T limits at alpha=100",
        passed,
        f"3d C off by {c3:.2e} < 1e-2; 1d C off by {c1:.2e} < 1e-2; 3d U/alpha off by {u3:.2e} < 2e-2",
    )


def test_c06_thermodynamic_identities():
    worst_id = 0.0
    for alpha in np.geomspace(0.5, 50.0, 200):
        pt = thermo_point(float(alpha), mode=THREE_D, z_method="direct")
        worst_id = max(worst_id, abs(pt.U_bar - (pt.F_bar + pt.alpha_bar * pt.S_bar)) / max(1.0, abs(pt.U_bar)))
    worst_c = 0.0
    for alpha in np.geomspace(1.0, 50.0, 50):
        alpha = float(alpha)
        h = 1e-5 * alpha
        fd = (thermo_point(alpha + h).U_bar - thermo_point(alpha - h).U_bar) / (2.0 * h)
        c = thermo_point(alpha).C_bar
        worst_c = max(worst_c, abs(fd - c) / abs(c))
    passed = worst_id < 1e-9 and worst_c < 1e-5
    report(
        6,
        "U = F + alpha S and C = dU/dalpha on 200-point grid",
        passed,
        f"identity rel {worst_id:.2e} < 1e-9; derivative rel {worst_c:.2e} < 1e-5",
    )


def test_c07_figure_shape_properties():
    details = []
    passed = True
    for mode, cap in ((THREE_D, 3.0), (ONE_D, 1.0)):
        spec = SweepSpec.from_grid(0.5, 100.0, 1200, "log", mode=mode, z_method="direct")
        result = sweep(spec)
        flags = result.monotonicity
        bounded = all(pt.C_bar <= cap + 1e-2 for pt in result.points)
        scan = continuity_scan(spec, jump_threshold=10.0, points=result.points)
        passed = passed and all(flags.values()) and bounded and scan.passed
        details.append(f"{mode}: monotone {all(flags.values())}, C capped {bounded}, jump ratio {scan.max_ratio:.2f} <= 10")
    report(7, "figure shapes on alpha in [0.5, 100]", passed, "; ".join(details))


def test_c08_wavefunction_checks():
    p = PotentialParams(a1=1.0)
    h = 1e-4
    r_grid = np.linspace(0.1, 5.0, 197)
    worst_ode = 0.0
    for n in range(3):
        for ell in range(3):
            f = np.array([radial_wavefunction(p, n, ell, r) for r in r_grid])
            fp = np.array([radial_wavefunction(p, n, ell, r + h) for r in r_grid])
            fm = np.array([radial_wavefunction(p, n, ell, r - h) for r in r_grid])
            second = (fp - 2.0 * f + fm) / h ** 2
            veff = energy(p, n, ell) - r_grid ** 2 - ell * (ell + 1.0) / (2.0 * r_grid ** 2)
            worst_ode = max(worst_ode, np.max(np.abs(second + 2.0 * veff * f)) / np.max(np.abs(f)))
    worst_overlap = 0.0
    for ell in range(3):
        for na in range(3):
            for nb in range(na + 1, 3):
                overlap, _ = quad(
                    lambda r: radial_wavefunction(p, na, ell, r) * radial_wavefunction(p, nb, ell, r),
                    0.0, 10.0, epsabs=1e-13, epsrel=1e-12, limit=200,
                )
                norms = [
                    math.sqrt(quad(lambda r: radial_wavefunction(p, nn, ell, r) ** 2, 0.0, 10.0, limit=200)[0])
                    for nn in (na, nb)
                ]
                worst_overlap = max(worst_overlap, abs(overlap) / (norms[0] * norms[1]))
    nodes_ok = True
    r_fine = np.linspace(1e-3, 6.0, 4001)
    for n in range(3):
        for ell in range(3):
            f = np.array([radial_wavefunction(p, n, ell, r) for r in r_fine])
            signs = np.sign(f[np.abs(f) > 1e-13 * np.max(np.abs(f))])
            nodes_ok = nodes_ok and int(np.count_nonzero(signs[1:] != signs[:-1])) == n
    passed = worst_ode < 1e-5 and worst_overlap < 1e-8 and nodes_ok
    report(
        8,
        "radial ODE residual, orthogonality, node counts",
        passed,
        f"ode {worst_ode:.2e} < 1e-5; overlap {worst_overlap:.2e} < 1e-8; nodes correct {nodes_ok}",
    )


def test_c09_convergence_integral_vs_quadrature():
    worst = 0.0
    for u in (0.5, 1.0, 2.0):
        numeric, _ = quad(lambda x, u=u: (1.0 + x) ** 2 * math.exp(-u * (2.0 * x + 3.0)), 0.0, np.inf)
        worst = max(worst, abs(convergence_integral(u) - numeric) / numeric)
    report(9, "closed-form integral vs adaptive quadrature", worst < 1e-10, f"max rel err {worst:.2e} < 1e-10")


def test_c10_degeneracy_counting():
    mismatches = sum(1 for n_prime in range(51) if degeneracy_sum(n_prime) != degeneracy(n_prime))
    report(10, "brute-force degeneracy equals (1+n')^2 for n' <= 50", mismatches == 0, f"{mismatches} mismatches")
