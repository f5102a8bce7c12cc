"""Acceptance gate: every release criterion at its stated tolerance.

The criteria are the checks of ``ringosc verify``, and
``verification.ALL_CHECKS`` is their one implementation: each check is
one test case here, named after it, and must pass.  Tolerances are pinned
here, not tuned.  Each case also compares every tolerance or threshold
its check states (the result's ``tolerance``, and each "(tol ...)",
"(bound ...)" or "(threshold ...)" of its ``info``) with the values
below, so loosening one in ``verification.py`` fails the suite, and so
does marking a check informational or dropping it from ``ALL_CHECKS``.
"""

import math
import re

import pytest

from ringosc import partition, spectrum, thermo, verification

# check -> (tolerance, the bounds its info states in order); an infinite
# tolerance marks an informational entry, which cannot fail
PINNED = {
    # c01: NU radial quantization gives E/xi = 4n + 2l + 3
    "check_radial_spectrum": (1e-10, ()),
    # c02: NU angular quantization matches the closed-form L
    "check_angular_constants": (1e-10, ()),
    # c03: the 3d closed form, exactly at alpha = 1 and against the certified direct sum
    "check_em3d_rational": (0.0, ()),
    "check_em3d_vs_direct": (1.0, (("tol", 1e-3), ("tol", 1e-4))),
    # c04: the 1d derived closed form against the exact geometric form; the
    # alternate variant's gap is reported, not judged
    "check_em1d_vs_exact": (1e-4, ()),
    "info_em1d_variant_gap": (math.inf, ()),
    # c05: high-temperature limits at alpha = 100
    "check_high_t_limits": (1.0, (("tol", 1e-2), ("tol", 1e-2), ("tol", 2e-2))),
    # c06: U = F + alpha S and C = dU/dalpha
    "check_thermo_identities": (1.0, (("tol", 1e-9), ("tol", 1e-5))),
    # c07: figure shapes on alpha in [0.5, 100], 3d then 1d
    "check_figure_shapes": (0.0, (("bound", 3.01), ("threshold", 10.0), ("bound", 1.01), ("threshold", 10.0))),
    # c08: radial ODE residual, orthogonality, node counts, and the Laguerre
    # recurrence against the paper's Gamma-ratio times 1F1 form
    "check_wavefunctions": (1.0, (("tol", 1e-5), ("tol", 1e-8), ("tol", 1e-10))),
    # c10: brute-force degeneracy equals (1 + n')^2 for n' <= 50
    "check_degeneracy": (0.0, ()),
    # the zeros of Z: none near the real beta axis on the exact ladders, so no
    # phase transition; the em forms' real zeros are reported, not judged
    "info_phase_transition_zeros": (math.inf, ()),
}

STATED_BOUND = re.compile(r"\((tol|bound|threshold) ([^)]+)\)")


def test_every_pinned_criterion_is_checked():
    assert sorted(check.__name__ for check in verification.ALL_CHECKS) == sorted(PINNED)


@pytest.mark.parametrize("check", verification.ALL_CHECKS, ids=lambda check: check.__name__)
def test_check_passes_at_pinned_tolerances(check):
    tolerance, bounds = PINNED[check.__name__]
    result = check()
    assert result.passed, result
    assert result.informational == (tolerance == math.inf)
    assert result.tolerance == tolerance
    assert [(kind, float(value)) for kind, value in STATED_BOUND.findall(result.info)] == list(bounds)


# check -> (module, name, stand-in) of the route it measures: the stand-in
# takes the route's arguments and gives NaN where the route gives floats
NAN_ROUTES = {
    "check_radial_spectrum": (spectrum, "radial_energy_from_quantization", lambda n, ell: math.nan),
    "check_angular_constants": (spectrum, "angular_constant_from_quantization", lambda p, s, m: math.nan),
    "check_em1d_vs_exact": (partition, "partition_em", lambda mode, a: partition.PartitionValue(math.nan, "em")),
    "check_thermo_identities": (thermo, "ladder_log_z_moments", lambda mode, a: (a * math.nan,) * 3),
    "check_wavefunctions": (spectrum, "radial_wavefunction", lambda p, n, ell, r: math.nan),
}


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")  # quad on a NaN integrand
@pytest.mark.parametrize("name", sorted(NAN_ROUTES))
def test_check_fails_when_its_route_gives_nan(monkeypatch, name):
    # a NaN must not drop out of the fold of measured errors, as it did from a running max
    monkeypatch.setattr(*NAN_ROUTES[name])
    result = getattr(verification, name)()
    assert result.passed is False
    assert math.isnan(result.measured)
