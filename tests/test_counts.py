"""Tests of the one rule for a count: every integer input of the spectral
and thermal layers is checked by ``errors.check_count``, so a negative, a
fractional, a NaN or an infinite count is a ``DomainError`` that names
the argument, and an integral float counts as its integer."""

import math
import re

import numpy as np
import pytest

from ringosc import nu_solver, specfun, spectrum, thermo
from ringosc.errors import DomainError

NATURAL = spectrum.PotentialParams(a1=1.0)
RADIAL = nu_solver.derive(spectrum.radial_problem(0.5, 7.0))

# (entry point, the count it takes by name, a call with the count in place)
ENTRY_POINTS = [
    ("jacobi_poly", "degree", lambda v: specfun.jacobi_poly(v, 0.7, 0.3)),
    ("laguerre_poly", "n", lambda v: specfun.laguerre_poly(v, 0.5, 1.2)),
    ("hyp1f1_terminating", "n", lambda v: specfun.hyp1f1_terminating(v, 1.5, 1.2)),
    ("gamma_ratio_prefactor", "n", lambda v: specfun.gamma_ratio_prefactor(v, 0.5)),
    ("quantization_residual", "s", lambda v: nu_solver.quantization_residual(RADIAL, v)),
    ("energy_over_xi", "n", lambda v: spectrum.energy_over_xi(v, 0.5)),
    ("energy_over_xi_special_case", "N",
     lambda v: spectrum.energy_over_xi_special_case(NATURAL, "oscillator", v, 1, 2)),
    ("degeneracy", "n_prime", lambda v: spectrum.degeneracy(v)),
    ("degeneracy_sum", "n_prime", lambda v: spectrum.degeneracy_sum(v)),
    ("radial_wavefunction", "n", lambda v: spectrum.radial_wavefunction(NATURAL, v, 0.5, 1.1)),
    ("angular_solution", "s", lambda v: spectrum.angular_solution(NATURAL, v, 2)),
    ("angular_solution", "m", lambda v: spectrum.angular_solution(NATURAL, 1, v)),
    ("SweepSpec.from_grid", "points", lambda v: thermo.SweepSpec.from_grid(0.5, 4.0, v).alphas),
]
IDS = [f"{entry}-{name}" for entry, name, _ in ENTRY_POINTS]
BAD_COUNTS = [-1, 2.5, math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(math.inf)]


@pytest.mark.parametrize("value", BAD_COUNTS, ids=repr)
@pytest.mark.parametrize("entry,name,call", ENTRY_POINTS, ids=IDS)
def test_a_bad_count_is_a_domain_error_naming_it(entry, name, call, value):
    with pytest.raises(DomainError) as caught:
        call(value)
    if entry == "angular_solution":
        # s and m share one pinned message; past QUANTUM_NUMBER_MAX the bound names the one at fault
        expected = rf"s and m must be non-negative integers|{name} must be at most "
    else:
        expected = rf"{name} must be a non-negative integer, got {re.escape(str(value))}$"
    assert re.match(expected, str(caught.value))


@pytest.mark.parametrize("entry,name,call", ENTRY_POINTS, ids=IDS)
def test_an_integral_float_counts_as_its_integer(entry, name, call):
    assert call(3.0) == call(3)
    assert call(np.int64(3)) == call(3)
