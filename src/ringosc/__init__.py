"""Bound states and canonical thermodynamics of the oscillator potential
with angular barrier terms, V = a1^2 r^2 + (a2^2/sin^2 t + a3^2 cot^2 t)/r^2.

The spectrum comes out of the parametric Nikiforov-Uvarov template
(`nu_solver`, `spectrum`), the partition function out of the exact
closed-form ladders, certified direct sums and a table of Euler-Maclaurin
coefficients (`partition`), and the thermal functions F, U, S, C out of
ln Z and its alpha-derivatives (`thermo`).
`cli` wraps it all in a deterministic command-line tool.
"""

from .errors import BranchError, ConvergenceError, DomainError, SweepError, UsageError
from .nu_solver import NUDerived, NUProblem, derive, quantization_residual, solve_bracketed
from .partition import (
    ONE_D,
    THREE_D,
    VARIANT_DERIVED,
    VARIANT_PAPER,
    PartitionSpec,
    PartitionValue,
    convergence_integral,
    em_coefficients,
    em_z_derivatives,
    ladder_log_z_moments,
    partition_closed_form_1d,
    partition_direct,
    partition_em,
    suggested_cutoff,
)
from .specfun import (
    bernoulli,
    gamma_ratio_prefactor,
    hyp1f1_terminating,
    jacobi_poly,
)
from .spectrum import (
    AngularSolution,
    PotentialParams,
    angular_constant_from_quantization,
    angular_solution,
    angular_wavefunction,
    degeneracy,
    degeneracy_sum,
    energy,
    energy_over_xi,
    energy_special_case,
    radial_energy_from_quantization,
    radial_wavefunction,
    total_wavefunction,
)
from .thermo import (
    ContinuityReport,
    SweepResult,
    SweepSpec,
    ThermoPoint,
    continuity_scan,
    scan_jumps,
    sweep,
    thermo_point,
)

__version__ = "0.1.0"
