"""Bound states and canonical thermodynamics of the oscillator potential
with angular barrier terms, V = a1^2 r^2 + (a2^2/sin^2 t + a3^2 cot^2 t)/r^2.

The package itself holds only the four error classes and `__version__`, so
importing it loads no layer. A caller imports the layer it uses:
`nu_solver` and `spectrum` (the parametric Nikiforov-Uvarov spectrum, with
`specfun`), `partition` (the partition function), `thermo` (F, U, S, C),
`verification` (`ringosc verify`) and `cli` (the command-line tool). The
spectral layer needs only the standard library and loads neither numpy nor
`dataclasses`; numpy comes in with `partition` and `thermo`.
"""

from .errors import BranchError, ConvergenceError, DomainError, UsageError

__version__ = "0.1.0"
