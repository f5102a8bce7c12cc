"""The four exception types shared across the package.

The command line exits 2 on a ``UsageError`` and 3 on a ``DomainError``
(a ``BranchError`` too) or a ``ConvergenceError``.
"""


class DomainError(ValueError):
    """Inputs lie outside the mathematical domain of an operation."""


class BranchError(DomainError):
    """A required square root or solution branch does not exist here."""


class UsageError(ValueError):
    """Operation invoked with an inconsistent combination of arguments."""


class ConvergenceError(RuntimeError):
    """A truncated sum cannot certify the requested tail bound."""

