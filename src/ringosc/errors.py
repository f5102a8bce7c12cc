"""The four exception types shared across the package, and its one check of a count.

The command line exits 2 on a ``UsageError`` and 3 on a ``DomainError``
(a ``BranchError`` too) or a ``ConvergenceError``.
"""

import math


class DomainError(ValueError):
    """Inputs lie outside the mathematical domain of an operation."""


class BranchError(DomainError):
    """A required square root or solution branch does not exist here."""


class UsageError(ValueError):
    """Operation invoked with an inconsistent combination of arguments."""


class ConvergenceError(RuntimeError):
    """A truncated sum cannot certify the requested tail bound."""


def check_count(name: str, value) -> None:
    """Raise ``DomainError`` unless value is a non-negative integer; NaN and +-inf never pass, nor reach ``int()``."""
    if not (0 <= value < math.inf and value % 1 == 0):
        raise DomainError(f"{name} must be a non-negative integer, got {value}")
