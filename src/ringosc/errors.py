"""Exception types shared across the package."""


class DomainError(ValueError):
    """Inputs lie outside the mathematical domain of an operation.

    ``index`` is the position of the offending element when the operation
    ran over an array of inputs, else None.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class BranchError(DomainError):
    """A required square root or solution branch does not exist here."""


class UsageError(ValueError):
    """Operation invoked with an inconsistent combination of arguments."""


class ConvergenceError(RuntimeError):
    """A truncated sum cannot certify the requested tail bound."""


class SweepError(RuntimeError):
    """A temperature sweep failed at one grid point."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index
