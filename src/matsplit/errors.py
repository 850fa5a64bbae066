"""Exception types shared across the package.

CLI exit codes: InputError -> 4, PromiseViolation -> 2,
PrecisionError and BudgetError -> 3.
"""


class MatsplitError(Exception):
    """Base class for all package errors."""


class InputError(MatsplitError):
    """Malformed or out-of-contract input (bad dimensions, bad flags)."""


class PromiseViolation(MatsplitError):
    """Evidence that the input algebra is not a full matrix algebra."""


class PrecisionError(MatsplitError):
    """Numerical stage failed to meet its residual bound after retries."""


class BudgetError(MatsplitError):
    """A work budget was exhausted."""


class FactorBudgetError(BudgetError):
    """Trial division did not finish within the factoring budget."""


class EnumerationBudgetError(BudgetError):
    """Short vector enumeration exceeded its node budget."""


class NoIdentityError(InputError):
    """The structure constant table admits no two-sided identity."""


class InternalError(MatsplitError):
    """An invariant that must hold for valid inputs failed; a bug."""
