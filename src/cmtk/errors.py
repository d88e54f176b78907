"""Exception types shared across the toolkit, and the one budget check.

DomainError covers mathematically invalid input (CLI exit code 2),
BudgetError covers exhausted search/enumeration budgets (exit code 3).
Budgets are always explicit: nothing silently truncates.  A bounded
routine estimates its work up front and calls admit, which refuses a
larger estimate than its budget (DEFAULT_ENUM_BUDGET unless the caller
passes one on) before anything is built.
"""

DEFAULT_ENUM_BUDGET = 10**7


class CmtkError(Exception):
    """Base class for all toolkit errors."""


class DomainError(CmtkError):
    """Input outside the mathematical domain of an operation."""


class BudgetError(CmtkError):
    """A configured enumeration or search budget was exhausted."""

    def __init__(self, message, **info):
        super().__init__(message)
        self.info = info


def admit(work, budget, what, **info):
    """Refuse a run whose estimated work exceeds its budget."""
    if work > budget:
        message = f"{what} needs work ~ {work} > budget {budget}"
        raise BudgetError(message, **info, budget=budget)


class FieldRejected(DomainError):
    """Radicand does not define an imaginary quadratic extension.

    reason is one of "zero", "not_squarefree", "real", "constant_extension".
    """

    def __init__(self, reason, message):
        super().__init__(message)
        self.reason = reason


class UnsupportedPath(DomainError):
    """Input is mathematically valid but outside the implemented algorithm path."""


class NotSplitError(DomainError):
    """A prime required to split (and avoid the conductor) fails to."""

    def __init__(self, message, prime=None):
        super().__init__(message)
        self.prime = prime
