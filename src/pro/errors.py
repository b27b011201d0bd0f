"""Exception types shared by every module in the package."""


class ProError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ProError):
    """An instance or strategy document is malformed."""


class ValidationError(ProError):
    """A parsed document violates a structural requirement."""


class InvalidStrategy(ProError):
    """A strategy is incompatible with the instance it is applied to."""


class MaxIterExceeded(ProError):
    """An iteration exhausted its sweep budget before meeting its tolerance.

    The best iterate reached so far is attached as ``result``.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class CouplingPresent(ProError):
    """A local solver was handed an instance with coupling constraints."""


class Infeasible(ProError):
    """A constraint system has no feasible point.

    A budget system proved infeasible carries its certificate as
    ``multipliers``: nonnegative prices ``lam`` under which every
    strategy spends more than the priced bounds, ``lam . (C - b) > 0``.
    """

    def __init__(self, message, multipliers=None):
        super().__init__(message)
        self.multipliers = multipliers


class Unbounded(ProError):
    """A linear program has unbounded objective value."""


class TooLarge(ProError):
    """An exact method was asked to run beyond its size cap."""


class BudgetExceeded(ProError):
    """An enumeration would exceed the configured facultative-link budget."""


class SingularSystem(ProError):
    """A dense linear solve failed or produced an invalid distribution."""
