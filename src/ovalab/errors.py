"""Exception taxonomy shared by the library and the command line tool.

Exit codes: 2 for bad parameters or domain violations, 3 when a request
falls outside what the data covers (or a budget is exhausted), 4 for
numerical degeneracies. Plain bugs stay ordinary exceptions.
"""


class OvalabError(Exception):
    exit_code = 1


class ParameterError(OvalabError, ValueError):
    """Rejected argument or configuration value."""

    exit_code = 2


class ShapeError(ParameterError):
    """Fields or grids that do not line up."""


class DomainError(OvalabError, ValueError):
    """Input leaves the mathematical domain of an operation (v <= 0, t >= t_e, ...)."""

    exit_code = 2


class CoverageError(OvalabError, RuntimeError):
    """The stored history / grid does not cover the requested window or region."""

    exit_code = 3


class BudgetError(OvalabError, RuntimeError):
    """An iteration or time budget ran out before convergence."""

    exit_code = 3


class DegeneracyError(OvalabError, RuntimeError):
    """A quantity that must stay away from zero (denominator, Jacobian) collapsed."""

    exit_code = 4


class AccuracyError(OvalabError, RuntimeError):
    """A discretization parameter is too coarse for the requested computation."""

    exit_code = 4


class StepSizeError(AccuracyError):
    """Explicit step rejected; a smaller step may be accepted."""
