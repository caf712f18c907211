"""Exception taxonomy shared by the library and the command line tool,
and the one gate every public float parameter passes.

Exit codes: 2 for bad parameters or domain violations, 3 when a request
falls outside what the data covers (or a budget is exhausted), 4 for
numerical degeneracies. Plain bugs stay ordinary exceptions.

Parameter policy, stated here alone: NaN is never admissible, and each
float parameter names the infinities it refuses.  gate checks a value
against an interval whose brackets say so: "(0, inf)" refuses +inf,
"(0, inf]" admits it.  It raises the type the caller names, ParameterError
or, where the value leaves the domain of the operation, DomainError.
"""

import functools
import re


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
    """A discretization too coarse for the requested computation; the
    package raises it only as StepSizeError, a rejected explicit step."""

    exit_code = 4


class StepSizeError(AccuracyError):
    """Explicit step rejected; a smaller step may be accepted."""


@functools.cache
def _interval(text):
    """(low, high, low admitted, high admitted) of an interval such as "[0, inf)"."""
    left, low, high, right = re.fullmatch(r"([\[(])(.+), (.+)([\])])", text).groups()
    return float(low), float(high), left == "[", right == "]"


_WORDS = {"(0, inf)": "positive and finite", "[0, inf)": "nonnegative and finite",
          "(-inf, 0)": "negative and finite", "(-inf, inf)": "finite"}


def gate(name, value, interval, error):
    """Return value if it lies in interval; else raise error, naming the
    parameter and the value.  No comparison holds for NaN, so NaN never
    passes."""
    low, high, low_in, high_in = _interval(interval)
    if (low < value or low_in and low == value) and (value < high or high_in and value == high):
        return value
    raise error(f"{name} must be {_WORDS.get(interval, 'in ' + interval)}, got {value}")
