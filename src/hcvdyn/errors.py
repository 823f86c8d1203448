"""Exception types shared across the package.

Every error raised deliberately by this package derives from ModelError, so
callers can catch one base class at API boundaries.  The CLI maps these onto
its exit-status contract.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import or_


class ModelError(Exception):
    """Base class for all errors raised by hcvdyn."""


class ParameterError(ModelError, ValueError):
    """A parameter set violates a hard structural invariant."""


class DomainError(ModelError, ValueError):
    """A computation was requested outside its mathematical domain.

    Examples: a derived constant that is undefined for the given rates, a
    Lyapunov evaluation at a nonpositive state, or a certificate for an
    equilibrium that does not exist.
    """


class IntegrityError(ModelError, ArithmeticError):
    """Two independent routes to the same quantity disagreed.

    Closed-form expressions in this package are cross-checked against a
    second derivation (minor expansion, spectral radius, collected algebraic
    form).  Disagreement beyond the integrity tolerance means a transcription
    error somewhere, and is never silently ignored.
    """


class IntegrationError(ModelError, RuntimeError):
    """Time integration failed before reaching t_end.

    The partial trajectory accumulated so far is attached so callers can
    still inspect or persist it.
    """

    def __init__(self, message: str, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class ScenarioError(ModelError, ValueError):
    """A scenario or sweep-spec file failed to parse.

    Carries the 1-based line number of the offending line when one can be
    attributed.
    """

    def __init__(self, message: str, line: int | None = None, source: str = "<input>"):
        self.line = line
        self.source = source
        prefix = f"{source}:{line}: " if line is not None else f"{source}: "
        super().__init__(prefix + message)


class SweepError(ModelError, ValueError):
    """A sweep specification violates its invariants."""


def _refuse(refusals, *args) -> None:
    """Raise the first refusal whose predicate holds for args.

    A refusal is an (exception class, message, failing predicate) triple;
    a table of them lists one step's refusals in the order the scalar route
    checks them, so the sweep kernel folds the same predicates over arrays
    (_fails).  Predicates use comparisons, arithmetic, & and | only.  The
    message is formatted with args under the predicate's parameter names.
    """
    for error, message, fails in refusals:
        if fails(*args):
            code = fails.__code__
            raise error(message.format(**dict(zip(code.co_varnames[: code.co_argcount], args))))


def _fails(refusals, *args):
    """Where any of the refusals' predicates holds for args."""
    return reduce(or_, (fails(*args) for _, _, fails in refusals))


def _not_finite(x):
    """x is inf or NaN, as a bool or a bool array (~ on a bool gives -2)."""
    return (abs(x) < math.inf) == False  # noqa: E712
