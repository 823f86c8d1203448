"""Basic reproduction number: closed form and next-generation decomposition.

The closed form evaluates R0 directly from a given infection-free hepatocyte
level.  The spectral route takes the next-generation matrix K = -DF . DV^(-1)
of the infected subsystem (I, V), built from the new-infection Jacobian DF
and the transfer Jacobian DV.  Only I receives new infections, so K's second
row is zero, its eigenvalues are K[0,0] and 0, and its spectral radius is
|K[0,0]|.  Both routes must agree to the r0_agreement tolerance;
disagreement raises IntegrityError.

r0_from_T0 exists as a separate entry point so that externally stated
(T0, R0) reference pairs can be reproduced exactly as published, even where
the stated T0 is inconsistent with the carrying-capacity quadratic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .equilibria import uninfected_equilibrium
from .errors import DomainError, IntegrityError, _not_finite, _refuse
from .model import ModelParameters
from .tolerances import DEFAULT_TOLERANCES

__all__ = ["NextGenDecomposition", "r0_from_T0", "r0", "r0_spectral"]


@dataclass(frozen=True)
class NextGenDecomposition:
    """Next-generation decomposition of the infected subsystem (I, V)."""

    rho: float
    """Spectral radius of the next-generation matrix K = -DF . DV^(-1)."""
    checked: bool
    """Whether rho was checked against the closed-form r0.  That needs DF >= 0
    entrywise, a valid next-generation splitting (van den Driessche and
    Watmough 2002); DF[0, 0] < 0 where T0 > T_max and r_I > 0."""


# r0_from_T0's refusals of the set and T0, before R0 divides by c (d_I + q),
# and of the R0 it computes.
_R0_REFUSALS = (
    (DomainError, "T0 must be positive, got {T0!r}", lambda params, T0: T0 <= 0),
    (DomainError, "reproduction number is undefined when d_I + q = 0 or c (d_I + q) underflows to 0",
     lambda params, T0: params.c * (params.d_I + params.q) == 0),
)
_R0_VALUE_REFUSALS = ((DomainError, "reproduction number is not finite: {R0!r}", lambda R0: _not_finite(R0)),)


def r0_from_T0(params: ModelParameters, T0: float) -> float:
    """Closed-form reproduction number at an infection-free level T0.

    R0 = (r_I/delta)(1 - T0/T_max) + (1 - theta) beta T0 p / (c delta).
    Raises DomainError when T0 <= 0, or when R0 is undefined or not finite.
    """
    _refuse(_R0_REFUSALS, params, T0)
    R0 = _r0_closed_form(params, T0)
    _refuse(_R0_VALUE_REFUSALS, R0)
    return R0


def _r0_closed_form(params, T0):
    """r0_from_T0 without its checks; broadcasts over floats and arrays."""
    delta = params.d_I + params.q
    one_minus_theta = (1.0 - params.eta) * (1.0 - params.epsilon)
    proliferation = (params.r_I / delta) * (1.0 - T0 / params.T_max)
    infection = one_minus_theta * params.beta * T0 * params.p / (params.c * delta)
    return proliferation + infection


def r0(params: ModelParameters) -> float:
    """Reproduction number at the computed uninfected equilibrium."""
    return r0_from_T0(params, uninfected_equilibrium(params).state.T)


def r0_spectral(params: ModelParameters) -> NextGenDecomposition:
    """Next-generation decomposition with its spectral radius.

    K's second row is zero, so rho = |K[0,0]|, with no eigensolver.  When the
    decomposition is a valid next-generation splitting (DF entrywise
    nonnegative), rho is checked against the closed form r0(params), and
    checked is true; a disagreement beyond tolerance raises IntegrityError.
    """
    T0 = uninfected_equilibrium(params).state.T
    return _next_generation(params, T0)


def _next_generation(params: ModelParameters, T0: float, R0: float | None = None) -> NextGenDecomposition:
    """r0_spectral at a given infection-free level T0; R0, when given, is
    r0_from_T0(params, T0) computed already."""
    delta = params.d_I + params.q
    if params.c * delta == 0:
        raise DomainError("transfer matrix is singular when d_I + q = 0 or c (d_I + q) underflows to 0")
    # The first row of DF, and the first column of DV^(-1), which is closed
    # form because DV = [[-delta, 0], [(1 - epsilon) p, -c]] is triangular.
    DF_00 = params.r_I * (1.0 - T0 / params.T_max)
    DF_01 = (1.0 - params.eta) * params.beta * T0
    DV_inv_00 = -1.0 / delta
    DV_inv_10 = -(1.0 - params.epsilon) * params.p / (params.c * delta)
    K_00 = -(DF_00 * DV_inv_00 + DF_01 * DV_inv_10)
    rho = abs(K_00)
    # Overflow and NaN end here; a NaN would also slip past the cross-check.
    if not math.isfinite(rho):
        raise DomainError(f"next-generation spectral radius is not finite: {rho!r}")

    checked = DF_00 >= 0.0 and DF_01 >= 0.0
    if checked:
        closed = r0_from_T0(params, T0) if R0 is None else R0
        if abs(closed - rho) > DEFAULT_TOLERANCES.r0_agreement * max(1.0, abs(closed)):
            raise IntegrityError(
                f"spectral radius {rho!r} disagrees with closed-form r0 {closed!r}"
            )
    return NextGenDecomposition(rho=rho, checked=checked)
