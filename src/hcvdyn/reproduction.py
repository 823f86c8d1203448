"""Basic reproduction number: closed form and next-generation decomposition.

The closed form evaluates R0 directly from a given infection-free hepatocyte
level.  The spectral route builds the new-infection and transfer matrices of
the infected subsystem (I, V), forms K = -DF . DV^(-1), and takes its
spectral radius through the 2x2 characteristic quadratic.  Both routes must
agree to the r0_agreement tolerance; disagreement raises IntegrityError.

r0_from_T0 exists as a separate entry point so that externally stated
(T0, R0) reference pairs can be reproduced exactly as published, even where
the stated T0 is inconsistent with the carrying-capacity quadratic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibria import uninfected_equilibrium
from .errors import DomainError, IntegrityError
from .model import ModelParameters
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__all__ = ["NextGenDecomposition", "r0_from_T0", "r0", "r0_spectral"]


@dataclass(frozen=True)
class NextGenDecomposition:
    """Next-generation matrices for the infected subsystem (I, V)."""

    DF: np.ndarray
    """Jacobian of the new-infection rates at the infection-free state."""
    DV: np.ndarray
    """Jacobian of the transfer (loss) rates at the infection-free state."""
    K: np.ndarray
    """Next-generation matrix -DF . DV^(-1)."""
    rho: float
    """Spectral radius of K."""


def r0_from_T0(params: ModelParameters, T0: float) -> float:
    """Closed-form reproduction number at an infection-free level T0.

    R0 = (r_I/delta)(1 - T0/T_max) + (1 - theta) beta T0 p / (c delta).
    """
    if T0 <= 0:
        raise DomainError(f"T0 must be positive, got {T0!r}")
    if params.d_I + params.q == 0:
        raise DomainError("reproduction number is undefined when d_I + q = 0")
    return _r0_closed_form(params, T0)


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


def r0_spectral(
    params: ModelParameters, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> NextGenDecomposition:
    """Next-generation decomposition with its spectral radius.

    The 2x2 eigenvalues come from the closed characteristic quadratic, not an
    iterative eigensolver.  When the decomposition is a valid next-generation
    splitting (DF entrywise nonnegative), rho is checked against the closed
    form r0(params); a disagreement beyond tolerance raises IntegrityError.
    """
    T0 = uninfected_equilibrium(params, tolerances).state.T
    return _next_generation(params, T0, tolerances)


def _next_generation(
    params: ModelParameters, T0: float, tolerances: Tolerances
) -> NextGenDecomposition:
    """r0_spectral at a given infection-free level T0."""
    delta = params.d_I + params.q
    if delta == 0 or params.c == 0:
        raise DomainError("transfer matrix is singular when d_I + q = 0 or c = 0")
    DF = np.array(
        [
            [params.r_I * (1.0 - T0 / params.T_max), (1.0 - params.eta) * params.beta * T0],
            [0.0, 0.0],
        ]
    )
    DV = np.array([[-delta, 0.0], [(1.0 - params.epsilon) * params.p, -params.c]])
    # DV is lower triangular, so its inverse is closed-form.
    DV_inv = np.array(
        [
            [-1.0 / delta, 0.0],
            [-(1.0 - params.epsilon) * params.p / (params.c * delta), -1.0 / params.c],
        ]
    )
    K = -DF @ DV_inv

    trace = K[0, 0] + K[1, 1]
    det = K[0, 0] * K[1, 1] - K[0, 1] * K[1, 0]
    disc = trace * trace - 4.0 * det
    if disc >= 0.0:
        sq = math.sqrt(disc)
        rho = max(abs(0.5 * (trace + sq)), abs(0.5 * (trace - sq)))
    else:
        rho = math.hypot(0.5 * trace, 0.5 * math.sqrt(-disc))

    if DF[0, 0] >= 0.0 and DF[0, 1] >= 0.0:
        closed = r0_from_T0(params, T0)
        if abs(closed - rho) > tolerances.r0_agreement * max(1.0, abs(closed)):
            raise IntegrityError(
                f"spectral radius {rho!r} disagrees with closed-form r0 {closed!r}"
            )
    return NextGenDecomposition(DF=DF, DV=DV, K=K, rho=float(rho))
