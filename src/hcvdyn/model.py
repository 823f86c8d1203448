"""Core within-host model: parameters, state, vector field, Jacobian.

The model tracks uninfected target hepatocytes T, productively infected
hepatocytes I, and free virus V:

    dT/dt = s + r_T T (1 - (T + I)/T_max) - d_T T - (1 - eta) beta V T + q I
    dI/dt =     r_I I (1 - (T + I)/T_max) - d_I I + (1 - eta) beta V T - q I
    dV/dt = (1 - epsilon) p I - c V

Both cell classes proliferate logistically against a shared carrying
capacity T_max, infected cells revert to the uninfected class at the
spontaneous cure rate q, and therapy acts through the infection-blocking
efficacy eta and the production-blocking efficacy epsilon.

This module also provides the derived constants used throughout the
analysis modules and small shared numerical helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "ModelParameters",
    "State",
    "DerivedConstants",
    "PARAMETER_NAMES",
    "PLAUSIBLE_RANGES",
    "SCENARIO_S1",
    "SCENARIO_S2",
    "DEFAULT_INITIAL_STATE",
    "assumption_warnings",
    "range_warnings",
    "validate",
    "derive_constants",
    "vector_field",
    "field_function",
    "jacobian",
    "residual_norm",
    "positive_logistic_root",
]


def _require_finite_float(name: str, value) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{name} must be a real number, got {value!r}") from exc
    if not math.isfinite(out):
        raise ParameterError(f"{name} must be finite, got {out!r}")
    return out


@dataclass(frozen=True)
class ModelParameters:
    """Rate constants of the three-compartment infection model.

    Construction enforces the hard structural invariants (nonnegativity,
    positive carrying capacity and clearance, efficacies inside [0, 1)).
    Softer biological expectations are reported by assumption_warnings and
    range_warnings rather than rejected, because several published scenarios
    deliberately violate them.
    """

    s: float
    """Source inflow of uninfected hepatocytes (cells/(ml day))."""
    r_T: float
    """Logistic proliferation rate of uninfected hepatocytes (1/day)."""
    r_I: float
    """Logistic proliferation rate of infected hepatocytes (1/day)."""
    d_T: float
    """Death rate of uninfected hepatocytes (1/day)."""
    d_I: float
    """Death rate of infected hepatocytes (1/day)."""
    T_max: float
    """Shared hepatocyte carrying capacity (cells/ml)."""
    beta: float
    """Virus-to-cell infection rate constant (ml/(virions day))."""
    p: float
    """Virion production rate per infected cell (virions/(cells day))."""
    c: float
    """Virion clearance rate (1/day)."""
    q: float
    """Spontaneous cure rate of infected cells (1/day)."""
    eta: float
    """Therapy efficacy blocking new infections, in [0, 1)."""
    epsilon: float
    """Therapy efficacy blocking virion production, in [0, 1)."""

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _require_finite_float(f.name, getattr(self, f.name)))
        for name in ("s", "r_T", "r_I", "d_T", "d_I", "beta", "p", "c", "q"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be nonnegative, got {getattr(self, name)!r}")
        if self.T_max <= 0:
            raise ParameterError(f"T_max must be positive, got {self.T_max!r}")
        if self.c <= 0:
            raise ParameterError(f"c must be positive, got {self.c!r}")
        for name in ("eta", "epsilon"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ParameterError(f"{name} must lie in [0, 1), got {value!r}")


PARAMETER_NAMES: tuple[str, ...] = tuple(f.name for f in fields(ModelParameters))

PLAUSIBLE_RANGES: dict[str, tuple[float, float]] = {
    "s": (1.0, 1.8e5),
    "r_T": (2e-3, 3.4),
    "d_T": (1e-3, 1.4e-2),
    "d_I": (1e-3, 0.5),
    "T_max": (4e6, 1.3e7),
    "beta": (1e-8, 1e-6),
    "p": (0.1, 44.0),
    "c": (0.8, 22.0),
    "q": (0.0, 1.0),
}
"""Ranges reported across patient studies.  r_I, eta and epsilon have no
established range and are never flagged."""


def assumption_warnings(params: ModelParameters) -> list[str]:
    """Biological comparison assumptions that analyses may rely on.

    Violations are legitimate parameter sets (one reference scenario violates
    the first), but invariant-region bounds and some certificates only apply
    when these hold.
    """
    out = []
    if params.r_I > params.r_T:
        out.append(
            f"r_I = {params.r_I!r} exceeds r_T = {params.r_T!r}: infected cells "
            "proliferate faster than uninfected cells and the invariant-region "
            "bound does not apply"
        )
    if params.s > params.d_T * params.T_max:
        out.append(
            f"s = {params.s!r} exceeds d_T*T_max = {params.d_T * params.T_max!r}: "
            "source inflow alone pushes the liver past its carrying capacity"
        )
    if params.d_I < params.d_T:
        out.append(
            f"d_I = {params.d_I!r} is below d_T = {params.d_T!r}: infected cells "
            "outlive uninfected cells"
        )
    return out


def range_warnings(params: ModelParameters) -> list[str]:
    """Parameters falling outside the ranges reported across patient studies."""
    out = []
    for name, (lo, hi) in PLAUSIBLE_RANGES.items():
        value = getattr(params, name)
        if not lo <= value <= hi:
            out.append(f"{name} = {value!r} is outside the reported range [{lo!r}, {hi!r}]")
    return out


def validate(params: ModelParameters) -> list[str]:
    """Return every advisory warning for the set; hard errors were raised
    at construction."""
    return assumption_warnings(params) + range_warnings(params)


@dataclass(frozen=True)
class State:
    """Point in (T, I, V) phase space."""

    T: float
    """Uninfected hepatocytes (cells/ml)."""
    I: float
    """Infected hepatocytes (cells/ml)."""
    V: float
    """Free virus (virions/ml)."""

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _require_finite_float(f.name, getattr(self, f.name)))

    def __iter__(self):
        yield self.T
        yield self.I
        yield self.V

    @property
    def nonnegative(self) -> bool:
        return self.T >= 0 and self.I >= 0 and self.V >= 0

    @property
    def strictly_positive(self) -> bool:
        return self.T > 0 and self.I > 0 and self.V > 0

    def as_array(self) -> np.ndarray:
        return np.array([self.T, self.I, self.V], dtype=float)


@dataclass(frozen=True)
class DerivedConstants:
    """Constants derived from a parameter set, used across the analysis.

    D and F parameterise the radical closed form of the infected
    equilibrium; F is undefined (None) when H = 0, in which case the
    equilibrium quadratic degenerates to a linear equation.
    """

    theta: float
    """Combined therapy efficacy: 1 - theta = (1 - eta)(1 - epsilon)."""
    delta: float
    """Total loss rate of infected cells, d_I + q (1/day)."""
    A: float
    """Infection pressure at carrying capacity, (1-theta) beta p T_max / c (1/day)."""
    H: float
    """Curvature constant (A/(r_I r_T)) (A + r_T - r_I) of the equilibrium quadratic."""
    D: float
    """Linear constant of the radical form (cells/ml)."""
    F: float | None
    """Quadratic constant of the radical form ((cells/ml)^2); None when H = 0."""
    t_tilde0: float
    """Ceiling of total hepatocytes T + I under the comparison dynamics (cells/ml)."""


def positive_logistic_root(s: float, g: float, k: float) -> float:
    """Largest root of s + g x - k x**2 for k > 0, evaluated stably.

    The expression (g + sqrt(g^2 + 4 s k)) / (2 k) cancels when g < 0 and
    s k is small, so that branch is rewritten via the product of roots.
    Returns 0.0 when s = 0 and g <= 0.
    """
    if k <= 0:
        raise DomainError(f"quadratic coefficient must be positive, got {k!r}")
    disc = math.sqrt(g * g + 4.0 * s * k)
    if g >= 0:
        return (g + disc) / (2.0 * k)
    denom = disc - g
    return 2.0 * s / denom if denom > 0 else 0.0


def _squared(x):
    """x**2 rounded as CPython's float power rounds it, also over arrays.

    numpy squares an array by multiplication, which rounds differently from
    C pow in about 0.1 % of cases; the batched sweep must match the scalar
    route bit for bit.
    """
    if isinstance(x, np.ndarray):
        return np.array([v**2 for v in x.tolist()])
    return x**2


def _constants(params):
    """(theta, delta, A, H, D) of derive_constants, without its checks.

    Takes any object with the parameter attributes, floats or arrays.
    """
    one_minus_theta = (1.0 - params.eta) * (1.0 - params.epsilon)
    delta = params.d_I + params.q
    A = one_minus_theta * params.beta * params.p * params.T_max / params.c
    H = (A / (params.r_I * params.r_T)) * (A + params.r_T - params.r_I)
    # Expanded form of the linear radical constant; the textbook grouping
    # divides by A and has a removable singularity at A = 0.
    D = (params.T_max / params.r_T) * (
        A
        + params.d_T
        + params.q
        - A * delta / params.r_I
        - delta * params.r_T / params.r_I
        - A * params.q / params.r_I
    )
    return 1.0 - one_minus_theta, delta, A, H, D


def _constant_F(params, delta, H):
    """Quadratic radical constant F; defined only where H != 0."""
    return 4.0 * params.q * _squared(params.T_max) * (params.r_I - delta) / (params.r_I * params.r_T * H)


def derive_constants(params: ModelParameters) -> DerivedConstants:
    """Compute the derived constants for a valid parameter set.

    Raises DomainError when a constant is undefined or non-finite for the
    given rates: both proliferation rates must be positive for H and the
    total-hepatocyte ceiling to exist.
    """
    if params.r_I <= 0 or params.r_T <= 0:
        raise DomainError(
            "derived constants require positive proliferation rates, got "
            f"r_T = {params.r_T!r}, r_I = {params.r_I!r}"
        )
    theta, delta, A, H, D = _constants(params)
    F = _constant_F(params, delta, H) if H != 0.0 else None
    t_tilde0 = positive_logistic_root(params.s, params.r_T - params.d_T, params.r_I / params.T_max)
    values = (theta, delta, A, H, D, t_tilde0) + ((F,) if F is not None else ())
    if not all(math.isfinite(v) for v in values):
        raise DomainError("derived constants are not finite for this parameter set")
    if t_tilde0 <= 0 and params.s > 0:
        raise DomainError("total-hepatocyte ceiling must be positive when s > 0")
    return DerivedConstants(theta=theta, delta=delta, A=A, H=H, D=D, F=F, t_tilde0=t_tilde0)


def _field(params: ModelParameters, T, I, V):
    """(dT/dt, dI/dt, dV/dt) at (T, I, V); broadcasts over floats and arrays."""
    crowding = 1.0 - (T + I) / params.T_max
    infection = (1.0 - params.eta) * params.beta * V * T
    return (
        params.s + params.r_T * T * crowding - params.d_T * T - infection + params.q * I,
        params.r_I * I * crowding - params.d_I * I + infection - params.q * I,
        (1.0 - params.epsilon) * params.p * I - params.c * V,
    )


def vector_field(params: ModelParameters, state: State | np.ndarray) -> np.ndarray:
    """Right-hand side (dT/dt, dI/dt, dV/dt) at a state.

    Accepts a State or any length-3 array-like; rejects non-finite input.
    The field is polynomial, so negative coordinates are admissible (useful
    for finite-difference probes around the axes).
    """
    T, I, V = state
    T, I, V = float(T), float(I), float(V)
    if not (math.isfinite(T) and math.isfinite(I) and math.isfinite(V)):
        raise DomainError(f"state must be finite, got ({T!r}, {I!r}, {V!r})")
    return np.array(_field(params, T, I, V), dtype=float)


def field_function(params: ModelParameters):
    """Return f(t, (T, I, V)) -> tuple for the integrators.

    Binds every coefficient into locals once; the hot loop then runs on
    plain floats with no attribute lookups or array allocation.
    """
    s, r_T, r_I = params.s, params.r_T, params.r_I
    d_T, d_I, q, c = params.d_T, params.d_I, params.q, params.c
    inv_T_max = 1.0 / params.T_max
    b_eff = (1.0 - params.eta) * params.beta
    p_eff = (1.0 - params.epsilon) * params.p

    def f(t: float, y: tuple[float, float, float]) -> tuple[float, float, float]:
        T, I, V = y
        crowding = 1.0 - (T + I) * inv_T_max
        infection = b_eff * V * T
        return (
            s + r_T * T * crowding - d_T * T - infection + q * I,
            r_I * I * crowding - d_I * I + infection - q * I,
            p_eff * I - c * V,
        )

    return f


def jacobian(params: ModelParameters, state: State | np.ndarray) -> np.ndarray:
    """Jacobian matrix of the vector field at a state."""
    T, I, V = (float(x) for x in state)
    if not (math.isfinite(T) and math.isfinite(I) and math.isfinite(V)):
        raise DomainError(f"state must be finite, got ({T!r}, {I!r}, {V!r})")
    return np.array(_jacobian_entries(params, T, I, V), dtype=float)


def _jacobian_entries(params, T, I, V):
    """Rows of the Jacobian at (T, I, V); broadcasts over floats and arrays."""
    inv_T_max = 1.0 / params.T_max
    b_eff = (1.0 - params.eta) * params.beta
    crowding = 1.0 - (T + I) * inv_T_max
    return (
        (
            params.r_T * crowding - params.r_T * T * inv_T_max - params.d_T - b_eff * V,
            -params.r_T * T * inv_T_max + params.q,
            -b_eff * T,
        ),
        (
            -params.r_I * I * inv_T_max + b_eff * V,
            params.r_I * crowding - params.r_I * I * inv_T_max - params.d_I - params.q,
            b_eff * T,
        ),
        (0.0, (1.0 - params.epsilon) * params.p, -params.c),
    )


def residual_norm(params: ModelParameters, state: State | np.ndarray) -> float:
    """Componentwise-relative residual of the vector field at a state.

    Each component of f is scaled by the sum of the magnitudes of the terms
    entering it, so the norm measures cancellation quality rather than raw
    size.  A component whose terms are all zero contributes zero.
    """
    T, I, V = (float(x) for x in state)
    f = vector_field(params, (T, I, V))
    worst = 0.0
    for value, scale in zip(f, _term_scales(params, T, I, V)):
        if scale > 0.0:
            worst = max(worst, abs(value) / scale)
        elif value != 0.0:
            worst = math.inf
    return float(worst)


def _term_scales(params, T, I, V):
    """Sum of the magnitudes of the terms entering each field component;
    broadcasts over floats and arrays."""
    crowding = 1.0 - (T + I) / params.T_max
    infection = abs((1.0 - params.eta) * params.beta * V * T)
    return (
        params.s + abs(params.r_T * T * crowding) + abs(params.d_T * T) + infection + abs(params.q * I),
        abs(params.r_I * I * crowding) + abs(params.d_I * I) + infection + abs(params.q * I),
        abs((1.0 - params.epsilon) * params.p * I) + abs(params.c * V),
    )


SCENARIO_S1 = ModelParameters(
    s=10.0, r_T=0.05, r_I=0.112, d_T=0.001, d_I=0.1, T_max=1e7,
    beta=1e-7, p=1.0, c=2.0, q=0.5, eta=1e-7, epsilon=1e-8,
)
"""Reference scenario with subthreshold infection (r0 < 1)."""

SCENARIO_S2 = ModelParameters(
    s=10.0, r_T=2.0, r_I=0.112, d_T=0.01, d_I=0.3, T_max=1e7,
    beta=1e-7, p=1.0, c=0.5, q=0.5, eta=1e-4, epsilon=1e-4,
)
"""Reference scenario with established infection (r0 > 1)."""

DEFAULT_INITIAL_STATE = State(T=1e3, I=2.0, V=1.0)
"""Small inoculum used by the reference scenarios."""
