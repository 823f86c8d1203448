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
analysis modules and small shared numerical helpers, among them the one
quadratic solver (_quadratic_roots, with an array twin for the sweep).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import reduce
from operator import add, or_

import numpy as np

from .errors import DomainError, ParameterError, _not_finite, _refuse

_NORMAL_MIN = 2.0**-1022

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
        for name in PARAMETER_NAMES:
            object.__setattr__(self, name, _require_finite_float(name, getattr(self, name)))
        for name, requirement, test in _RANGE_RULES:
            if not test(getattr(self, name)):
                raise ParameterError(f"{name} must {requirement}, got {getattr(self, name)!r}")


PARAMETER_NAMES: tuple[str, ...] = tuple(f.name for f in fields(ModelParameters))

# (field, requirement, test) in the order construction checks them; c has two.
_RANGE_RULES = (
    *((name, "be nonnegative", lambda v: v >= 0) for name in ("s", "r_T", "r_I", "d_T", "d_I", "beta", "p", "c", "q")),
    *((name, "be positive", lambda v: v > 0) for name in ("T_max", "c")),
    *((name, "lie in [0, 1)", lambda v: 0.0 <= v < 1.0) for name in ("eta", "epsilon")),
)
# Each field's (requirement, test) rules, in the table's order.
_FIELD_RULES = {name: [rule[1:] for rule in _RANGE_RULES if rule[0] == name] for name in PARAMETER_NAMES}


def _check_field(name: str, value) -> float:
    """value as field `name` of ModelParameters holds it; raises as construction
    would.  Replacing one field of a valid set is valid exactly when this passes."""
    value = _require_finite_float(name, value)
    for requirement, test in _FIELD_RULES[name]:
        if not test(value):
            raise ParameterError(f"{name} must {requirement}, got {value!r}")
    return value


def _replace_field(params: ModelParameters, name: str, value) -> ModelParameters:
    """replace(params, **{name: value}) that checks only the changed field;
    the other fields of a valid set still hold, as every rule is per field."""
    out = object.__new__(ModelParameters)
    values = out.__dict__
    values.update(params.__dict__)
    values[name] = _check_field(name, value)
    return out


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
        for name in ("T", "I", "V"):
            object.__setattr__(self, name, _require_finite_float(name, getattr(self, name)))

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


# positive_logistic_root's refusal, a function of its coefficient k.
_LOGISTIC_REFUSALS = ((DomainError, "quadratic coefficient must be positive, got {k!r}", lambda k: k <= 0),)


def positive_logistic_root(s: float, g: float, k: float) -> float:
    """Largest root of s + g x - k x**2 for k > 0: u/a of _quadratic_roots
    where g counts as positive (copysign), else d/u; 0.0 when s = 0, g <= 0."""
    _refuse(_LOGISTIC_REFUSALS, k)
    if s == 0.0 and g <= 0.0:
        return 0.0
    x1, x2 = _quadratic_roots(-k, g, s)
    return x1 if math.copysign(1.0, g) > 0.0 else x2


def _quadratic_roots(a: float, b: float, d: float):
    """Roots of a x^2 + b x + d, a != 0: the cancellation-free pair (u/a, d/u)
    with u = -(b + sign(b) sqrt(b^2 - 4ad))/2, sign(b) as copysign gives it,
    or (0.0, 0.0) where u = 0, or the pair -b/2a +- i sqrt(4ad - b^2)/2a.
    Where b^2 - 4ad is not a finite normal float and a, b, d are finite, it
    solves a 2^-e_a, b 2^-e and d 2^(e_a - 2e), e_a the exponent of a and e
    that of max(|b|, sqrt|a| sqrt|d|): exact unless a value underflows, so
    only a root beyond the float range is lost (it reads inf).
    _quadratic_roots_array repeats these operations over arrays."""
    A, B, e_a, e = a, b, 0, 0
    disc = b * b - 4.0 * a * d
    if not _NORMAL_MIN <= abs(disc) < math.inf and all(map(math.isfinite, (a, b, d))):
        e_a, e = math.frexp(a)[1], math.frexp(max(abs(b), math.sqrt(abs(a)) * math.sqrt(abs(d))))[1]
        A, B = math.ldexp(a, -e_a), math.ldexp(b, -e)
        disc = B * B - 4.0 * A * math.ldexp(d, e_a - 2 * e)
    if disc < 0.0:
        re, im = _ldexp(-0.5 * B / A, e - e_a), _ldexp(0.5 * math.sqrt(-disc) / A, e - e_a)
        return complex(re, im), complex(re, -im)
    u = -(0.5 * B + math.copysign(0.5 * math.sqrt(disc), B))
    if u == 0.0:
        return 0.0, 0.0
    return _ldexp(u / A, e - e_a), _ldexp(d, -e) / u


def _quadratic_roots_array(a, b, d):
    """_quadratic_roots over arrays: (x1, x2, real), x1 and x2 NaN where complex."""
    A, B, e_a, e = a, b, 0, 0
    disc = b * b - 4.0 * a * d
    scaled = ~((_NORMAL_MIN <= abs(disc)) & (abs(disc) < math.inf))
    if scaled.any():
        scaled &= np.isfinite(a) & np.isfinite(b) & np.isfinite(d)
        e_a = np.where(scaled, np.frexp(a)[1], 0)
        e = np.where(scaled, np.frexp(np.maximum(abs(b), np.sqrt(abs(a)) * np.sqrt(abs(d))))[1], 0)
        A, B = np.ldexp(a, -e_a), np.ldexp(b, -e)
        disc = B * B - 4.0 * A * np.ldexp(d, e_a - 2 * e)
    u = -(0.5 * B + np.copysign(0.5 * np.sqrt(disc), B))
    zero = u == 0.0
    return np.where(zero, 0.0, np.ldexp(u / A, e - e_a)), np.where(zero, 0.0, np.ldexp(d, -e) / u), ~(disc < 0.0)


def _ldexp(x: float, n: int) -> float:
    """math.ldexp, with an inf of x's sign where it overflows, as np.ldexp gives."""
    try:
        return math.ldexp(x, n)
    except OverflowError:
        return math.copysign(math.inf, x)


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
    return 4.0 * params.q * (params.T_max * params.T_max) * (params.r_I - delta) / (params.r_I * params.r_T * H)


# derive_constants' refusals at each step: of the rates, before _constants
# divides by them; of H, where r_I r_T overflows (H reads 0 though the
# exact H is not) and before F divides by r_I r_T H; of the constants, F
# among them where H != 0.
_RATES_REFUSALS = ((DomainError, "derived constants require r_I r_T > 0, got r_T = {params.r_T!r}, r_I = {params.r_I!r}",
                    lambda params: params.r_I * params.r_T <= 0),)
_F_REFUSALS = ((DomainError, "derived constant H is lost: r_I r_T overflows to inf while A = {A!r} is not 0",
                lambda params, A, H: (params.r_I * params.r_T == math.inf) & (A != 0.0)),
               (DomainError, "radical constant F is undefined: r_I r_T H underflows to 0",
                lambda params, A, H: (H != 0.0) & (params.r_I * params.r_T * H == 0.0)))
_CONSTANTS_REFUSALS = ((DomainError, "derived constants are not finite for this parameter set",
                        lambda constants: reduce(or_, map(_not_finite, constants))),)


def derive_constants(params: ModelParameters) -> DerivedConstants:
    """Compute the derived constants for a valid parameter set.

    Raises DomainError where _RATES_REFUSALS, _F_REFUSALS or
    _CONSTANTS_REFUSALS hold: H needs r_I r_T > 0, for one.
    """
    _refuse(_RATES_REFUSALS, params)
    theta, delta, A, H, D = _constants(params)
    _refuse(_F_REFUSALS, params, A, H)
    F = _constant_F(params, delta, H) if H != 0.0 else None
    _refuse(_CONSTANTS_REFUSALS, (theta, delta, A, H, D) + ((F,) if F is not None else ()))
    return DerivedConstants(theta=theta, delta=delta, A=A, H=H, D=D, F=F)


def _region(params: ModelParameters) -> tuple[float, float, bool]:
    """The invariant region: (ceiling on T + I, ceiling on V, whether the
    comparison hypotheses r_I <= r_T and r_T - d_T >= r_I - d_I hold).

    The T + I ceiling is the positive root of s + (r_T - d_T) x - (r_I/T_max) x^2;
    with r_I = 0 it is inf when s > 0 or r_T > d_T, and 0.0 otherwise.
    """
    g = params.r_T - params.d_T
    if params.r_I > 0:
        ceiling = positive_logistic_root(params.s, g, params.r_I / params.T_max)
    elif params.s > 0 or g > 0:
        ceiling = math.inf
    else:
        ceiling = 0.0
    v_ceiling = (1.0 - params.epsilon) * params.p * ceiling / params.c
    return ceiling, v_ceiling, params.r_I <= params.r_T and g >= params.r_I - params.d_I


def _field_terms(params, T, I, V):
    """Each field component's terms, unsigned, in the module docstring's order."""
    crowding = 1.0 - (T + I) / params.T_max
    infection = (1.0 - params.eta) * params.beta * V * T
    cure = params.q * I
    return (
        (params.s, params.r_T * T * crowding, params.d_T * T, infection, cure),
        (params.r_I * I * crowding, params.d_I * I, infection, cure),
        ((1.0 - params.epsilon) * params.p * I, params.c * V),
    )


def _signed(dT, dI, dV):
    """The field from its _field_terms, with the equations' signs, left to right."""
    return dT[0] + dT[1] - dT[2] - dT[3] + dT[4], dI[0] - dI[1] + dI[2] - dI[3], dV[0] - dV[1]


def _field(params: ModelParameters, T, I, V):
    """(dT/dt, dI/dt, dV/dt) at (T, I, V); broadcasts over floats and arrays."""
    return _signed(*_field_terms(params, T, I, V))


def _field_and_scales(params, T, I, V):
    """(field component, sum of its terms' magnitudes) pairs; the builtin sum()
    compensates from Python 3.12 on, so the magnitudes add left to right."""
    terms = _field_terms(params, T, I, V)
    return zip(_signed(*terms), (reduce(add, map(abs, component)) for component in terms))


def _finite_state(state) -> tuple[float, float, float]:
    """(T, I, V) of a state as floats; raises DomainError unless all are finite."""
    T, I, V = (float(x) for x in state)
    if not (math.isfinite(T) and math.isfinite(I) and math.isfinite(V)):
        raise DomainError(f"state must be finite, got ({T!r}, {I!r}, {V!r})")
    return T, I, V


def vector_field(params: ModelParameters, state: State | np.ndarray) -> np.ndarray:
    """Right-hand side (dT/dt, dI/dt, dV/dt) at a state.

    Accepts a State or any length-3 array-like; rejects non-finite input.
    The field is polynomial, so negative coordinates are admissible (useful
    for finite-difference probes around the axes).
    """
    return np.array(_field(params, *_finite_state(state)), dtype=float)


def field_function(params: ModelParameters):
    """Return f(t, (T, I, V)) -> tuple for the integrators.

    Binds every coefficient into locals once; the hot loop then runs on
    plain floats with no attribute lookups or array allocation, and returns
    _field's floats bit for bit.  It keeps this closure rather than calling
    _field: twelve s2 runs (c from 0.8 to 22, daily and one-sample, best
    of 5) took 0.108-0.123 s through _field against 0.074-0.079 s here.
    """
    s, r_T, r_I = params.s, params.r_T, params.r_I
    d_T, d_I, q, c, T_max = params.d_T, params.d_I, params.q, params.c, params.T_max
    b_eff = (1.0 - params.eta) * params.beta
    p_eff = (1.0 - params.epsilon) * params.p

    def f(t: float, y: tuple[float, float, float]) -> tuple[float, float, float]:
        T, I, V = y
        crowding = 1.0 - (T + I) / T_max
        infection = b_eff * V * T
        return (
            s + r_T * T * crowding - d_T * T - infection + q * I,
            r_I * I * crowding - d_I * I + infection - q * I,
            p_eff * I - c * V,
        )

    return f


def jacobian(params: ModelParameters, state: State | np.ndarray) -> np.ndarray:
    """Jacobian matrix of the vector field at a state."""
    return np.array(_jacobian_entries(params, *_finite_state(state)), dtype=float)


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
    size.  A component whose terms are all zero contributes zero, and one
    whose value is not finite (its terms overflow) reads inf.  It runs on
    Python floats, so an overflowing term gives no numpy warning.
    """
    worst = 0.0
    for value, scale in _field_and_scales(params, *_finite_state(state)):
        if not math.isfinite(value):
            worst = math.inf
        elif scale > 0.0:
            worst = max(worst, abs(value) / scale)
    return worst


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
