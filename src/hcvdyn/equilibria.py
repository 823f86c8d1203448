"""Steady states: the uninfected equilibrium and the infected-equilibrium
existence analysis.

The uninfected equilibrium E0 = (T0, 0, 0) solves a scalar quadratic.  The
infected equilibrium solves a quadratic in T whose coefficients come from
eliminating I and V; every surviving root is positivity-filtered, polished,
and residual-checked before being reported; both quadratics go through
model._quadratic_roots, as does the paper's radical closed form of T*, from
D, H and F, which cross-checks the quadratic route whenever it is defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, IntegrityError
from .model import (
    DerivedConstants,
    ModelParameters,
    State,
    _field,
    _quadratic_roots,
    derive_constants,
    positive_logistic_root,
    residual_norm,
)
from .tolerances import DEFAULT_TOLERANCES

__all__ = [
    "EquilibriumPoint",
    "ExistenceReport",
    "uninfected_equilibrium",
    "infected_equilibrium",
    "existence_regime",
    "infected_T_closed_form",
    "equilibrium_quadratic",
]

REGIME_NONE = "no_infected_eq"
REGIME_UNIQUE = "unique_infected_eq"
REGIME_MULTIPLE = "multiple_candidates"


@dataclass(frozen=True)
class EquilibriumPoint:
    """A steady state together with its verification residual."""

    kind: str
    """Either "uninfected" or "infected"."""
    state: State
    residual_norm: float
    """Componentwise-relative vector-field residual at the state."""


@dataclass(frozen=True)
class ExistenceReport:
    """Outcome of the infected-equilibrium analysis.

    candidates holds every verified infected steady state.  rejected_T_roots
    lists quadratic roots that were discarded (outside (0, T_max] or with a
    nonpositive I* or V*), so callers can see what the algebra produced
    before filtering.  closed_form_T carries the radical route when defined:
    for a unique candidate, the branch of the radical nearer to it, with its
    relative deviation from that candidate.
    """

    existence_condition: float
    """Constant term s + q (T_max/r_I)(r_I - delta) of the T* quadratic; the
    source criterion predicts a unique equilibrium from its sign alone."""
    threshold_T: float | None
    """T value at which I*(T) changes sign, T_max (delta - r_I)/(A - r_I);
    None when A = r_I."""
    regime: str
    """One of no_infected_eq, unique_infected_eq, multiple_candidates."""
    candidates: tuple[EquilibriumPoint, ...]
    rejected_T_roots: tuple[float, ...]
    closed_form_T: float | None = None
    closed_form_rel_diff: float | None = None
    r0: float | None = None
    """Reproduction number; populated by existence_regime."""
    criteria: dict[str, bool] | None = None
    """Published existence criteria verdicts; populated by existence_regime."""
    disagreements: tuple[str, ...] = ()
    """Criteria whose prediction contradicts the verified root count."""
    e0_point: EquilibriumPoint | None = None
    """Uninfected equilibrium behind r0 and the threshold route; populated by
    existence_regime."""


def uninfected_equilibrium(params: ModelParameters) -> EquilibriumPoint:
    """Infection-free steady state (T0, 0, 0).

    T0 is the positive root of s + (r_T - d_T) T - (r_T/T_max) T^2 when
    r_T > 0, and s/d_T in the degenerate non-proliferating case r_T = 0.
    Raises DomainError when no steady state exists (r_T = 0 with d_T = 0 and
    s > 0: unbounded linear growth), r_T/T_max underflows to 0, T0 is not
    finite (the root, or r_T/T_max, lies beyond the float range), the
    vector field at T0 leaves the float range (residual inf), or s > 0 and
    T0 is 0.0: the positive root then lies below the smallest subnormal,
    and no float holds it.  s = 0 keeps T0 = 0.0.  A residual above the
    tolerance raises IntegrityError unless a root lies within one ulp of T0
    (_root_within_an_ulp); the residual is then reported as it is.
    """
    if params.r_T > 0:
        T0 = positive_logistic_root(params.s, params.r_T - params.d_T, params.r_T / params.T_max)
    elif params.d_T > 0:
        T0 = params.s / params.d_T
    elif params.s == 0:
        T0 = 0.0
    else:
        raise DomainError("no uninfected steady state: r_T = 0, d_T = 0 and s > 0")
    if not math.isfinite(T0):
        raise DomainError(f"uninfected equilibrium T0 is not finite: {T0!r}")
    residual = residual_norm(params, (T0, 0.0, 0.0))
    if residual > DEFAULT_TOLERANCES.uninfected_residual and not _root_within_an_ulp(
        params, math.nextafter(T0, -math.inf), math.nextafter(T0, math.inf)
    ):
        if residual == math.inf:
            raise DomainError("vector field at T0 leaves the float range")
        raise IntegrityError(
            f"uninfected equilibrium residual {residual!r} exceeds "
            f"{DEFAULT_TOLERANCES.uninfected_residual!r}"
        )
    if T0 == 0.0 and params.s > 0:
        raise DomainError("uninfected equilibrium T0 underflows: the root is positive but below 5e-324")
    return EquilibriumPoint(kind="uninfected", state=State(T0, 0.0, 0.0), residual_norm=residual)


def _root_within_an_ulp(params, below, above):
    """Whether dT/dt at (T, 0, 0) takes both signs, or is 0, at the floats
    below and above T0: a root then lies within one ulp of T0, where the
    relative residual can be large because 1 - T/T_max resolves no less than
    an ulp.  Signs are compared, not their product, which underflows; a NaN
    never brackets.  Broadcasts over floats and arrays."""
    lo = _field(params, below, 0.0, 0.0)[0]
    hi = _field(params, above, 0.0, 0.0)[0]
    return ((lo <= 0.0) & (hi >= 0.0)) | ((lo >= 0.0) & (hi <= 0.0))


def equilibrium_quadratic(
    params: ModelParameters, constants: DerivedConstants | None = None
) -> tuple[float, float, float]:
    """Coefficients (a, b, d) of the infected-equilibrium quadratic in T.

    a T^2 + b T + d = 0 results from eliminating I and V from the steady
    state equations; a = -r_T H / T_max, d is the existence condition.
    """
    cons = constants if constants is not None else derive_constants(params)
    r_I, r_T, q = params.r_I, params.r_T, params.q
    a = -r_T * cons.H / params.T_max
    b = (
        r_T
        - (params.d_T + q)
        - ((r_T + cons.A) / r_I) * (r_I - cons.delta)
        + q * cons.A / r_I
    )
    d = params.s + q * (params.T_max / r_I) * (r_I - cons.delta)
    return a, b, d


def _infected_from_T(params: ModelParameters, cons: DerivedConstants, T: float) -> tuple[float, float]:
    """I* and V* implied by a candidate T* through the elimination relations."""
    I = (cons.A / params.r_I - 1.0) * T + params.T_max * (1.0 - cons.delta / params.r_I)
    V = (1.0 - params.epsilon) * params.p * I / params.c
    return I, V


def infected_T_closed_form(
    params: ModelParameters, constants: DerivedConstants | None = None
) -> float:
    """Radical closed form of T*, with coefficients apart from equilibrium_quadratic's.

    T* = (1/2) (-D/H + sqrt((D/H)^2 + G)), G = F + 4 s T_max / (r_T H): the
    larger root of T^2 + (D/H) T - G/4, which model._quadratic_roots solves
    without cancellation.  Raises DomainError when H = 0 (the quadratic
    degenerates) or when the roots are complex.
    """
    cons = constants if constants is not None else derive_constants(params)
    if cons.H == 0.0 or cons.F is None:
        raise DomainError("closed-form T* is undefined when H = 0")
    x1, x2 = _radical_roots(params, cons, _quadratic_roots)
    if isinstance(x1, complex):
        raise DomainError(f"closed-form T* has complex roots {x1!r}, {x2!r}")
    return x2 if x1 < x2 else x1


def _radical(params, cons):
    """(1, D/H, -G/4): the radical form's monic quadratic, whose roots are
    (1/2) (-D/H +- sqrt((D/H)^2 + G)); broadcasts over arrays."""
    G = cons.F + 4.0 * params.s * params.T_max / (params.r_T * cons.H)
    return 1.0, cons.D / cons.H, -0.25 * G


def _radical_roots(params, cons, solve):
    """solve's roots of _radical's quadratic: model._quadratic_roots or its array twin."""
    return solve(*_radical(params, cons))


def infected_equilibrium(params: ModelParameters) -> ExistenceReport:
    """Locate and verify infected steady states.

    Roots of the elimination quadratic (the linear root when its leading
    coefficient is 0, [0.0, 0.0] when u = 0 in model._quadratic_roots, none
    when they are complex) are kept only inside (0, T_max], polished by
    Newton steps on the quadratic, completed to (T*, I*, V*) through the
    exact elimination relations, and accepted only with positive I*, V* and
    a vector-field residual within tolerance.  Finding no candidate is a
    result (regime no_infected_eq), not an error.  Raises DomainError when
    existence_condition, threshold_T, a rejected root, a kept root's I* or
    V*, or the radical route is not finite.
    """
    return ExistenceReport(**_infected_fields(params, derive_constants(params)))


def _infected_fields(params: ModelParameters, cons: DerivedConstants) -> dict:
    """infected_equilibrium's report fields, as keyword arguments."""
    a, b, d = equilibrium_quadratic(params, cons)
    threshold_T = None
    if cons.A != params.r_I:
        threshold_T = params.T_max * (cons.delta - params.r_I) / (cons.A - params.r_I)

    candidates: list[EquilibriumPoint] = []
    rejected: list[float] = []
    if a == 0.0:
        roots = [] if b == 0.0 else [-d / b]
    else:
        x1, x2 = _quadratic_roots(a, b, d)
        roots = [] if isinstance(x1, complex) else [0.0, 0.0] if x1 == x2 == 0.0 else sorted({x1, x2})
    bracket_hi = params.T_max * (1.0 + 1e-12)
    for root in roots:
        if not 0.0 < root <= bracket_hi:
            rejected.append(root)
            continue
        T = min(root, params.T_max)
        for _ in range(3):
            slope = 2.0 * a * T + b
            if slope == 0.0:
                break
            T -= (a * T * T + b * T + d) / slope
        if not 0.0 < T <= bracket_hi:
            rejected.append(root)
            continue
        I, V = _infected_from_T(params, cons, T)
        if I <= 0.0 or V <= 0.0:
            rejected.append(T)
            continue
        if not (math.isfinite(I) and math.isfinite(V)):
            raise DomainError(f"infected equilibrium is not finite: I* = {I!r}, V* = {V!r}")
        state = State(T, I, V)
        res = residual_norm(params, state)
        if res > DEFAULT_TOLERANCES.equilibrium_residual:
            rejected.append(T)
            continue
        candidates.append(EquilibriumPoint(kind="infected", state=state, residual_norm=res))

    # Near-double roots polish to the same steady state; keep one copy.
    deduped: list[EquilibriumPoint] = []
    for cand in candidates:
        if any(
            abs(cand.state.T - kept.state.T) <= 1e-9 * max(abs(kept.state.T), 1.0)
            for kept in deduped
        ):
            continue
        deduped.append(cand)
    candidates = deduped

    if not candidates:
        regime = REGIME_NONE
    elif len(candidates) == 1:
        regime = REGIME_UNIQUE
    else:
        regime = REGIME_MULTIPLE

    closed_T = closed_diff = None
    if cons.H != 0.0:
        x1, x2 = _radical_roots(params, cons, _quadratic_roots)
        if not isinstance(x1, complex):
            closed_T, lo = (x2, x1) if x1 < x2 else (x1, x2)
        if closed_T is not None and regime == REGIME_UNIQUE:
            T_star = candidates[0].state.T
            # The radical has the same roots, so E* may be its -sqrt branch,
            # lo; ties keep the +sqrt branch.
            closed_T = lo if abs(lo - T_star) < abs(closed_T - T_star) else closed_T
            closed_diff = abs(closed_T - T_star) / max(abs(T_star), 1e-300)
            if closed_diff > DEFAULT_TOLERANCES.t_star_radical:
                raise IntegrityError(
                    f"radical T* {closed_T!r} deviates from quadratic root "
                    f"{T_star!r} by relative {closed_diff!r}"
                )

    checked = [("existence_condition", d), ("threshold_T", threshold_T), ("closed_form_T", closed_T)]
    checked += [("closed_form_rel_diff", closed_diff)] + [("rejected_T_roots", T) for T in rejected]
    for name, value in checked:
        if value is not None and not math.isfinite(value):
            raise DomainError(f"{name} is not finite: {value!r}")

    return dict(
        existence_condition=d,
        threshold_T=threshold_T,
        regime=regime,
        candidates=tuple(candidates),
        rejected_T_roots=tuple(rejected),
        closed_form_T=closed_T,
        closed_form_rel_diff=closed_diff,
    )


def existence_regime(
    params: ModelParameters, constants: DerivedConstants | None = None
) -> ExistenceReport:
    """Existence analysis annotated with every published criterion verdict.

    Each criterion is evaluated as stated by its source, without checking
    the source's own standing assumptions, and compared against the verified
    root count; contradictions are listed in disagreements rather than
    raised, because reproducing them is part of this package's contract.
    E0 is computed once and returned in e0_point; constants, when given,
    are derive_constants(params).  Raises DomainError when r0 is not
    finite, and infected_equilibrium's errors.
    """
    from .reproduction import r0_from_T0

    # derive_constants (infected_equilibrium's first step) raises first, then
    # E0 and r0, then the rest of infected_equilibrium: a non-finite r0 is
    # reported before the report's non-finite fields.
    cons = constants if constants is not None else derive_constants(params)
    e0 = uninfected_equilibrium(params)
    T0 = e0.state.T
    R0 = r0_from_T0(params, T0)
    fields = _infected_fields(params, cons)
    exists = fields["regime"] == REGIME_UNIQUE

    criteria = {
        "r0_above_one": R0 > 1.0,
        "constant_term_positive": fields["existence_condition"] > 0.0,
        "infection_pressure_exceeds_r_I": cons.A > params.r_I,
        "r0_below_r_I_over_delta": R0 < params.r_I / cons.delta if cons.delta > 0 else False,
    }

    disagreements = []
    if criteria["r0_above_one"] != exists:
        disagreements.append("r0_above_one")
    if criteria["constant_term_positive"] != exists:
        disagreements.append("constant_term_positive")

    # The sign-change threshold has a second derivation through R0; both must
    # agree when delta*R0 != r_I.
    threshold_T = fields["threshold_T"]
    if threshold_T is not None and cons.delta > 0:
        denom = params.r_I - cons.delta * R0
        if denom != 0.0:
            alt = (params.r_I - cons.delta) * T0 / denom
            scale = max(abs(threshold_T), abs(alt), 1.0)
            if abs(alt - threshold_T) > 1e-6 * scale:
                disagreements.append("threshold_T_routes")

    return ExistenceReport(
        **fields, r0=R0, criteria=criteria, disagreements=tuple(disagreements), e0_point=e0
    )
