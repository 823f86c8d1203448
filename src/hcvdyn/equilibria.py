"""Steady states: the uninfected equilibrium and the infected-equilibrium
existence analysis.

The uninfected equilibrium E0 = (T0, 0, 0) solves a scalar quadratic.  The
infected equilibrium solves a quadratic in T whose coefficients come from
eliminating I and V; every surviving root is positivity-filtered, polished,
and residual-checked before being reported.  An independent radical closed
form of T* cross-checks the quadratic route whenever it is defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import DomainError, IntegrityError
from .model import (
    DerivedConstants,
    ModelParameters,
    State,
    derive_constants,
    positive_logistic_root,
    residual_norm,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

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


def uninfected_equilibrium(
    params: ModelParameters, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> EquilibriumPoint:
    """Infection-free steady state (T0, 0, 0).

    T0 is the positive root of s + (r_T - d_T) T - (r_T/T_max) T^2 when
    r_T > 0, and s/d_T in the degenerate non-proliferating case r_T = 0.
    Raises DomainError when no steady state exists (r_T = 0 with d_T = 0 and
    s > 0: unbounded linear growth).
    """
    if params.r_T > 0:
        T0 = positive_logistic_root(params.s, params.r_T - params.d_T, params.r_T / params.T_max)
    elif params.d_T > 0:
        T0 = params.s / params.d_T
    elif params.s == 0:
        T0 = 0.0
    else:
        raise DomainError("no uninfected steady state: r_T = 0, d_T = 0 and s > 0")
    point = EquilibriumPoint(kind="uninfected", state=State(T0, 0.0, 0.0),
                             residual_norm=residual_norm(params, (T0, 0.0, 0.0)))
    if point.residual_norm > tolerances.uninfected_residual:
        raise IntegrityError(
            f"uninfected equilibrium residual {point.residual_norm!r} exceeds "
            f"{tolerances.uninfected_residual!r}"
        )
    return point


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


def _quadratic_real_roots(a: float, b: float, d: float) -> list[float]:
    """Real roots of a x^2 + b x + d, via the cancellation-free pairing.

    Degenerates to the linear root when a = 0.  An empty list means no real
    root exists.
    """
    if a == 0.0:
        return [] if b == 0.0 else [-d / b]
    disc = b * b - 4.0 * a * d
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    u = -0.5 * (b + math.copysign(sq, b)) if b != 0.0 else 0.5 * sq
    if u == 0.0:
        return [0.0, 0.0]
    return sorted({u / a, d / u})


def _infected_from_T(params: ModelParameters, cons: DerivedConstants, T: float) -> tuple[float, float]:
    """I* and V* implied by a candidate T* through the elimination relations."""
    I = (cons.A / params.r_I - 1.0) * T + params.T_max * (1.0 - cons.delta / params.r_I)
    V = (1.0 - params.epsilon) * params.p * I / params.c
    return I, V


def infected_T_closed_form(
    params: ModelParameters, constants: DerivedConstants | None = None
) -> float:
    """Radical closed form of T*, independent of the quadratic solver.

    T* = (1/2) (-D/H + sqrt((D/H)^2 + F + 4 s T_max / (r_T H))).
    Raises DomainError when H = 0 (the quadratic degenerates) or when the
    radicand is negative.
    """
    cons = constants if constants is not None else derive_constants(params)
    if cons.H == 0.0 or cons.F is None:
        raise DomainError("closed-form T* is undefined when H = 0")
    ratio, radicand = _radical(params, cons)
    if radicand < 0.0:
        raise DomainError(f"closed-form T* has negative radicand {radicand!r}")
    return 0.5 * (-ratio + math.sqrt(radicand))


def _radical(params, cons):
    """(D/H, radicand) of the radical closed form; broadcasts over arrays."""
    ratio = cons.D / cons.H
    return ratio, ratio * ratio + cons.F + 4.0 * params.s * params.T_max / (params.r_T * cons.H)


def infected_equilibrium(
    params: ModelParameters, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> ExistenceReport:
    """Locate and verify infected steady states.

    Roots of the elimination quadratic are kept only inside (0, T_max],
    polished by Newton steps on the quadratic, completed to (T*, I*, V*)
    through the exact elimination relations, and accepted only with positive
    I*, V* and a vector-field residual within tolerance.  Finding no
    candidate is a result (regime no_infected_eq), not an error.
    """
    cons = derive_constants(params)
    a, b, d = equilibrium_quadratic(params, cons)
    threshold_T = None
    if cons.A != params.r_I:
        threshold_T = params.T_max * (cons.delta - params.r_I) / (cons.A - params.r_I)

    candidates: list[EquilibriumPoint] = []
    rejected: list[float] = []
    bracket_hi = params.T_max * (1.0 + 1e-12)
    for root in _quadratic_real_roots(a, b, d):
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
        state = State(T, I, V)
        res = residual_norm(params, state)
        if res > tolerances.equilibrium_residual:
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

    closed_T = None
    closed_diff = None
    if cons.H != 0.0:
        try:
            closed_T = infected_T_closed_form(params, cons)
        except DomainError:
            closed_T = None
        if closed_T is not None and regime == REGIME_UNIQUE:
            T_star = candidates[0].state.T
            # The radical solves the same quadratic, so E* may be its -sqrt
            # branch, -D/H - closed_T; ties keep the +sqrt branch.
            closed_T = min(closed_T, -cons.D / cons.H - closed_T, key=lambda x: abs(x - T_star))
            closed_diff = abs(closed_T - T_star) / max(abs(T_star), 1e-300)
            if closed_diff > tolerances.t_star_radical:
                raise IntegrityError(
                    f"radical T* {closed_T!r} deviates from quadratic root "
                    f"{T_star!r} by relative {closed_diff!r}"
                )

    return ExistenceReport(
        existence_condition=d,
        threshold_T=threshold_T,
        regime=regime,
        candidates=tuple(candidates),
        rejected_T_roots=tuple(rejected),
        closed_form_T=closed_T,
        closed_form_rel_diff=closed_diff,
    )


def existence_regime(
    params: ModelParameters, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> ExistenceReport:
    """Existence analysis annotated with every published criterion verdict.

    Each criterion is evaluated as stated by its source, without checking
    the source's own standing assumptions, and compared against the verified
    root count; contradictions are listed in disagreements rather than
    raised, because reproducing them is part of this package's contract.
    E0 is computed once, with the caller's tolerances, and returned in
    e0_point.
    """
    from .reproduction import r0_from_T0

    report = infected_equilibrium(params, tolerances)
    e0 = uninfected_equilibrium(params, tolerances)
    T0 = e0.state.T
    cons = derive_constants(params)
    R0 = r0_from_T0(params, T0)
    exists = report.regime == REGIME_UNIQUE

    criteria = {
        "r0_above_one": R0 > 1.0,
        "constant_term_positive": report.existence_condition > 0.0,
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
    if report.threshold_T is not None and cons.delta > 0:
        denom = params.r_I - cons.delta * R0
        if denom != 0.0:
            alt = (params.r_I - cons.delta) * T0 / denom
            scale = max(abs(report.threshold_T), abs(alt), 1.0)
            if abs(alt - report.threshold_T) > 1e-6 * scale:
                disagreements.append("threshold_T_routes")

    return replace(
        report, r0=R0, criteria=criteria, disagreements=tuple(disagreements), e0_point=e0
    )
