"""Local and global stability analysis.

Local analysis runs two independent routes everywhere: specialised
equilibrium Jacobians against the general Jacobian, closed-form
characteristic coefficients against a minor-expansion oracle, and a closed
cubic solver whose root signs must match the Routh-Hurwitz verdict.  Global
analysis evaluates Lyapunov functions, both pointwise (with dual-evaluation
integrity checks) and over sampling grids of the invariant region.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .equilibria import (
    REGIME_UNIQUE,
    EquilibriumPoint,
    ExistenceReport,
    existence_regime,
    infected_equilibrium,
    uninfected_equilibrium,
)
from .errors import DomainError, IntegrityError
from .model import (
    ModelParameters,
    State,
    _field,
    _squared,
    derive_constants,
    jacobian,
    vector_field,
)
from .reproduction import _next_generation, r0_from_T0
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__all__ = [
    "LocalReport",
    "CharacteristicCoefficients",
    "RouthHurwitzReport",
    "CertificateReport",
    "StabilityReport",
    "STABLE",
    "UNSTABLE",
    "MARGINAL",
    "uninfected_local",
    "infected_jacobian",
    "characteristic_coefficients",
    "cubic_roots",
    "routh_hurwitz",
    "infected_local",
    "lyapunov_uninfected",
    "lyapunov_infected",
    "certify_global",
    "stability_report",
]

STABLE = "loc_asymp_stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"


def _as_state(point: State | EquilibriumPoint) -> State:
    return point.state if isinstance(point, EquilibriumPoint) else point


@dataclass(frozen=True)
class LocalReport:
    """Linearisation summary at one equilibrium."""

    jacobian: np.ndarray
    eigenvalues: tuple[complex, complex, complex]
    classification: str
    """One of loc_asymp_stable, unstable, marginal."""


@dataclass(frozen=True)
class CharacteristicCoefficients:
    """Coefficients of det(lambda I - J) = lambda^3 + a1 lambda^2 + a2 lambda + a3
    at the infected equilibrium, with the minor-expansion cross-check."""

    a1: float
    a2: float
    a3: float
    minor_a1: float
    minor_a2: float
    minor_a3: float
    max_rel_diff: float
    """Worst relative deviation between the closed forms and the minors."""

    @property
    def delta2(self) -> float:
        """Second Hurwitz determinant a1 a2 - a3."""
        return self.a1 * self.a2 - self.a3


@dataclass(frozen=True)
class RouthHurwitzReport:
    """Routh-Hurwitz verdict for a monic cubic."""

    a1: float
    a2: float
    a3: float
    delta2: float
    classification: str


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of a Lyapunov grid certificate.

    min_margin is the most-positive derivative value observed; the
    certificate holds iff it does not exceed the report tolerance, which is
    exactly when violations is empty.  preconditions_met records whether the
    underlying theorem's hypotheses hold for this parameter set; a clean grid
    with failed preconditions is advisory only.
    """

    target: str
    """"E0" or "Estar"."""
    grid_shape: tuple[int, int, int]
    points_sampled: int
    min_margin: float
    tolerance: float
    violations: tuple[tuple[State, float], ...]
    preconditions_met: bool
    r0: float
    notes: tuple[str, ...]


@dataclass(frozen=True)
class StabilityReport:
    """Full local-stability picture for one parameter set."""

    r0: float
    existence: ExistenceReport
    e0: LocalReport
    estar_present: bool
    estar: EquilibriumPoint | None
    coefficients: CharacteristicCoefficients | None
    routh_hurwitz: RouthHurwitzReport | None
    estar_local: LocalReport | None
    consistency_flags: tuple[str, ...]
    r0_spectral: float
    """Spectral radius of the next-generation matrix at the same T0."""

    @property
    def e0_point(self) -> EquilibriumPoint:
        """The uninfected equilibrium every route of the report used."""
        return self.existence.e0_point


def _classify(negatives: tuple[float, ...], positives: tuple[float, ...], band: float) -> str:
    """Stable iff every entry of negatives is < -band and of positives > band.

    A condition violated beyond the band is decisive: marginal is reserved
    for points where no condition clearly fails but at least one sits on its
    boundary.
    """
    margins = [-x for x in negatives] + list(positives)
    if any(m < -band for m in margins):
        return UNSTABLE
    if any(m <= band for m in margins):
        return MARGINAL
    return STABLE


def uninfected_local(
    params: ModelParameters, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> LocalReport:
    """Linearisation at the uninfected equilibrium.

    The Jacobian is built from the steady-state identities (entry (1,1) is
    -s/T0 - r_T T0/T_max) and checked entrywise against the general Jacobian.
    One eigenvalue is that diagonal entry; the others solve the quadratic of
    the infected 2x2 block, whose determinant equals c delta (1 - R0).
    """
    T0 = uninfected_equilibrium(params, tolerances).state.T
    return _uninfected_local(params, T0, tolerances)


def _uninfected_local(params: ModelParameters, T0: float, tolerances: Tolerances) -> LocalReport:
    """uninfected_local at a given infection-free level T0."""
    if T0 <= 0:
        raise DomainError("local analysis requires a positive uninfected level T0")
    b_eff = (1.0 - params.eta) * params.beta
    p_eff = (1.0 - params.epsilon) * params.p
    delta = params.d_I + params.q
    block_11 = params.r_I * (1.0 - T0 / params.T_max) - delta
    J = np.array(
        [
            [-params.s / T0 - params.r_T * T0 / params.T_max,
             -params.r_T * T0 / params.T_max + params.q,
             -b_eff * T0],
            [0.0, block_11, b_eff * T0],
            [0.0, p_eff, -params.c],
        ]
    )
    _check_jacobian_agreement(J, jacobian(params, (T0, 0.0, 0.0)), tolerances, "E0")

    lam1 = J[0, 0]
    trace2 = block_11 - params.c
    det2 = -params.c * block_11 - b_eff * T0 * p_eff
    disc = trace2 * trace2 - 4.0 * det2
    sq = cmath.sqrt(disc)
    eigs = (complex(lam1), 0.5 * (trace2 + sq), 0.5 * (trace2 - sq))
    classification = _classify(
        negatives=(lam1, trace2), positives=(det2,), band=tolerances.marginal_band
    )
    return LocalReport(jacobian=J, eigenvalues=eigs, classification=classification)


def _check_jacobian_agreement(
    closed: np.ndarray, general: np.ndarray, tolerances: Tolerances, label: str
) -> None:
    # Entries that are pure cancellation (both routes far below the matrix
    # scale) are compared against that scale instead of their own magnitude.
    scale = np.max(np.abs(general))
    denom = np.maximum(np.abs(general), 1e-6 * scale)
    rel = np.max(np.abs(closed - general) / denom)
    if rel > tolerances.jacobian_agreement:
        raise IntegrityError(
            f"specialised J({label}) deviates from the general Jacobian by "
            f"relative {float(rel)!r}"
        )


def infected_jacobian(
    params: ModelParameters,
    estar: State | EquilibriumPoint,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> np.ndarray:
    """Jacobian at the infected equilibrium via the steady-state identities.

    Uses the equilibrium relations to eliminate d_T, d_I and beta V* from the
    diagonal, then verifies the result against the general Jacobian.
    """
    st = _as_state(estar)
    if st.T <= 0 or st.I <= 0:
        raise DomainError("infected equilibrium must have positive T* and I*")
    cons = derive_constants(params)
    b_eff = (1.0 - params.eta) * params.beta
    p_eff = (1.0 - params.epsilon) * params.p
    T_max = params.T_max
    J = np.array(
        [
            [-(params.s + params.q * st.I) / st.T - params.r_T * st.T / T_max,
             params.q - params.r_T * st.T / T_max,
             -b_eff * st.T],
            [(cons.A - params.r_I) * st.I / T_max,
             -(cons.A * st.T + params.r_I * st.I) / T_max,
             b_eff * st.T],
            [0.0, p_eff, -params.c],
        ]
    )
    _check_jacobian_agreement(J, jacobian(params, st), tolerances, "Estar")
    return J


def _principal_minors(J: np.ndarray) -> tuple[float, float, float]:
    """(-trace, sum of principal 2x2 minors, -det) of a 3x3 matrix."""
    a1 = -(J[0, 0] + J[1, 1] + J[2, 2])
    a2 = (
        J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        + J[0, 0] * J[2, 2] - J[0, 2] * J[2, 0]
        + J[1, 1] * J[2, 2] - J[1, 2] * J[2, 1]
    )
    a3 = -(
        J[0, 0] * (J[1, 1] * J[2, 2] - J[1, 2] * J[2, 1])
        - J[0, 1] * (J[1, 0] * J[2, 2] - J[1, 2] * J[2, 0])
        + J[0, 2] * (J[1, 0] * J[2, 1] - J[1, 1] * J[2, 0])
    )
    return a1, a2, a3


def characteristic_coefficients(
    params: ModelParameters,
    estar: State | EquilibriumPoint,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> CharacteristicCoefficients:
    """Closed-form characteristic coefficients at the infected equilibrium.

    The closed forms are cross-checked against the principal minors of the
    general Jacobian; disagreement beyond the integrity ceiling raises
    IntegrityError rather than returning silently wrong coefficients.
    """
    st = _as_state(estar)
    if st.T <= 0 or st.I <= 0:
        raise DomainError("infected equilibrium must have positive T* and I*")
    cons = derive_constants(params)
    a1, a2, a3 = _closed_coefficients(params, cons.A, cons.delta, st.T, st.I)
    m1, m2, m3 = _principal_minors(jacobian(params, st))
    rel = max(
        abs(a1 - m1) / max(abs(m1), 1e-300),
        abs(a2 - m2) / max(abs(m2), 1e-300),
        abs(a3 - m3) / max(abs(m3), 1e-300),
    )
    if rel > tolerances.char_coeff_integrity:
        raise IntegrityError(
            f"closed-form characteristic coefficients deviate from the minor "
            f"expansion by relative {float(rel)!r}"
        )
    return CharacteristicCoefficients(
        a1=a1, a2=a2, a3=a3, minor_a1=m1, minor_a2=m2, minor_a3=m3, max_rel_diff=rel
    )


def _closed_coefficients(params, A, delta, T, I):
    """Closed-form (a1, a2, a3) at an infected equilibrium (T, I); broadcasts
    over floats and arrays."""
    s, q, c = params.s, params.q, params.c
    r_T, r_I, T_max = params.r_T, params.r_I, params.T_max
    T_max2 = _squared(T_max)
    a1 = c + s / T + (r_T * T + r_I * I + A * T) / T_max + q * I / T
    a2 = (
        c * s / T
        + (c * r_T * T + s * A + c * r_I * I) / T_max
        + q * (I / T) * (r_I - delta)
        + s * r_I * I / (T * T_max)
        + r_T * A * T * (T + I) / T_max2
        + c * q * I / T
        + q * A * I / T_max
    )
    a3 = (
        c * s * r_I * I / (T * T_max)
        + c * A * A * I * T / T_max2
        - c * A * r_I * I * T / T_max2
        + c * A * r_T * I * T / T_max2
        + q * c * (I / T) * (r_I - delta)
    )
    return a1, a2, a3


def cubic_roots(a1: float, a2: float, a3: float) -> tuple[complex, complex, complex]:
    """Roots of lambda^3 + a1 lambda^2 + a2 lambda + a3, in closed form.

    The cubic is rescaled so its coefficients are O(1) before branching,
    which keeps every intermediate finite at extreme magnitudes.  Three real
    roots go through the trigonometric branch, one real root through Cardano
    with the cancellation-free cube choice, and near-degenerate discriminants
    through Newton plus deflation.  Every root gets a final Newton polish on
    the rescaled cubic.
    """
    scale = max(abs(a1), math.sqrt(abs(a2)), abs(a3) ** (1.0 / 3.0), 1e-150)
    b1 = a1 / scale
    b2 = a2 / scale / scale
    b3 = a3 / scale / scale / scale
    p = b2 - b1 * b1 / 3.0
    q = b1 * (2.0 * b1 * b1 / 9.0 - b2) / 3.0 + b3
    shift = -b1 / 3.0
    disc = -4.0 * p * p * p - 27.0 * q * q
    band = 1e-12

    def polish_real(t: float, steps: int = 3) -> float:
        for _ in range(steps):
            df = 3.0 * t * t + p
            if df == 0.0:
                break
            t -= (t * (t * t + p) + q) / df
        return t

    if disc > band:
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = min(1.0, max(-1.0, 3.0 * q / (p * m)))
        phi = math.acos(arg) / 3.0
        ts = [polish_real(m * math.cos(phi - 2.0 * math.pi * k / 3.0)) for k in range(3)]
        return tuple(complex(scale * (t + shift), 0.0) for t in ts)

    if disc < -band:
        sq = math.sqrt(q * q / 4.0 + p * p * p / 27.0)
        if q <= 0.0:
            u = (-q / 2.0 + sq) ** (1.0 / 3.0)
        else:
            u = -((q / 2.0 + sq) ** (1.0 / 3.0))
        v = 0.0 if u == 0.0 else -p / (3.0 * u)
        t0 = polish_real(u + v)
        im = math.sqrt(max(3.0 * t0 * t0 + 4.0 * p, 0.0)) / 2.0
        return (
            complex(scale * (t0 + shift), 0.0),
            scale * complex(-t0 / 2.0 + shift, im),
            scale * complex(-t0 / 2.0 + shift, -im),
        )

    # Nearly repeated roots: Newton from the simple-root estimate, deflate.
    if p != 0.0:
        t0 = polish_real(3.0 * q / p, steps=24)
    else:
        t0 = polish_real(math.copysign(abs(q) ** (1.0 / 3.0), -q), steps=24)
    disc_q = -3.0 * t0 * t0 - 4.0 * p
    sq = cmath.sqrt(complex(disc_q, 0.0))
    return (
        complex(scale * (t0 + shift), 0.0),
        scale * ((-t0 + sq) / 2.0 + shift),
        scale * ((-t0 - sq) / 2.0 + shift),
    )


def routh_hurwitz(
    a1: float, a2: float, a3: float, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> RouthHurwitzReport:
    """Routh-Hurwitz verdict for lambda^3 + a1 lambda^2 + a2 lambda + a3.

    All roots have negative real parts iff a1 > 0, a3 > 0 and
    delta2 = a1 a2 - a3 > 0 (a2 > 0 then follows).  A condition violated
    beyond the marginal band is decisive for instability; marginal is
    reserved for points within the band of the stable region's boundary,
    where an exact root sits on the imaginary axis.
    """
    delta2 = a1 * a2 - a3
    band = tolerances.marginal_band
    margins = (
        (a1, band * max(1.0, abs(a1))),
        (a3, band * max(1.0, abs(a3))),
        (delta2, band * max(1.0, abs(a1) * abs(a2), abs(a3))),
    )
    # a2 clearly negative with the other margins near zero means the cubic
    # degenerates to lambda (lambda^2 + a2), which has a positive root.
    if any(m < -b for m, b in margins) or a2 < -band * max(1.0, abs(a2)):
        classification = UNSTABLE
    elif any(abs(m) <= b for m, b in margins):
        classification = MARGINAL
    else:
        classification = STABLE
    return RouthHurwitzReport(a1=a1, a2=a2, a3=a3, delta2=delta2, classification=classification)


def infected_local(
    params: ModelParameters,
    estar: State | EquilibriumPoint,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> LocalReport:
    """Linearisation at the infected equilibrium.

    Eigenvalues come from the closed cubic solver applied to the verified
    characteristic coefficients; the classification is the Routh-Hurwitz
    verdict on the same coefficients.
    """
    return _infected_local(params, estar, tolerances)[2]


def _infected_local(
    params: ModelParameters, estar: State | EquilibriumPoint, tolerances: Tolerances
) -> tuple[CharacteristicCoefficients, RouthHurwitzReport, LocalReport]:
    """infected_local together with the coefficients and verdict behind it."""
    coeffs = characteristic_coefficients(params, estar, tolerances)
    eigs = cubic_roots(coeffs.a1, coeffs.a2, coeffs.a3)
    verdict = routh_hurwitz(coeffs.a1, coeffs.a2, coeffs.a3, tolerances)
    local = LocalReport(
        jacobian=infected_jacobian(params, estar, tolerances),
        eigenvalues=eigs,
        classification=verdict.classification,
    )
    return coeffs, verdict, local


def lyapunov_uninfected(
    params: ModelParameters,
    state: State | tuple[float, float, float],
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[float, float]:
    """Lyapunov function for the uninfected equilibrium and its derivative.

    L = T - T0 - T0 ln(T/T0) + I + (1 - eta) beta T0 V / c.  The derivative
    is evaluated twice, as gradient-dot-field and as the collected algebraic
    form; the two must agree to the lyapunov_agreement tolerance.  Returns
    (L, dL/dt) with the gradient route as the reported value.
    """
    T, I, V = (float(x) for x in state)
    if T <= 0 or I <= 0 or V <= 0:
        raise DomainError(f"Lyapunov evaluation needs a strictly positive state, got ({T!r}, {I!r}, {V!r})")
    T0 = uninfected_equilibrium(params, tolerances).state.T
    if T0 <= 0:
        raise DomainError("Lyapunov function is undefined for T0 = 0")
    b_eff = (1.0 - params.eta) * params.beta
    w = b_eff * T0 / params.c
    L = T - T0 - T0 * math.log(T / T0) + I + w * V

    f0, f1, f2 = vector_field(params, (T, I, V))
    g_T = 1.0 - T0 / T
    grad_route = g_T * f0 + f1 + w * f2

    # delta (R0 - 1 + q/delta) expands to delta R0 - d_I, which stays defined
    # at delta = 0.
    one_minus_theta = (1.0 - params.eta) * (1.0 - params.epsilon)
    delta_r0 = (
        params.r_I * (1.0 - T0 / params.T_max)
        + one_minus_theta * params.beta * params.p * T0 / params.c
    )
    if params.r_T <= 0:
        return L, grad_route
    collected = (
        -(params.s / (T * T0)) * (T - T0) ** 2
        - (params.r_T / params.T_max) * (T + I - T0) * (T + (params.r_I / params.r_T) * I - T0)
        - params.q * I * T0 / T
        + I * (delta_r0 - params.d_I)
    )
    term_scale = abs(g_T * f0) + abs(f1) + abs(w * f2)
    diff = abs(grad_route - collected)
    if diff > tolerances.lyapunov_agreement * max(abs(grad_route), abs(collected)) and diff > 64.0 * np.finfo(float).eps * term_scale:
        raise IntegrityError(
            f"Lyapunov derivative routes disagree: gradient {grad_route!r} vs "
            f"collected {collected!r}"
        )
    return L, grad_route


def lyapunov_infected(
    params: ModelParameters,
    state: State | tuple[float, float, float],
    estar: State | EquilibriumPoint,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[float, float]:
    """Volterra-type Lyapunov function for the infected equilibrium.

    L = T - T* - T* ln(T/T*) + I - I* - I* ln(I/I*) + w (V - V* - V* ln(V/V*))
    with weight w = (1 - eta) beta T* V* / ((1 - epsilon) p I*).  Only the
    gradient-dot-field derivative is evaluated; there is no trustworthy
    independent collected form for this function.
    """
    T, I, V = (float(x) for x in state)
    if T <= 0 or I <= 0 or V <= 0:
        raise DomainError(f"Lyapunov evaluation needs a strictly positive state, got ({T!r}, {I!r}, {V!r})")
    st = _as_state(estar)
    if st.I <= 0 or st.T <= 0 or st.V <= 0:
        raise DomainError("infected-equilibrium Lyapunov function needs positive (T*, I*, V*)")
    p_eff = (1.0 - params.epsilon) * params.p
    if p_eff <= 0:
        raise DomainError("Lyapunov weight is undefined without virion production")
    b_eff = (1.0 - params.eta) * params.beta
    w = b_eff * st.T * st.V / (p_eff * st.I)
    L = (
        T - st.T - st.T * math.log(T / st.T)
        + I - st.I - st.I * math.log(I / st.I)
        + w * (V - st.V - st.V * math.log(V / st.V))
    )
    f0, f1, f2 = vector_field(params, (T, I, V))
    dLdt = (1.0 - st.T / T) * f0 + (1.0 - st.I / I) * f1 + w * (1.0 - st.V / V) * f2
    return L, dLdt


def _grid_axis(bound: float, n: int) -> np.ndarray:
    return np.logspace(math.log10(1e-6 * bound), math.log10(bound), n)


def certify_global(
    params: ModelParameters,
    target: str = "E0",
    grid_points: int = 20,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> CertificateReport:
    """Sample a Lyapunov derivative over the invariant region.

    The grid is log-uniform over [1e-6 b, b] in each coordinate (b = T-tilde0
    for T and I, the matching virion ceiling for V), restricted to
    T + I <= T-tilde0.  A grid of a single point per axis evaluates exactly at
    the target equilibrium, where the derivative vanishes identically.

    The report records whether the relevant theorem hypotheses hold
    (R0 < 1 - q/delta for E0; the theorem slice r_I = r_T, s = d_T T_max,
    delta = d_T plus R0 > 1 for Estar).  Sampling runs either way: a clean
    grid under failed preconditions is an advisory result, and violations
    under met preconditions would contradict the theorem.
    """
    if grid_points < 1:
        raise DomainError(f"grid_points must be at least 1, got {grid_points!r}")
    if target not in ("E0", "Estar"):
        raise DomainError(f"target must be 'E0' or 'Estar', got {target!r}")
    cons = derive_constants(params)
    if not math.isfinite(cons.t_tilde0) or cons.t_tilde0 <= 0:
        raise DomainError("certificate region is degenerate for this parameter set")
    bound_TI = cons.t_tilde0
    bound_V = (1.0 - params.epsilon) * params.p * cons.t_tilde0 / params.c
    e0 = uninfected_equilibrium(params, tolerances).state
    R0 = r0_from_T0(params, e0.T)

    notes: list[str] = []
    if target == "E0":
        anchor = e0
        if cons.delta > 0:
            gap = (1.0 - params.q / cons.delta) - R0
            preconditions_met = gap > 0
            notes.append(f"hypothesis R0 < 1 - q/delta: gap {gap!r}")
        else:
            preconditions_met = False
            notes.append("hypothesis undefined: delta = 0")
    else:
        report = infected_equilibrium(params, tolerances)
        if report.regime != REGIME_UNIQUE:
            raise DomainError(
                f"Estar certificate needs a unique infected equilibrium, regime is {report.regime}"
            )
        anchor = report.candidates[0].state
        rel = lambda x, y: abs(x - y) <= 1e-9 * max(abs(x), abs(y), 1e-300)
        on_slice = (
            rel(params.r_I, params.r_T)
            and rel(params.s, params.d_T * params.T_max)
            and rel(cons.delta, params.d_T)
        )
        preconditions_met = on_slice and R0 > 1
        notes.append(
            f"theorem slice (r_I = r_T, s = d_T T_max, delta = d_T): {on_slice}; R0 = {R0!r}"
        )

    if grid_points == 1:
        T = np.array([anchor.T])
        I = np.array([anchor.I])
        V = np.array([anchor.V])
    else:
        axis_T = _grid_axis(bound_TI, grid_points)
        axis_I = _grid_axis(bound_TI, grid_points)
        axis_V = _grid_axis(bound_V, grid_points)
        T, I, V = (g.ravel() for g in np.meshgrid(axis_T, axis_I, axis_V, indexing="ij"))
        keep = T + I <= bound_TI * (1.0 + 1e-12)
        T, I, V = T[keep], I[keep], V[keep]

    f0, f1, f2 = _field(params, T, I, V)
    b_eff = (1.0 - params.eta) * params.beta
    g_T = 1.0 - anchor.T / T
    if target == "E0":
        g_I = np.ones_like(T)
        g_V = np.full_like(T, b_eff * anchor.T / params.c)
    else:
        g_I = 1.0 - anchor.I / I
        w = b_eff * anchor.T * anchor.V / ((1.0 - params.epsilon) * params.p * anchor.I)
        g_V = w * (1.0 - anchor.V / V)
    dLdt = g_T * f0 + g_I * f1 + g_V * f2

    term_scale = np.abs(g_T * f0) + np.abs(g_I * f1) + np.abs(g_V * f2)
    tolerance = tolerances.certificate_margin * max(1.0, float(np.max(term_scale, initial=0.0)))
    min_margin = float(np.max(dLdt, initial=-math.inf))
    bad = np.flatnonzero(dLdt > tolerance)
    violations = tuple(
        (State(float(T[k]), float(I[k]), float(V[k])), float(dLdt[k])) for k in bad
    )
    return CertificateReport(
        target=target,
        grid_shape=(grid_points, grid_points, grid_points),
        points_sampled=int(T.size),
        min_margin=min_margin,
        tolerance=tolerance,
        violations=violations,
        preconditions_met=preconditions_met,
        r0=R0,
        notes=tuple(notes),
    )


def stability_report(
    params: ModelParameters, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> StabilityReport:
    """Assemble the full local-stability picture for one parameter set.

    One pass: existence_regime computes E0 once, and its T0 feeds the local
    analysis at E0 and the spectral r0.
    """
    existence = existence_regime(params, tolerances)
    T0 = existence.e0_point.state.T
    e0 = _uninfected_local(params, T0, tolerances)
    flags = list(existence.disagreements)

    estar = coeffs = verdict = estar_local_report = None
    if existence.regime == REGIME_UNIQUE:
        estar = existence.candidates[0]
        coeffs, verdict, estar_local_report = _infected_local(params, estar, tolerances)
        max_re = max(z.real for z in estar_local_report.eigenvalues)
        if abs(max_re) > tolerances.marginal_band and verdict.classification != MARGINAL:
            eig_class = STABLE if max_re < 0 else UNSTABLE
            if eig_class != verdict.classification:
                flags.append("routh_hurwitz_vs_eigenvalues")

    return StabilityReport(
        r0=existence.r0,
        existence=existence,
        e0=e0,
        estar_present=estar is not None,
        estar=estar,
        coefficients=coeffs,
        routh_hurwitz=verdict,
        estar_local=estar_local_report,
        consistency_flags=tuple(flags),
        r0_spectral=_next_generation(params, T0, tolerances).rho,
    )
