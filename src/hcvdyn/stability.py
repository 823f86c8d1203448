"""Local and global stability analysis.

Local analysis runs two independent routes everywhere: specialised
equilibrium Jacobians against the general Jacobian, closed-form
characteristic coefficients against a minor-expansion oracle, and the
characteristic cubic's roots (one real root by Newton's method, the other
two from the shared quadratic solver), whose signs must match the
Routh-Hurwitz verdict.  Global analysis evaluates Lyapunov functions, both
pointwise (with dual-evaluation integrity checks) and over sampling grids
of the invariant region.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat

import numpy as np

from . import _rowbounds
from .equilibria import (
    REGIME_UNIQUE,
    EquilibriumPoint,
    ExistenceReport,
    existence_regime,
    infected_equilibrium,
    uninfected_equilibrium,
)
from .errors import DomainError, IntegrityError, _refuse
from .model import (
    ModelParameters,
    State,
    _field,
    _jacobian_entries,
    _ldexp,
    _quadratic_roots,
    _region,
    derive_constants,
)
from .reproduction import _next_generation, r0_from_T0
from .tolerances import DEFAULT_TOLERANCES

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
    violations: tuple[tuple[float, float, float, float], ...]
    """(T, I, V, dL/dt) rows of the points above tolerance, in row-major grid order."""
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


def _classify(*margins: tuple[float, float]) -> str:
    """Stable iff every margin m of the (m, band) pairs exceeds its band.

    A margin below -band is decisive: marginal is reserved for points where
    no margin clearly fails but at least one sits within its band.
    """
    if any(m < -band for m, band in margins):
        return UNSTABLE
    if any(m <= band for m, band in margins):
        return MARGINAL
    return STABLE


def uninfected_local(params: ModelParameters) -> LocalReport:
    """Linearisation at the uninfected equilibrium.

    The Jacobian is built from the steady-state identities (entry (1,1) is
    -s/T0 - r_T T0/T_max) and checked entrywise against the general Jacobian.
    One eigenvalue is that diagonal entry; the others solve the quadratic of
    the infected 2x2 block (the +sqrt root first), whose determinant equals
    c delta (1 - R0).  An eigenvalue beyond the float range is a DomainError.
    """
    T0 = uninfected_equilibrium(params).state.T
    return _uninfected_local(params, T0)


def _uninfected_local(params: ModelParameters, T0: float) -> LocalReport:
    """uninfected_local at a given infection-free level T0."""
    if T0 <= 0:
        raise DomainError("local analysis requires a positive uninfected level T0")
    b_eff = (1.0 - params.eta) * params.beta
    p_eff = (1.0 - params.epsilon) * params.p
    delta = params.d_I + params.q
    block_11 = params.r_I * (1.0 - T0 / params.T_max) - delta
    J = (
        (-params.s / T0 - params.r_T * T0 / params.T_max,
         -params.r_T * T0 / params.T_max + params.q,
         -b_eff * T0),
        (0.0, block_11, b_eff * T0),
        (0.0, p_eff, -params.c),
    )
    _check_jacobian_agreement(J, _jacobian_entries(params, T0, 0.0, 0.0), "E0")

    lam1 = J[0][0]
    trace2 = block_11 - params.c
    det2 = -params.c * block_11 - b_eff * T0 * p_eff
    # Where a product in det2 overflows, take the block at 2^-m (exact unless
    # an entry underflows) and scale its eigenvalues and det2 back.
    entries = (block_11, b_eff * T0, p_eff, params.c)
    m = 0 if math.isfinite(det2) else max(math.frexp(x)[1] for x in entries)
    b11, bT, pe, c = (math.ldexp(x, -m) for x in entries)
    roots = _quadratic_roots(1.0, c - b11, -c * b11 - bT * pe)
    det2 = _ldexp(-c * b11 - bT * pe, 2 * m)
    if isinstance(roots[0], float) and math.copysign(1.0, trace2) < 0.0:
        roots = roots[::-1]  # the +sqrt root first
    eigs = (complex(lam1), *(complex(_ldexp(z.real, m), _ldexp(z.imag, m)) for z in roots))
    if not all(cmath.isfinite(z) for z in eigs):
        raise DomainError(f"E0 eigenvalues are not finite: {eigs!r}")
    band = DEFAULT_TOLERANCES.marginal_band
    classification = _classify((-lam1, band), (-trace2, band), (det2, band))
    return LocalReport(jacobian=np.array(J), eigenvalues=eigs, classification=classification)


def _nanmax(values: list[float]) -> float:
    """max of floats, NaN where any value is NaN, as np.max gives."""
    return math.nan if any(x != x for x in values) else max(values)


def _check_jacobian_agreement(closed, general, label: str) -> None:
    # Rows of floats.  Entries that are pure cancellation (both routes far
    # below the matrix scale) are compared against that scale instead of
    # their own magnitude.  x/0 reads inf; 0/0 and a non-finite entry give
    # a NaN, which passes here and which the caller's finiteness checks report.
    pairs = [(abs(a - g), abs(g)) for row_a, row_g in zip(closed, general) for a, g in zip(row_a, row_g)]
    floor = 1e-6 * _nanmax([g for _, g in pairs])
    rel = _nanmax([d / max(g, floor) if max(g, floor) else d * math.inf for d, g in pairs])
    if rel > DEFAULT_TOLERANCES.jacobian_agreement:
        raise IntegrityError(
            f"specialised J({label}) deviates from the general Jacobian by relative {rel!r}"
        )


def _infected_state(estar: State | EquilibriumPoint) -> State:
    """The state of E*; raises DomainError unless T* and I* are positive."""
    st = _as_state(estar)
    if st.T <= 0 or st.I <= 0:
        raise DomainError("infected equilibrium must have positive T* and I*")
    return st


def infected_jacobian(params: ModelParameters, estar: State | EquilibriumPoint) -> np.ndarray:
    """Jacobian at the infected equilibrium via the steady-state identities.

    Uses the equilibrium relations to eliminate d_T, d_I and beta V* from the
    diagonal, then verifies the result against the general Jacobian with
    the field's residual at E* added back (_residual_jacobian_entries).
    """
    st = _infected_state(estar)
    return np.array(_infected_rows(params, derive_constants(params).A, st, _residual_jacobian_entries(params, *st)))


def _infected_rows(params, A, st, general):
    """Rows of J(E*) at st from the steady-state identities, checked against general."""
    b_eff = (1.0 - params.eta) * params.beta
    T_max = params.T_max
    J = (
        (-(params.s + params.q * st.I) / st.T - params.r_T * st.T / T_max,
         params.q - params.r_T * st.T / T_max,
         -b_eff * st.T),
        ((A - params.r_I) * st.I / T_max,
         -(A * st.T + params.r_I * st.I) / T_max,
         b_eff * st.T),
        (0.0, (1.0 - params.epsilon) * params.p, -params.c),
    )
    _check_jacobian_agreement(J, general, "Estar")
    return J


def _residual_jacobian_entries(params, T, I, V):
    """Rows of the general Jacobian at (T, I, V) plus the terms by which the
    steady-state identities of the closed forms miss it; broadcasts.

    The closed forms at E* equal the general Jacobian exactly, at any state,
    once the field f there is added back: entry (0, 0) gains -f_T/T, (1, 0)
    g = b f_V/c and (1, 1) -(f_I + T g)/I, with b = (1 - eta) beta.  E* is
    accepted with a residual up to equilibrium_residual, so without these
    terms the routes differ by more than rounding.
    """
    f_T, f_I, f_V = _field(params, T, I, V)
    g = (1.0 - params.eta) * params.beta * f_V / params.c
    (j00, j01, j02), (j10, j11, j12), row2 = _jacobian_entries(params, T, I, V)
    return (j00 - f_T / T, j01, j02), (j10 + g, j11 - (f_I + T * g) / I, j12), row2


def _principal_minors(J) -> tuple[float, float, float]:
    """(-trace, sum of principal 2x2 minors, -det) of a 3x3 matrix given by
    its rows; the entries may be floats or arrays."""
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = J
    a1 = -(j00 + j11 + j22)
    a2 = j00 * j11 - j01 * j10 + j00 * j22 - j02 * j20 + j11 * j22 - j12 * j21
    a3 = -(j00 * (j11 * j22 - j12 * j21) - j01 * (j10 * j22 - j12 * j20) + j02 * (j10 * j21 - j11 * j20))
    return a1, a2, a3


# characteristic_coefficients' refusals: before the closed forms divide by
# T_max**2 and T* T_max, and of their worst deviation from the minors.
_RANGE_REFUSALS = ((DomainError, "characteristic coefficients need T_max**2 and T* T_max within the float range",
                    lambda params, T: ((0.0 < params.T_max * params.T_max) & (params.T_max * params.T_max < math.inf)
                                       & (T * params.T_max > 0.0)) == False),)  # noqa: E712
_COEFFICIENT_REFUSALS = ((IntegrityError, "closed-form characteristic coefficients deviate from the minor expansion "
                          "by relative {rel!r}",
                          lambda rel: (rel <= DEFAULT_TOLERANCES.char_coeff_integrity) == False),)  # noqa: E712


def characteristic_coefficients(
    params: ModelParameters, estar: State | EquilibriumPoint
) -> CharacteristicCoefficients:
    """Closed-form characteristic coefficients at the infected equilibrium.

    The closed forms are cross-checked against the principal minors of the
    general Jacobian with the field's residual at E* added back
    (_residual_jacobian_entries); disagreement beyond the integrity ceiling
    raises IntegrityError rather than returning silently wrong coefficients.
    """
    st = _infected_state(estar)
    return _coefficients(params, derive_constants(params), st, _residual_jacobian_entries(params, *st))


def _coefficients(params, cons, st, general) -> CharacteristicCoefficients:
    """characteristic_coefficients at st, checked against the minors of the rows general."""
    _refuse(_RANGE_REFUSALS, params, st.T)
    a1, a2, a3 = _closed_coefficients(params, cons.A, cons.delta, st.T, st.I)
    m1, m2, m3 = _principal_minors(general)
    # An overflowing minor gives a NaN difference; _nanmax keeps it and it fails.
    rel = _nanmax([abs(a - m) / max(abs(m), 1e-300) for a, m in ((a1, m1), (a2, m2), (a3, m3))])
    _refuse(_COEFFICIENT_REFUSALS, rel)
    return CharacteristicCoefficients(
        a1=a1, a2=a2, a3=a3, minor_a1=m1, minor_a2=m2, minor_a3=m3, max_rel_diff=rel
    )


def _closed_coefficients(params, A, delta, T, I):
    """Closed-form (a1, a2, a3) at an infected equilibrium (T, I); broadcasts
    over floats and arrays."""
    s, q, c = params.s, params.q, params.c
    r_T, r_I, T_max = params.r_T, params.r_I, params.T_max
    T_max2 = T_max * T_max
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
    """Roots of lambda^3 + a1 lambda^2 + a2 lambda + a3 (Kahan 1986).

    The coefficients are scaled by 2^-e, 2^-2e and 2^-3e, e the exponent
    of max(|a1|, sqrt|a2|, |a3|^(1/3)): exact unless a value underflows.
    One real root comes from Newton's method, started from the inflection
    point one step beyond the root so that the steps move one way until
    they stop; the other two solve the deflated quadratic with
    model._quadratic_roots.  Where the scaled a3 underflows to 0, the
    roots of least magnitude come from the unscaled a2 and a3 instead.
    Three real roots come in descending order;
    otherwise the real root comes first, then the pair with +imag first.
    """
    m = max(abs(a1), math.sqrt(abs(a2)), abs(a3) ** (1.0 / 3.0))
    e = math.frexp(m)[1] if 0.0 < m < math.inf else 0
    b1, b2, b3 = math.ldexp(a1, -e), math.ldexp(a2, -2 * e), math.ldexp(a3, -3 * e)
    if b3 == 0.0:
        x, c1, c0 = 0.0, b1, b2
    else:
        x = -b1 / 3.0
        c1 = x + b1
        c0 = c1 * x + b2
        f, df = c0 * x + b3, (x + c1) * x + c0
        s = math.copysign(1.0, f)
        r = abs(f) ** (1.0 / 3.0)
        if df < 0.0:
            r = 1.324718 * max(r, math.sqrt(-df))
        step = x - s * r
        while True:
            x = step
            c1 = x + b1
            c0 = c1 * x + b2
            f, df = c0 * x + b3, (x + c1) * x + c0
            if df == 0.0:
                break
            step = x - f / df / 1.000000000000001
            if not s * step > s * x:
                break
        if x * x * abs(x) > abs(b3):
            c0 = -b3 / x
            c1 = (c0 - b2) / x
    pair = _quadratic_roots(1.0, c1, c0)
    if b3 == 0.0 and a3 != 0.0:
        # The scaled a3 underflowed, and the root 0 stands in for the roots
        # it lost.  Deflate the unscaled cubic by the real root x of greatest
        # magnitude: the other two solve -x z^2 + (a2 + a3/x) z + a3, whose
        # coefficients stay in range where the monic quadratic's a3/x need
        # not; its sign is taken so that a complex pair comes +imag first.
        # Where the pair is complex, the lost root is -a3/a2.
        if isinstance(pair[0], float):
            x = _ldexp(max(pair, key=abs), e)
            sign = math.copysign(1.0, -x)
            pair = _quadratic_roots(abs(x), sign * (a2 + a3 / x), sign * a3)
        else:
            x = -a3 / a2
            pair = tuple(complex(_ldexp(z.real, e), _ldexp(z.imag, e)) for z in pair)
        e = 0
    roots = (x, *pair)
    if isinstance(pair[0], float):
        roots = sorted(roots, reverse=True)
    return tuple(complex(_ldexp(z.real, e), _ldexp(z.imag, e)) for z in roots)


def routh_hurwitz(a1: float, a2: float, a3: float) -> RouthHurwitzReport:
    """Routh-Hurwitz verdict for lambda^3 + a1 lambda^2 + a2 lambda + a3.

    All roots have negative real parts iff a1 > 0, a3 > 0 and
    delta2 = a1 a2 - a3 > 0 (a2 > 0 then follows).  A condition violated
    beyond the marginal band is decisive for instability; marginal is
    reserved for points within the band of the stable region's boundary,
    where an exact root sits on the imaginary axis.  A coefficient that is
    not finite raises DomainError: no comparison would classify it.
    """
    if not (math.isfinite(a1) and math.isfinite(a2) and math.isfinite(a3)):
        raise DomainError(f"Routh-Hurwitz needs finite coefficients, got ({a1!r}, {a2!r}, {a3!r})")
    delta2 = a1 * a2 - a3
    band = DEFAULT_TOLERANCES.marginal_band
    # a2 clearly negative with the other margins near zero means the cubic
    # degenerates to lambda (lambda^2 + a2), which has a positive root.
    if a2 < -band * max(1.0, abs(a2)):
        classification = UNSTABLE
    else:
        classification = _classify(
            (a1, band * max(1.0, abs(a1))),
            (a3, band * max(1.0, abs(a3))),
            (delta2, band * max(1.0, abs(a1) * abs(a2), abs(a3))),
        )
    return RouthHurwitzReport(a1=a1, a2=a2, a3=a3, delta2=delta2, classification=classification)


def infected_local(params: ModelParameters, estar: State | EquilibriumPoint) -> LocalReport:
    """Linearisation at the infected equilibrium.

    Eigenvalues are the roots cubic_roots finds for the verified
    characteristic coefficients; the classification is the Routh-Hurwitz
    verdict on the same coefficients.
    """
    st = _infected_state(estar)
    return _infected_local(params, derive_constants(params), st)[2]


def _infected_local(params: ModelParameters, cons, st: State):
    """(coefficients, verdict, infected_local) at a positive E* state st; the
    coefficients and J(E*) are checked against one set of
    _residual_jacobian_entries rows."""
    general = _residual_jacobian_entries(params, *st)
    coeffs = _coefficients(params, cons, st, general)
    eigs = cubic_roots(coeffs.a1, coeffs.a2, coeffs.a3)
    verdict = routh_hurwitz(coeffs.a1, coeffs.a2, coeffs.a3)
    J = np.array(_infected_rows(params, cons.A, st, general))
    return coeffs, verdict, LocalReport(jacobian=J, eigenvalues=eigs, classification=verdict.classification)


def _lyapunov_weight(params: ModelParameters, target: str, anchor: State) -> float:
    """V-weight of the target's Lyapunov function at its anchor equilibrium."""
    b_eff = (1.0 - params.eta) * params.beta
    if target == "E0":
        return b_eff * anchor.T / params.c
    production = (1.0 - params.epsilon) * params.p * anchor.I
    if production == 0.0:
        raise DomainError("Lyapunov weight is undefined without virion production")
    return b_eff * anchor.T * anchor.V / production


def _lyapunov_rate(params: ModelParameters, target: str, anchor: State, T, I, V):
    """(dL/dt as gradient-dot-field, sum of its three terms' magnitudes) of
    the target's Lyapunov function; broadcasts over floats and arrays.  The
    gradient is multiplied in place into the fresh arrays _field returns,
    and on arrays so are the magnitudes, summed left to right into the
    first term's array.  Float arguments give plain floats."""
    w = _lyapunov_weight(params, target, anchor)
    t0, t1, t2 = _field(params, T, I, V)
    t0 *= 1.0 - anchor.T / T
    if target == "E0":
        t2 *= w
    else:
        t1 *= 1.0 - anchor.I / I
        t2 *= w * (1.0 - anchor.V / V)
    rate = t0 + t1
    rate += t2
    if not isinstance(t0, np.ndarray):
        return rate, abs(t0) + abs(t1) + abs(t2)
    scale = np.absolute(t0, out=t0)
    scale += np.absolute(t1, out=t1)
    scale += np.absolute(t2, out=t2)
    return rate, scale


def _positive_state(state) -> tuple[float, float, float]:
    """(T, I, V) of a state as floats; raises DomainError unless each is positive."""
    T, I, V = (float(x) for x in state)
    if T <= 0 or I <= 0 or V <= 0:
        raise DomainError(f"Lyapunov evaluation needs a strictly positive state, got ({T!r}, {I!r}, {V!r})")
    return T, I, V


def lyapunov_uninfected(
    params: ModelParameters, state: State | tuple[float, float, float]
) -> tuple[float, float]:
    """Lyapunov function for the uninfected equilibrium and its derivative.

    L = T - T0 - T0 ln(T/T0) + I + (1 - eta) beta T0 V / c.  The derivative
    is evaluated twice, as gradient-dot-field and as the collected algebraic
    form; the two must agree to the lyapunov_agreement tolerance.  Returns
    (L, dL/dt) with the gradient route as the reported value.  A value
    beyond the float range, or a state so small that T/T0 or T*T0
    underflows to 0, raises DomainError.
    """
    T, I, V = _positive_state(state)
    e0 = uninfected_equilibrium(params).state
    T0 = e0.T
    if T0 <= 0:
        raise DomainError("Lyapunov function is undefined for T0 = 0")
    # ln(T/T0) and the collected route's s/(T T0) need both to stay nonzero.
    if T / T0 == 0.0 or T * T0 == 0.0:
        raise DomainError(f"Lyapunov function underflows at ({T!r}, {I!r}, {V!r})")
    L = T - T0 - T0 * math.log(T / T0) + I + _lyapunov_weight(params, "E0", e0) * V
    grad_route, term_scale = _lyapunov_rate(params, "E0", e0, T, I, V)

    # delta (R0 - 1 + q/delta) expands to delta R0 - d_I, which stays defined
    # at delta = 0.
    one_minus_theta = (1.0 - params.eta) * (1.0 - params.epsilon)
    delta_r0 = (
        params.r_I * (1.0 - T0 / params.T_max)
        + one_minus_theta * params.beta * params.p * T0 / params.c
    )
    collected = grad_route if params.r_T <= 0 else (
        -(params.s / (T * T0)) * ((T - T0) * (T - T0))
        - (params.r_T / params.T_max) * (T + I - T0) * (T + (params.r_I / params.r_T) * I - T0)
        - params.q * I * T0 / T
        + I * (delta_r0 - params.d_I)
    )
    # A non-finite state makes L non-finite, so this also rejects it.
    if not all(math.isfinite(x) for x in (L, grad_route, collected)):
        raise DomainError(f"Lyapunov function is not finite at ({T!r}, {I!r}, {V!r})")
    diff = abs(grad_route - collected)
    if diff > DEFAULT_TOLERANCES.lyapunov_agreement * max(abs(grad_route), abs(collected)) and diff > 64.0 * np.finfo(float).eps * term_scale:
        raise IntegrityError(
            f"Lyapunov derivative routes disagree: gradient {grad_route!r} vs "
            f"collected {collected!r}"
        )
    return L, grad_route


def lyapunov_infected(
    params: ModelParameters, state: State | tuple[float, float, float], estar: State | EquilibriumPoint
) -> tuple[float, float]:
    """Volterra-type Lyapunov function for the infected equilibrium.

    L = T - T* - T* ln(T/T*) + I - I* - I* ln(I/I*) + w (V - V* - V* ln(V/V*))
    with weight w = (1 - eta) beta T* V* / ((1 - epsilon) p I*)
    (Korobeinikov 2004, Bull. Math. Biol. 66:879-883).  Only the
    gradient-dot-field derivative is evaluated; there is no trustworthy
    independent collected form for this function.  A value beyond the float
    range, or a state so small that a ratio to E* underflows to 0, raises
    DomainError.
    """
    T, I, V = _positive_state(state)
    st = _as_state(estar)
    if st.I <= 0 or st.T <= 0 or st.V <= 0:
        raise DomainError("infected-equilibrium Lyapunov function needs positive (T*, I*, V*)")
    if 0.0 in (T / st.T, I / st.I, V / st.V):
        raise DomainError(f"Lyapunov function underflows at ({T!r}, {I!r}, {V!r})")
    w = _lyapunov_weight(params, "Estar", st)
    L = (
        T - st.T - st.T * math.log(T / st.T)
        + I - st.I - st.I * math.log(I / st.I)
        + w * (V - st.V - st.V * math.log(V / st.V))
    )
    dLdt, _ = _lyapunov_rate(params, "Estar", st, T, I, V)
    if not (math.isfinite(L) and math.isfinite(dLdt)):
        raise DomainError(f"Lyapunov function is not finite at ({T!r}, {I!r}, {V!r})")
    return L, dLdt


# Rate evaluations per certificate block: an Estar block holds this many
# // N (T, I) pairs, each against the N-point V axis, and at least one
# pair; an E0 block, three evaluations per pair, half as many evaluations.
# Larger temporaries cost more in fresh page faults than fewer, larger
# numpy calls save: at N = 140, 2**15 takes about 26 times the faults of
# 2**14 per call, and 2**13 is slower.
_CERTIFICATE_BLOCK = 1 << 14


def _grid_axis(bound: float, n: int) -> np.ndarray:
    """n log-spaced points over [1e-6 bound, bound], which must be finite and nonempty."""
    low = 1e-6 * bound
    if not (low > 0.0 and bound < math.inf):
        raise DomainError("certificate region is degenerate for this parameter set")
    return np.logspace(math.log10(low), math.log10(bound), n)


def _region_counts(axis: np.ndarray, bound: float) -> np.ndarray:
    """How many points of axis, as I, each point of axis, as T, keeps in the
    region T + I <= bound (1 + 1e-12), tested in floats: fl(T + I) grows
    with I, so each T line keeps a prefix of the axis.  A search on the
    rounded bound - T finds the prefix to within a point or two, and the
    exact test moves each count until it holds."""
    limit = bound * (1.0 + 1e-12)
    n = len(axis)
    with np.errstate(over="ignore", invalid="ignore"):  # T + I may pass the float maximum
        counts = np.searchsorted(axis, limit - axis, side="right")
        while True:
            grow = (counts < n) & (axis + axis[np.minimum(counts, n - 1)] <= limit)
            shrink = (counts > 0) & ~(axis + axis[np.maximum(counts - 1, 0)] <= limit)
            if not (grow.any() or shrink.any()):
                return counts
            counts += grow
            counts -= shrink


def _in_range(scale):
    """Raise DomainError unless every term scale is finite."""
    if not math.isfinite(scale.max(initial=0.0)):
        raise DomainError("Lyapunov derivative leaves the float range on the certificate grid")


def _rate_in_range(rate, T, I, V):
    """rate(T, I, V), checked by _in_range."""
    value, scale = rate(T, I, V)
    _in_range(scale)
    return value, scale


def _e0_pairs(rate, V, T, I):
    """(rate at V = 0, term scales at the two ends of the V axis) of E0 on
    the (T, I) pairs T and I (columns); V is (0, V_lo, V_hi).

    The weight (1 - eta) beta T0 / c cancels every V term of dL/dt
    (Korobeinikov 2004), so the rate at V = 0 is the rate at every V, and
    the term scale, a sum of magnitudes of terms affine in V, peaks at an
    end in exact arithmetic.  A term scale at an end that is not finite
    raises DomainError, and a rate at an end that differs from the V = 0
    rate by more than the margin of the pair's term scale raises
    IntegrityError.  Callers set numpy's error state.
    """
    dLdt, scale = rate(T, I, V)
    dLdt, ends, scale = dLdt[:, :1], dLdt[:, 1:], scale[:, 1:]
    _in_range(scale)
    pair_tolerance = DEFAULT_TOLERANCES.certificate_margin * np.maximum(scale.max(axis=1, keepdims=True), 1.0)
    if (np.abs(ends - dLdt) > pair_tolerance).any():
        raise IntegrityError(
            "E0 Lyapunov derivative depends on V: a rate at an end of the V axis "
            "differs from the rate at V = 0 by more than the certificate margin"
        )
    return dLdt, scale


def _whole_row_scale_peak(rate, near, scale_peak, axis_V):
    """The term-scale peak scale_peak of E0's V ends, raised to the peak
    over the whole V rows of the (T, I, reach) pairs of near whose reach,
    a bound on the route's scale inside the axis, attains it; a line whose
    allowance is not finite is left at its ends.  Rows are evaluated in
    blocks of about 2**14 points."""
    T, I, reach = (np.concatenate(arrays) for arrays in zip(*near))
    close = (reach >= scale_peak) & (reach < math.inf)
    T, I = T[close], I[close]
    rows = max(1, _CERTIFICATE_BLOCK // len(axis_V))
    for start in range(0, len(T), rows):
        with np.errstate(over="ignore", invalid="ignore"):
            _, scale = _rate_in_range(rate, T[start : start + rows], I[start : start + rows], axis_V)
        scale_peak = np.maximum(scale_peak, scale.max())
    return scale_peak


def certify_global(params: ModelParameters, target: str = "E0", grid_points: int = 20) -> CertificateReport:
    """Sample a Lyapunov derivative over the invariant region.

    The grid is log-uniform over [1e-6 b, b] in each coordinate (b = T-tilde0
    for T and I, the matching virion ceiling for V), restricted to
    T + I <= T-tilde0.  A grid of a single point per axis evaluates exactly at
    the target equilibrium, where the derivative vanishes identically.

    The report records whether the relevant theorem hypotheses hold
    (R0 < 1 - q/delta for E0; the theorem slice r_I = r_T, s = d_T T_max,
    delta = d_T plus R0 > 1 for Estar).  Sampling runs either way: a clean
    grid under failed preconditions is an advisory result, and violations
    under met preconditions would contradict the theorem.  A grid on which
    a term of the derivative leaves the float range raises DomainError.

    The region is taken per T line: each keeps a prefix of the I axis
    (_region_counts).  _rowbounds.kept_lines bounds each line's rate and
    term scale over its (I, V) box in closed form and evaluates a few of
    its grid points; (T, I) pairs are built only on the lines those bounds
    cannot rule out, and evaluated in row-major blocks.  For Estar, each
    pair is a V row, evaluated against the whole V axis by broadcasting
    (terms of T and I alone once per pair).  Where the kept lines' rows
    hold more points than one block, _rowbounds.kept_rows first bounds each
    pair's rate and term scale over the V axis and evaluates three of its
    grid points, and only the rows those bounds cannot rule out are
    scanned; fewer rows cost less to scan whole than to bound.  The report
    is the one every point gives.  A rate or term scale above its line's or
    row's bound raises IntegrityError.

    For E0 the weight (1 - eta) beta T0 / c cancels every V term of dL/dt
    (Korobeinikov 2004), so a pair's rate at V = 0 is its rate at every V:
    each pair is evaluated at V = 0 and at the two ends of the V axis, which
    give the term scale and a cross-check (_e0_pairs).  Rounding can lift
    the scale at a V inside the axis above both ends where the exact scale
    is flat in V, so the pairs whose rows could so reach the scale peak
    are evaluated on their whole V rows too (_whole_row_scale_peak).  A
    violating E0 pair reports its N points, with the V = 0 rate, so
    min_margin and the violations' dL/dt carry none of the V terms'
    rounding.  points_sampled counts N points per pair of the region for
    both.

    Working memory is bounded by one block (at most about 2**14 rate
    evaluations, or one V row of N points once that is larger), a few
    floats per T line, 40 bytes per pair of a kept line, the Estar rows
    the bounds keep and the violations found.  A block whose peak is
    within the running tolerance is not scanned.
    """
    if grid_points < 1:
        raise DomainError(f"grid_points must be at least 1, got {grid_points!r}")
    if target not in ("E0", "Estar"):
        raise DomainError(f"target must be 'E0' or 'Estar', got {target!r}")
    cons = derive_constants(params)
    bound_TI, bound_V, _ = _region(params)
    if not math.isfinite(bound_TI) or bound_TI <= 0:
        raise DomainError("certificate region is degenerate for this parameter set")
    e0 = uninfected_equilibrium(params).state
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
        report = infected_equilibrium(params)
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
        axis_T, axis_I, axis_V = np.array([anchor.T]), np.array([anchor.I]), np.array([anchor.V])
        counts = np.ones(1, dtype=np.intp)
    else:
        axis_T = axis_I = _grid_axis(bound_TI, grid_points)
        axis_V = _grid_axis(bound_V, grid_points)
        counts = _region_counts(axis_T, bound_TI)
    points_sampled = int(counts.sum()) * len(axis_V)
    rate = partial(_lyapunov_rate, params, target, anchor)
    w = _lyapunov_weight(params, target, anchor)
    if target == "E0":
        # The rate does not depend on V: evaluate V = 0 and the axis ends, in
        # blocks of 2730 pairs whose 64 KiB arrays stay below glibc's 128 KiB
        # mmap threshold.  Blocks of 5461 pairs cross it: an N = 140 call on
        # s1 then takes about 170 minor page faults instead of about 1.
        evaluate = partial(_e0_pairs, rate, np.array([0.0, axis_V[0], axis_V[-1]]))
        pairs = max(1, _CERTIFICATE_BLOCK // 6)
    else:
        evaluate = partial(_rate_in_range, rate)
        pairs = max(1, _CERTIFICATE_BLOCK // len(axis_V))
    lines, line_rate, line_scale, line_allowance = _rowbounds.kept_lines(
        evaluate, w, params, anchor, axis_T, axis_I, counts, axis_V, target == "E0"
    )
    # The pairs of the kept lines in row-major order, with their lines' bounds.
    size = counts[lines]
    pair_T = axis_T[lines].repeat(size)[:, None]
    pair_I = axis_I[np.arange(len(pair_T)) - (size.cumsum() - size).repeat(size)][:, None]
    cap_rate, cap_scale = line_rate.repeat(size)[:, None], line_scale.repeat(size)[:, None]
    cap_allowance = line_allowance.repeat(size)
    part = "T line"
    if target == "Estar" and len(pair_T) * len(axis_V) > _CERTIFICATE_BLOCK:
        # Rows that fit in one block are cheaper to scan than to bound.  The
        # row bounds' seeds are three V per pair, in blocks of E0's size.
        rows, cap_rate, cap_scale = _rowbounds.kept_rows(
            rate, w, params, anchor, pair_T, pair_I, (cap_rate, cap_scale), axis_V, max(1, _CERTIFICATE_BLOCK // 6)
        )
        pair_T, pair_I, part = pair_T[rows], pair_I[rows], "(T, I) row"

    # One pass over the blocks keeps the running maxima and, per block, the
    # points above the tolerance the running scale maximum gives.  A term
    # scale beyond the float range raises, so that tolerance only grows and
    # the points kept hold every violation of the final one.
    margin = DEFAULT_TOLERANCES.certificate_margin
    peak = np.float64(-math.inf)
    scale_peak = np.float64(0.0)
    kept = []
    # E0 pairs whose rows could pass the scale peak inside the V axis, and
    # the fraction of the V range from each end of the axis to its neighbour.
    near = [] if target == "E0" and len(axis_V) > 2 else None
    if near is not None:
        width = axis_V[-1] - axis_V[0]
        inner = (axis_V[1] - axis_V[0]) / width, (axis_V[-1] - axis_V[-2]) / width
    for start in range(0, len(pair_T), pairs):
        T, I = pair_T[start : start + pairs], pair_I[start : start + pairs]
        with np.errstate(over="ignore", invalid="ignore"):
            dLdt, term_scale = evaluate(T, I) if target == "E0" else evaluate(T, I, axis_V)
        block_peak = dLdt.max(initial=-math.inf)
        peak = np.maximum(peak, block_peak)
        scale_peak = np.maximum(scale_peak, term_scale.max(initial=0.0))
        if (dLdt > cap_rate[start : start + pairs]).any() or (term_scale > cap_scale[start : start + pairs]).any():
            raise IntegrityError(_rowbounds.FAULT.format(part))
        tolerance = margin * max(1.0, float(scale_peak))
        if not block_peak <= tolerance:  # a NaN peak is scanned too
            pair, v = np.nonzero(dLdt > tolerance)
            kept.append((T[pair, 0], I[pair, 0], v, dLdt[pair, v]))
        if near is not None:
            # E0's exact term scale is convex in V: inside the axis it is at
            # most the chord of its ends, whose largest value at a grid V is
            # next to the larger end, and rounding lifts the route's scale
            # above that by at most the line's allowance.  These are the
            # pairs whose rows could so pass the scale peak.
            lo, hi = term_scale[:, 0], term_scale[:, 1]
            reach = np.maximum(lo, hi) - np.abs(hi - lo) * np.where(hi < lo, inner[0], inner[1])
            reach += cap_allowance[start : start + pairs]
            close = reach >= scale_peak
            near.append((T[close], I[close], reach[close]))
    if near:
        scale_peak = _whole_row_scale_peak(rate, near, scale_peak, axis_V)
        tolerance = margin * max(1.0, float(scale_peak))
    row_V = axis_V.tolist()

    def violating(T, I, v, dLdt):
        hit = dLdt > tolerance
        if target == "E0":  # a violating pair violates at every V, in axis order
            hits = zip(T[hit].tolist(), I[hit].tolist(), dLdt[hit].tolist())
            return chain.from_iterable(zip(repeat(t), repeat(i), row_V, repeat(d)) for t, i, d in hits)
        return zip(T[hit].tolist(), I[hit].tolist(), axis_V[v[hit]].tolist(), dLdt[hit].tolist())

    # One tuple, grown in place: no list of every row beside it.
    violations = tuple(chain.from_iterable(violating(*block) for block in kept))
    return CertificateReport(
        target=target,
        grid_shape=(grid_points, grid_points, grid_points),
        points_sampled=points_sampled,
        min_margin=float(peak),
        tolerance=tolerance,
        violations=violations,
        preconditions_met=preconditions_met,
        r0=R0,
        notes=tuple(notes),
    )


def stability_report(params: ModelParameters) -> StabilityReport:
    """Assemble the full local-stability picture for one parameter set.

    One pass: the derived constants are computed once and passed down,
    existence_regime computes E0 and r0 once, T0 feeds the local analysis
    at E0 and the spectral r0, and r0 is the spectral r0's cross-check.
    """
    cons = derive_constants(params)
    existence = existence_regime(params, cons)
    T0 = existence.e0_point.state.T
    e0 = _uninfected_local(params, T0)
    flags = list(existence.disagreements)

    estar = coeffs = verdict = estar_local_report = None
    if existence.regime == REGIME_UNIQUE:
        estar = existence.candidates[0]
        coeffs, verdict, estar_local_report = _infected_local(params, cons, estar.state)
        max_re = max(z.real for z in estar_local_report.eigenvalues)
        if abs(max_re) > DEFAULT_TOLERANCES.marginal_band and verdict.classification != MARGINAL:
            eig_class = STABLE if max_re < 0 else UNSTABLE
            if eig_class != verdict.classification:
                flags.append("routh_hurwitz_vs_eigenvalues")

    spectral = _next_generation(params, T0, existence.r0)
    if not spectral.checked:
        flags.append("r0_spectral_unchecked")
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
        r0_spectral=spectral.rho,
    )
