"""Local stability analysis at both equilibria.

Every check runs two independent routes: specialised equilibrium Jacobians
against the general Jacobian, closed-form characteristic coefficients
against a minor-expansion oracle, and the characteristic cubic's roots (one
real root by Newton's method, the other two from the shared quadratic
solver), whose signs must match the Routh-Hurwitz verdict.  The Lyapunov
functions and the global certificates are in lyapunov.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .equilibria import REGIME_UNIQUE, EquilibriumPoint, ExistenceReport, existence_regime, uninfected_equilibrium
from .errors import DomainError, IntegrityError, _refuse
from .model import ModelParameters, State, _field, _jacobian_entries, _ldexp, _quadratic_roots, derive_constants
from .reproduction import _next_generation
from .tolerances import DEFAULT_TOLERANCES

# perfbench/tracing.py wraps these names in this module; keep them bound.
from .equilibria import infected_equilibrium  # noqa: F401
from .reproduction import r0_from_T0  # noqa: F401

__all__ = [
    "LocalReport",
    "CharacteristicCoefficients",
    "RouthHurwitzReport",
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
