"""Lyapunov functions of both equilibria and their grid certificates.

Both global results rest on one Volterra function, anchored at an
equilibrium with a V-weight w (lyapunov_infected's L; at E0 = (T0, 0, 0)
its I and V terms read I and w V).  Its derivative along the field is one
kernel, _lyapunov_rate, for every anchor and weight.

certify_global samples dL/dt on the (T, I) pairs of the region, each a T
line of the grid cut at the region's ceiling, times the V axis.  On a T
line the derivative is a concave quadratic in I plus terms in V and V/I
whose maxima over the line's (I, V) box have closed forms, so per-line
upper bounds on the rate and on its term scale, against lower bounds taken
from a few real grid points, rule out the lines that cannot hold the
grid's worst margin, its term-scale peak or a violation (kept_lines, for
both anchors).  On each pair of a kept line the E* derivative has a
closed-form maximum over V, and per-row bounds rule out its V rows the
same way (kept_rows); certify_global takes them only where the kept lines'
rows hold more points than one block, fewer being cheaper to scan than to
bound.  certify_global evaluates only what these keep, and its report is
the full scan's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import chain, repeat
from operator import add

import numpy as np

from .equilibria import REGIME_UNIQUE, EquilibriumPoint, infected_equilibrium, uninfected_equilibrium
from .errors import DomainError, IntegrityError
from .model import ModelParameters, State, _field, _field_terms, _region, derive_constants
from .reproduction import r0_from_T0
from .tolerances import DEFAULT_TOLERANCES

__all__ = ["CertificateReport", "lyapunov_uninfected", "lyapunov_infected", "certify_global"]


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


def _lyapunov_weight(params: ModelParameters, anchor: State) -> float:
    """V-weight of the Lyapunov function anchored at an equilibrium:
    (1 - eta) beta T0 / c at E0 (V* = 0), else (1 - eta) beta T* V* /
    ((1 - epsilon) p I*).  The two are equal at E* in exact arithmetic, not
    in floats, so each anchor keeps its own."""
    b_eff = (1.0 - params.eta) * params.beta
    if not anchor.V:
        return b_eff * anchor.T / params.c
    production = (1.0 - params.epsilon) * params.p * anchor.I
    if production == 0.0:
        raise DomainError("Lyapunov weight is undefined without virion production")
    return b_eff * anchor.T * anchor.V / production


def _lyapunov_rate(params: ModelParameters, anchor: State, w: float, T, I, V):
    """(dL/dt as gradient-dot-field, sum of its three terms' magnitudes) of
    the Lyapunov function anchored at anchor with V-weight w; broadcasts
    over floats and arrays.  An I* or V* of 0 takes gradient factor 1, a
    branch per call, not per point, so the rate is defined at V = 0.  The
    gradient is multiplied in place into the fresh arrays _field returns,
    and on arrays so are the magnitudes, summed left to right into the
    first term's array.  Float arguments give plain floats."""
    t0, t1, t2 = _field(params, T, I, V)
    t0 *= 1.0 - anchor.T / T
    if anchor.I:
        t1 *= 1.0 - anchor.I / I
    t2 *= w * (1.0 - anchor.V / V) if anchor.V else w
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
    w = _lyapunov_weight(params, e0)
    L = T - T0 - T0 * math.log(T / T0) + I + w * V
    grad_route, term_scale = _lyapunov_rate(params, e0, w, T, I, V)

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
    st = estar.state if isinstance(estar, EquilibriumPoint) else estar
    if st.I <= 0 or st.T <= 0 or st.V <= 0:
        raise DomainError("infected-equilibrium Lyapunov function needs positive (T*, I*, V*)")
    if 0.0 in (T / st.T, I / st.I, V / st.V):
        raise DomainError(f"Lyapunov function underflows at ({T!r}, {I!r}, {V!r})")
    w = _lyapunov_weight(params, st)
    L = (
        T - st.T - st.T * math.log(T / st.T)
        + I - st.I - st.I * math.log(I / st.I)
        + w * (V - st.V - st.V * math.log(V / st.V))
    )
    dLdt, _ = _lyapunov_rate(params, st, w, T, I, V)
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


def _rate_in_range(params, anchor, w, T, I, V):
    """_lyapunov_rate(params, anchor, w, T, I, V), checked by _in_range."""
    value, scale = _lyapunov_rate(params, anchor, w, T, I, V)
    _in_range(scale)
    return value, scale


def _e0_pairs(params, anchor, w, T, I, axis_V):
    """(rate at V = 0, term scales at the two ends of the V axis) of E0 on
    the (T, I) pairs T and I (columns).

    The weight (1 - eta) beta T0 / c cancels every V term of dL/dt
    (Korobeinikov 2004), so the rate at V = 0 is the rate at every V, and
    the term scale, a sum of magnitudes of terms affine in V, peaks at an
    end in exact arithmetic.  A term scale at an end that is not finite
    raises DomainError, and a rate at an end that differs from the V = 0
    rate by more than the margin of the pair's term scale raises
    IntegrityError.  Callers set numpy's error state.
    """
    dLdt, scale = _lyapunov_rate(params, anchor, w, T, I, np.array([0.0, axis_V[0], axis_V[-1]]))
    dLdt, ends, scale = dLdt[:, :1], dLdt[:, 1:], scale[:, 1:]
    _in_range(scale)
    pair_tolerance = DEFAULT_TOLERANCES.certificate_margin * np.maximum(scale.max(axis=1, keepdims=True), 1.0)
    if (np.abs(ends - dLdt) > pair_tolerance).any():
        raise IntegrityError(
            "E0 Lyapunov derivative depends on V: a rate at an end of the V axis "
            "differs from the rate at V = 0 by more than the certificate margin"
        )
    return dLdt, scale


def _whole_row_scale_peak(params, anchor, w, near, scale_peak, axis_V):
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
            _, scale = _rate_in_range(params, anchor, w, T[start : start + rows], I[start : start + rows], axis_V)
        scale_peak = np.maximum(scale_peak, scale.max())
    return scale_peak


# Rounding allowance of the rate bound, per unit of its line's or row's
# monomial magnitude sum, and its floor for underflow, per unit of the
# largest factor on a product that may underflow (see line_bounds, row_bounds).
ALLOWANCE = 2.0**-44
UNDERFLOW = 2.0**-1060

FAULT = "Lyapunov derivative or its term scale exceeds the bound of its {} on the certificate grid"


def line_bounds(params: ModelParameters, anchor: State, w: float, T, I_lo: float, I_hi, V_lo: float, V_hi: float):
    """(rate bound, term-scale bound, allowance, I vertex, V/I vertex) of the
    Lyapunov derivative anchored at (T*, I*, V*) with weight w on the boxes
    T x [I_lo, I_hi] x [V_lo, V_hi]; T and I_hi are 1-D arrays, one entry
    per T line, T increasing and I_hi not.  E0 is the anchor (T0, 0, 0) on
    [0, V_hi]: with I* = V* = 0 every g_I = 1 - I*/I and g_V = 1 - V*/V is
    1, and V = 0 is its rate.

    Rate.  With b = (1 - eta) beta, p_eff = (1 - epsilon) p, w and g_T =
    1 - T*/T as the floats the route takes, the rate at (I, V) is exactly
        Q(I) + beta_V V - k V / I - m I / V,
        Q(I) = g_T (s + r_T T cr - d_T T + q I) + (I - I*)(r_I cr - d_I - q)
               + w p_eff I + w c V*,   cr = 1 - (T + I) / T_max,
    with beta_V = b T (1 - g_T) - w c, k = b T I* and m = w V* p_eff.  Q is
    a concave quadratic in I (leading coefficient -r_I / T_max), and the
    sum of three maxima bounds the rate: Q's on [I_lo, I_hi], beta_V V's at
    an end of [V_lo, V_hi], and that of -(k r + m / r) over r = V / I in
    [V_lo / I_hi, V_hi / I_lo], at an end or -2 sqrt(k m) (by AM-GM, an
    upper bound at every r; taken where the vertex sqrt(m / k) lies inside
    or k or m is subnormal, so that it is uncertain).  Q is evaluated once,
    at its computed vertex clamped into the line.  Q' = 2 (r_I / T_max)
    (vertex - I), and between that point and the true maximiser, both in
    [I_lo, I_hi], |vertex - I| is at most the vertex's error; so an error
    e in Q's linear coefficient, which moves the vertex by e T_max /
    (2 r_I), costs at most e I_hi, a few u A (A below).

    Allowance.  Let A = |g_T| M_T + (I_hi + I*)(r_I C + d_I + q)
    + (1 + I* / I_lo) b V_hi T + w (p_eff I_hi + c V_hi + c V*
    + V* p_eff I_hi / V_lo), with C = 1 + (T + I_hi) / T_max and M_T =
    s + r_T T C + d_T T + b V_hi T + q I_hi: the sum of the magnitudes of
    every monomial of the rate, with cr taken as 1, T / T_max and I / T_max,
    g_I as 1 and I* / I and g_V as 1 and V* / V, bounds it at every point
    of the box, and so bounds the magnitudes of every intermediate either
    side forms.  Each monomial passes through at most 13 roundings in the
    route (crowding, g_I and g_V included; g_T is the same float on both
    sides), so the route's rate is within 13u A of the exact one (u =
    2**-53).  Here Q costs at most 12u A and its vertex 10u A, the V term
    5u A, the r term 6u A (its ends rounded included) and the sums 3u A.
    ALLOWANCE A = 512u A covers the 49u A with 10 times to spare.
    Products that underflow err by up to 2**-1075 absolutely each, about
    40 of them, and later factors scale each by at most P = (1 + w)(1 + C)
    (1 + |g_T| + |g_I| + |g_V|)(1 + I_hi)(1 + T + I_hi + I* + V_hi + V*
    + V_hi / I_lo + I_hi / V_lo + the field's term magnitude sums); a
    curvature r_I / T_max that underflows moves Q's vertex at a cost of at
    most 2**-1074 I_hi**2 more.  UNDERFLOW P = 2**-1060 P covers them with
    2**9 times to spare.  One floor serves every line: P is taken at the
    largest T, I_hi and |g| of the lines.

    Term scale.  _lyapunov_rate's scale is |g_T dT| + |g_I dI| + |w g_V dV|.
    g_I dI = (I - I*)(r_I cr - d_I - q) + g_I b V T and w g_V dV =
    w (p_eff I g_V - c (V - V*)), so each magnitude is bounded by products
    of monotone factors, each at its worst end of the box: |g_T| (s + r_T T
    |cr| + d_T T + b V_hi T + q I_hi), |I - I*| (r_I |cr| + d_I + q) + |g_I|
    b T V_hi and w (p_eff I_hi |g_V| + c |V - V*|).  That sum does not
    follow the route's operations, so it takes the rate's allowance
    (ALLOWANCE A plus the floor) too: the route's scale is within 15u A of
    the exact one, and the sum within 10u A.  So the allowance also bounds
    how far the route's scale at one point of a box can exceed it at
    another where the exact scale is at least as large.

    A value beyond the float range makes a bound inf or NaN (a rate bound
    of -inf is taken as NaN: a negative term such as k = b T I* may leave
    the range where k V / I does not); such lines are scanned.
    """
    s, r_T, r_I, d_T, q, c, T_max = params.s, params.r_T, params.r_I, params.d_T, params.q, params.c, params.T_max
    cure = params.d_I + q
    b = (1.0 - params.eta) * params.beta
    p_eff = (1.0 - params.epsilon) * params.p
    T_star, I_star, V_star = anchor.T, anchor.I, anchor.V
    g_T = 1.0 - T_star / T
    rT, dT, bT = r_T * T, d_T * T, b * T

    ratio = T / T_max
    a1 = g_T * (q - r_T * ratio) + r_I * (1.0 - ratio) + (r_I * I_star / T_max + w * p_eff - cure)
    # A NaN vertex (a1 beyond the float range, or 0 with no curvature)
    # gives a NaN bound.
    vertex_I = np.minimum(np.maximum(0.5 * a1 / (r_I / T_max), I_lo), I_hi)
    cr = 1.0 - (T + vertex_I) / T_max
    peak = g_T * (s + rT * cr - dT + q * vertex_I) + (vertex_I - I_star) * (r_I * cr - cure)
    peak += w * p_eff * vertex_I + w * c * V_star
    beta_V = bT * (1.0 - g_T) - w * c
    peak += np.maximum(beta_V * V_lo, beta_V * V_hi)

    k, m = bT * I_star, w * V_star * p_eff
    vertex_r = 0.0
    if m > 0.0:
        r_lo, r_hi = V_lo / I_hi, V_hi / I_lo
        root_k = np.sqrt(k)
        vertex_r = math.sqrt(m) / root_k
        ends = np.maximum(-(k * r_lo + m / r_lo), -(k * r_hi + m / r_hi))
        tiny = np.finfo(float).tiny
        inside = (r_lo <= vertex_r) & (vertex_r <= r_hi) | (k < tiny) | (m < tiny)
        peak += np.maximum(ends, np.where(inside, -2.0 * root_k * math.sqrt(m), ends))
    elif I_star:
        peak -= k * (V_lo / I_hi)

    # g_V and the ratios over V_lo vanish with V* (E0's V_lo is 0).
    rho_V = V_star / V_lo if V_star else 0.0
    g_V = max(abs(1.0 - rho_V), abs(1.0 - V_star / V_hi))
    over = (T + I_hi) / T_max
    C = 1.0 + over
    crowding = np.maximum(1.0 - (T + I_lo) / T_max, over - 1.0)  # cr falls with I: |cr| peaks at an end
    infection = (b * V_hi) * T
    qI, pI = q * I_hi, p_eff * I_hi
    abs_g_T = np.abs(g_T)
    others = s + dT + infection + qI
    span = abs_g_T * (others + rT * C) + (I_hi + I_star) * (r_I * C + cure)
    span += (1.0 + I_star / I_lo) * infection + w * (pI * (1.0 + rho_V) + c * (V_hi + V_star))
    if I_star:
        g_I = np.maximum(abs(1.0 - I_star / I_lo), np.abs(1.0 - I_star / I_hi))
        far_I = np.maximum(I_star - I_lo, I_hi - I_star)
    else:
        g_I, far_I = 1.0, I_hi
    scale = abs_g_T * (others + rT * crowding) + far_I * (r_I * crowding + cure)
    scale += g_I * infection + w * (pI * g_V + c * max(abs(V_lo - V_star), abs(V_hi - V_star)))

    # The floor's factors at the lines' largest T and I_hi.
    T_hi, I_top = T[-1], I_hi[0]
    C_top = 1.0 + (T_hi + I_top) / T_max
    g = max(abs(1.0 - T_star / T[0]), abs(1.0 - T_star / T_hi)) + abs(1.0 - I_star / I_lo) + abs(1.0 - I_star / I_top) + g_V
    fields = s + (r_T * C_top + d_T) * T_hi + (r_I * C_top + cure + q) * I_top + 2.0 * b * V_hi * T_hi + pI[0] + c * V_hi
    sizes = 1.0 + T_hi + I_top + I_star + V_hi + V_star + V_hi / I_lo + (I_top / V_lo if V_star else 0.0) + fields
    allowance = ALLOWANCE * span + UNDERFLOW * (1.0 + w) * (1.0 + C_top) * (1.0 + g) * (1.0 + I_top) * sizes
    peak += allowance
    peak[peak == -math.inf] = math.nan  # a negative term beyond the float range bounds nothing
    return peak, scale + allowance, allowance, vertex_I, vertex_r


def row_bounds(params: ModelParameters, anchor: State, w: float, T, I, V_lo: float, V_hi: float):
    """(rate bound, term-scale bound, vertex) of the E* Lyapunov derivative
    with weight w on the rows (T, I) x [V_lo, V_hi]; T and I are columns.

    Term scale.  _lyapunov_rate's scale is |g_T dT| + |g_I dI| + |w g_V dV|
    with g_X = 1 - X*/X.  Here each field term is taken at the V end where
    it is largest (the infection term and c V at V_hi, |g_V| at whichever
    end is larger), and the magnitudes are summed in the route's order.
    Rounding is monotone, so each intermediate is at least the route's at
    every V of the row: the bound needs no allowance.

    Rate.  With the pair's own floats (crowding, g_T, g_I, p_eff I, ...)
    and w, b = (1 - eta) beta as given, the rate is exactly
    alpha + beta V + gamma / V, where
        alpha = g_T (a0 + q I) + g_I (a1 - q I) + w p_eff I + w c V*,
        beta = b T (g_I - g_T) - w c,  gamma = -w V* p_eff I <= 0,
    a0 and a1 being dT/dt and dI/dt without their infection and cure
    terms; no equilibrium identity is used.  Over [V_lo, V_hi] it peaks at
    an end, or, when beta and gamma are negative, at the vertex
    sqrt(gamma / beta), where it is alpha - 2 sqrt(beta gamma) (by AM-GM,
    an upper bound at every V; taken where the vertex lies inside the axis
    or is subnormal and so uncertain).

    Allowance.  Let A = |g_T| m_T + |g_I| m_I + w (p_eff I + c V_hi + c V*
    + V* p_eff I / V_lo), m_T and m_I the terms' magnitude sums of the
    scale bound: A bounds the sum of the magnitudes of every monomial
    either route forms, at any V of the row.  Each such monomial passes
    through at most 9 roundings in the route and at most 10 here, so the
    route's rate is within 10u A of the exact one and the computed peak is
    at least the exact peak less 10u A (u = 2**-53; the computed vertex
    costs a relative error of order u**2).  ALLOWANCE A = 512u A covers
    the 20u A with 25 times to spare; on 800 supercritical draws, half of
    them carried to magnitudes of 10**+-150, the route came within 6u A.  A
    product that underflows errs by up to 2**-1075 absolutely, which the
    later factors scale: the two routes form about 30 such products, each
    scaled by at most P = (1 + w)(1 + c V_hi + V* + max|g_V| + 1/V_lo)
    (1 + T + V_hi)(1 + |g_T| + |g_I|)(1 + p_eff I), and UNDERFLOW P =
    2**-1060 P covers them with 2**10 times to spare.  A value beyond the
    float range makes a bound inf or NaN (-inf is taken as NaN); such rows
    are scanned.
    """
    b = (1.0 - params.eta) * params.beta
    c, V_star = params.c, anchor.V
    dT, dI, dV = _field_terms(params, T, I, V_hi)
    m_T, m_I, m_V = (reduce(add, map(abs, terms)) for terms in (dT, dI, dV))
    g_T, g_I = 1.0 - anchor.T / T, 1.0 - anchor.I / I
    g_V = max(abs(1.0 - V_star / V_lo), abs(1.0 - V_star / V_hi))
    cells = abs(g_T) * m_T + abs(g_I) * m_I
    scale_bound = cells + m_V * (w * g_V)

    made = dV[0]
    alpha = g_T * (dT[0] + dT[1] - dT[2] + dT[4]) + g_I * (dI[0] - dI[1] - dI[3]) + w * made + w * c * V_star
    # Fewer arrays alive per block leave less heap behind: about 0.2 MB
    # less peak RSS over a run of certify ops.
    del dT, dI, dV
    beta = b * T * (g_I - g_T) - w * c
    gamma = -(w * V_star) * made
    ends = np.maximum(alpha + beta * V_lo + gamma / V_lo, alpha + beta * V_hi + gamma / V_hi)
    root_b, root_g = np.sqrt(-beta), np.sqrt(-gamma)  # NaN where beta > 0
    vertex = root_g / root_b
    inside = (V_lo < vertex) & (vertex < V_hi) | (0.0 < vertex) & (vertex < np.finfo(float).tiny)
    peak = np.maximum(ends, np.where(inside, alpha - 2.0 * root_b * root_g, ends))
    del ends, root_b, root_g, inside, alpha, beta, gamma

    span = cells + w * (m_V + c * V_star + V_star * made / V_lo)
    floor = UNDERFLOW * (1.0 + w) * (1.0 + c * V_hi + V_star + g_V + 1.0 / V_lo)
    floor = floor * ((1.0 + T + V_hi) * (1.0 + abs(g_T) + abs(g_I)) * (1.0 + made))
    peak += ALLOWANCE * span + floor
    peak[peak == -math.inf] = math.nan  # as in line_bounds
    return peak, scale_bound, vertex


def reaches(rate_bound, scale_bound, peak, scale_peak):
    """Which lines' or rows' bounds reach the lower bounds peak and scale_peak on the
    grid's peak and term-scale peak, or the margin of scale_peak, below
    every tolerance the grid can give; an inf or NaN bound reaches all three."""
    tolerance = DEFAULT_TOLERANCES.certificate_margin * max(1.0, float(scale_peak))
    return ~((rate_bound < peak) & (scale_bound < scale_peak) & (rate_bound <= tolerance))


def _nearest(axis, x, top):
    """Index of the point of axis[: top + 1] nearest x in ratio (top
    broadcasts against x; NaN or inf x gives top)."""
    above = np.minimum(np.searchsorted(axis, x), top)
    below = np.maximum(above - 1, 0)
    return np.where(x / axis[below] < axis[above] / x, below, above)


def kept_lines(params: ModelParameters, anchor: State, w: float, axis_T, axis_I, counts, axis_V):
    """(indices, rate bounds, scale bounds, allowances) of the T lines whose
    points can set the certificate's worst margin, its term-scale peak or a
    violation (see line_bounds); the bounds are 1-D, inf or NaN where they
    bound nothing.

    Line i holds the pairs (axis_T[i], axis_I[j]) for j < counts[i], each
    against the V axis axis_V; w is the certificate's weight.  For E*, the
    seeds are the grid point nearest Q's vertex in I and, at that I,
    nearest the vertex V/I of line_bounds, the grid point nearest (I*, V*)
    and the four corners of the line's box, each evaluated by
    _rate_in_range.  For E0 (V* = 0) the rate does not depend on V and is
    bounded at V = 0: the seeds are the pairs at the two I ends of the line
    and nearest Q's vertex, each evaluated by _e0_pairs at V = 0 and at
    the V ends.  Both raise DomainError where a term scale is not finite.
    The seeds give lower bounds on the grid's peak and scale peak; a value
    above a finite bound of its line raises IntegrityError.  A line is
    kept if its bounds reach those lower bounds; every other line holds
    only points below the worst margin, below the scale peak and within
    the tolerance.
    """
    plane = not anchor.V
    lines = counts.nonzero()[0]
    T, last = axis_T[lines], counts[lines] - 1
    top = len(axis_V) - 1
    I_lo, I_hi = axis_I[0], axis_I[last]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rate_bound, scale_bound, allowance, vertex_I, vertex_r = line_bounds(
            params, anchor, w, T, I_lo, I_hi, 0.0 if plane else axis_V[0], axis_V[top]
        )
        nearest = axis_I[_nearest(axis_I, vertex_I, last)]
        if plane:
            I = np.empty((len(T), 3))
            I[:, 0], I[:, 1], I[:, 2] = I_lo, I_hi, nearest
            value, scale = _e0_pairs(params, anchor, w, T.repeat(3)[:, None], I.reshape(-1, 1), axis_V)
            # One row per line: its seeds' rates, and their scales at the V ends.
            value, scale = value.reshape(I.shape), scale.reshape(len(T), 6)
        else:
            I = np.empty((len(T), 6))
            I[:, 0], I[:, 1] = nearest, axis_I[_nearest(axis_I, anchor.I, last)]
            I[:, 2:4], I[:, 4:] = I_lo, I_hi[:, None]
            V = np.empty_like(I)
            V[:, 0] = axis_V[_nearest(axis_V, vertex_r * nearest, top)]
            V[:, 1] = axis_V[_nearest(axis_V, anchor.V, top)]
            V[:, 2::2], V[:, 3::2] = axis_V[0], axis_V[top]
            value, scale = _rate_in_range(params, anchor, w, T[:, None], I, V)
        if (value > rate_bound[:, None]).any() or (scale > scale_bound[:, None]).any():
            raise IntegrityError(FAULT.format("T line"))
    keep = reaches(rate_bound, scale_bound, value.max(), scale.max()).nonzero()[0]
    return lines[keep], rate_bound[keep], scale_bound[keep], allowance[keep]


def kept_rows(params: ModelParameters, anchor: State, w: float, pair_T, pair_I, caps, axis_V, pairs: int):
    """(indices, rate bounds, scale bounds) of the (T, I) rows whose points
    can set the E* certificate's worst margin, its term-scale peak or a
    violation; the bounds are columns, inf or NaN where they bound nothing.

    pair_T and pair_I are columns of the pairs of the kept T lines, and
    caps their lines' rate and scale bounds (columns), taken in blocks of
    pairs.  A row's bounds are its own (row_bounds) or its line's,
    whichever is lower.  _lyapunov_rate at three grid points of each pair,
    the two V ends and the grid V nearest its vertex, gives lower bounds on
    the grid's peak and scale peak; a value above a finite bound of its row
    raises IntegrityError.  A row is kept if its bounds reach the final
    lower bounds.  Every other row holds only points below the worst
    margin, below the scale peak and within the tolerance.  The lower
    bounds only grow, so each block keeps the rows that reach the running
    ones, and memory holds those rows, not a bound per pair.
    """
    V_lo, V_hi = float(axis_V[0]), float(axis_V[-1])
    peak, scale_peak = np.float64(-math.inf), np.float64(0.0)
    seeds = np.empty((min(pairs, len(pair_T)), 3))
    seeds[:, 0], seeds[:, 1] = V_lo, V_hi
    found = []
    for start in range(0, len(pair_T), pairs):
        T, I = pair_T[start : start + pairs], pair_I[start : start + pairs]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            bound, limit, vertex = row_bounds(params, anchor, w, T, I, V_lo, V_hi)
            # fmin: a row bound beyond the float range leaves its line's.
            bound = np.fmin(bound, caps[0][start : start + pairs])
            limit = np.fmin(limit, caps[1][start : start + pairs])
            seeds[: len(T), 2] = axis_V[_nearest(axis_V, vertex[:, 0], len(axis_V) - 1)]
            value, scale = _lyapunov_rate(params, anchor, w, T, I, seeds[: len(T)])
            if (value > bound).any() or (scale > limit).any():
                raise IntegrityError(FAULT.format("(T, I) row"))
        peak = np.maximum(peak, value.max())
        scale_peak = np.maximum(scale_peak, scale.max())
        rows = reaches(bound, limit, peak, scale_peak).nonzero()[0]
        found.append((start + rows, bound[rows], limit[rows]))
    rows, bound, limit = (np.concatenate(arrays) for arrays in zip(*found))
    keep = reaches(bound, limit, peak, scale_peak)[:, 0]
    return rows[keep], bound[keep], limit[keep]


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
    (_region_counts).  kept_lines bounds each line's rate and term scale
    over its (I, V) box in closed form and evaluates a few of its grid
    points; (T, I) pairs are built only on the lines those bounds cannot
    rule out, and evaluated in row-major blocks.  For Estar, each pair is a
    V row, evaluated against the whole V axis by broadcasting (terms of T
    and I alone once per pair).  Where the kept lines' rows hold more
    points than one block, kept_rows first bounds each pair's rate and term
    scale over the V axis and evaluates three of its grid points, and only
    the rows those bounds cannot rule out are scanned; fewer rows cost less
    to scan whole than to bound.  The report is the one every point gives.
    A rate or term scale above its line's or row's bound raises
    IntegrityError.

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
    plane = target == "E0"
    if plane:
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
    w = _lyapunov_weight(params, anchor)
    # E0's rate does not depend on V: evaluate V = 0 and the axis ends, in
    # blocks of 2730 pairs whose 64 KiB arrays stay below glibc's 128 KiB
    # mmap threshold.  Blocks of 5461 pairs cross it: an N = 140 call on s1
    # then takes about 170 minor page faults instead of about 1.
    pairs = max(1, _CERTIFICATE_BLOCK // (6 if plane else len(axis_V)))
    lines, line_rate, line_scale, line_allowance = kept_lines(params, anchor, w, axis_T, axis_I, counts, axis_V)
    # The pairs of the kept lines in row-major order, with their lines' bounds.
    size = counts[lines]
    pair_T = axis_T[lines].repeat(size)[:, None]
    pair_I = axis_I[np.arange(len(pair_T)) - (size.cumsum() - size).repeat(size)][:, None]
    cap_rate, cap_scale = line_rate.repeat(size)[:, None], line_scale.repeat(size)[:, None]
    cap_allowance = line_allowance.repeat(size)
    part = "T line"
    if not plane and len(pair_T) * len(axis_V) > _CERTIFICATE_BLOCK:
        # Rows that fit in one block are cheaper to scan than to bound.  The
        # row bounds' seeds are three V per pair, in blocks of E0's size.
        rows, cap_rate, cap_scale = kept_rows(
            params, anchor, w, pair_T, pair_I, (cap_rate, cap_scale), axis_V, max(1, _CERTIFICATE_BLOCK // 6)
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
    near = [] if plane and len(axis_V) > 2 else None
    if near is not None:
        width = axis_V[-1] - axis_V[0]
        inner = (axis_V[1] - axis_V[0]) / width, (axis_V[-1] - axis_V[-2]) / width
    for start in range(0, len(pair_T), pairs):
        T, I = pair_T[start : start + pairs], pair_I[start : start + pairs]
        with np.errstate(over="ignore", invalid="ignore"):
            dLdt, term_scale = (_e0_pairs if plane else _rate_in_range)(params, anchor, w, T, I, axis_V)
        block_peak = dLdt.max(initial=-math.inf)
        peak = np.maximum(peak, block_peak)
        scale_peak = np.maximum(scale_peak, term_scale.max(initial=0.0))
        if (dLdt > cap_rate[start : start + pairs]).any() or (term_scale > cap_scale[start : start + pairs]).any():
            raise IntegrityError(FAULT.format(part))
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
        scale_peak = _whole_row_scale_peak(params, anchor, w, near, scale_peak, axis_V)
        tolerance = margin * max(1.0, float(scale_peak))
    row_V = axis_V.tolist()

    def violating(T, I, v, dLdt):
        hit = dLdt > tolerance
        if plane:  # a violating pair violates at every V, in axis order
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
