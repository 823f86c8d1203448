"""Bounds on the certificates' Lyapunov derivative along T lines and V rows.

certify_global samples dL/dt on the (T, I) pairs of the region, each a T
line of the grid cut at the region's ceiling, times the V axis.  On a T
line the derivative is a concave quadratic in I plus terms in V and V/I
whose maxima over the line's (I, V) box have closed forms, so per-line
upper bounds on the rate and on its term scale, against lower bounds taken
from a few real grid points, rule out the lines that cannot hold the
grid's worst margin, its term-scale peak or a violation (kept_lines, for
both targets: E0 is the anchor (T0, 0, 0)).  On each pair of a kept line
the E* derivative has a closed-form maximum over V, and per-row bounds
rule out its V rows the same way (kept_rows); certify_global takes them
only where the kept lines' rows hold more points than one block, fewer
being cheaper to scan than to bound.  certify_global evaluates only what
these keep, and its report is the full scan's.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add

import numpy as np

from .errors import IntegrityError
from .model import ModelParameters, State, _field_terms
from .tolerances import DEFAULT_TOLERANCES

# Rounding allowance of the rate bound, per unit of its line's or row's
# monomial magnitude sum, and its floor for underflow, per unit of the
# largest factor on a product that may underflow (see line_bounds, bounds).
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

    Term scale.  stability._lyapunov_rate's scale is |g_T dT| + |g_I dI| +
    |w g_V dV|.  g_I dI = (I - I*)(r_I cr - d_I - q) + g_I b V T and w g_V
    dV = w (p_eff I g_V - c (V - V*)), so each magnitude is bounded by
    products of monotone factors, each at its worst end of the box:
    |g_T| (s + r_T T |cr| + d_T T + b V_hi T + q I_hi), |I - I*| (r_I |cr| +
    d_I + q) + |g_I| b T V_hi and w (p_eff I_hi |g_V| + c |V - V*|).  That
    sum does not follow the route's operations, so it takes the rate's
    allowance (ALLOWANCE A plus the floor) too: the route's scale is within
    15u A of the exact one, and the sum within 10u A.  So the allowance
    also bounds how far the route's scale at one point of a box can exceed
    it at another where the exact scale is at least as large.

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


def bounds(params: ModelParameters, anchor: State, w: float, T, I, V_lo: float, V_hi: float):
    """(rate bound, term-scale bound, vertex) of the E* Lyapunov derivative
    with weight w on the rows (T, I) x [V_lo, V_hi]; T and I are columns.

    Term scale.  stability._lyapunov_rate's scale is |g_T dT| + |g_I dI| +
    |w g_V dV| with g_X = 1 - X*/X.  Here each field term is taken at the
    V end where it is largest (the infection term and c V at V_hi, |g_V|
    at whichever end is larger), and the magnitudes are summed in the
    route's order.  Rounding is monotone, so each intermediate is at least
    the route's at every V of the row: the bound needs no allowance.

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


def kept_lines(evaluate, w: float, params: ModelParameters, anchor: State, axis_T, axis_I, counts, axis_V, V_free: bool):
    """(indices, rate bounds, scale bounds, allowances) of the T lines whose
    points can set the certificate's worst margin, its term-scale peak or a
    violation (see line_bounds); the bounds are 1-D, inf or NaN where they
    bound nothing.

    Line i holds the pairs (axis_T[i], axis_I[j]) for j < counts[i], each
    against the V axis axis_V; w is the certificate's weight.  For E*,
    evaluate(T, I, V) gives the rate and term scale at grid points (T a
    column, I and V of one shape); its seeds are the grid point nearest Q's
    vertex in I and, at that I, nearest the vertex V/I of line_bounds, the
    grid point nearest (I*, V*) and the four corners of the line's box.
    For E0 (V_free) the rate does not depend on V and is bounded at V = 0:
    evaluate(T, I) gives each (T, I) pair's rate and its term scales at the
    V ends (columns), and the seeds are the pairs at the two I ends of the
    line and nearest Q's vertex.  evaluate raises DomainError where a term
    scale is not finite.  The seeds give lower bounds on the grid's peak
    and scale peak; a value above a finite bound of its line raises
    IntegrityError.  A line is kept if its bounds reach those lower bounds;
    every other line holds only points below the worst margin, below the
    scale peak and within the tolerance.
    """
    lines = counts.nonzero()[0]
    T, last = axis_T[lines], counts[lines] - 1
    top = len(axis_V) - 1
    I_lo, I_hi = axis_I[0], axis_I[last]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rate_bound, scale_bound, allowance, vertex_I, vertex_r = line_bounds(
            params, anchor, w, T, I_lo, I_hi, 0.0 if V_free else axis_V[0], axis_V[top]
        )
        nearest = axis_I[_nearest(axis_I, vertex_I, last)]
        if V_free:
            I = np.empty((len(T), 3))
            I[:, 0], I[:, 1], I[:, 2] = I_lo, I_hi, nearest
            value, scale = evaluate(T.repeat(3)[:, None], I.reshape(-1, 1))
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
            value, scale = evaluate(T[:, None], I, V)
        if (value > rate_bound[:, None]).any() or (scale > scale_bound[:, None]).any():
            raise IntegrityError(FAULT.format("T line"))
    keep = reaches(rate_bound, scale_bound, value.max(), scale.max()).nonzero()[0]
    return lines[keep], rate_bound[keep], scale_bound[keep], allowance[keep]


def kept_rows(rate, w: float, params: ModelParameters, anchor: State, pair_T, pair_I, caps, axis_V, pairs: int):
    """(indices, rate bounds, scale bounds) of the (T, I) rows whose points
    can set the E* certificate's worst margin, its term-scale peak or a
    violation; the bounds are columns, inf or NaN where they bound nothing.

    rate(T, I, V) is the certificate's rate kernel and w its weight; pair_T
    and pair_I are columns of the pairs of the kept T lines, and caps their
    lines' rate and scale bounds (columns), taken in blocks of pairs.  A
    row's bounds are its own or its line's, whichever is lower.  rate at
    three grid points of each pair, the two V ends and the grid V nearest
    its vertex, gives lower bounds on the grid's peak and scale peak; a
    value above a finite bound of its row raises IntegrityError.  A row is
    kept if its bounds reach the final lower bounds.  Every other row holds
    only points below the worst margin, below the scale peak and within
    the tolerance.  The lower bounds only grow, so each block keeps the
    rows that reach the running ones, and memory holds those rows, not a
    bound per pair.
    """
    V_lo, V_hi = float(axis_V[0]), float(axis_V[-1])
    peak, scale_peak = np.float64(-math.inf), np.float64(0.0)
    seeds = np.empty((min(pairs, len(pair_T)), 3))
    seeds[:, 0], seeds[:, 1] = V_lo, V_hi
    found = []
    for start in range(0, len(pair_T), pairs):
        T, I = pair_T[start : start + pairs], pair_I[start : start + pairs]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            bound, limit, vertex = bounds(params, anchor, w, T, I, V_lo, V_hi)
            # fmin: a row bound beyond the float range leaves its line's.
            bound = np.fmin(bound, caps[0][start : start + pairs])
            limit = np.fmin(limit, caps[1][start : start + pairs])
            seeds[: len(T), 2] = axis_V[_nearest(axis_V, vertex[:, 0], len(axis_V) - 1)]
            value, scale = rate(T, I, seeds[: len(T)])
            if (value > bound).any() or (scale > limit).any():
                raise IntegrityError(FAULT.format("(T, I) row"))
        peak = np.maximum(peak, value.max())
        scale_peak = np.maximum(scale_peak, scale.max())
        rows = reaches(bound, limit, peak, scale_peak).nonzero()[0]
        found.append((start + rows, bound[rows], limit[rows]))
    rows, bound, limit = (np.concatenate(arrays) for arrays in zip(*found))
    keep = reaches(bound, limit, peak, scale_peak)[:, 0]
    return rows[keep], bound[keep], limit[keep]
