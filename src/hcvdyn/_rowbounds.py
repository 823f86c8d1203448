"""Bounds on the E* certificate's Lyapunov derivative along its V rows.

certify_global samples dL/dt for E* on (T, I) pairs times the V axis.  On
each pair's row the derivative has a closed-form maximum over V, so per-row
upper bounds on the rate and on its term scale, against lower bounds taken
from a few real grid points, rule out the rows that cannot hold the grid's
worst margin, its term-scale peak or a violation.  certify_global scans
only the rows kept_rows returns, and its report is the full scan's.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add

import numpy as np

from .errors import IntegrityError
from .model import ModelParameters, State, _field_terms
from .tolerances import DEFAULT_TOLERANCES

# Rounding allowance of the rate bound, per unit of its row's monomial
# magnitude sum, and its floor for underflow, per unit of the row's largest
# factor on a product that may underflow (see bounds).
ALLOWANCE = 2.0**-44
UNDERFLOW = 2.0**-1060

FAULT = "Estar Lyapunov derivative or its term scale exceeds the bound of its (T, I) row on the certificate grid"


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
    float range makes a bound inf or NaN; such rows are scanned.
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
    return peak + (ALLOWANCE * span + floor), scale_bound, vertex


def reaches(rate_bound, scale_bound, peak, scale_peak):
    """Which rows' bounds reach the lower bounds peak and scale_peak on the
    grid's peak and term-scale peak, or the margin of scale_peak, below
    every tolerance the grid can give; an inf bound reaches all three."""
    tolerance = DEFAULT_TOLERANCES.certificate_margin * max(1.0, float(scale_peak))
    with np.errstate(invalid="ignore"):
        return (rate_bound >= peak) | (scale_bound >= scale_peak) | (rate_bound > tolerance) | (rate_bound == math.inf)


def kept_rows(rate, w: float, params: ModelParameters, anchor: State, pair_T, pair_I, axis_V, pairs: int):
    """(indices, rate bounds, scale bounds) of the (T, I) rows whose points
    can set the E* certificate's worst margin, its term-scale peak or a
    violation; the bounds are columns, inf where one is not finite.

    rate(T, I, V) is the certificate's rate kernel and w its weight; pair_T
    and pair_I are columns of the kept pairs, taken in blocks of pairs.
    rate at three grid points of each pair, the two V ends and the grid V
    nearest its vertex, gives lower bounds on the grid's peak and scale
    peak; a value above a finite bound of its row raises IntegrityError.
    A row is kept if its bounds reach the final lower bounds.  Every other
    row holds only points below the worst margin, below the scale peak and
    within the tolerance.  The lower bounds only grow, so each block keeps
    the rows that reach the running ones, and memory holds those rows, not
    a bound per pair.
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
            vertex = vertex[:, 0]
            above = np.minimum(np.searchsorted(axis_V, vertex), len(axis_V) - 1)
            below = np.maximum(above - 1, 0)
            nearer = vertex / axis_V[below] < axis_V[above] / vertex
            seeds[: len(T), 2] = axis_V[np.where(nearer, below, above)]
            value, scale = rate(T, I, seeds[: len(T)])
            bounded = np.isfinite(bound) & np.isfinite(limit)
            if np.any(bounded & ~((value <= bound) & (scale <= limit))):
                raise IntegrityError(FAULT)
        peak = np.maximum(peak, np.max(value))
        scale_peak = np.maximum(scale_peak, np.max(scale))
        bound, limit = np.where(bounded, bound, math.inf), np.where(bounded, limit, math.inf)
        rows = np.flatnonzero(reaches(bound, limit, peak, scale_peak))
        found.append((start + rows, bound[rows], limit[rows]))
    rows, bound, limit = (np.concatenate(arrays) for arrays in zip(*found))
    keep = reaches(bound, limit, peak, scale_peak)[:, 0]
    return rows[keep], bound[keep], limit[keep]
