"""Independent recomputation of what the benchmarked ops return.

Output checks compare the program's answers with values computed here from
the model equations, by routes that share no code with hcvdyn: E0 and r0
from their formulas, infected equilibria from a polynomial built by numpy
quadratic expanded here from the model equations, the Hurwitz determinant
from a Jacobian's principal minors, certificate margins by streaming
the grid one T-slice at a time, and trajectory endpoints from scipy's
implicit Radau method.  Nothing here imports hcvdyn.

A parameter set is a dict keyed by the twelve model parameter names; the
array functions accept dicts of equal-length numpy arrays as well.
"""

from __future__ import annotations

import math

import numpy as np

PARAMETER_NAMES = ("s", "r_T", "r_I", "d_T", "d_I", "T_max", "beta", "p", "c", "q", "eta", "epsilon")


def in_domain(p) -> bool | np.ndarray:
    """The model's hard parameter domain: rates >= 0, c > 0, T_max > 0,
    efficacies in [0, 1)."""
    ok = (p["c"] > 0) & (p["T_max"] > 0)
    for name in ("s", "r_T", "r_I", "d_T", "d_I", "beta", "p", "q"):
        ok = ok & (p[name] >= 0)
    for name in ("eta", "epsilon"):
        ok = ok & (p[name] >= 0) & (p[name] < 1)
    return ok


def t0(p):
    """Uninfected level: positive root of s + (r_T - d_T) T - (r_T/T_max) T^2."""
    g = p["r_T"] - p["d_T"]
    k = p["r_T"] / p["T_max"]
    # Product of roots for g < 0 avoids cancelling g + disc.
    if np.ndim(g) == 0:
        disc = math.sqrt(g * g + 4.0 * p["s"] * k)
        return (g + disc) / (2.0 * k) if g >= 0 else 2.0 * p["s"] / (disc - g)
    disc = np.sqrt(g * g + 4.0 * p["s"] * k)
    return np.where(g >= 0, (g + disc) / (2.0 * k), 2.0 * p["s"] / (disc - g))


def r0(p, T0=None):
    """Basic reproduction number at the uninfected level T0."""
    T0 = t0(p) if T0 is None else T0
    delta = p["d_I"] + p["q"]
    b_eff = (1.0 - p["eta"]) * p["beta"]
    p_eff = (1.0 - p["epsilon"]) * p["p"]
    return p["r_I"] / delta * (1.0 - T0 / p["T_max"]) + b_eff * p_eff * T0 / (p["c"] * delta)


def spectral_radius(p) -> float:
    """Spectral radius of the next-generation matrix -F V^-1 at E0, by
    numpy's eigensolver."""
    T0 = float(t0(p))
    delta = p["d_I"] + p["q"]
    F = np.array([[p["r_I"] * (1.0 - T0 / p["T_max"]), (1.0 - p["eta"]) * p["beta"] * T0], [0.0, 0.0]])
    V = np.array([[-delta, 0.0], [(1.0 - p["epsilon"]) * p["p"], -p["c"]]])
    return float(np.max(np.abs(np.linalg.eigvals(-F @ np.linalg.inv(V)))))


def field(p, T, I, V):
    """Right-hand side of the model, componentwise, broadcasting."""
    crowd = 1.0 - (T + I) / p["T_max"]
    inf = (1.0 - p["eta"]) * p["beta"] * V * T
    dT = p["s"] + p["r_T"] * T * crowd - p["d_T"] * T - inf + p["q"] * I
    dI = p["r_I"] * I * crowd - p["d_I"] * I + inf - p["q"] * I
    dV = (1.0 - p["epsilon"]) * p["p"] * I - p["c"] * V
    return dT, dI, dV


def relative_residual(p, T, I, V) -> float:
    """Largest |f_i| / (sum of |terms| of f_i) at a state."""
    crowd = 1.0 - (T + I) / p["T_max"]
    inf = abs((1.0 - p["eta"]) * p["beta"] * V * T)
    scales = (
        p["s"] + abs(p["r_T"] * T * crowd) + abs(p["d_T"] * T) + inf + abs(p["q"] * I),
        abs(p["r_I"] * I * crowd) + abs(p["d_I"] * I) + inf + abs(p["q"] * I),
        abs((1.0 - p["epsilon"]) * p["p"] * I) + abs(p["c"] * V),
    )
    worst = 0.0
    for f, sc in zip(field(p, T, I, V), scales):
        worst = max(worst, abs(f) / sc if sc > 0 else (0.0 if f == 0 else math.inf))
    return worst


def equilibrium_quadratic(p):
    """Coefficients (c0, c1, c2) of the polynomial whose roots are T*.

    At an infected steady state V = p_eff I / c, and the I-equation divided
    by I gives I = i0 + i1 T; putting both into dT/dt + dI/dt = 0 leaves
    c0 + c1 T + c2 T^2 = 0, expanded here directly from the model equations.
    """
    b_eff = (1.0 - p["eta"]) * p["beta"]
    p_eff = (1.0 - p["epsilon"]) * p["p"]
    r_I, T_max = p["r_I"], p["T_max"]
    i0 = T_max * (1.0 - (p["d_I"] + p["q"]) / r_I)
    i1 = b_eff * p_eff * T_max / (p["c"] * r_I) - 1.0
    u0 = 1.0 - i0 / T_max            # crowding 1 - (T + I)/T_max = u0 + u1 T
    u1 = -(1.0 + i1) / T_max
    c0 = p["s"] + r_I * i0 * u0 - p["d_I"] * i0
    c1 = p["r_T"] * u0 - p["d_T"] + r_I * (i0 * u1 + i1 * u0) - p["d_I"] * i1
    c2 = p["r_T"] * u1 + r_I * i1 * u1
    return (c0, c1, c2), (i0, i1), p_eff


def infected_roots(p) -> dict:
    """Both roots in T, which of them are infected equilibria, and whether
    that verdict is robust: no root within 1e-6 T_max of a filter edge and
    no near-double root.  Broadcasts over arrays of parameters."""
    (c0, c1, c2), (i0, i1), p_eff = equilibrium_quadratic(p)
    T_max = p["T_max"]
    with np.errstate(invalid="ignore", divide="ignore"):
        disc = c1 * c1 - 4.0 * c2 * c0
        u = -0.5 * (c1 + np.copysign(np.sqrt(np.maximum(disc, 0.0)), c1))
        real = (disc >= 0) & (c2 != 0) & (u != 0)
        lo = np.minimum(u / c2, c0 / u)
        hi = np.maximum(u / c2, c0 / u)
        out = {"roots": (lo, hi), "I": (i0 + i1 * lo, i0 + i1 * hi)}
        robust = np.abs(disc) > 1e-9 * c1 * c1
        for key, T, I in (("lo", lo, out["I"][0]), ("hi", hi, out["I"][1])):
            out[key] = real & (T > 0) & (T <= T_max * (1.0 + 1e-12)) & (I > 0)
            edge = np.minimum(np.minimum(np.abs(T), np.abs(T - T_max)), np.abs(I))
            robust = robust & (~real | (edge > 1e-6 * T_max))
    out["count"] = out["lo"].astype(int) + out["hi"].astype(int)
    out["robust"] = robust
    out["p_eff"] = p_eff
    return out


def infected_equilibria(p) -> list[tuple[float, float, float]]:
    """Infected steady states (T*, I*, V*) of a scalar parameter set."""
    roots = infected_roots(p)
    out = []
    for k, key in enumerate(("lo", "hi")):
        if bool(roots[key]):
            T, I = float(roots["roots"][k]), float(roots["I"][k])
            out.append((T, I, float(roots["p_eff"]) * I / p["c"]))
    return out


def smaller_root_is_the_equilibrium(p):
    """True where the only infected equilibrium is the smaller root in T."""
    roots = infected_roots(p)
    return roots["lo"] & ~roots["hi"]


def radical_crosscheck_raises(p):
    """Where hcvdyn's E* cross-check raises IntegrityError at this commit.

    hcvdyn compares its T* with a radical closed form that always takes the
    larger root, and that cancels catastrophically when the other root is
    about 1e7 times larger in magnitude; either way the two disagree by
    more than its 1e-9 tolerance.  The second condition is flagged from a
    ratio of 1e6, with margin.
    """
    roots = infected_roots(p)
    lo, hi = roots["roots"]
    with np.errstate(divide="ignore", invalid="ignore"):
        cancels = roots["hi"] & ~roots["lo"] & (np.abs(lo) > 1e6 * np.abs(hi))
    return smaller_root_is_the_equilibrium(p) | cancels


def hurwitz_delta2(p, T, I, V):
    """a1 a2 - a3 of det(lambda - J) from J's principal minors, and the
    scale it cancels from.  Broadcasts."""
    b_eff = (1.0 - p["eta"]) * p["beta"]
    crowd = 1.0 - (T + I) / p["T_max"]
    j00 = p["r_T"] * crowd - p["r_T"] * T / p["T_max"] - p["d_T"] - b_eff * V
    j01 = -p["r_T"] * T / p["T_max"] + p["q"]
    j02 = -b_eff * T
    j10 = -p["r_I"] * I / p["T_max"] + b_eff * V
    j11 = p["r_I"] * crowd - p["r_I"] * I / p["T_max"] - p["d_I"] - p["q"]
    j12 = b_eff * T
    j21 = (1.0 - p["epsilon"]) * p["p"]
    j22 = -p["c"]
    a1 = -(j00 + j11 + j22)
    a2 = j00 * j11 - j01 * j10 + j00 * j22 + j11 * j22 - j12 * j21  # J[2][0] = 0
    a3 = -(j00 * (j11 * j22 - j12 * j21) - j01 * (j10 * j22) + j02 * (j10 * j21))
    return a1 * a2 - a3, np.abs(a1 * a2) + np.abs(a3)


def axis_values(lo: float, hi: float, n: int, scale: str) -> np.ndarray:
    """A sweep axis's grid values."""
    if scale == "log":
        return np.logspace(math.log10(lo), math.log10(hi), n)
    return np.linspace(lo, hi, n)


def grid_axis(bound: float, n: int) -> np.ndarray:
    return np.logspace(math.log10(1e-6 * bound), math.log10(bound), n)


def certificate_bound(p) -> float:
    """Ceiling of T + I: positive root of s + (r_T - d_T) x - (r_I/T_max) x^2."""
    g = p["r_T"] - p["d_T"]
    k = p["r_I"] / p["T_max"]
    disc = math.sqrt(g * g + 4.0 * p["s"] * k)
    return (g + disc) / (2.0 * k) if g >= 0 else 2.0 * p["s"] / (disc - g)


def certificate_points(p, n: int) -> int:
    """Grid points with T + I inside the ceiling, times n values of V."""
    bound = certificate_bound(p)
    axis = grid_axis(bound, n)
    return n * int(np.count_nonzero(axis[:, None] + axis[None, :] <= bound * (1.0 + 1e-12)))


def certificate(p, target: str, n: int, anchor: tuple[float, float, float]) -> dict:
    """Grid certificate recomputed one T-slice at a time.

    Returns the number of sampled points, the largest derivative, the
    tolerance, and how many points exceed the tolerance widened and
    narrowed by 1e-9 relative (a count inside that bracket is right).
    The tolerance is 1e-9 times the largest term scale, at least 1e-9, so
    only values above 1e-9 are kept until that scale is known.
    """
    bound = certificate_bound(p)
    b_eff = (1.0 - p["eta"]) * p["beta"]
    p_eff = (1.0 - p["epsilon"]) * p["p"]
    axis_ti = grid_axis(bound, n)
    axis_v = grid_axis(p_eff * bound / p["c"], n)
    aT, aI, aV = anchor
    points, worst, scale_max = 0, -math.inf, 0.0
    candidates = []
    I2, V2 = np.meshgrid(axis_ti, axis_v, indexing="ij")
    for T in axis_ti:
        keep = T + I2 <= bound * (1.0 + 1e-12)
        I, V = I2[keep], V2[keep]
        if I.size == 0:
            continue
        f0, f1, f2 = field(p, T, I, V)
        gT = 1.0 - aT / T
        if target == "e0":
            dl = gT * f0 + f1 + (b_eff * aT / p["c"]) * f2
            sc = np.abs(gT * f0) + np.abs(f1) + np.abs(b_eff * aT / p["c"] * f2)
        else:
            w = b_eff * aT * aV / (p_eff * aI)
            gI = 1.0 - aI / I
            gV = w * (1.0 - aV / V)
            dl = gT * f0 + gI * f1 + gV * f2
            sc = np.abs(gT * f0) + np.abs(gI * f1) + np.abs(gV * f2)
        points += I.size
        worst = max(worst, float(dl.max()))
        scale_max = max(scale_max, float(sc.max()))
        candidates.append(dl[dl > 1e-9 * (1.0 - 1e-9)])
    tol = 1e-9 * max(1.0, scale_max)
    kept = np.concatenate(candidates) if candidates else np.empty(0)
    hi = int(np.count_nonzero(kept > tol * (1.0 + 1e-9)))
    lo = int(np.count_nonzero(kept > tol * (1.0 - 1e-9)))
    return {"points": points, "min_margin": worst, "tolerance": tol, "violations": (hi, lo)}


def radau_endpoint(p, y0: tuple[float, float, float], t_end: float) -> np.ndarray:
    """Trajectory endpoint from scipy's implicit Radau method."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        lambda t, y: field(p, y[0], y[1], y[2]),
        (0.0, t_end),
        np.array(y0, dtype=float),
        method="Radau",
        rtol=1e-10,
        atol=1e-12,
            )
    if not sol.success:
        raise RuntimeError(f"Radau reference failed: {sol.message}")
    return sol.y[:, -1]
