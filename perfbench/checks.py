"""Output checks, run after the timed phase against `oracle`.

Each check gets the op and what it produced and returns None when the
output is right, or a one-line reason when it is not.  Checks read the
files the ops wrote; nothing here imports hcvdyn.
"""

from __future__ import annotations

import numpy as np

import oracle

REGIMES = {0: "no_infected_eq", 1: "unique_infected_eq", 2: "multiple_candidates"}


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def pairs(text: str) -> dict[str, str]:
    """The `key = value` lines of a report; the first of a repeated key."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out.setdefault(key, value)
    return out


def analyze(op, text: str) -> str | None:
    got = pairs(text)
    p = op.params
    T0, R0 = float(oracle.t0(p)), float(oracle.r0(p))
    for key, want in (("t0", T0), ("r0", R0), ("r0_spectral", oracle.spectral_radius(p))):
        if not _close(float(got[key]), want, 1e-9):
            return f"{key} = {got[key]}, expected {want!r}"
    if got["r0_relation"] != ("r0 < 1" if R0 < 1 else "r0 > 1"):
        return f"r0_relation {got['r0_relation']!r} for r0 = {R0!r}"
    roots = oracle.infected_roots(p)
    if bool(roots["robust"]) and got["regime"] != REGIMES[int(roots["count"])]:
        return f"regime {got['regime']} but {int(roots['count'])} infected equilibria"
    if got["estar_present"] == "true":
        T, I, V = (float(got[k]) for k in ("estar_T", "estar_I", "estar_V"))
        if oracle.relative_residual(p, T, I, V) > 1e-8:
            return f"E* = ({T!r}, {I!r}, {V!r}) is not a steady state"
        want, scale = oracle.hurwitz_delta2(p, T, I, V)
        if abs(float(got["delta2"]) - want) > 1e-6 * scale:
            return f"delta2 = {got['delta2']}, expected {want!r}"
    return None


def _gap(p: dict, name: str, x) -> np.ndarray:
    return oracle.r0(dict(p, **{name: x})) - 1.0


def threshold(op, result) -> str | None:
    name, lo, hi, n, scale = op.call["axis"]
    p = op.params
    if not result.found:
        gaps = _gap(p, name, oracle.axis_values(lo, hi, n, scale))
        if np.any(gaps > 1e-12) and np.any(gaps < -1e-12):
            return "no crossing reported, but r0 - 1 changes sign on the axis grid"
        return None
    b_lo, b_hi = result.bracket
    x = result.axis_value
    if not b_lo <= x <= b_hi or b_hi - b_lo > 1e-9 * max(abs(b_lo), abs(b_hi)):
        return f"bracket {result.bracket!r} around {x!r}"
    g_lo, g_hi = float(_gap(p, name, b_lo)), float(_gap(p, name, b_hi))
    if g_lo * g_hi > 0 and min(abs(g_lo), abs(g_hi)) > 1e-9:
        return f"r0 - 1 has one sign across the bracket: {g_lo!r}, {g_hi!r}"
    if not _close(result.r0_at_value, float(oracle.r0(dict(p, **{name: x}))), 1e-9):
        return f"r0 at the crossing {result.r0_at_value!r}"
    return None


def sweep(op, text: str) -> str | None:
    lines = text.splitlines()
    axes = op.meta["axes"]
    header = [a[0] for a in axes] + ["r0", "regime", "t0", "estar_T", "delta2", "status"]
    if lines[0].split(",") != header:
        return f"header {lines[0]!r}"
    rows = [line.split(",") for line in lines[1:]]
    (n1_name, *a1), (n2_name, *a2) = axes
    v1, v2 = oracle.axis_values(*a1), oracle.axis_values(*a2)
    if len(rows) != v1.size * v2.size:
        return f"{len(rows)} rows for a {v1.size}x{v2.size} grid"
    x1 = np.array([float(r[0]) for r in rows])
    x2 = np.array([float(r[1]) for r in rows])
    if not (np.array_equal(x1, np.tile(v1, v2.size)) and np.array_equal(x2, np.repeat(v2, v1.size))):
        return "axis values are not the row-major grid with axis1 fastest"
    p = {k: np.full(x1.size, v) for k, v in op.params.items()}
    p[n1_name], p[n2_name] = x1, x2
    status = np.array([r[7] for r in rows])
    regime = np.array([r[3] for r in rows])
    r0_col, t0_col, estar_col, d2_col = (np.array([float(r[k]) for r in rows]) for k in (2, 4, 5, 6))

    domain = oracle.in_domain(p)
    # The program reports a cell whose analysis raises as invalid_params,
    # as its E* cross-check does on some cells at this commit.
    raises = domain & oracle.radical_crosscheck_raises(p)
    invalid = status == "invalid_params"
    if np.any(invalid & domain & ~raises) or np.any(~invalid & ~domain):
        k = int(np.flatnonzero((invalid & domain & ~raises) | (~invalid & ~domain))[0])
        return f"cell {k}: status {status[k]} for parameters {'in' if domain[k] else 'outside'} the domain"
    live = ~invalid
    q = {k: v[live] for k, v in p.items()}
    T0 = oracle.t0(q)
    R0 = oracle.r0(q, T0)
    if not (np.allclose(t0_col[live], T0, rtol=1e-9, atol=0) and np.allclose(r0_col[live], R0, rtol=1e-9, atol=0)):
        return "t0 or r0 differs from the closed forms"
    roots = oracle.infected_roots(q)
    want_regime = np.array([REGIMES[int(c)] for c in roots["count"]])
    robust = roots["robust"]
    if np.any(robust & (regime[live] != want_regime)):
        return "regime differs from the infected-equilibrium count"
    ok = status[live] == "ok"
    if np.any(robust & (ok != (roots["count"] == 1))):
        return "status ok does not match a unique infected equilibrium"
    # E* is whichever root survived the filter.
    T_star = np.where(roots["hi"], roots["roots"][1], roots["roots"][0])[ok]
    I_star = np.where(roots["hi"], roots["I"][1], roots["I"][0])[ok]
    if not np.allclose(estar_col[live][ok], T_star, rtol=1e-8, atol=0):
        return "estar_T differs from the infected equilibrium"
    q_ok = {k: v[ok] for k, v in q.items()}
    V_star = roots["p_eff"][ok] * I_star / q_ok["c"]
    want, scale = oracle.hurwitz_delta2(q_ok, T_star, I_star, V_star)
    if np.any(np.abs(d2_col[live][ok] - want) > 1e-6 * scale):
        return "delta2 differs from the principal-minor route"
    return None


def _endpoint_close(got: np.ndarray, want: np.ndarray, scale: np.ndarray) -> bool:
    return bool(np.all(np.abs(got - want) <= 1e-5 * np.abs(want) + 1e-7 * scale))


def dense(op, text: str, summary: str, reference) -> str | None:
    data = np.loadtxt(text.splitlines()[1:], delimiter=",", ndmin=2)
    days = int(op.meta["days"])
    if data.shape != (days + 1, 4) or not np.array_equal(data[:, 0], np.arange(days + 1.0)):
        return f"trajectory has shape {data.shape}, expected one sample per day"
    if not np.all(np.isfinite(data)):
        return "non-finite samples"
    got = pairs(summary)
    if int(got["samples"]) != days + 1 or int(got["steps_taken"]) <= 0:
        return f"summary samples {got['samples']} steps {got['steps_taken']}"
    final = np.array([float(got[k]) for k in ("final_T", "final_I", "final_V")])
    if not np.array_equal(final, data[-1, 1:]):
        return "summary final state differs from the last CSV row"
    if reference is not None:
        if not _endpoint_close(final, reference, np.abs(data[:, 1:]).max(axis=0)):
            return f"final state {final.tolist()} differs from Radau {reference.tolist()}"
    return None


def endpoint(op, trajectory, reference) -> str | None:
    if trajectory.times.tolist() != [0.0, op.call["t_end"]] or trajectory.steps_taken <= 0:
        return f"samples at {trajectory.times.tolist()}"
    final = trajectory.states[-1]
    if not np.all(np.isfinite(final)):
        return "non-finite final state"
    if reference is not None:
        scale = np.maximum(np.abs(trajectory.states).max(axis=0), np.abs(reference))
        if not _endpoint_close(final, reference, scale):
            return f"final state {final.tolist()} differs from Radau {reference.tolist()}"
    return None


def certify(op, stdout: str, code: int, full: bool) -> str | None:
    got = pairs(stdout)
    p, target, n = op.params, op.meta["target"], op.meta["grid"]
    R0 = float(oracle.r0(p))
    if not _close(float(got["r0"]), R0, 1e-9):
        return f"r0 = {got['r0']}, expected {R0!r}"
    if target == "e0":
        delta = p["d_I"] + p["q"]
        met = (1.0 - p["q"] / delta) - R0 > 0
        anchor = (float(oracle.t0(p)), 0.0, 0.0)
    else:
        same = lambda x, y: abs(x - y) <= 1e-9 * max(abs(x), abs(y))
        met = (same(p["r_I"], p["r_T"]) and same(p["s"], p["d_T"] * p["T_max"])
               and same(p["d_I"] + p["q"], p["d_T"]) and R0 > 1)
        anchor = oracle.infected_equilibria(p)[0]
    if (got["preconditions_met"] == "true") != met:
        return f"preconditions_met = {got['preconditions_met']}, expected {met}"
    violations = int(got["violations"])
    want_code = 2 if violations else (0 if met else 3)
    if code != want_code:
        return f"exit code {code} with {violations} violations"
    if got["grid_shape"] != f"{n}x{n}x{n}":
        return f"grid_shape {got['grid_shape']}"
    if int(got["points_sampled"]) != oracle.certificate_points(p, n):
        return f"points_sampled {got['points_sampled']}, expected {oracle.certificate_points(p, n)}"
    if not full:
        return None
    ref = oracle.certificate(p, target, n, anchor)
    if not ref["violations"][0] <= violations <= ref["violations"][1]:
        return f"{violations} violations, expected {ref['violations']}"
    if abs(float(got["min_margin"]) - ref["min_margin"]) > ref["tolerance"]:
        return f"min_margin {got['min_margin']}, expected {ref['min_margin']!r}"
    return None
