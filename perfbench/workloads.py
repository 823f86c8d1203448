"""Seeded generation of each workload's inputs and op sequence.

`generate(workload, seed, seconds)` returns the files to write (relative
path -> text) and the ops to run, in order.  The same arguments give
byte-identical files and the same ops.  Every run of a workload has the
same mix: class counts are exact and each drawn quantity is stratified
(one draw per equal-probability slice, in shuffled order), so only which
op gets which value depends on the seed.  Nothing here imports hcvdyn; the
program receives only the generated files and arguments.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

import oracle

# hcvdyn.model.PLAUSIBLE_RANGES, restated so the generator stays independent
# of the program.  r_I, eta and epsilon have no published range.
PLAUSIBLE = {
    "s": (1.0, 1.8e5),
    "r_T": (2e-3, 3.4),
    "d_T": (1e-3, 1.4e-2),
    "d_I": (1e-3, 0.5),
    "T_max": (4e6, 1.3e7),
    "beta": (1e-8, 1e-6),
    "p": (0.1, 44.0),
    "c": (0.8, 22.0),
    "q": (0.0, 1.0),
}
R_I_RANGE = (0.01, 1.0)
EFFICACY_MAX = 0.5

S2 = dict(s=10.0, r_T=2.0, r_I=0.112, d_T=0.01, d_I=0.3, T_max=1e7,
          beta=1e-7, p=1.0, c=0.5, q=0.5, eta=1e-4, epsilon=1e-4)
INITIAL = (1e3, 2.0, 1.0)
T_END = 1000.0
C_RANGE = PLAUSIBLE["c"]

# Sweep axes: (lo, hi, scale).  eta either stops short of the domain edge
# or reaches it, where its cells come out invalid_params.
SWEEP_AXES = {
    "beta": (1e-8, 1e-6, "log"),
    "q": (0.0, 1.0, "linear"),
    "c": (0.8, 22.0, "log"),
    "r_I": (0.01, 1.0, "log"),
    "eta": (0.0, 0.95, "linear"),
    "p": (0.1, 44.0, "log"),
}
SWEEP_SIDE = (15, 50)
CERTIFY_GRID = (40, 140)

WORKLOADS = ("analyze", "sweep", "simulate", "certify")

# Ops per second of op time at the speed measured here, so that a run's
# fixed op sequence takes about --seconds; at least MIN_OPS so that p90 has
# ten samples beyond it.  BLOCK is the smallest count that keeps the class
# shares exact.
RATE = {"analyze": 480.0, "sweep": 11.0, "simulate": 15.0, "certify": 30.0}
BLOCK = {"analyze": 24, "sweep": 4, "simulate": 12, "certify": 4}
MIN_OPS = 120

# Work units that throughput_per_s counts, per workload.
UNITS = {"analyze": "analyses", "sweep": "cells", "simulate": "days", "certify": "points"}


@dataclass
class Op:
    index: int
    cls: str
    """Op class; the shares of classes are fixed per workload."""
    argv: list[str] | None = None
    """CLI arguments, or None for a library call described by `call`."""
    call: dict | None = None
    params: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def op_count(workload: str, seconds: float) -> int:
    n = max(MIN_OPS, round(seconds * RATE[workload]))
    return -(-n // BLOCK[workload]) * BLOCK[workload]


def _stratified(rng: random.Random, n: int) -> list[float]:
    """n draws in [0, 1), one per slice [k/n, (k+1)/n), shuffled."""
    draws = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(draws)
    return draws


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _random_params(rng: random.Random) -> dict:
    p = {}
    for name, (lo, hi) in PLAUSIBLE.items():
        p[name] = rng.uniform(lo, hi) if lo == 0.0 else _log_uniform(lo, hi, rng.random())
    p["r_I"] = _log_uniform(*R_I_RANGE, rng.random())
    p["eta"] = rng.uniform(0.0, EFFICACY_MAX)
    p["epsilon"] = rng.uniform(0.0, EFFICACY_MAX)
    return {name: p[name] for name in oracle.PARAMETER_NAMES}


def _params_with_r0(rng: random.Random, supercritical: bool, smaller_root: bool = False) -> dict:
    """Plausible parameters on the requested side of r0 = 1, by rejection.

    Supercritical sets have exactly one infected equilibrium.  With
    `smaller_root` it is the smaller root in T, where the program's E*
    cross-check raises; without it, the cross-check is expected to pass
    (see oracle.radical_crosscheck_raises).
    """
    while True:
        p = _random_params(rng)
        R0 = float(oracle.r0(p))
        if not supercritical:
            if R0 < 0.95:
                return p
        elif R0 > 1.05 and len(oracle.infected_equilibria(p)) == 1:
            wanted = oracle.smaller_root_is_the_equilibrium if smaller_root else oracle.radical_crosscheck_raises
            if bool(wanted(p)) == smaller_root:
                return p


def _render_scenario(name: str, params: dict, initial=INITIAL, t_end: float | None = T_END) -> str:
    lines = [f"name = {name}"]
    lines += [f"{key} = {params[key]!r}" for key in oracle.PARAMETER_NAMES]
    lines += [f"{key} = {value!r}" for key, value in zip(("T0", "I0", "V0"), initial)]
    if t_end is not None:
        lines.append(f"t_end = {t_end!r}")
    return "\n".join(lines) + "\n"


def _render_spec(name: str, params: dict, axes: list[tuple]) -> str:
    lines = [f"name = {name}"]
    lines += [f"{key} = {params[key]!r}" for key in oracle.PARAMETER_NAMES]
    for k, (axis, lo, hi, n, scale) in enumerate(axes, start=1):
        lines.append(f"axis{k} = {axis} {lo!r} {hi!r} {n} {scale}")
    lines.append("outputs = r0 regime t0 estar_T delta2")
    return "\n".join(lines) + "\n"


# Per block of 24 analyze ops: 18 analyze CLI runs, half on subcritical
# sets; one supercritical set in nine has its E* at the smaller root, where
# the program's radical cross-check raises (about one in fifteen plausible
# supercritical sets does).  6 threshold_locate calls, evenly along beta, q
# and eta; half of the eta axes reach eta = 1, outside the domain, where
# threshold_locate raises ParameterError.
ANALYZE_BLOCK = {
    "analyze_sub": 9, "analyze_super": 8, "analyze_super_smaller_root": 1,
    "threshold_beta": 2, "threshold_q": 2, "threshold_eta": 1, "threshold_eta_edge": 1,
}


def _analyze(rng: random.Random, n: int, files: dict) -> list[Op]:
    classes = [cls for cls, k in ANALYZE_BLOCK.items() for _ in range(k * n // 24)]
    rng.shuffle(classes)
    sizes = iter(_stratified(rng, n))
    ops = []
    for index, cls in enumerate(classes):
        u = next(sizes)
        if cls.startswith("analyze"):
            params = _params_with_r0(rng, cls != "analyze_sub", cls.endswith("smaller_root"))
            path = f"inputs/a{index:05d}.scn"
            files[path] = _render_scenario(f"a{index}", params)
            ops.append(Op(index, "analyze", argv=["analyze", path, "--machine", "--out", f"out/a{index:05d}.txt"],
                          params=params, meta={"sub": cls}))
            continue
        points = 11 + int(u * 21)
        if cls == "threshold_beta":
            axis = ("beta", 1e-8, 1e-6, points, "log")
        elif cls == "threshold_q":
            axis = ("q", 0.0, 1.0, points, "linear")
        elif cls == "threshold_eta":
            axis = ("eta", 0.0, 0.99, points, "linear")
        else:
            axis = ("eta", 0.0, 1.0, points, "linear")
        params = _params_with_r0(rng, rng.random() < 0.5)
        ops.append(Op(index, "threshold", call={"fn": "threshold_locate", "axis": axis},
                      params=params, meta={"sub": cls, "edge": cls == "threshold_eta_edge"}))
    return ops


def _ok_share(params: dict, axes: list[tuple]) -> float:
    """Share of a sweep's cells expected to come out ok (a unique E*)."""
    (n1, *a1), (n2, *a2) = axes
    v1, v2 = (oracle.axis_values(*a) for a in (a1, a2))
    p = {k: v for k, v in params.items()}
    p[n1], p[n2] = np.tile(v1, v2.size), np.repeat(v2, v1.size)
    roots = oracle.infected_roots(p)
    ok = oracle.in_domain(p) & (roots["count"] == 1) & ~oracle.radical_crosscheck_raises(p)
    return float(np.mean(ok))


def _sweep(rng: random.Random, n: int, files: dict) -> list[Op]:
    # Cell counts are stratified log-uniform between SWEEP_SIDE squared.
    # The share of cells with a unique E* (which also pay for characteristic
    # coefficients, about twice the cost of the others) follows the cell
    # count's stratum k by a fixed golden-ratio pattern, so the op at each
    # latency rank has much the same size and cost mix in every run; each
    # op draws specs until that share is within 0.05 of its target.
    lo, hi = SWEEP_SIDE
    areas, aspects = _stratified(rng, n), _stratified(rng, n)
    shares = [((int(u * n) + 0.5) * 0.6180339887498949) % 1.0 for u in areas]
    names = sorted(SWEEP_AXES)
    ops = []
    for index in range(n):
        area = _log_uniform(lo * lo, hi * hi, areas[index])
        aspect = 2.0 ** (aspects[index] - 0.5)
        n1 = min(hi, max(lo, round(math.sqrt(area * aspect))))
        n2 = min(hi, max(lo, round(area / n1)))
        best = None
        for _ in range(200):
            axes = []
            for axis, size in zip(rng.sample(names, 2), (n1, n2)):
                a_lo, a_hi, scale = SWEEP_AXES[axis]
                if axis == "eta" and rng.random() < 0.5:
                    a_hi = 1.0
                axes.append((axis, a_lo, a_hi, size, scale))
            params = _params_with_r0(rng, rng.random() < 0.5)
            miss = abs(_ok_share(params, axes) - shares[index])
            if best is None or miss < best[0]:
                best = (miss, params, axes)
            if miss < 0.05:
                break
        _, params, axes = best
        path = f"inputs/w{index:04d}.swp"
        files[path] = _render_spec(f"w{index}", params, axes)
        ops.append(Op(index, "sweep", argv=["sweep", path, "--out", f"out/w{index:04d}.csv"],
                      params=params, meta={"axes": axes, "cells": n1 * n2}))
    return ops


def _simulate(rng: random.Random, n: int, files: dict) -> list[Op]:
    # 3/4 CLI runs with 1-day samples ("dense"), 1/4 library runs sampled
    # only at t_end ("endpoint"), all on the reference scenario s2 with c at
    # the midpoints of equal-probability slices of log-uniform c over its
    # plausible range, in seeded order.  Every run thus holds the same c
    # values, so the ops that exit 2 on the integrator's negative dips
    # (a few c values above 5) are the same share in every run.  s2 is supercritical for c < 1.24 and
    # subcritical above.  (On s1, supercritical c makes the explicit
    # integrator stall near t = 336 for hours, so no op could be timed.)
    plan = [("dense", k) for k in range(3 * n // 4)] + [("endpoint", k) for k in range(n // 4)]
    draws = {cls: [(k + 0.5) / m for k in range(m)] for cls, m in (("dense", 3 * n // 4), ("endpoint", n // 4))}
    rng.shuffle(plan)
    ops = []
    for index, (cls, k) in enumerate(plan):
        u = draws[cls][k]
        params = dict(S2, c=_log_uniform(*C_RANGE, u))
        meta = {"c": params["c"], "tercile": min(2, int(3 * u)), "days": T_END}
        if cls == "dense":
            path = f"inputs/s{index:04d}.scn"
            files[path] = _render_scenario(f"s{index}", params)
            ops.append(Op(index, "dense", argv=["simulate", path, "--out", f"out/s{index:04d}.csv"],
                          params=params, meta=meta))
        else:
            ops.append(Op(index, "endpoint", call={"fn": "integrate", "t_end": T_END, "initial": INITIAL},
                          params=params, meta=meta))
    return ops


def _theorem_params(rng: random.Random, target: str) -> dict:
    """Plausible parameters on which the certificate's theorem applies.

    E0: R0 < 1 - q/delta.  E*: the slice r_I = r_T, s = d_T T_max,
    d_I + q = d_T, with R0 > 1 and a unique E* at the larger root.  The
    theorems promise a clean grid, so the op's cost is the grid kernel and
    not the construction of a violation list whose length would vary
    with the drawn parameters by orders of magnitude.
    """
    while True:
        if target == "e0":
            p = _params_with_r0(rng, supercritical=False)
            if 1.0 - p["q"] / (p["d_I"] + p["q"]) - float(oracle.r0(p)) > 0.0:
                return p
            continue
        p = _random_params(rng)
        p["r_I"] = p["r_T"]
        p["s"] = p["d_T"] * p["T_max"]
        p["d_I"] = p["d_T"] * rng.uniform(0.1, 0.9)
        p["q"] = p["d_T"] - p["d_I"]
        if (float(oracle.r0(p)) > 1.05 and len(oracle.infected_equilibria(p)) == 1
                and not oracle.radical_crosscheck_raises(p)):
            return p


def _certify(rng: random.Random, n: int, files: dict) -> list[Op]:
    # Half target E0, half E*, all on parameters where the theorem holds.
    # N = 40 * 3.5 ** (u ** 2) for stratified u: most ops are small, the top
    # decile spans about 110 to 140, and the op with the largest u runs at
    # N = 140 exactly, which sets peak RSS.
    lo, hi = CERTIFY_GRID
    grids = _stratified(rng, n)
    top = max(range(n), key=grids.__getitem__)
    ops = []
    for index in range(n):
        u = grids[index]
        grid = hi if index == top else round(lo * (hi / lo) ** (u * u))
        target = "e0" if index % 2 == 0 else "estar"
        params = _theorem_params(rng, target)
        path = f"inputs/c{index:04d}.scn"
        files[path] = _render_scenario(f"c{index}", params, t_end=None)
        ops.append(Op(index, "certify", argv=["certify", path, "--target", target, "--grid", str(grid)],
                      params=params, meta={"target": target, "grid": grid}))
    return ops


_BUILDERS = {"analyze": _analyze, "sweep": _sweep, "simulate": _simulate, "certify": _certify}


def generate(workload: str, seed: int, seconds: float) -> tuple[dict[str, str], list[Op]]:
    """Files (relative path -> text) and the op sequence for one run."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    files: dict[str, str] = {}
    ops = _BUILDERS[workload](rng, op_count(workload, seconds), files)
    return files, ops
