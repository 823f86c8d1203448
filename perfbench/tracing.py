"""Spans around hcvdyn's layers, recorded from the benchmark's own code.

`Tracer.install` replaces each public function at the names its callers
look up (for example ``hcvdyn.cli.stability_report`` and
``hcvdyn.sweep.uninfected_equilibrium``) with a wrapper that records a
span: id, parent id, op id, name, start, end and a few result counts.
`Tracer.uninstall` puts the originals back.  Spans stay in memory until
the run ends.  Spans opened on the sweep's pool threads have no parent on
their own thread and attach to the enclosing ``sweep.run_sweep`` span.

The closure returned by ``hcvdyn.simulate.field_function`` is wrapped to
count right-hand-side evaluations; a span per evaluation would cost more
than the evaluation.
"""

from __future__ import annotations

import importlib
import threading
import time
import tracemalloc
from collections import defaultdict

# (module, attribute) -> span name.  Several bindings of one function share
# a span name; a call goes through exactly one binding.
WRAPPED = {
    ("cli", "parse_scenario"): "formats.parse_scenario",
    ("cli", "parse_sweep_spec"): "formats.parse_sweep_spec",
    ("cli", "resolve_scenario_path"): "formats.resolve_scenario_path",
    ("cli", "write_trajectory_csv"): "formats.write_trajectory_csv",
    ("cli", "write_sweep_csv"): "formats.write_sweep_csv",
    ("cli", "stability_report"): "stability.stability_report",
    ("cli", "certify_global"): "stability.certify_global",
    ("cli", "run_sweep"): "sweep.run_sweep",
    ("cli", "integrate"): "simulate.integrate",
    ("cli", "convergence_report"): "simulate.convergence_report",
    ("stability", "existence_regime"): "equilibria.existence_regime",
    ("stability", "infected_equilibrium"): "equilibria.infected_equilibrium",
    ("stability", "uninfected_equilibrium"): "equilibria.uninfected_equilibrium",
    ("stability", "uninfected_local"): "stability.uninfected_local",
    ("stability", "characteristic_coefficients"): "stability.characteristic_coefficients",
    ("stability", "infected_jacobian"): "stability.infected_jacobian",
    ("stability", "cubic_roots"): "stability.cubic_roots",
    ("stability", "routh_hurwitz"): "stability.routh_hurwitz",
    ("stability", "r0_from_T0"): "reproduction.r0_from_T0",
    ("equilibria", "uninfected_equilibrium"): "equilibria.uninfected_equilibrium",
    ("equilibria", "infected_equilibrium"): "equilibria.infected_equilibrium",
    ("equilibria", "existence_regime"): "equilibria.existence_regime",
    ("reproduction", "uninfected_equilibrium"): "equilibria.uninfected_equilibrium",
    ("reproduction", "r0_from_T0"): "reproduction.r0_from_T0",
    ("reproduction", "r0"): "reproduction.r0",
    ("reproduction", "r0_spectral"): "reproduction.r0_spectral",
    ("sweep", "uninfected_equilibrium"): "equilibria.uninfected_equilibrium",
    ("sweep", "infected_equilibrium"): "equilibria.infected_equilibrium",
    ("sweep", "r0_from_T0"): "reproduction.r0_from_T0",
    ("sweep", "characteristic_coefficients"): "stability.characteristic_coefficients",
    ("sweep", "_target_gap"): "sweep.target_gap",
}


def _sweep_counts(grid):
    return len(grid.cells), sum(cell.status == "ok" for cell in grid.cells)


def _integrate_counts(trajectory):
    return trajectory.steps_taken, trajectory.steps_rejected, len(trajectory.times)


def _certify_counts(report):
    return (report.points_sampled,)


# Span name -> function of the call's result giving the span's counts.
RESULT_COUNTS = {
    "sweep.run_sweep": _sweep_counts,
    "simulate.integrate": _integrate_counts,
    "stability.certify_global": _certify_counts,
}


class Tracer:
    def __init__(self):
        # list.append and a range iterator's __next__ are single C calls
        # under the interpreter lock, so the sweep's pool threads can record
        # spans without a lock.
        self.spans: list[tuple] = []
        self.rhs: list[tuple[int, list[int]]] = []
        self.op_id: int | None = None
        self._next = iter(range(1, 1 << 62)).__next__
        self._local = threading.local()
        self._pool_parent: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        stack = self._stack()
        parent = stack[-1] if stack else self._pool_parent
        sid = self._next()
        stack.append(sid)
        counts = ()
        measure_alloc = name == "stability.certify_global"
        if name == "sweep.run_sweep":
            self._pool_parent = sid
        if measure_alloc:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if name in RESULT_COUNTS:
                counts = RESULT_COUNTS[name](result)
            return result
        finally:
            end = time.perf_counter()
            if measure_alloc:
                counts = counts + (tracemalloc.get_traced_memory()[1],)
                tracemalloc.stop()
            if name == "sweep.run_sweep":
                self._pool_parent = None
            stack.pop()
            self.spans.append((sid, parent, self.op_id, name, start, end, counts))

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def _wrap_field_function(self, fn):
        def traced(params):
            f = fn(params)
            calls = [0]
            self.rhs.append((self.op_id, calls))

            def counted(t, y):
                calls[0] += 1
                return f(t, y)

            return counted

        return traced

    def install(self) -> None:
        for (module_name, attr), name in WRAPPED.items():
            module = importlib.import_module(f"hcvdyn.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        simulate = importlib.import_module("hcvdyn.simulate")
        self._saved.append((simulate, "field_function", simulate.field_function))
        simulate.field_function = self._wrap_field_function(simulate.field_function)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for sid, parent, _, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, _, _, start, end, _ in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


PARSE = ("formats.parse_scenario", "formats.parse_sweep_spec", "formats.resolve_scenario_path")
CSV = ("formats.write_trajectory_csv", "formats.write_sweep_csv")
LOCAL = ("stability.stability_report", "stability.uninfected_local", "stability.characteristic_coefficients",
         "stability.infected_jacobian", "stability.cubic_roots", "stability.routh_hurwitz")
SIM_FIELDS = (("steps", "count"), ("rejected", "count"), ("accept_ratio", "ratio"), ("rhs_evals", "count"),
              ("us_per_step", "us"), ("steps_per_sample", "count"), ("convergence_ms", "ms"))
SIM_SPLITS = [(mode, tercile) for mode in ("dense", "endpoint") for tercile in (0, 1, 2)]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {
        "cli.self_ms": "ms", "formats.parse_ms": "ms", "formats.csv_ms": "ms", "formats.csv_bytes": "B",
        "equilibria.e0_calls": "count", "equilibria.estar_calls": "count", "equilibria.self_ms": "ms",
        "reproduction.r0_calls": "count", "reproduction.self_ms": "ms", "stability.local_ms": "ms",
        "sweep.threshold_gap_evals": "count", "sweep.threshold_ms": "ms",
        "sweep.cells": "count", "sweep.ok_ratio": "ratio", "sweep.us_per_cell": "us",
        "sweep.run_sweep_self_ms": "ms",
    }
    for mode, tercile in SIM_SPLITS:
        for name, unit in SIM_FIELDS:
            units[f"simulate.{mode}.c{tercile + 1}.{name}"] = unit
    units.update({
        "stability.certify_ms": "ms", "stability.certify_points": "count",
        "stability.certify_ns_per_point": "ns", "stability.certify_bytes_computed_per_point": "B",
        "stability.certify_peak_alloc_mb": "MB", "trace.overhead_ms": "ms", "trace.overhead_pct": "%",
    })
    return units


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops, untraced, traced, run_dir) -> dict[str, float]:
    """Per-layer metrics, per op of the class the layer serves.

    A metric whose layer this workload does not run reads 0.
    """
    own = self_times(tracer.spans)
    by_op = defaultdict(list)
    for span in tracer.spans:
        by_op[span[2]].append(span)
    rhs = defaultdict(int)
    for op_id, calls in tracer.rhs:
        rhs[op_id] += calls[0]

    def spans(op, names):
        return [s for s in by_op[op.index] if s[3] in names]

    def total(op, names, self_only=False):
        return sum(own[s[0]] if self_only else s[5] - s[4] for s in spans(op, names)) * 1e3

    def prefixed(op, prefix):
        return tuple({s[3] for s in by_op[op.index] if s[3].startswith(prefix)})

    of = defaultdict(list)
    for op in ops:
        of[op.cls].append(op)
    cli_ops = [op for op in ops if op.argv is not None]
    csv_ops = of["sweep"] + of["dense"]
    analyze = of["analyze"]
    m = {
        "cli.self_ms": _mean(total(op, ("cli.main",), True) for op in cli_ops),
        "formats.parse_ms": _mean(total(op, PARSE) for op in cli_ops),
        "formats.csv_ms": _mean(total(op, CSV) for op in csv_ops),
        "formats.csv_bytes": _mean((run_dir / op.argv[-1]).stat().st_size for op in csv_ops),
        "equilibria.e0_calls": _mean(len(spans(op, ("equilibria.uninfected_equilibrium",))) for op in analyze),
        "equilibria.estar_calls": _mean(len(spans(op, ("equilibria.infected_equilibrium",))) for op in analyze),
        "equilibria.self_ms": _mean(total(op, prefixed(op, "equilibria."), True) for op in analyze),
        "reproduction.r0_calls": _mean(
            len(spans(op, ("reproduction.r0_from_T0", "reproduction.r0_spectral"))) for op in analyze),
        "reproduction.self_ms": _mean(total(op, prefixed(op, "reproduction."), True) for op in analyze),
        "stability.local_ms": _mean(total(op, LOCAL, True) for op in analyze),
        "sweep.threshold_gap_evals": _mean(len(spans(op, ("sweep.target_gap",))) for op in of["threshold"]),
        "sweep.threshold_ms": _mean(total(op, ("sweep.threshold_locate",)) for op in of["threshold"]),
    }
    runs = [s for op in of["sweep"] for s in spans(op, ("sweep.run_sweep",)) if s[6]]
    cells = sum(s[6][0] for s in runs)
    m["sweep.cells"] = _mean(s[6][0] for s in runs)
    m["sweep.ok_ratio"] = _ratio(sum(s[6][1] for s in runs), cells)
    m["sweep.us_per_cell"] = _ratio(sum(s[5] - s[4] for s in runs) * 1e6, cells)
    m["sweep.run_sweep_self_ms"] = _mean(own[s[0]] * 1e3 for s in runs)

    for mode, tercile in SIM_SPLITS:
        group = [op for op in of[mode] if op.meta["tercile"] == tercile]
        runs = [(op, s) for op in group for s in spans(op, ("simulate.integrate",)) if s[6]]
        taken = sum(s[6][0] for _, s in runs)
        rejected = sum(s[6][1] for _, s in runs)
        key = f"simulate.{mode}.c{tercile + 1}."
        m[key + "steps"] = _mean(s[6][0] for _, s in runs)
        m[key + "rejected"] = _mean(s[6][1] for _, s in runs)
        m[key + "accept_ratio"] = _ratio(taken, taken + rejected)
        m[key + "rhs_evals"] = _mean(rhs[op.index] for op, _ in runs)
        m[key + "us_per_step"] = _ratio(sum(s[5] - s[4] for _, s in runs) * 1e6, taken)
        m[key + "steps_per_sample"] = _ratio(taken, sum(s[6][2] - 1 for _, s in runs))
        m[key + "convergence_ms"] = _mean(total(op, ("simulate.convergence_report",)) for op in group)

    runs = [s for op in of["certify"] for s in spans(op, ("stability.certify_global",)) if len(s[6]) == 2]
    points = sum(s[6][0] for s in runs)
    m["stability.certify_ms"] = _mean((s[5] - s[4]) * 1e3 for s in runs)
    m["stability.certify_points"] = _mean(s[6][0] for s in runs)
    m["stability.certify_ns_per_point"] = _ratio(sum(s[5] - s[4] for s in runs) * 1e9, points)
    m["stability.certify_bytes_computed_per_point"] = _ratio(sum(s[6][1] for s in runs), points)
    m["stability.certify_peak_alloc_mb"] = max((s[6][1] for s in runs), default=0) / 2**20

    plain = sum(r["ref_s"] for r in untraced)
    m["trace.overhead_ms"] = (sum(r["ref_s"] for r in traced) - plain) / len(ops) * 1e3
    m["trace.overhead_pct"] = _ratio(sum(r["ref_s"] for r in traced) - plain, plain) * 100.0
    return m


def write_spans(tracer: Tracer, path) -> None:
    """One span per line: id, parent, op, name, start and end in seconds
    from the first span, and the span's counts."""
    origin = min((s[4] for s in tracer.spans), default=0.0)
    with open(path, "w") as fh:
        fh.write("id\tparent\top\tname\tstart_s\tend_s\tcounts\n")
        for sid, parent, op, name, start, end, counts in tracer.spans:
            fh.write(f"{sid}\t{parent}\t{op}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\t"
                     f"{','.join(map(str, counts))}\n")
