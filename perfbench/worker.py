"""One benchmark process: set up, run the timed op sequence, check outputs.

Started by run.py in a fresh interpreter, in a directory where run.py has
already written the seeded input files.  It imports hcvdyn from the
checkout's src/, generates the op sequence, warms up, and prints READY the
moment the first timed op is about to start; run.py times set-up up to
that line.  With --probe it stops there.  Otherwise it runs every op once,
in windows bracketed by a reference kernel, records peak RSS, then checks
the outputs, and prints one JSON object with per-op records.  With
--trace 1 it then installs the tracer and runs the same ops again.

All ops run in this process, on this thread, one after another (a closed
loop with one client); the sweep's thread pool belongs to the program.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import checks
import kernels
import oracle
import workloads

# The kernel each workload is timed against: the one whose time tracked
# the workload's op times best on repeated runs of one seed.  A window of
# ops closes once it holds WINDOW_S of op time, well inside the half second
# or so that the machine tends to stay in one speed, so the kernel at the
# window's two ends sees the speed its ops saw.
KERNEL = {"analyze": "numpy", "sweep": "python", "simulate": "python", "certify": "numpy"}
WINDOW_S = 0.05
# Ops whose output is also compared with an expensive reference (scipy
# Radau endpoints, a full certificate recomputation): every STRIDE-th op.
STRIDE = {"simulate": 8, "certify": 4}


class Runner:
    """Runs ops through hcvdyn's CLI (in-process) or its library."""

    def __init__(self, hcvdyn):
        from hcvdyn import cli, simulate, sweep

        self.hcvdyn = hcvdyn
        self.cli, self.simulate, self.sweep = cli, simulate, sweep
        self.tracer = None

    def _call(self, name, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, *args)

    def run(self, op):
        """(exit code or None, captured stdout, stderr, library result)."""
        h = self.hcvdyn
        if op.argv is not None:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self._call("cli.main", self.cli.main, op.argv)
            return code, out.getvalue(), err.getvalue(), None
        params = h.ModelParameters(**op.params)
        if op.call["fn"] == "threshold_locate":
            result = self._call("sweep.threshold_locate", self.sweep.threshold_locate,
                                params, h.Axis(*op.call["axis"]))
        else:
            config = h.IntegratorConfig(t_end=op.call["t_end"], sample_every=op.call["t_end"])
            result = self._call("simulate.integrate", self.simulate.integrate,
                                params, h.State(*op.call["initial"]), config)
        return None, "", "", result


def _timed_pass(runner, ops, workload):
    """Run every op once; returns per-op records and the kernel times."""
    kernel = kernels.KERNELS[KERNEL[workload]]
    nominal = kernels.NOMINAL[KERNEL[workload]]
    boundaries = [kernels.time_kernel(kernel)]
    records, batch = [], []
    for position, op in enumerate(ops):
        if runner.tracer is not None:
            runner.tracer.op_id = op.index
        start = time.perf_counter()
        try:
            outcome, error = runner.run(op), None
        except Exception:  # an op that raises is a failed op; keep going
            outcome, error = None, traceback.format_exc(limit=1).strip().splitlines()[-1]
        batch.append({"op": op, "raw_s": time.perf_counter() - start, "outcome": outcome, "error": error})
        if sum(r["raw_s"] for r in batch) >= WINDOW_S or position == len(ops) - 1:
            boundaries.append(kernels.time_kernel(kernel))
            speed = nominal / (0.5 * (boundaries[-2] + boundaries[-1]))
            for record in batch:
                record["ref_s"] = record["raw_s"] * speed
            records += batch
            batch = []
    return records, boundaries


def _radau(op):
    return oracle.radau_endpoint(op.params, workloads.INITIAL, op.meta["days"])


def _check(record, workload, root: Path) -> None:
    """Fill in record["status"] ("ok", "error" or "wrong") and ["reason"]."""
    op, outcome = record["op"], record["outcome"]
    if record["error"] is not None:
        record["status"], record["reason"] = "error", record["error"]
        return
    code, stdout, stderr, result = outcome
    expected_codes = (0, 2, 3) if op.cls == "certify" else (0,)
    if code is not None and code not in expected_codes:
        record["status"] = "error"
        record["reason"] = f"exit code {code}: {(stderr or stdout).strip().splitlines()[-1:]}"
        return
    full = op.index % STRIDE.get(workload, 1) == 0
    try:
        if op.cls == "analyze":
            reason = checks.analyze(op, (root / op.argv[-1]).read_text())
        elif op.cls == "threshold":
            reason = checks.threshold(op, result)
        elif op.cls == "sweep":
            reason = checks.sweep(op, (root / op.argv[-1]).read_text())
        elif op.cls == "dense":
            reason = checks.dense(op, (root / op.argv[-1]).read_text(), stdout, _radau(op) if full else None)
        elif op.cls == "endpoint":
            reason = checks.endpoint(op, result, _radau(op) if full else None)
        else:
            reason = checks.certify(op, stdout, code, full)
    except (OSError, KeyError, ValueError, IndexError) as exc:  # missing or malformed output
        reason = f"unreadable output: {exc!r}"
    record["status"] = "ok" if reason is None else "wrong"
    record["reason"] = reason


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _summary(record) -> dict:
    op = record["op"]
    return {"index": op.index, "cls": op.cls, "sub": op.meta.get("sub", op.meta.get("target")),
            "units": _units(op), "raw_s": record["raw_s"], "ref_s": record["ref_s"],
            "status": record["status"], "reason": record["reason"],
            "c": op.meta.get("c"), "tercile": op.meta.get("tercile"), "grid": op.meta.get("grid"),
            "steps": _steps(record)}


def _units(op) -> float:
    if op.cls == "sweep":
        return op.meta["cells"]
    if op.cls in ("dense", "endpoint"):
        return op.meta["days"]
    if op.cls == "certify":
        return oracle.certificate_points(op.params, op.meta["grid"])
    return 1


def _steps(record):
    outcome = record["outcome"]
    if outcome is None:
        return None
    code, stdout, _, result = outcome
    if record["op"].cls == "endpoint":
        return result.steps_taken
    if record["op"].cls == "dense":
        return int(checks.pairs(stdout).get("steps_taken", 0)) or None
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True, help="checkout holding src/hcvdyn")
    parser.add_argument("--dir", required=True, help="directory holding the written inputs")
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    src = root / "src"
    if not (src / "hcvdyn" / "__init__.py").is_file():
        print(f"error: no hcvdyn sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import hcvdyn

    if Path(hcvdyn.__file__).resolve().parent != src / "hcvdyn":
        print(f"error: imported hcvdyn from {hcvdyn.__file__}, not {src}", file=sys.stderr)
        return 2

    run_dir = Path(args.dir).resolve()
    _, ops = workloads.generate(args.workload, args.seed, args.seconds)
    os.chdir(run_dir)

    runner = Runner(hcvdyn)
    # Warm-up, untimed: the smallest and the largest op of each class, so
    # that lazy imports are done and the allocator has seen the largest
    # arrays a run allocates (glibc raises its mmap threshold after that).
    extremes = {}
    for op in ops:
        low, high = extremes.get(op.cls, (op, op))
        extremes[op.cls] = (min(low, op, key=_units), max(high, op, key=_units))
    for op in {op.index: op for pair in extremes.values() for op in pair}.values():
        with contextlib.suppress(Exception):
            runner.run(op)
    kernels.time_kernel(kernels.KERNELS[KERNEL[args.workload]])
    print("READY", flush=True)
    if args.probe:
        return 0

    records, boundaries = _timed_pass(runner, ops, args.workload)
    peak_rss = _peak_rss_mb()
    for record in records:
        _check(record, args.workload, run_dir)
    result = {
        "workload": args.workload,
        "kernel": KERNEL[args.workload],
        "kernel_s": boundaries,
        "peak_rss_mb": peak_rss,
        "ops": [_summary(r) for r in records],
    }
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        runner.tracer = tracer
        tracer.install()
        try:
            traced, _ = _timed_pass(runner, ops, args.workload)
        finally:
            tracer.uninstall()
            runner.tracer = None
        result["layers"] = tracing.layer_metrics(tracer, ops, records, traced, run_dir)
        tracing.write_spans(tracer, root / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.tsv")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
