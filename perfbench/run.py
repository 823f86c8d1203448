"""hcvdyn benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout that holds src/hcvdyn:

    python3 perfbench/run.py --workload analyze|sweep|simulate|certify \
        --seed N --seconds S --trace 0|1

Each run starts fresh interpreters (perfbench/worker.py) one after another:
SETUP_PROBES that stop once set-up is done, then one that also runs the
timed op sequence.  setup_s is the median, over all of them, of the wall
time from starting the interpreter to its READY line.  The input files are
written before the first start.  With --trace 0 the last
stdout line reports the end-to-end metrics; with --trace 1 the per-layer
metrics.  A human-readable report, with raw wall times, sample counts and
the reference kernel's drift, goes to stderr and to
.perfbench_out/report-<workload>-<seed>-<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 2
DEADLINE_S = 175.0  # a run must end within 180 s

# End-to-end metric -> unit, in report order.
END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def _start(args, root: Path, probe: bool, work_dir: Path):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", str(root),
           "--dir", str(work_dir)]
    if probe:
        cmd.append("--probe")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    return proc, start


def _setup_time(args, root: Path, probe: bool, work_dir: Path, deadline: float):
    """(worker, wall time from its start to its READY line)."""
    proc, start = _start(args, root, probe, work_dir)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
    line = proc.stdout.readline() if ready else ""
    wall = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker exited during set-up (exit code {proc.poll()})")
    return proc, wall


def _finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"run did not finish within {DEADLINE_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    return out


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _end_to_end(result: dict, setup: list[float]) -> tuple[dict, dict]:
    ops = result["ops"]
    ok = [o for o in ops if o["status"] == "ok"]
    ref = sorted(o["ref_s"] * 1e3 for o in ok)
    raw = sorted(o["raw_s"] * 1e3 for o in ok)
    values = {
        "setup_s": statistics.median(setup),
        "op_ms_p50": _percentile(ref, 0.50),
        "op_ms_p90": _percentile(ref, 0.90),
        "throughput_per_s": sum(o["units"] for o in ok) / sum(o["ref_s"] for o in ops),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_ratio": len(ok) / len(ops),
    }
    samples = {"setup_s": len(setup), "op_ms_p50": len(ref), "op_ms_p90": len(ref),
               "throughput_per_s": len(ops), "peak_rss_mb": 1, "ok_ratio": len(ops)}
    kernel = result["kernel_s"]
    extra = {
        "samples": samples,
        "raw": {"op_ms_p50": _percentile(raw, 0.50), "op_ms_p90": _percentile(raw, 0.90),
                "throughput_per_s": sum(o["units"] for o in ok) / sum(o["raw_s"] for o in ops),
                "setup_s_each": setup},
        "failed_ratio": 1.0 - values["ok_ratio"],
        "kernel": {"name": result["kernel"], "fastest_ms": min(kernel) * 1e3, "slowest_ms": max(kernel) * 1e3,
                   "drift": max(kernel) / min(kernel), "boundaries": len(kernel)},
    }
    return values, extra


def _mix(ops: list[dict]) -> dict:
    """Op-class shares, failures by reason, and the c and step distributions."""
    n = len(ops)
    shares, failures = {}, {}
    for o in ops:
        key = o["cls"] if o["sub"] is None else f"{o['cls']}/{o['sub']}"
        shares[key] = shares.get(key, 0) + 1 / n
        if o["status"] != "ok":
            failures[f"{key}: {o['reason']}"] = failures.get(f"{key}: {o['reason']}", 0) + 1
    mix = {"ops": n, "class_shares": shares, "failures": failures}
    for name in ("c", "steps", "grid"):
        values = sorted(o[name] for o in ops if o[name] is not None)
        if values:
            mix[name] = {"min": values[0], "p50": _percentile(values, 0.5), "p90": _percentile(values, 0.9),
                         "max": values[-1]}
    ok = sorted((o for o in ops if o["status"] == "ok"), key=lambda o: o["ref_s"])
    if ok:
        mix["class_at"] = {q: ok[math.ceil(q * len(ok)) - 1]["cls"] for q in (0.5, 0.9)}
    return mix


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hcvdyn benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "hcvdyn" / "__init__.py").is_file():
        print("error: run from the root of a checkout holding src/hcvdyn", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench_out"
    scratch = out_dir / f"run-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(scratch, ignore_errors=True)
    # The input files are written here, untimed: writing thousands of small
    # files took seconds on the tuning machine and varied twofold between
    # runs, which would hide what the program's own set-up costs.
    files, _ = workloads.generate(args.workload, args.seed, args.seconds)
    (scratch / "inputs").mkdir(parents=True)
    (scratch / "out").mkdir()
    for path, text in files.items():
        (scratch / path).write_text(text)
    try:
        # First start compiles bytecode and fills the file cache; untimed.
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import hcvdyn"],
                       check=True, timeout=DEADLINE_S)
        setup = []
        for probe in [True] * SETUP_PROBES + [False]:
            proc, wall = _setup_time(args, root, probe, scratch, deadline)
            setup.append(wall)
            out = _finish(proc, deadline)
        result = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, subprocess.SubprocessError, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    values, extra = _end_to_end(result, setup)
    ops = result["ops"]
    failed = sum(o["status"] != "ok" for o in ops)
    correct = not any(o["status"] == "wrong" for o in ops)
    if args.trace:
        units = tracing.metric_units()
        metrics = {name: {"value": result["layers"][name], "unit": unit} for name, unit in units.items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "units": workloads.UNITS[args.workload], "end_to_end": values, **extra, "mix": _mix(ops)}
    if args.trace:
        report["per_layer"] = result["layers"]
    (out_dir / f"report-{args.workload}-{args.seed}-{args.trace}.json").write_text(json.dumps(report, indent=1))

    err = sys.stderr
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops, {failed} failed, correct={correct}", file=err)
    for name, unit in END_TO_END.items():
        print(f"  {name:18} {values[name]:14.6g} {unit:6} n={extra['samples'][name]}", file=err)
    print(f"  {'failed_ratio':18} {extra['failed_ratio']:14.6g} {'ratio':6} n={len(ops)}", file=err)
    raw = extra["raw"]
    print(f"  raw wall: p50 {raw['op_ms_p50']:.4g} ms, p90 {raw['op_ms_p90']:.4g} ms, "
          f"{raw['throughput_per_s']:.4g} {workloads.UNITS[args.workload]}/s; kernel {extra['kernel']['name']} "
          f"{extra['kernel']['fastest_ms']:.3g}-{extra['kernel']['slowest_ms']:.3g} ms, "
          f"drift {extra['kernel']['drift']:.3f}", file=err)
    for reason, count in sorted(report["mix"]["failures"].items()):
        print(f"  failed x{count}: {reason}", file=err)
    if args.trace:
        for name, unit in tracing.metric_units().items():
            print(f"  {name:46} {result['layers'][name]:14.6g} {unit}", file=err)
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
