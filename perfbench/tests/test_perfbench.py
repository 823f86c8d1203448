"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int, seed: int = 7) -> tuple[dict, str]:
    # --seconds 0.1 gives the smallest op sequence the benchmark allows.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def test_benchmark_json_lists_every_metric_the_run_reports():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.metric_units()
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_end_to_end_metric_is_printed_with_unit_and_sample_count():
    result, report = _bench("analyze", trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    for name, unit in run.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        line = next(line for line in report.splitlines() if line.split()[:1] == [name])
        assert f" {unit} " in line and " n=" in line
    assert any(line.split()[:1] == ["failed_ratio"] for line in report.splitlines())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    files, ops = workloads.generate(workload, 11, 1.0)
    files2, ops2 = workloads.generate(workload, 11, 1.0)
    other, _ = workloads.generate(workload, 12, 1.0)
    assert files == files2
    assert ops == ops2
    assert other != files


@pytest.mark.parametrize("module", ["kernels", "workloads", "oracle", "checks"])
def test_benchmark_modules_do_not_import_hcvdyn(module):
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); import {module}, kernels; "
        "kernels.python_kernel(); kernels.numpy_kernel(); "
        "assert not [m for m in sys.modules if m.startswith('hcvdyn')]"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_traced_counts_repeat_exactly_for_the_same_seed():
    first, _ = _bench("analyze", trace=1)
    second, _ = _bench("analyze", trace=1)
    counts = [name for name, unit in tracing.metric_units().items() if unit in ("count", "ratio", "B")]
    assert set(first["metrics"]) == set(tracing.metric_units())
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    assert first["metrics"]["equilibria.e0_calls"]["value"] > 0
    assert first["metrics"]["sweep.threshold_gap_evals"]["value"] > 0


def test_run_fails_without_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "analyze", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
