"""Parameter sweeps: grids, per-cell statuses, threshold location."""

from dataclasses import replace

import numpy as np
import pytest

from hcvdyn import (
    SCENARIO_S1,
    SCENARIO_S2,
    Axis,
    SweepError,
    SweepSpec,
    r0,
    run_sweep,
    threshold_locate,
)
from hcvdyn.sweep import STATUS_INVALID, STATUS_NO_EQUILIBRIUM, STATUS_OK


def test_axis_validation():
    with pytest.raises(SweepError):
        Axis(name="bogus", lo=0.0, hi=1.0, n=3)
    with pytest.raises(SweepError):
        Axis(name="beta", lo=1.0, hi=1.0, n=3)
    with pytest.raises(SweepError):
        Axis(name="beta", lo=0.0, hi=1.0, n=1)
    with pytest.raises(SweepError):
        Axis(name="beta", lo=1e-8, hi=1e-6, n=3, scale="cubic")
    with pytest.raises(SweepError):
        Axis(name="beta", lo=0.0, hi=1e-6, n=3, scale="log")


def test_axis_values():
    linear = Axis(name="q", lo=0.0, hi=1.0, n=5)
    assert linear.values().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    log = Axis(name="beta", lo=1e-8, hi=1e-6, n=3, scale="log")
    assert log.values() == pytest.approx([1e-8, 1e-7, 1e-6], rel=1e-12)


def test_spec_rejects_duplicate_axes():
    axis = Axis(name="beta", lo=1e-8, hi=1e-6, n=3, scale="log")
    with pytest.raises(SweepError):
        SweepSpec(base=SCENARIO_S1, axis1=axis, axis2=axis)
    with pytest.raises(SweepError):
        SweepSpec(base=SCENARIO_S1, axis1=axis, outputs=("nonsense",))


def test_one_dimensional_sweep_is_monotone_in_beta():
    spec = SweepSpec(
        base=SCENARIO_S1,
        axis1=Axis(name="beta", lo=1e-8, hi=1e-6, n=7, scale="log"),
        outputs=("r0", "regime"),
    )
    grid = run_sweep(spec)
    assert len(grid.cells) == 7
    values = grid.column("r0")
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(cell.status == STATUS_OK for cell in grid.cells)
    # Each cell's r0 equals a direct evaluation at the substituted value.
    for cell, beta in zip(grid.cells, grid.axis1_values):
        assert cell.axis_values == (float(beta),)
        assert cell.values["r0"] == pytest.approx(
            r0(replace(SCENARIO_S1, beta=float(beta))), rel=1e-14
        )


def test_two_dimensional_sweep_is_row_major():
    spec = SweepSpec(
        base=SCENARIO_S2,
        axis1=Axis(name="beta", lo=1e-8, hi=1e-6, n=3, scale="log"),
        axis2=Axis(name="q", lo=0.1, hi=0.5, n=2),
        outputs=("r0",),
    )
    grid = run_sweep(spec)
    assert len(grid.cells) == 6
    # axis1 varies fastest; the index pairs come back in scan order.
    assert [cell.index for cell in grid.cells] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)
    ]
    for cell in grid.cells:
        i2, i1 = cell.index
        assert cell.axis_values == (
            float(grid.axis1_values[i1]), float(grid.axis2_values[i2])
        )


def test_invalid_cells_fail_individually():
    spec = SweepSpec(
        base=SCENARIO_S1,
        axis1=Axis(name="eta", lo=0.0, hi=1.0, n=3),
        outputs=("r0",),
    )
    grid = run_sweep(spec)
    statuses = [cell.status for cell in grid.cells]
    assert statuses == [STATUS_OK, STATUS_OK, STATUS_INVALID]
    assert np.isnan(grid.cells[2].values["r0"])


def test_estar_outputs_flag_missing_equilibrium():
    spec = SweepSpec(
        base=SCENARIO_S1,
        axis1=Axis(name="beta", lo=1e-8, hi=1e-6, n=5, scale="log"),
        outputs=("r0", "estar_T"),
    )
    grid = run_sweep(spec)
    for cell in grid.cells:
        if cell.values["r0"] < 1.0:
            assert cell.status == STATUS_NO_EQUILIBRIUM
        else:
            assert cell.status == STATUS_OK
            assert cell.values["estar_T"] > 0.0


def test_sweep_is_deterministic():
    spec = SweepSpec(
        base=SCENARIO_S2,
        axis1=Axis(name="p", lo=0.1, hi=10.0, n=6, scale="log"),
        axis2=Axis(name="c", lo=0.5, hi=5.0, n=4),
        outputs=("r0", "t0", "regime"),
    )
    assert run_sweep(spec).cells == run_sweep(spec).cells


def test_threshold_locate_finds_r0_crossing():
    axis = Axis(name="beta", lo=1e-9, hi=1e-5, n=30, scale="log")
    result = threshold_locate(SCENARIO_S1, axis, target="r0_eq_1")
    assert result.found
    crossing = r0(replace(SCENARIO_S1, beta=result.axis_value))
    assert crossing == pytest.approx(1.0, abs=1e-8)
    assert result.bracket[0] < result.axis_value < result.bracket[1]


def test_threshold_locate_reports_absence():
    axis = Axis(name="beta", lo=1e-9, hi=2e-9, n=5, scale="log")
    result = threshold_locate(SCENARIO_S1, axis, target="r0_eq_1")
    assert not result.found


def test_threshold_second_target_uses_cure_adjustment():
    axis = Axis(name="beta", lo=1e-10, hi=1e-5, n=40, scale="log")
    result = threshold_locate(SCENARIO_S1, axis, target="r0_eq_1_minus_q_over_delta")
    assert result.found
    delta = SCENARIO_S1.d_I + SCENARIO_S1.q
    crossing = r0(replace(SCENARIO_S1, beta=result.axis_value))
    assert crossing == pytest.approx(1.0 - SCENARIO_S1.q / delta, abs=1e-8)


def test_threshold_rejects_unknown_target():
    axis = Axis(name="beta", lo=1e-9, hi=1e-5, n=10, scale="log")
    with pytest.raises(SweepError):
        threshold_locate(SCENARIO_S1, axis, target="r0_eq_2")
