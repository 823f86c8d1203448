"""Parameter sweeps: grids, per-cell statuses, threshold location."""

import hashlib
import io
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hcvdyn import (
    SCENARIO_S1,
    SCENARIO_S2,
    Axis,
    DomainError,
    SweepError,
    SweepSpec,
    r0,
    run_sweep,
    threshold_locate,
    write_sweep_csv,
)
from hcvdyn.sweep import STATUS_INVALID, STATUS_NO_EQUILIBRIUM, STATUS_OK, _target_gap


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


def test_spec_rejects_duplicate_outputs():
    # A repeated output would write its column twice under one header name,
    # while CellResult.values holds it once.
    axis = Axis(name="beta", lo=1e-8, hi=1e-6, n=3, scale="log")
    with pytest.raises(SweepError, match="'r0' is listed twice"):
        SweepSpec(base=SCENARIO_S1, axis1=axis, outputs=("r0", "r0"))
    with pytest.raises(SweepError, match="'t0' is listed twice"):
        SweepSpec(base=SCENARIO_S1, axis1=axis, outputs=("t0", "regime", "t0"))


def _traced_peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_point_counts_past_the_bound_are_refused_before_allocating():
    # 10**9 log points would ask np.logspace for 8 GB; a grid of 2**21
    # cells would hold about 1.2 GB at its peak.  Both are refused on
    # construction, which also covers threshold_locate's axis.
    def huge_axis():
        with pytest.raises(SweepError, match="at most 1048576 points, got 1000000000"):
            Axis(name="c", lo=0.8, hi=22.0, n=10**9, scale="log")

    def huge_grid():
        axis1 = Axis(name="beta", lo=1e-8, hi=1e-6, n=2**10, scale="log")
        axis2 = Axis(name="c", lo=0.8, hi=22.0, n=2**11, scale="log")
        with pytest.raises(SweepError, match="at most 1048576 cells, got 2097152"):
            SweepSpec(base=SCENARIO_S1, axis1=axis1, axis2=axis2)

    assert _traced_peak(huge_axis) < 2**20
    assert _traced_peak(huge_grid) < 2**20


def test_point_counts_at_the_bound_are_accepted():
    axis = Axis(name="beta", lo=1e-8, hi=1e-6, n=2**20, scale="log")
    SweepSpec(base=SCENARIO_S1, axis1=axis)
    square = Axis(name="c", lo=0.8, hi=22.0, n=2**10, scale="log")
    SweepSpec(base=SCENARIO_S1, axis1=replace(axis, n=2**10), axis2=square)


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


@pytest.mark.parametrize(
    "spec, sha256",
    [
        # The 2D grid of demos/parameter_sweep.py.
        (
            SweepSpec(
                base=replace(SCENARIO_S1, beta=1e-7),
                axis1=Axis(name="beta", lo=1e-8, hi=1e-6, n=7, scale="log"),
                axis2=Axis(name="q", lo=0.0, hi=0.5, n=5, scale="linear"),
                outputs=("r0", "regime"),
            ),
            "aaadf9f26ad1d4cfc92291e3d41b4dc7fe17130bd063260d75eda06fbf0c8963",
        ),
        # Every output; ok, no_equilibrium and (at eta = 1) invalid_params cells.
        (
            SweepSpec(
                base=SCENARIO_S2,
                axis1=Axis(name="beta", lo=1e-9, hi=1e-6, n=9, scale="log"),
                axis2=Axis(name="eta", lo=0.0, hi=1.0, n=6),
            ),
            "6b80978e879ddc2235b5f7319227b69cc5b28e9395de3de0db22864a7631e2b5",
        ),
        # 1-D (no axis2), every output; ok, no_equilibrium and invalid_params.
        (
            SweepSpec(
                base=replace(SCENARIO_S1, beta=1e-6),
                axis1=Axis(name="eta", lo=0.0, hi=1.0, n=11),
            ),
            "2790e2eccf80e47a0a02f5d0a80a82dc0ff7a2c5732340e99c80dd7a2fe4625d",
        ),
    ],
)
def test_sweep_csv_bytes_are_pinned(spec, sha256):
    buffer = io.StringIO()
    write_sweep_csv(run_sweep(spec), buffer)
    assert hashlib.sha256(buffer.getvalue().encode()).hexdigest() == sha256


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


@pytest.mark.parametrize(
    "base, lo, hi",
    [
        (SCENARIO_S2, 0.5, 0.7),
        # r0 is still above 1 at eta = 0.9: the crossing lies between the
        # last valid grid point and the domain's edge.
        (replace(SCENARIO_S2, beta=1e-6), 0.9, 1.0),
    ],
)
def test_threshold_skips_grid_points_outside_the_domain(base, lo, hi):
    # eta = 1 is outside [0, 1): run_sweep marks it invalid_params and the
    # scan skips it instead of raising.
    result = threshold_locate(base, Axis("eta", 0.0, 1.0, 11))
    assert result.found
    assert r0(replace(base, eta=result.axis_value)) == pytest.approx(1.0, abs=1e-8)
    assert result.r0_at_value == pytest.approx(1.0, abs=1e-8)
    assert lo < result.bracket[0] <= result.axis_value <= result.bracket[1] < hi


def test_threshold_edge_search_ends_between_adjacent_floats():
    # The edge between s = -5e-324 and s = 0 has no float inside it.
    result = threshold_locate(SCENARIO_S2, Axis("s", -5e-324, 5e-324, 2))
    assert not result.found


def test_threshold_reports_no_crossing_across_an_invalid_stretch():
    # q < 0 is invalid; r0 stays above 1 on the valid part of the axis.
    result = threshold_locate(replace(SCENARIO_S2, beta=1e-6), Axis("q", -1.0, 1.0, 11))
    assert not result.found


@pytest.mark.parametrize(
    "base, axis, target, expected",
    [
        (
            SCENARIO_S1, Axis("beta", 1e-9, 1e-5, 30, "log"), "r0_eq_1",
            (1.2198977627416382e-07, 0.999999999999996, (1.2198977626965345e-07, 1.2198977627867416e-07)),
        ),
        (
            SCENARIO_S1, Axis("beta", 1e-10, 1e-5, 40, "log"), "r0_eq_1_minus_q_over_delta",
            (1.9951073600351805e-08, 0.16666666667104343, (1.995107359966616e-08, 1.9951073601037445e-08)),
        ),
        (
            SCENARIO_S2, Axis("eta", 0.0, 0.99, 12), "r0_eq_1",
            (0.5982313545257787, 0.9999999999985911, (0.5982313545048239, 0.5982313545467335)),
        ),
        (
            SCENARIO_S2, Axis("p", 0.01, 1.0, 9, "log"), "r0_eq_1_minus_q_over_delta",
            (0.15050241307448803, 0.3749999999997837, (0.15050241306944515, 0.1505024130795309)),
        ),
        # Axes that move E0: T0 changes at every step of the search.
        (
            SCENARIO_S1, Axis("T_max", 1e6, 1e8, 15, "log"), "r0_eq_1",
            (12199015.010582253, 1.0000000000276228, (12199015.010115108, 12199015.0110494)),
        ),
        (
            SCENARIO_S1, Axis("T_max", 1e6, 1e8, 15, "log"), "r0_eq_1_minus_q_over_delta",
            (1995127.8168609082, 0.16666666667197833, (1995127.8167845074, 1995127.8169373092)),
        ),
        (
            SCENARIO_S2, Axis("r_T", 0.0, 1.0, 11), "r0_eq_1",
            (0.015730927856202465, 0.9999999999339446, (0.01573092785547487, 0.01573092785693006)),
        ),
    ],
)
def test_threshold_results_are_pinned(base, axis, target, expected):
    result = threshold_locate(base, axis, target)
    assert result.found
    assert (result.axis_value, result.r0_at_value, result.bracket) == expected


def test_threshold_rejects_unknown_target():
    axis = Axis(name="beta", lo=1e-9, hi=1e-5, n=10, scale="log")
    with pytest.raises(SweepError):
        threshold_locate(SCENARIO_S1, axis, target="r0_eq_2")


def test_threshold_gap_is_undefined_without_delta():
    # r0 itself is undefined at d_I + q = 0, for either target.
    params = replace(SCENARIO_S1, d_I=0.0, q=0.0)
    for target in ("r0_eq_1", "r0_eq_1_minus_q_over_delta"):
        with pytest.raises(DomainError, match="d_I \\+ q = 0"):
            _target_gap(params, target, {})
