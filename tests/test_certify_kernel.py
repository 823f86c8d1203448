"""The Lyapunov rate kernel and the certificate's block scan.

_lyapunov_rate multiplies the gradient into the arrays _field returns in
place; on arrays it must give the float route's values point for point and
leave its inputs alone.  certify_global scans a block for violations only
when the block's peak is above the running tolerance; the report must still
equal the whole-grid reference of tests/test_certify_blocks.py, whatever
the block size.  Both targets build (T, I) pairs only on the T lines whose
per-line bounds reach the grid's peak, its term-scale peak or its
tolerance, each line keeping the prefix of the I axis that the region
test keeps; E* then scans only the V rows whose per-pair bounds reach
them.  The report must equal the reference bit for bit on drawn sets, on
grids with many violations, and on sets carried to extreme magnitudes by
the model's scaling symmetries.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import draw_params, draw_supercritical_params
from hcvdyn import SCENARIO_S1, SCENARIO_S2, ModelError, ModelParameters, State, certify_global
from hcvdyn import _rowbounds, stability
from hcvdyn.model import _field, _region
from hcvdyn.stability import _grid_axis, _lyapunov_rate, _lyapunov_weight, _region_counts
from test_certify_blocks import SLICE_PARAMS, _report_or_error, plausible_params, reference_certificate
from test_lyapunov import FAR_R_I_PARAMS

# r_I far below r_T: the E0 grid has violations in many T-slices.
MANY_VIOLATIONS = replace(SCENARIO_S1, r_I=1e-3 * SCENARIO_S1.r_T, q=0.0)

# Its E* grid at N = 40 is clean.  Two of its V rows are scanned, and the
# first holds points above the tolerance its running scale maximum gives.
EARLY_POINTS = replace(SCENARIO_S2, r_I=1e-4)

positive = st.floats(-6.0, 9.0).map(lambda x: 10.0**x)


def plain_rate(params, target, anchor, T, I, V):
    """_lyapunov_rate as written before its products moved in place."""
    w = _lyapunov_weight(params, target, anchor)
    f0, f1, f2 = _field(params, T, I, V)
    g_T = 1.0 - anchor.T / T
    if target == "E0":
        t0, t1, t2 = g_T * f0, f1, w * f2
    else:
        t0, t1, t2 = g_T * f0, (1.0 - anchor.I / I) * f1, w * (1.0 - anchor.V / V) * f2
    return t0 + t1 + t2, abs(t0) + abs(t1) + abs(t2)


@settings(max_examples=200, deadline=None)
@given(
    params=plausible_params(),
    target=st.sampled_from(["E0", "Estar"]),
    anchor=st.builds(State, positive, positive, positive),
    pairs=st.lists(st.tuples(positive, positive), min_size=1, max_size=6),
    V=st.lists(positive, min_size=1, max_size=6),
)
def test_rate_on_broadcast_arrays_equals_the_float_route(params, target, anchor, pairs, V):
    T = np.array([[t] for t, _ in pairs])
    I = np.array([[i] for _, i in pairs])
    with np.errstate(over="ignore", invalid="ignore"):
        rate, scale = _lyapunov_rate(params, target, anchor, T, I, np.array(V))
        plain = plain_rate(params, target, anchor, T, I, np.array(V))
    assert rate.shape == scale.shape == (len(pairs), len(V))
    for m, (t, i) in enumerate(pairs):
        for n, v in enumerate(V):
            # repr tells -0.0 from 0.0 and compares NaN with itself.
            got = (repr(float(rate[m, n])), repr(float(scale[m, n])))
            assert got == tuple(map(repr, _lyapunov_rate(params, target, anchor, t, i, v)))
            assert got == (repr(float(plain[0][m, n])), repr(float(plain[1][m, n])))


def test_rate_leaves_its_inputs_unmodified():
    anchor = State(4e6, 2e4, 5e4)
    for T, I, V in [
        (np.logspace(2, 7, 9)[:, None], np.logspace(1, 6, 9)[:, None], np.logspace(0, 5, 7)),
        # Inputs already of the full shape, where an in-place product could land.
        tuple(np.meshgrid(np.logspace(2, 7, 5), np.logspace(1, 6, 4), np.logspace(0, 5, 3), indexing="ij")),
    ]:
        before = [x.copy() for x in (T, I, V)]
        for target in ("E0", "Estar"):
            _lyapunov_rate(SCENARIO_S2, target, anchor, T, I, V)
        for x, y in zip((T, I, V), before):
            assert np.array_equal(x, y)


def _recording_rate(monkeypatch):
    calls = []
    real = stability._lyapunov_rate

    def rate(*args):
        calls.append(real(*args))
        return calls[-1]

    monkeypatch.setattr(stability, "_lyapunov_rate", rate)
    return calls


def test_points_above_an_early_running_tolerance_are_not_violations(monkeypatch):
    ref = reference_certificate(EARLY_POINTS, "Estar", 40)
    # One V row per block, so that the rows the row bounds keep span blocks.
    monkeypatch.setattr(stability, "_CERTIFICATE_BLOCK", 40)
    calls = _recording_rate(monkeypatch)
    got = certify_global(EARLY_POINTS, "Estar", 40)
    assert repr(got) == repr(ref)
    assert got.violations == ()
    # The grid is what the test needs: an early block holds points above its
    # running tolerance that the final tolerance does not count.  The
    # calls on six points per T line are the line bounds' seeds, and those
    # on three points per pair the row bounds'.
    blocks = [(rate, scale) for rate, scale in calls if rate.shape[1] == 40]
    scale_peak, early = 1.0, 0
    for rate, scale in blocks[:-1]:
        scale_peak = max(scale_peak, float(np.max(scale)))
        early += np.count_nonzero(rate > stability.DEFAULT_TOLERANCES.certificate_margin * scale_peak)
    assert len(blocks) > 1 and early > 0


def test_nan_derivative_in_one_block_keeps_its_violations(monkeypatch):
    # An overflow that made a term scale NaN raises (test_certify_blocks), so
    # stand in for a NaN derivative at a point that is no violation, in a
    # block that holds violations.  The NaN is that block's peak; the block
    # is still scanned.  E0 evaluates each pair at V = 0 (column 0) and at
    # the ends of the V axis: first three seed pairs per T line, then the
    # pairs of the kept lines in blocks, here of 409 pairs.
    ref = reference_certificate(MANY_VIOLATIONS, "E0", 40)
    monkeypatch.setattr(stability, "_CERTIFICATE_BLOCK", 6 * 409)
    calls = _recording_rate(monkeypatch)
    real = stability._lyapunov_rate

    def nan_in_second_block(*args):
        rate, scale = real(*args)
        if len(calls) == 3:
            rate[np.argmin(rate[:, 0]), 0] = math.nan
        return rate, scale

    monkeypatch.setattr(stability, "_lyapunov_rate", nan_in_second_block)
    got = certify_global(MANY_VIOLATIONS, "E0", 40)
    seeds, blocks = calls[0][0], [rate for rate, _ in calls[1:]]
    assert len(seeds) % 3 == 0 and len(blocks) >= 3 and len(blocks[0]) == len(blocks[1]) == 409
    assert np.count_nonzero(blocks[1][:, 0] > ref.tolerance) > 0
    assert repr(got) == repr(replace(ref, min_margin=math.nan))


@pytest.mark.parametrize("block", [1, 97, 1 << 14, 1 << 24])
@pytest.mark.parametrize("params, target, grid_points", [(MANY_VIOLATIONS, "E0", 40), (SCENARIO_S2, "Estar", 41)])
def test_report_does_not_depend_on_the_block_size(monkeypatch, block, params, target, grid_points):
    # From one (T, I) pair per block to the whole grid in one block.
    ref = reference_certificate(params, target, grid_points)
    monkeypatch.setattr(stability, "_CERTIFICATE_BLOCK", block)
    assert repr(certify_global(params, target, grid_points)) == repr(ref)


def test_violations_are_rows_of_plain_floats():
    report = certify_global(MANY_VIOLATIONS, "E0", 40)
    assert report.violations
    for row in report.violations:
        assert type(row) is tuple and len(row) == 4
        assert all(type(x) is float for x in row)


# Every rate constant of the model, in 1/day.
RATES = ("s", "r_T", "r_I", "d_T", "d_I", "beta", "p", "c", "q")

supercritical = st.integers(0, 2**32 - 1).map(lambda seed: draw_supercritical_params(np.random.default_rng(seed)))


def assert_same_outcome(params, grid_points, target="Estar"):
    # The same report bit for bit, or the same error.
    ref, ref_error = _report_or_error(reference_certificate, params, target, grid_points)
    got, got_error = _report_or_error(certify_global, params, target, grid_points)
    assert (type(got_error), str(got_error)) == (type(ref_error), str(ref_error))
    assert repr(got) == repr(ref)


def assert_same_outcome_with_and_without_row_bounds(params, grid_points):
    # E* bounds the kept lines' rows only when they hold more points than
    # one block: at these grids mostly not, and always with a block of one
    # V row unless a single pair is kept.
    assert_same_outcome(params, grid_points)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stability, "_CERTIFICATE_BLOCK", grid_points)
        assert_same_outcome(params, grid_points)


@settings(max_examples=150, deadline=None)
@given(params=supercritical, grid_points=st.integers(1, 60))
def test_estar_row_bounds_keep_the_report_on_supercritical_sets(params, grid_points):
    # Off the theorem slice; some of these grids have violations.
    assert_same_outcome_with_and_without_row_bounds(params, grid_points)


@pytest.mark.parametrize("grid_points, bounded", [(20, False), (55, False), (140, True)])
@pytest.mark.parametrize("params", [SCENARIO_S2, SLICE_PARAMS])
def test_estar_bounds_rows_only_beyond_one_block(monkeypatch, params, grid_points, bounded):
    # One to three T lines are kept on these sets: their 19 to 157 pairs
    # fit in one block at N = 20 and 55 and are scanned whole, and the 251
    # and 394 pairs at N = 140 do not and are bounded row by row.
    ref = certify_global(params, "Estar", grid_points)
    calls = []
    kept_rows = _rowbounds.kept_rows

    def counted(*args):
        calls.append(len(args[4]))
        return kept_rows(*args)

    monkeypatch.setattr(_rowbounds, "kept_rows", counted)
    assert repr(certify_global(params, "Estar", grid_points)) == repr(ref)
    assert bool(calls) == bounded
    assert all(pairs * grid_points > stability._CERTIFICATE_BLOCK for pairs in calls)


def scaled(params, scale, time):
    """params with T, I and V times scale and its clock time times faster.

    T, I and V times scale solve the model with s and T_max times scale and
    beta divided by it; every rate times time runs its clock faster.  Both
    keep R0 and the region's shape wherever the floats hold them, so the
    grids reach reports at magnitudes where whole-domain draws rarely do."""
    try:
        params = replace(params, s=params.s * scale, T_max=params.T_max * scale, beta=params.beta / scale)
        return replace(params, **{name: getattr(params, name) * time for name in RATES})
    except ModelError:
        assume(False)


magnitudes = st.floats(-150.0, 150.0).map(lambda x: 10.0**x)


@settings(max_examples=150, deadline=None)
@given(params=supercritical, scale=magnitudes, time=magnitudes, grid_points=st.integers(1, 40))
def test_estar_row_bounds_keep_the_report_at_extreme_magnitudes(params, scale, time, grid_points):
    # Scaling keeps the draw supercritical.
    assert_same_outcome_with_and_without_row_bounds(scaled(params, scale, time), grid_points)


drawn = st.integers(0, 2**32 - 1).map(lambda seed: draw_params(np.random.default_rng(seed)))


@settings(max_examples=150, deadline=None)
@given(params=drawn, grid_points=st.integers(1, 60))
def test_e0_line_bounds_keep_the_report_on_drawn_sets(params, grid_points):
    # Sub- and supercritical; some of these grids have violations.
    assert_same_outcome(params, grid_points, "E0")


@pytest.mark.parametrize("grid_points", [1, 2, 3, 17, 40, 60, 97])
@pytest.mark.parametrize("params", [MANY_VIOLATIONS, FAR_R_I_PARAMS])
def test_e0_line_bounds_keep_the_violations(params, grid_points):
    # Violations in many T lines: every line that holds one is kept.
    assert_same_outcome(params, grid_points, "E0")
    assert grid_points < 17 or certify_global(params, "E0", grid_points).violations


# Whole-domain draws where a negative term of a bound leaves the float
# range although every point of the grid stays in it (on the first, b T I*
# of the line bound; on the second, a term of a row bound): a bound of
# -inf there bounds nothing.
OVERFLOWING_K = [
    (ModelParameters(
        s=1.6419254416883184e39, r_T=79855663.4062647, r_I=2.6149965111828428e-09, d_T=118607.96250944716,
        d_I=1.3639867105163793e-12, T_max=1.2408001452253842e96, beta=4.177784481865384e195,
        p=1.0688343970081807e-70, c=2.645802511402505e132, q=1.3289440523925355e54, eta=0.675125729739876,
        epsilon=0.09380548144381026,
    ), 15),
    (ModelParameters(
        s=2.4915994308328326e134, r_T=1.364234767312085e-11, r_I=12.98067613461316, d_T=370664455.7153509,
        d_I=58.65346157046972, T_max=2124766.6527814036, beta=0.0019895770437936, p=0.0010876571669303193,
        c=3.8600575906895226e-122, q=0.44307376388948116, eta=0.8776602054158876, epsilon=0.1507924839150439,
    ), 17),
]


@pytest.mark.parametrize("params, grid_points", OVERFLOWING_K)
def test_estar_bounds_with_a_term_beyond_the_float_range(params, grid_points):
    assert_same_outcome(params, grid_points)
    assert certify_global(params, "Estar", grid_points).violations == ()


# All three terms of its E0 rate keep one sign on the first pair's V row,
# so the exact term scale is flat in V there, and rounding lifts the fourth
# of five V points one ulp above both ends: the tolerance must come from it.
FLAT_SCALE = ModelParameters(
    s=10.0, r_T=1.0, r_I=0.1, d_T=0.01, d_I=10.0**-0.5, T_max=10.0**6.75,
    beta=1e-7, p=0.1, c=10.0, q=0.0, eta=0.0, epsilon=0.0,
)


def test_e0_tolerance_takes_the_scale_inside_the_v_axis():
    assert_same_outcome(FLAT_SCALE, 5, "E0")


@settings(max_examples=150, deadline=None)
@given(params=drawn, scale=magnitudes, time=magnitudes, grid_points=st.integers(1, 40))
def test_e0_line_bounds_keep_the_report_at_extreme_magnitudes(params, scale, time, grid_points):
    assert_same_outcome(scaled(params, scale, time), grid_points, "E0")


def assert_region_counts(axis, bound):
    # Row by row, the count of the N x N region mask the reference takes.
    with np.errstate(over="ignore"):
        mask = axis[:, None] + axis <= bound * (1.0 + 1e-12)
    assert np.array_equal(_region_counts(axis, bound), np.count_nonzero(mask, axis=1))


@pytest.mark.parametrize("params", [SCENARIO_S1, SCENARIO_S2])
def test_region_counts_equal_the_mask_rows(params):
    bound = _region(params)[0]
    for grid_points in range(1, 301):
        assert_region_counts(_grid_axis(bound, grid_points), bound)


@settings(max_examples=200, deadline=None)
@given(params=st.one_of(drawn, plausible_params()), grid_points=st.integers(1, 300))
def test_region_counts_equal_the_mask_rows_on_drawn_sets(params, grid_points):
    try:
        bound = _region(params)[0]
        axis = _grid_axis(bound, grid_points)
    except ModelError:
        assume(False)  # a degenerate region
    assert_region_counts(axis, bound)


@pytest.mark.parametrize(
    "axis, bound",
    [
        # bound (1 + 1e-12) - T rounds below I, yet T + I rounds to the bound.
        ([0.06363148428609863, 0.9363685157149015], 1.0),
        # bound (1 + 1e-12) - T rounds to I, yet T + I rounds above the bound.
        ([2.718440055847168, 9999999997.291561], 1e10),
    ],
)
def test_region_counts_take_the_float_test_where_the_search_misleads(axis, bound):
    assert_region_counts(np.array(axis), bound)
