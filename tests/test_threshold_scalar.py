"""threshold_locate on the scalar route against the kernel-scan reference.

reference_threshold_locate is threshold_locate as it was before every
evaluation went through the scalar gap: it scans the axis grid with the
batched sweep kernel and re-solves E0 for each bisection step through
dataclasses.replace.  The scalar route must give the same result, or raise
the same error, bit for bit.  The E0 memo and the one-field parameter check
it relies on are pinned here over the whole parameter domain too.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import any_value

from hcvdyn import (
    PARAMETER_NAMES,
    SCENARIO_S1,
    SCENARIO_S2,
    THRESHOLD_TARGETS,
    Axis,
    ModelError,
    ModelParameters,
    SweepError,
    ThresholdResult,
    r0_from_T0,
    threshold_locate,
    uninfected_equilibrium,
)
from hcvdyn import sweep
from hcvdyn.model import PLAUSIBLE_RANGES, _replace_field
from hcvdyn.sweep import STATUS_INVALID, _evaluate_grid, _grid_parameters, _threshold_level

# PLAUSIBLE_RANGES has no range for r_I, eta and epsilon.
RANGES = dict(PLAUSIBLE_RANGES, r_I=(1e-3, 3.4), eta=(0.0, 0.99), epsilon=(0.0, 0.99))
# The fields uninfected_equilibrium reads, and so the E0 memo's key.
E0_FIELDS = ("s", "r_T", "d_T", "T_max")


def reference_threshold_locate(base, axis, target="r0_eq_1"):
    """threshold_locate with the batched grid scan and a fresh E0 per step.

    It has two later fixes: its edge bisection stops where no float lies
    between its ends, where it used to loop for ever, and its midpoints
    neither overflow nor underflow.  The geometric one always takes the root
    of the mantissas scaled by even powers of two, the route that
    threshold_locate takes only where lo * hi is not a normal float.
    """
    if target not in THRESHOLD_TARGETS:
        raise SweepError(f"unknown target {target!r}; choose from {THRESHOLD_TARGETS}")

    def r0_at(x):
        params = replace(base, **{axis.name: x})
        return r0_from_T0(params, uninfected_equilibrium(params).state.T)

    def midpoint(lo, hi):
        if axis.scale != "log":
            return 0.5 * lo + 0.5 * hi
        k1, k2 = math.frexp(lo)[1] // 2, math.frexp(hi)[1] // 2
        return math.ldexp(math.sqrt(math.ldexp(lo, -2 * k1) * math.ldexp(hi, -2 * k2)), k1 + k2)

    def gap_at(x):
        params = replace(base, **{axis.name: x})
        R0 = r0_from_T0(params, uninfected_equilibrium(params).state.T)
        return R0 - _threshold_level(params, target)

    grid = axis.values()
    params, valid = _grid_parameters(base, [(axis.name, grid)])
    columns, status = _evaluate_grid(params, valid, ("r0",))
    with np.errstate(all="ignore"):
        gaps = (np.array(columns["r0"]) - _threshold_level(params, target)).tolist()
    points = grid.tolist()
    live = [cell_status != STATUS_INVALID for cell_status in status]

    def domain_edge(k, outside):
        inside, g = points[k], gaps[k]
        width = 1e-10 * max(abs(inside), abs(outside))
        while abs(outside - inside) > width:
            mid = 0.5 * inside + 0.5 * outside
            if mid == inside or mid == outside:
                break  # no float lies between the two
            try:
                g_mid = gap_at(mid)
            except ModelError:
                outside = mid
            else:
                inside, g = mid, g_mid
        return inside, g

    def scan():
        for k, x in enumerate(points):
            if not live[k]:
                yield None
                continue
            if k > 0 and not live[k - 1]:
                yield domain_edge(k, points[k - 1])
            yield x, gaps[k]
            if k + 1 < len(points) and not live[k + 1]:
                yield domain_edge(k, points[k + 1])

    previous = None
    for point in scan():
        if point is not None:
            x, g = point
            if previous is not None and previous[1] * g < 0.0:
                (lo, g_lo), hi = previous, x
                break
            if g == 0.0:
                return ThresholdResult(target, True, x, r0_at(x), (x, x))
        previous = point
    else:
        return ThresholdResult(target, False, None, None, None)

    for _ in range(200):
        mid = midpoint(lo, hi)
        g_mid = gap_at(mid)
        if g_mid == 0.0:
            lo = hi = mid
            break
        if (g_mid > 0.0) == (g_lo > 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
        if hi - lo <= 1e-10 * max(abs(lo), abs(hi)):
            break
    value = midpoint(lo, hi)
    return ThresholdResult(target, True, value, r0_at(value), (lo, hi))


def outcome(fn, *args, **kwargs):
    """repr of fn's result, or the type and message of what it raised."""
    try:
        return repr(fn(*args, **kwargs))
    except Exception as exc:  # compared, never swallowed: both routes must agree
        return f"{type(exc).__name__}: {exc}"


def _plausible(name):
    lo, hi = RANGES[name]
    if lo > 0.0 and hi / lo > 10.0:
        return st.floats(math.log(lo), math.log(hi)).map(lambda x: min(max(math.exp(x), lo), hi))
    return st.floats(lo, hi)


def _value(name):
    return st.one_of(_plausible(name), any_value(name))


whole_domain = st.fixed_dictionaries({name: any_value(name) for name in PARAMETER_NAMES})
plausible = st.fixed_dictionaries({name: _plausible(name) for name in PARAMETER_NAMES})
bases = st.one_of(plausible, whole_domain).map(lambda fields: ModelParameters(**fields))


@st.composite
def axes(draw):
    """An axis over any field; linear ones may reach or cross the domain's edge."""
    name = draw(st.sampled_from(PARAMETER_NAMES))
    lo, hi = sorted(draw(st.lists(_value(name), min_size=2, max_size=2, unique=True)))
    n = draw(st.integers(2, 31))
    if lo > 0.0 and draw(st.booleans()):
        return Axis(name, lo, hi, n, "log")
    edge = draw(st.sampled_from(("inside", "below", "above")))
    if edge == "below":
        lo = -draw(st.sampled_from((lo, hi)))
    elif edge == "above" and name in ("eta", "epsilon"):
        hi = draw(st.floats(1.0, 2.0))
    return Axis(name, lo, hi, n) if lo < hi else Axis(name, lo, lo + 1.0, n)


@settings(max_examples=500, deadline=None)
@given(base=bases, axis=axes(), target=st.sampled_from(THRESHOLD_TARGETS))
def test_scalar_route_matches_the_kernel_scan_reference(base, axis, target):
    assert outcome(threshold_locate, base, axis, target) == outcome(
        reference_threshold_locate, base, axis, target
    )


def test_reference_agrees_on_the_pinned_and_edge_cases():
    cases = [
        (SCENARIO_S1, Axis("beta", 1e-9, 1e-5, 30, "log")),
        (SCENARIO_S1, Axis("T_max", 1e6, 1e8, 15, "log")),
        (SCENARIO_S2, Axis("eta", 0.0, 1.0, 11)),
        (replace(SCENARIO_S2, beta=1e-6), Axis("eta", 0.0, 1.0, 11)),
        (replace(SCENARIO_S2, beta=1e-6), Axis("q", -1.0, 1.0, 11)),
        (SCENARIO_S2, Axis("r_T", -1.0, 1.0, 11)),
        (SCENARIO_S2, Axis("c", -1.0, 1.0, 12)),
    ]
    for base, axis in cases:
        for target in THRESHOLD_TARGETS:
            assert outcome(threshold_locate, base, axis, target) == outcome(
                reference_threshold_locate, base, axis, target
            ), (base, axis, target)


@pytest.mark.parametrize("base, axis", [
    # sqrt(lo * hi) overflowed: ParameterError, p must be finite, got inf.
    (replace(SCENARIO_S2, beta=1e-207), Axis("p", 1e150, 1e300, 9, "log")),
    # sqrt(lo * hi) underflowed to 0.0: found at p = 0.0 with r0 = 0.0007.
    (replace(SCENARIO_S2, beta=1e193), Axis("p", 1e-300, 1e-150, 9, "log")),
    # 0.5 * (lo + hi) overflowed past 8.99e307.
    (replace(SCENARIO_S2, beta=4e-316), Axis("p", 1e308, 1.7e308, 5)),
])
def test_midpoints_neither_overflow_nor_underflow(base, axis):
    result = threshold_locate(base, axis)
    assert result.found and axis.lo < result.bracket[0] <= result.axis_value <= result.bracket[1] < axis.hi
    assert abs(result.r0_at_value - 1.0) < 1e-8
    assert outcome(threshold_locate, base, axis) == outcome(reference_threshold_locate, base, axis)


@settings(max_examples=300, deadline=None)
@given(base=whole_domain.map(lambda fields: ModelParameters(**fields)), data=st.data())
def test_uninfected_equilibrium_reads_only_the_memo_key(base, data):
    name = data.draw(st.sampled_from([n for n in PARAMETER_NAMES if n not in E0_FIELDS]))
    changed = replace(base, **{name: data.draw(_value(name))})
    assert outcome(uninfected_equilibrium, changed) == outcome(uninfected_equilibrium, base)


@settings(max_examples=300, deadline=None)
@given(
    base=bases,
    name=st.sampled_from(PARAMETER_NAMES),
    value=st.one_of(st.floats(), st.sampled_from([-0.0, 1.0, 2, "0.5", "x", None])),
)
def test_replacing_one_field_equals_dataclass_replace(base, name, value):
    expected = outcome(replace, base, **{name: value})
    assert outcome(_replace_field, base, name, value) == expected
    if not expected.startswith("ParameterError"):
        out = _replace_field(base, name, value)
        assert type(out) is ModelParameters
        assert out == replace(base, **{name: value})
        assert hash(out) == hash(replace(base, **{name: value}))


def test_every_evaluation_goes_through_the_scalar_gap(monkeypatch):
    def forbidden(*args):
        raise AssertionError("threshold_locate must not use the batched kernel")

    gaps, solves = [], []
    target_gap, solve = sweep._target_gap, sweep.uninfected_equilibrium
    monkeypatch.setattr(sweep, "_grid_parameters", forbidden)
    monkeypatch.setattr(sweep, "_evaluate_grid", forbidden)
    monkeypatch.setattr(sweep, "_target_gap", lambda *args: gaps.append(args) or target_gap(*args))
    monkeypatch.setattr(sweep, "uninfected_equilibrium", lambda p: solves.append(p) or solve(p))

    # beta leaves E0 alone: it is solved once for the whole search.
    result = threshold_locate(SCENARIO_S1, Axis("beta", 1e-9, 1e-5, 30, "log"))
    assert result.found and len(solves) == 1 and len(gaps) > 30

    # T_max moves E0: one solve per distinct value, the final value included.
    gaps.clear()
    solves.clear()
    result = threshold_locate(SCENARIO_S1, Axis("T_max", 1e6, 1e8, 15, "log"))
    assert result.found
    assert len(solves) == len({args[0].T_max for args in gaps} | {result.axis_value})
