"""The batched sweep evaluation against a per-cell scalar reference.

reference_cell evaluates one grid cell through the public scalar functions.
run_sweep evaluates the whole grid at once; every cell's status and the
repr of every value must equal the reference's.

reference_cells and reference_sweep_csv keep the row-wise cell construction
and CSV writer that preceded the columnar SweepGrid; the columns, the lazily
built cells and the column-wise CSV must equal what they give.
"""

import io
import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import E0_WITHIN_AN_ULP, OVERFLOWING_CONSTANT_TERM, OVERFLOWING_MINORS, any_value

from hcvdyn import (
    PARAMETER_NAMES,
    SCENARIO_S1,
    SCENARIO_S2,
    SWEEP_OUTPUTS,
    Axis,
    DomainError,
    IntegrityError,
    ModelError,
    ModelParameters,
    SweepSpec,
    characteristic_coefficients,
    infected_equilibrium,
    r0_from_T0,
    run_sweep,
    uninfected_equilibrium,
    write_sweep_csv,
)
from hcvdyn.equilibria import REGIME_UNIQUE, equilibrium_quadratic
from hcvdyn.model import PLAUSIBLE_RANGES
from hcvdyn.sweep import (
    STATUS_INVALID,
    STATUS_NO_EQUILIBRIUM,
    STATUS_OK,
    CellResult,
    _evaluate_grid,
    _grid_parameters,
)

# PLAUSIBLE_RANGES has no range for r_I, eta and epsilon.
RANGES = dict(PLAUSIBLE_RANGES, r_I=(1e-3, 3.4), eta=(0.0, 0.99), epsilon=(0.0, 0.99))


def reference_cell(base, updates, outputs):
    """(values, status) of one cell, one scalar call after another."""
    values = {name: math.nan for name in outputs}
    try:
        params = replace(base, **updates)
    except ModelError:
        return values, STATUS_INVALID

    needs_estar = "estar_T" in outputs or "delta2" in outputs or "regime" in outputs
    try:
        T0 = uninfected_equilibrium(params).state.T
        R0 = r0_from_T0(params, T0)
        report = infected_equilibrium(params) if needs_estar else None
    except ModelError:
        return values, STATUS_INVALID

    if "t0" in outputs:
        values["t0"] = T0
    if "r0" in outputs:
        values["r0"] = R0
    if "regime" in outputs:
        values["regime"] = report.regime

    status = STATUS_OK
    if "estar_T" in outputs or "delta2" in outputs:
        if report.regime == REGIME_UNIQUE:
            estar = report.candidates[0]
            if "estar_T" in outputs:
                values["estar_T"] = estar.state.T
            if "delta2" in outputs:
                try:
                    values["delta2"] = characteristic_coefficients(params, estar).delta2
                except ModelError:
                    status = STATUS_INVALID
        else:
            status = STATUS_NO_EQUILIBRIUM
    return values, status


def assert_cells_match_reference(spec):
    grid = run_sweep(spec)
    axes = [spec.axis1] if spec.axis2 is None else [spec.axis1, spec.axis2]
    assert len(grid.cells) == math.prod(axis.n for axis in axes)
    for cell in grid.cells:
        updates = {axis.name: value for axis, value in zip(axes, cell.axis_values)}
        values, status = reference_cell(spec.base, updates, spec.outputs)
        assert cell.status == status, (updates, cell, values)
        assert [(k, repr(v)) for k, v in cell.values.items()] == [
            (k, repr(v)) for k, v in values.items()
        ], updates
    return grid


def _in_range(lo, hi):
    if lo > 0.0 and hi / lo > 10.0:
        return st.floats(math.log(lo), math.log(hi)).map(lambda x: min(max(math.exp(x), lo), hi))
    return st.floats(lo, hi)


bases = st.fixed_dictionaries({name: _in_range(*RANGES[name]) for name in PARAMETER_NAMES}).map(
    lambda fields: ModelParameters(**fields)
)


@st.composite
def axes(draw):
    """One or two distinct axes; some reach past the edge of the domain."""
    names = draw(st.lists(st.sampled_from(sorted(RANGES)), min_size=2, max_size=2, unique=True))
    out = []
    for name in names[: draw(st.integers(1, 2))]:
        lo, hi = RANGES[name]
        if name in ("eta", "epsilon") and draw(st.booleans()):
            hi = 1.0
        if name in ("r_T", "r_I", "q") and draw(st.booleans()):
            lo = 0.0
        scale = draw(st.sampled_from(("linear", "log"))) if lo > 0.0 else "linear"
        out.append(Axis(name, lo, hi, draw(st.integers(2, 7)), scale))
    return out


outputs = st.lists(st.sampled_from(SWEEP_OUTPUTS), min_size=1, max_size=5, unique=True).map(tuple)


@settings(max_examples=200, deadline=None)
@given(base=bases, sweep_axes=axes(), wanted=outputs)
def test_batched_sweep_matches_scalar_route(base, sweep_axes, wanted):
    spec = SweepSpec(base, *sweep_axes, outputs=wanted)
    assert_cells_match_reference(spec)


whole_domain_bases = st.fixed_dictionaries({name: any_value(name) for name in PARAMETER_NAMES}).map(
    lambda fields: ModelParameters(**fields)
)


@st.composite
def whole_domain_axes(draw):
    """One or two distinct axes with ends anywhere in the domain."""
    names = draw(st.lists(st.sampled_from(PARAMETER_NAMES), min_size=2, max_size=2, unique=True))
    out = []
    for name in names[: draw(st.integers(1, 2))]:
        lo, hi = sorted(draw(st.lists(any_value(name), min_size=2, max_size=2, unique=True)))
        scale = draw(st.sampled_from(("linear", "log"))) if lo > 0.0 else "linear"
        out.append(Axis(name, lo, hi, draw(st.integers(2, 7)), scale))
    return out


@settings(max_examples=300, deadline=None)
@given(base=whole_domain_bases, sweep_axes=whole_domain_axes(), wanted=outputs)
def test_batched_sweep_matches_scalar_route_over_the_whole_domain(base, sweep_axes, wanted):
    # Overflow, underflow and NaN live here, outside the plausible ranges.
    assert_cells_match_reference(SweepSpec(base, *sweep_axes, outputs=wanted))


def test_batched_sweep_matches_scalar_route_on_plausible_supercritical_cells():
    rng = np.random.default_rng(20190601)
    supercritical = 0
    while supercritical < 2000:
        fields = {
            name: float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi))) if lo > 0.0
            else float(rng.uniform(lo, hi))
            for name, (lo, hi) in RANGES.items()
        }
        base = ModelParameters(**{name: fields[name] for name in PARAMETER_NAMES})
        grid = assert_cells_match_reference(SweepSpec(base, Axis("beta", 1e-8, 1e-6, 20, "log")))
        supercritical += sum(cell.values["r0"] > 1.0 for cell in grid.cells)


def test_batched_sweep_matches_scalar_route_where_the_radical_check_raises():
    # A whole-domain set where the radical's constant term G/4 reads 0: F
    # and 4 s T_max underflow, so its roots are 0 and -D/H, while E*'s
    # quadratic gives T* = 8.4e-266.  Every cell of a small grid around it
    # raises IntegrityError in infected_equilibrium.
    base = ModelParameters(
        s=1.9868860402564492e-233, r_T=5.9741810418835434e-242, r_I=7.431133223150112e74,
        d_T=2.368814500851648e32, d_I=1.3835788767442456e-90, T_max=1.6949817018941011e-264,
        beta=7.962479257254006e-13, p=6.37927867972775e250, c=7.296424408185082e237,
        q=7.84214568592925e-151, eta=0.09604468691424639, epsilon=0.5665607986977953,
    )
    spec = SweepSpec(
        base,
        Axis("beta", base.beta / 1.2, base.beta * 1.2, 10, "log"),
        Axis("q", base.q / 1.2, base.q * 1.2, 10),
    )
    grid = assert_cells_match_reference(spec)
    raised = 0
    for cell in grid.cells:
        try:
            infected_equilibrium(replace(base, beta=cell.axis_values[0], q=cell.axis_values[1]))
        except IntegrityError:
            raised += 1
    assert raised == 100


def test_sweep_past_the_float_range_of_t_max_squared_matches_scalar_route():
    # T_max**2 overflows from about 1.34e154 on: derive_constants raises
    # DomainError there, so the last cell is invalid_params, not a crash.
    spec = SweepSpec(SCENARIO_S2, Axis("T_max", 1e6, 1e200, 5, "log"))
    grid = assert_cells_match_reference(spec)
    assert grid.status[-1] == STATUS_INVALID
    assert grid.status[:-1] == [STATUS_NO_EQUILIBRIUM] * 4


def test_sweep_where_t0_is_within_an_ulp_of_its_root_matches_scalar_route():
    # Every cell's E0 residual fails, and every T0 is accepted by the one-ulp bracket.
    spec = SweepSpec(
        replace(SCENARIO_S1, **E0_WITHIN_AN_ULP), Axis("s", 1e-153, 1e-149, 5, "log"), outputs=("t0", "r0")
    )
    grid = assert_cells_match_reference(spec)
    assert grid.status == [STATUS_OK] * 5


def test_sweep_where_c_delta_underflows_matches_scalar_route():
    # At c = 5e-324, c (d_I + q) rounds to 0 and r0 divides by it: the
    # scalar route raises DomainError, so the cell is invalid_params.
    spec = SweepSpec(replace(SCENARIO_S2, q=0.0), Axis("c", 5e-324, 1.0, 5, "log"), outputs=("r0",))
    grid = assert_cells_match_reference(spec)
    assert grid.status == [STATUS_INVALID] + [STATUS_OK] * 4


def test_sweep_where_the_coefficient_denominators_underflow_matches_scalar_route():
    # T_max**2 and T* T_max underflow to 0: characteristic_coefficients
    # raises DomainError, so delta2 is invalid_params, not ok with NaN.
    base = ModelParameters(
        s=0.0, r_T=1e-162, r_I=1.0, d_T=0.0, d_I=0.1, T_max=1e-162,
        beta=1.0, p=1.0, c=1.0, q=0.0, eta=0.0, epsilon=0.0,
    )
    spec = SweepSpec(base, Axis("d_I", 0.05, 0.5, 4, "linear"), outputs=("estar_T", "delta2"))
    grid = assert_cells_match_reference(spec)
    assert grid.status == [STATUS_INVALID] * 3 + [STATUS_NO_EQUILIBRIUM]


@pytest.mark.parametrize("fields, axis_name", [
    # g^2 + 4 s k overflows in every cell: T0 takes the scaled route.
    (dict(
        s=1.6059484463526526e164, r_T=1.0378895204753431e48, r_I=8.263063001673519e90,
        d_T=2.709505887367695e-210, d_I=5e-324, T_max=6.637147734151798e-104,
        beta=3.392226303104842e-238, p=2.850730940109298e232, c=1.6417531631418575e131,
        q=7.429175374854339e-42, eta=0.8805305462691764, epsilon=0.04672381254907876,
    ), "s"),
    # b^2 - 4ad of E*'s quadratic overflows: E* takes the scaled route.
    (dict(
        s=5.67208432275359e122, r_T=3.424298857560229e35, r_I=7.994585276832696e78, d_T=0.0,
        d_I=3.61823244245398e111, T_max=2.147455286482876e-40, beta=5.315216202156764e281,
        p=7.050204472840284e-217, c=2.7606769209824794e-110, q=6.226854736566716e117,
        eta=0.4306907905112555, epsilon=0.011534600455089805,
    ), "beta"),
])
def test_sweep_on_the_scaled_route_matches_scalar_route(fields, axis_name):
    base = ModelParameters(**fields)
    value = getattr(base, axis_name)
    spec = SweepSpec(base, Axis(axis_name, value / 4.0, value * 4.0, 5, "log"))
    if axis_name == "s":
        assert math.isinf(4.0 * base.s * (base.r_T / base.T_max))
    else:
        a, b, d = equilibrium_quadratic(base)
        assert math.isinf(b * b - 4.0 * a * d)
    grid = assert_cells_match_reference(spec)
    without_delta2 = assert_cells_match_reference(SweepSpec(base, spec.axis1, outputs=("r0", "regime", "t0", "estar_T")))
    assert STATUS_INVALID not in without_delta2.status
    # On the beta axis a1 a2 - a3 overflows to inf in every cell, where a1,
    # a2 and a3 are finite: delta2 is refused, so each cell is invalid_params.
    assert (grid.status == [STATUS_INVALID] * 5) if axis_name == "beta" else STATUS_INVALID not in grid.status


def test_sweep_cell_where_a_minor_overflows_matches_scalar_route():
    # characteristic_coefficients raises IntegrityError on the NaN relative
    # difference of the overflowing minor, so the one cell is invalid_params.
    base = ModelParameters(**OVERFLOWING_MINORS)
    outputs = ("estar_T", "delta2")
    params, valid = _grid_parameters(base, [("q", np.array([base.q]))])
    columns, status = _evaluate_grid(params, valid, outputs)
    values, expected = reference_cell(base, {"q": base.q}, outputs)
    assert status == [expected] == [STATUS_INVALID]
    assert repr(columns) == repr({name: [values[name]] for name in outputs})
    assert math.isnan(columns["delta2"][0])


# A valid set whose r0 is nan and whose radical's constant term overflows:
# 4 s T_max does, so G is inf and the radical's roots are -inf and nan.
NAN_R0_CLOSED_FORM = dict(
    s=2.006516852469215e272, r_T=3.8603049758061387e-277, r_I=1.7567284178861894e-27,
    d_T=2.1792769386615854e-297, d_I=8.1580074811900315e-143, T_max=2.0464175293424157e27,
    beta=1.8405025084188527e271, p=6.202268563696184e-108, c=3.740952780355154e208,
    q=0.0, eta=0.16131704805011549, epsilon=0.4563598693605089,
)

# Valid sets where one field of infected_equilibrium's report overflows; r0
# is finite on each but NAN_R0_CLOSED_FORM.
NON_FINITE_REPORTS = [
    # The constant term overflows to -inf, and a rejected root to inf.
    ("existence_condition", OVERFLOWING_CONSTANT_TERM),
    # The constant term overflows to -inf; every other field is finite.
    ("existence_condition", dict(
        s=7.120591659983533e51, r_T=5.718772526511484e-31, r_I=1.4312412400700386e-253,
        d_T=2.263682128868353e124, d_I=1.5809932278854285e-109, T_max=1.3415149618799017e56,
        beta=1.1936108976184211e-59, p=1.3791401580908866e61, c=1.588524084945412e92,
        q=1.8570390831415015e-97, eta=0.7387230689996682, epsilon=0.8603898946707123,
    )),
    ("rejected_T_roots", dict(
        s=3.3954026870206856e277, r_T=9.265571810035262e-101, r_I=33930914393141.97,
        d_T=1.7347898008374468e-279, d_I=1.881539026933329e21, T_max=5.700178162832545e146,
        beta=3.4867523318467566e-181, p=6.229406621905951e-156, c=9.55133206665211e-259, q=5e-324,
        eta=0.35531156730358926, epsilon=0.5269131948044142,
    )),
    ("closed_form_T", NAN_R0_CLOSED_FORM),
    ("threshold_T", dict(
        s=5.60712468212781e-60, r_T=8.334659418910591e142, r_I=3.495967479094066e223,
        d_T=5.104701853134149e143, d_I=1465134132776.543, T_max=1.2333635671548774e212,
        beta=2.2592605198014633e-206, p=5e-324, c=3.0788582601600406e189, q=0.0,
        eta=0.8508787365120284, epsilon=0.7568716805547588,
    )),
    # With a finite r0, the kernel's own closed_form_T check decides the cell.
    ("closed_form_T", dict(
        s=5.519233380703292e91, r_T=1.220732060367949e-34, r_I=2.866155776756261e88,
        d_T=9599.317987841374, d_I=1.839765457596709e-92, T_max=1.0483301970551499e111,
        beta=1.3017553610227383e51, p=2.6084551803824415e-163, c=1.326191553942486e266,
        q=1.986096302743149e-247, eta=0.9502427175770068, epsilon=0.023269264026362646,
    )),
]


@pytest.mark.parametrize("field, fields", NON_FINITE_REPORTS)
def test_sweep_cell_where_a_report_field_is_not_finite_matches_scalar_route(field, fields):
    # regime, estar_T and delta2 need E*; r0 alone leaves the cell ok,
    # unless r0 itself is not finite.
    base = ModelParameters(**fields)
    with pytest.raises(DomainError, match=f"{field} is not finite"):
        infected_equilibrium(base)
    axis = Axis("eta", base.eta, 0.99, 2)
    r0_only = STATUS_INVALID if fields is NAN_R0_CLOSED_FORM else STATUS_OK
    cases = ((("r0", "regime"), STATUS_INVALID), (SWEEP_OUTPUTS, STATUS_INVALID), (("r0",), r0_only))
    for outputs, status in cases:
        grid = assert_cells_match_reference(SweepSpec(base, axis, outputs=outputs))
        assert grid.status[0] == status, outputs


def reference_cells(spec):
    """The cells as run_sweep built them row by row from the kernel's columns."""
    axes = [(spec.axis1.name, spec.axis1.values())]
    if spec.axis2 is not None:
        axes.append((spec.axis2.name, spec.axis2.values()))
    params, valid = _grid_parameters(spec.base, axes)
    columns, status = _evaluate_grid(params, valid, spec.outputs)

    indices = product(*(range(len(values)) for _, values in reversed(axes)))
    axis_values = zip(*(getattr(params, name).tolist() for name, _ in axes))
    rows = zip(*(columns[name] for name in spec.outputs))
    return tuple(
        CellResult(index, values, dict(zip(spec.outputs, row)), cell_status)
        for index, values, row, cell_status in zip(indices, axis_values, rows, status)
    )


def reference_sweep_csv(spec, cells):
    """The sweep CSV as write_sweep_csv wrote it, one cell after another."""
    fh = io.StringIO()
    axes = [spec.axis1] if spec.axis2 is None else [spec.axis1, spec.axis2]
    fh.write(",".join([a.name for a in axes] + list(spec.outputs) + ["status"]) + "\n")
    for cell in cells:
        fields = [repr(v) for v in cell.axis_values]
        for name in spec.outputs:
            value = cell.values[name]
            fields.append(value if isinstance(value, str) else repr(float(value)))
        fields.append(cell.status)
        fh.write(",".join(fields) + "\n")
    return fh.getvalue()


@settings(max_examples=200, deadline=None)
@given(base=bases, sweep_axes=axes(), wanted=outputs)
def test_columnar_grid_matches_row_wise_reference(base, sweep_axes, wanted):
    spec = SweepSpec(base, *sweep_axes, outputs=wanted)
    grid = run_sweep(spec)
    expected = reference_cells(spec)
    buffer = io.StringIO()
    write_sweep_csv(grid, buffer)
    assert buffer.getvalue() == reference_sweep_csv(spec, expected)
    # repr, so that NaN compares equal to NaN.
    assert repr(grid.cells) == repr(expected)
    for name in wanted:
        assert repr(grid.column(name)) == repr([cell.values[name] for cell in expected])
    assert grid.status == [cell.status for cell in expected]


def test_cells_are_built_on_first_access():
    spec = SweepSpec(
        SCENARIO_S2, Axis("beta", 1e-9, 1e-6, 9, "log"), Axis("eta", 0.0, 1.0, 6)
    )
    grid = run_sweep(spec)
    assert "cells" not in vars(grid)
    write_sweep_csv(grid, io.StringIO())
    assert "cells" not in vars(grid)
    cells = grid.cells
    assert "cells" in vars(grid)
    assert grid.cells is cells
    assert len(cells) == 54
