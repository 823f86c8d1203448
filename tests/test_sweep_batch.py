"""The batched sweep evaluation against a per-cell scalar reference.

reference_cell evaluates one grid cell through the public scalar functions.
run_sweep evaluates the whole grid at once; every cell's status and the
repr of every value must equal the reference's.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hcvdyn import (
    PARAMETER_NAMES,
    SWEEP_OUTPUTS,
    Axis,
    IntegrityError,
    ModelError,
    ModelParameters,
    SweepSpec,
    characteristic_coefficients,
    infected_equilibrium,
    r0_from_T0,
    run_sweep,
    uninfected_equilibrium,
)
from hcvdyn.equilibria import REGIME_UNIQUE
from hcvdyn.model import PLAUSIBLE_RANGES
from hcvdyn.sweep import STATUS_INVALID, STATUS_NO_EQUILIBRIUM, STATUS_OK
from hcvdyn.tolerances import DEFAULT_TOLERANCES

# PLAUSIBLE_RANGES has no range for r_I, eta and epsilon.
RANGES = dict(PLAUSIBLE_RANGES, r_I=(1e-3, 3.4), eta=(0.0, 0.99), epsilon=(0.0, 0.99))


def reference_cell(base, updates, outputs, tolerances=DEFAULT_TOLERANCES):
    """(values, status) of one cell, one scalar call after another."""
    values = {name: math.nan for name in outputs}
    try:
        params = replace(base, **updates)
    except ModelError:
        return values, STATUS_INVALID

    needs_estar = "estar_T" in outputs or "delta2" in outputs or "regime" in outputs
    try:
        T0 = uninfected_equilibrium(params, tolerances).state.T
        R0 = r0_from_T0(params, T0)
        report = infected_equilibrium(params, tolerances) if needs_estar else None
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
                    values["delta2"] = characteristic_coefficients(params, estar, tolerances).delta2
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
    # A set (outside the plausible ranges) whose radical T* cancels
    # catastrophically: the other root is about 1e7 times larger.  Most
    # cells of a small grid around it raise IntegrityError in
    # infected_equilibrium.
    base = ModelParameters(
        s=2.1264013161432933, r_T=0.13335190006255698, r_I=0.19559575062752832,
        d_T=0.6498168582318279, d_I=0.012611602191665731, T_max=760937.608164384,
        beta=1.098455752868703e-09, p=0.02221800903378173, c=11.322468564292777,
        q=0.054363009043615074, eta=0.5772727191294079, epsilon=0.3768440007620401,
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
    assert raised > 50
