"""Parameter sweeps and threshold location.

A sweep substitutes axis values into a base parameter set and evaluates the
requested analysis outputs at every grid cell.  Cells fail individually
(status invalid_params or no_equilibrium) without aborting the grid, and the
cell ordering is deterministic: row-major with axis1 varying fastest.
Threshold location brackets a reproduction-number crossing along one axis
and bisects it to relative precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .equilibria import REGIME_UNIQUE, infected_equilibrium, uninfected_equilibrium
from .errors import ModelError, SweepError
from .model import PARAMETER_NAMES, ModelParameters
from .reproduction import r0_from_T0
from .stability import characteristic_coefficients
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__all__ = [
    "Axis",
    "SweepSpec",
    "CellResult",
    "SweepGrid",
    "ThresholdResult",
    "SWEEP_OUTPUTS",
    "THRESHOLD_TARGETS",
    "run_sweep",
    "threshold_locate",
]

SWEEP_OUTPUTS = ("r0", "regime", "t0", "estar_T", "delta2")
THRESHOLD_TARGETS = ("r0_eq_1", "r0_eq_1_minus_q_over_delta")

STATUS_OK = "ok"
STATUS_INVALID = "invalid_params"
STATUS_NO_EQUILIBRIUM = "no_equilibrium"


@dataclass(frozen=True)
class Axis:
    """One swept parameter: name, closed range, point count, and scale."""

    name: str
    lo: float
    hi: float
    n: int
    scale: str = "linear"
    """Either "linear" or "log"."""

    def __post_init__(self):
        if self.name not in PARAMETER_NAMES:
            raise SweepError(f"unknown parameter {self.name!r}")
        if not self.lo < self.hi:
            raise SweepError(f"axis {self.name}: need lo < hi, got [{self.lo!r}, {self.hi!r}]")
        if self.n < 2:
            raise SweepError(f"axis {self.name}: need at least 2 points, got {self.n}")
        if self.scale not in ("linear", "log"):
            raise SweepError(f"axis {self.name}: scale must be linear or log, got {self.scale!r}")
        if self.scale == "log" and self.lo <= 0:
            raise SweepError(f"axis {self.name}: log scale requires lo > 0, got {self.lo!r}")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.logspace(math.log10(self.lo), math.log10(self.hi), self.n)
        return np.linspace(self.lo, self.hi, self.n)


@dataclass(frozen=True)
class SweepSpec:
    """Base parameters plus one or two axes and the outputs to evaluate."""

    base: ModelParameters
    axis1: Axis
    axis2: Axis | None = None
    outputs: tuple[str, ...] = SWEEP_OUTPUTS

    def __post_init__(self):
        if not self.outputs:
            raise SweepError("outputs must not be empty")
        for name in self.outputs:
            if name not in SWEEP_OUTPUTS:
                raise SweepError(f"unknown output {name!r}; choose from {SWEEP_OUTPUTS}")
        if self.axis2 is not None and self.axis2.name == self.axis1.name:
            raise SweepError(f"axis1 and axis2 both sweep {self.axis1.name!r}")


@dataclass(frozen=True)
class CellResult:
    """One grid cell: substituted axis values, outputs, and a status."""

    index: tuple[int, ...]
    """(i1,) or (i2, i1) grid position, axis1 index last."""
    axis_values: tuple[float, ...]
    values: dict[str, float | str]
    status: str


@dataclass(frozen=True)
class SweepGrid:
    """All cells of a sweep, row-major with axis1 fastest."""

    spec: SweepSpec
    axis1_values: np.ndarray
    axis2_values: np.ndarray | None
    cells: tuple[CellResult, ...]

    def column(self, name: str) -> list[float | str]:
        return [cell.values[name] for cell in self.cells]


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of a threshold search; found = False is a result, not an error."""

    target: str
    found: bool
    axis_value: float | None
    r0_at_value: float | None
    bracket: tuple[float, float] | None


def _evaluate_cell(
    base: ModelParameters,
    updates: dict[str, float],
    outputs: tuple[str, ...],
    tolerances: Tolerances,
) -> tuple[dict[str, float | str], str]:
    values: dict[str, float | str] = {name: math.nan for name in outputs}
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
                    values["delta2"] = characteristic_coefficients(
                        params, estar, tolerances
                    ).delta2
                except ModelError:
                    status = STATUS_INVALID
        else:
            status = STATUS_NO_EQUILIBRIUM
    return values, status


def run_sweep(spec: SweepSpec, tolerances: Tolerances = DEFAULT_TOLERANCES) -> SweepGrid:
    """Evaluate every cell of the sweep grid, row-major with axis1 fastest."""
    axis1_values = spec.axis1.values()
    axis2_values = spec.axis2.values() if spec.axis2 is not None else None
    rows = [None] if axis2_values is None else list(enumerate(axis2_values))

    cells = []
    for row in rows:
        for i1, v1 in enumerate(axis1_values):
            index = (i1,)
            updates = {spec.axis1.name: float(v1)}
            if row is not None:
                index = (row[0], i1)
                updates[spec.axis2.name] = float(row[1])
            values, status = _evaluate_cell(spec.base, updates, spec.outputs, tolerances)
            cells.append(CellResult(index, tuple(updates.values()), values, status))
    return SweepGrid(
        spec=spec, axis1_values=axis1_values, axis2_values=axis2_values, cells=tuple(cells)
    )


def _target_gap(params: ModelParameters, target: str, tolerances: Tolerances) -> float:
    """Signed distance of r0 from the requested threshold at this set."""
    T0 = uninfected_equilibrium(params, tolerances).state.T
    R0 = r0_from_T0(params, T0)
    if target == "r0_eq_1":
        return R0 - 1.0
    delta = params.d_I + params.q
    if delta == 0:
        raise SweepError("target r0_eq_1_minus_q_over_delta is undefined when d_I + q = 0")
    return R0 - (1.0 - params.q / delta)


def threshold_locate(
    base: ModelParameters,
    axis: Axis,
    target: str = "r0_eq_1",
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> ThresholdResult:
    """Locate an axis value where r0 crosses the named threshold.

    Scans the axis grid for the first sign change, then bisects (in log
    space for log axes) until the bracket width shrinks below relative
    1e-10.  No sign change on the grid yields found = False.
    """
    if target not in THRESHOLD_TARGETS:
        raise SweepError(f"unknown target {target!r}; choose from {THRESHOLD_TARGETS}")

    def gap_at(x: float) -> float:
        return _target_gap(replace(base, **{axis.name: x}), target, tolerances)

    grid = axis.values()
    gaps = [gap_at(float(x)) for x in grid]
    lo = hi = None
    for (x0, g0), (x1, g1) in zip(zip(grid, gaps), zip(grid[1:], gaps[1:])):
        if g0 == 0.0:
            return ThresholdResult(target, True, float(x0), _r0_at(base, axis, float(x0), tolerances), (float(x0), float(x0)))
        if g0 * g1 < 0.0:
            lo, hi, g_lo = float(x0), float(x1), g0
            break
    else:
        if gaps and gaps[-1] == 0.0:
            x = float(grid[-1])
            return ThresholdResult(target, True, x, _r0_at(base, axis, x, tolerances), (x, x))
        return ThresholdResult(target, False, None, None, None)

    logspace = axis.scale == "log"
    for _ in range(200):
        mid = math.sqrt(lo * hi) if logspace else 0.5 * (lo + hi)
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
    value = math.sqrt(lo * hi) if logspace else 0.5 * (lo + hi)
    return ThresholdResult(
        target=target,
        found=True,
        axis_value=value,
        r0_at_value=_r0_at(base, axis, value, tolerances),
        bracket=(lo, hi),
    )


def _r0_at(base: ModelParameters, axis: Axis, x: float, tolerances: Tolerances) -> float:
    params = replace(base, **{axis.name: x})
    return r0_from_T0(params, uninfected_equilibrium(params, tolerances).state.T)
