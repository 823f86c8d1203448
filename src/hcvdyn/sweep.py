"""Parameter sweeps and threshold location.

A sweep substitutes axis values into a base parameter set and evaluates the
requested analysis outputs at every grid cell.  Cells fail individually
(status invalid_params or no_equilibrium) without aborting the grid, and the
cell ordering is deterministic: row-major with axis1 varying fastest.  The
whole grid is evaluated at once, as float64 arrays over the flattened grid
that repeat the scalar route's floating-point operations in its order, so
every cell equals what the public scalar functions give for its parameters.
Threshold location brackets a reproduction-number crossing along one axis
and bisects it to relative precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product
from types import SimpleNamespace

import numpy as np

from .equilibria import (
    REGIME_MULTIPLE,
    REGIME_NONE,
    REGIME_UNIQUE,
    _infected_from_T,
    _radical,
    equilibrium_quadratic,
    uninfected_equilibrium,
)
from .errors import ModelError, SweepError
from .model import (
    PARAMETER_NAMES,
    DerivedConstants,
    ModelParameters,
    _constant_F,
    _constants,
    _field,
    _jacobian_entries,
    _term_scales,
)
from .reproduction import _r0_closed_form, r0_from_T0
from .stability import CharacteristicCoefficients, _closed_coefficients, _principal_minors
from .tolerances import DEFAULT_TOLERANCES, Tolerances

# perfbench/tracing.py wraps these names in this module; keep them bound.
from .equilibria import infected_equilibrium  # noqa: F401
from .stability import characteristic_coefficients  # noqa: F401

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


def _is_valid(base: ModelParameters, name: str, value: float) -> bool:
    try:
        replace(base, **{name: value})
    except ModelError:
        return False
    return True


def _grid_parameters(
    base: ModelParameters, axes: list[tuple[str, np.ndarray]]
) -> tuple[SimpleNamespace, np.ndarray]:
    """Parameters over the flattened row-major grid, and each cell's validity.

    axes lists (name, values) with axis1 first; axis1 varies fastest.  Base
    values become numpy scalars (so a division by zero in a masked-out cell
    yields inf, not an exception) and each axis parameter an array.  Every
    validation rule of ModelParameters is per field, so a cell is valid
    exactly when each of its axis values is: one construction per axis value
    decides the whole grid.
    """
    size = math.prod(len(values) for _, values in axes)
    params = SimpleNamespace(**{name: np.float64(getattr(base, name)) for name in PARAMETER_NAMES})
    valid = np.ones(size, dtype=bool)
    inner = 1
    for name, values in axes:
        outer = size // (inner * len(values))
        ok = np.array([_is_valid(base, name, v) for v in values.tolist()])
        setattr(params, name, np.tile(np.repeat(values, inner), outer))
        valid &= np.tile(np.repeat(ok, inner), outer)
        inner *= len(values)
    return params, valid


# The helpers below repeat the scalar route's IEEE operations in its order,
# so each cell equals the public functions' result bit for bit.  Python's
# max(a, b) is b if b > a else a, which differs from np.maximum on NaN.


def _pymax(a, b):
    return np.where(b > a, b, a)


def _logistic_root(s, g, k):
    """positive_logistic_root over arrays; it raises where k <= 0."""
    disc = np.sqrt(g * g + 4.0 * s * k)
    denom = disc - g
    return np.where(g >= 0, (g + disc) / (2.0 * k), np.where(denom > 0, 2.0 * s / denom, 0.0))


def _residual(params, T, I, V):
    """residual_norm over arrays."""
    worst = 0.0
    for value, scale in zip(_field(params, T, I, V), _term_scales(params, T, I, V)):
        ratio = np.where(scale > 0.0, abs(value) / scale, np.where(value != 0.0, np.inf, 0.0))
        worst = _pymax(worst, ratio)
    return worst


def _quadratic_roots(a, b, d):
    """_quadratic_real_roots over arrays: (lower root, upper root, count)."""
    linear = a == 0.0
    disc = b * b - 4.0 * a * d
    sq = np.sqrt(disc)
    u = np.where(b != 0.0, -0.5 * (b + np.copysign(sq, b)), 0.5 * sq)
    x, y = u / a, d / u
    swap = y < x
    lo = np.where(linear, -d / b, np.where(u == 0.0, 0.0, np.where(swap, y, x)))
    hi = np.where(u == 0.0, 0.0, np.where(swap, x, y))
    count = np.where(
        linear,
        np.where(b == 0.0, 0, 1),
        np.where(disc < 0.0, 0, np.where((u == 0.0) | (x != y), 2, 1)),
    )
    return lo, hi, count


def _infected_candidate(params, cons, a, b, d, root, present, tolerances):
    """One quadratic root through infected_equilibrium's polish and filters.

    Returns (T, I, V, accepted, raises); raises marks cells whose non-finite
    I* or V* would make the State construction raise.
    """
    bracket_hi = params.T_max * (1.0 + 1e-12)
    ok = present & (0.0 < root) & (root <= bracket_hi)
    T = np.where(params.T_max < root, params.T_max, root)
    moving = ok
    for _ in range(3):
        slope = 2.0 * a * T + b
        moving = moving & (slope != 0.0)
        T = np.where(moving, T - (a * T * T + b * T + d) / slope, T)
    ok = ok & (0.0 < T) & (T <= bracket_hi)
    I, V = _infected_from_T(params, cons, T)
    ok &= ~(I <= 0.0) & ~(V <= 0.0)
    raises = ok & ~(np.isfinite(I) & np.isfinite(V))
    ok &= ~raises & ~(_residual(params, T, I, V) > tolerances.equilibrium_residual)
    return T, I, V, ok, raises


def _column(values, shown: np.ndarray) -> list:
    values = np.broadcast_to(values, shown.shape).tolist()
    return [v if m else math.nan for v, m in zip(values, shown.tolist())]


def _evaluate_grid(
    params: SimpleNamespace, valid: np.ndarray, outputs: tuple[str, ...], tolerances: Tolerances
) -> tuple[dict[str, list], list[str]]:
    """The requested outputs and the status of every grid cell at once.

    Matches evaluating each cell through uninfected_equilibrium, r0_from_T0
    and, when an output needs E*, infected_equilibrium and
    characteristic_coefficients: a cell is invalid_params wherever one of
    those would raise a ModelError.  Returns one list per output and the
    status list, in cell order.
    """
    with np.errstate(all="ignore"):
        # uninfected_equilibrium, then r0_from_T0
        k = params.r_T / params.T_max
        proliferating = params.r_T > 0
        T0 = np.where(
            proliferating,
            _logistic_root(params.s, params.r_T - params.d_T, k),
            np.where(params.d_T > 0, params.s / params.d_T, 0.0),
        )
        ok = valid & ~(proliferating & (k <= 0))
        ok &= proliferating | (params.d_T > 0) | (params.s == 0)
        ok &= np.isfinite(T0) & ~(_residual(params, T0, 0.0, 0.0) > tolerances.uninfected_residual)
        ok &= ~(T0 <= 0) & (params.d_I + params.q != 0)
        R0 = _r0_closed_form(params, T0)

        wants_estar = "estar_T" in outputs or "delta2" in outputs
        regime = T = delta2 = math.nan
        unique, coefficients_ok = np.False_, np.True_
        if wants_estar or "regime" in outputs:
            # derive_constants
            theta, delta, A, H, D = _constants(params)
            F = _constant_F(params, delta, H)
            ceiling_k = params.r_I / params.T_max
            t_tilde0 = _logistic_root(params.s, params.r_T - params.d_T, ceiling_k)
            ok &= (params.r_I > 0) & proliferating & ~(ceiling_k <= 0)
            for value in (theta, delta, A, H, D, t_tilde0):
                ok &= np.isfinite(value)
            ok &= ((H == 0.0) | np.isfinite(F)) & ~((t_tilde0 <= 0) & (params.s > 0))
            cons = DerivedConstants(theta=theta, delta=delta, A=A, H=H, D=D, F=F, t_tilde0=t_tilde0)

            # infected_equilibrium
            a, b, d = equilibrium_quadratic(params, cons)
            lo, hi, count = _quadratic_roots(a, b, d)
            T_lo, I_lo, V_lo, lo_ok, lo_raises = _infected_candidate(
                params, cons, a, b, d, lo, count >= 1, tolerances)
            T_hi, I_hi, V_hi, hi_ok, hi_raises = _infected_candidate(
                params, cons, a, b, d, hi, count == 2, tolerances)
            duplicate = lo_ok & hi_ok & (abs(T_hi - T_lo) <= 1e-9 * _pymax(abs(T_lo), 1.0))
            found = lo_ok.astype(int) + (hi_ok & ~duplicate)
            unique = found == 1
            T = np.where(lo_ok, T_lo, T_hi)
            I = np.where(lo_ok, I_lo, I_hi)
            V = np.where(lo_ok, V_lo, V_hi)
            regime = np.where(
                found == 0, REGIME_NONE, np.where(unique, REGIME_UNIQUE, REGIME_MULTIPLE)
            )

            ratio, radicand = _radical(params, cons)
            closed = 0.5 * (-ratio + np.sqrt(radicand))
            other = -cons.D / cons.H - closed
            nearer = np.where(abs(other - T) < abs(closed - T), other, closed)
            closed_diff = abs(nearer - T) / _pymax(abs(T), 1e-300)
            radical_raises = unique & (H != 0.0) & ~(radicand < 0.0)
            radical_raises &= closed_diff > tolerances.t_star_radical
            ok &= ~lo_raises & ~hi_raises & ~radical_raises
            unique = ok & unique

        if "delta2" in outputs:
            # characteristic_coefficients
            a1, a2, a3 = _closed_coefficients(params, A, delta, T, I)
            J = np.array([
                [np.broadcast_to(x, valid.shape) for x in row]
                for row in _jacobian_entries(params, T, I, V)
            ])
            m1, m2, m3 = _principal_minors(J)
            d1, d2, d3 = (
                abs(a - m) / _pymax(abs(m), 1e-300) for a, m in ((a1, m1), (a2, m2), (a3, m3))
            )
            rel = _pymax(_pymax(d1, d2), d3)
            coefficients_ok = ~(rel > tolerances.char_coeff_integrity)
            delta2 = CharacteristicCoefficients(a1, a2, a3, m1, m2, m3, rel).delta2

    columns = {
        "r0": (R0, ok),
        "regime": (regime, ok),
        "t0": (T0, ok),
        "estar_T": (T, unique),
        "delta2": (delta2, unique & coefficients_ok),
    }
    status = np.where(ok, STATUS_OK, STATUS_INVALID)
    if wants_estar:
        status = np.where(ok & ~unique, STATUS_NO_EQUILIBRIUM, status)
        status = np.where(unique & ~coefficients_ok, STATUS_INVALID, status)
    return {name: _column(*columns[name]) for name in outputs}, status.tolist()


def run_sweep(spec: SweepSpec, tolerances: Tolerances = DEFAULT_TOLERANCES) -> SweepGrid:
    """Evaluate every cell of the sweep grid, row-major with axis1 fastest."""
    axis1_values = spec.axis1.values()
    axis2_values = spec.axis2.values() if spec.axis2 is not None else None
    axes = [(spec.axis1.name, axis1_values)]
    if axis2_values is not None:
        axes.append((spec.axis2.name, axis2_values))
    params, valid = _grid_parameters(spec.base, axes)
    columns, status = _evaluate_grid(params, valid, spec.outputs, tolerances)

    indices = product(*(range(len(values)) for _, values in reversed(axes)))
    axis_values = zip(*(getattr(params, name).tolist() for name, _ in axes))
    rows = zip(*(columns[name] for name in spec.outputs))
    cells = tuple(
        CellResult(index, values, dict(zip(spec.outputs, row)), cell_status)
        for index, values, row, cell_status in zip(indices, axis_values, rows, status)
    )
    return SweepGrid(
        spec=spec, axis1_values=axis1_values, axis2_values=axis2_values, cells=cells
    )


def _threshold_level(params, target: str):
    """Value of r0 at the named threshold; broadcasts over arrays."""
    if target == "r0_eq_1":
        return 1.0
    return 1.0 - params.q / (params.d_I + params.q)


def _target_gap(params: ModelParameters, target: str, tolerances: Tolerances) -> float:
    """Signed distance of r0 from the requested threshold at this set."""
    T0 = uninfected_equilibrium(params, tolerances).state.T
    R0 = r0_from_T0(params, T0)
    if target != "r0_eq_1" and params.d_I + params.q == 0:
        raise SweepError("target r0_eq_1_minus_q_over_delta is undefined when d_I + q = 0")
    return R0 - _threshold_level(params, target)


def threshold_locate(
    base: ModelParameters,
    axis: Axis,
    target: str = "r0_eq_1",
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> ThresholdResult:
    """Locate an axis value where r0 crosses the named threshold.

    Scans the axis grid for the first sign change, then bisects (in log
    space for log axes) until the bracket width shrinks below relative
    1e-10.  Grid points that run_sweep would mark invalid_params are
    skipped: a bracket never spans one, but where one borders a valid point
    the scan also visits the domain's edge between the two, so a crossing
    inside the domain is found even when the grid steps past that edge.
    No sign change yields found = False.
    """
    if target not in THRESHOLD_TARGETS:
        raise SweepError(f"unknown target {target!r}; choose from {THRESHOLD_TARGETS}")

    def gap_at(x: float) -> float:
        return _target_gap(replace(base, **{axis.name: x}), target, tolerances)

    grid = axis.values()
    params, valid = _grid_parameters(base, [(axis.name, grid)])
    columns, status = _evaluate_grid(params, valid, ("r0",), tolerances)
    with np.errstate(all="ignore"):
        gaps = (np.array(columns["r0"]) - _threshold_level(params, target)).tolist()
    points = grid.tolist()
    live = [cell_status != STATUS_INVALID for cell_status in status]

    def domain_edge(k: int, outside: float) -> tuple[float, float]:
        """A valid point within the bisection's relative precision of the
        domain's edge, and its gap, bisecting from grid point k toward an
        invalid value; each parameter's domain is an interval."""
        inside, g = points[k], gaps[k]
        width = 1e-10 * max(abs(inside), abs(outside))
        while abs(outside - inside) > width:
            mid = 0.5 * (inside + outside)
            try:
                g_mid = gap_at(mid)
            except ModelError:
                outside = mid
            else:
                inside, g = mid, g_mid
        return inside, g

    def scan():
        """(x, gap) along the axis; None where the domain is interrupted."""
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
                return ThresholdResult(target, True, x, _r0_at(base, axis, x, tolerances), (x, x))
        previous = point
    else:
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
