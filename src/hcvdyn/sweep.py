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
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product
from types import SimpleNamespace

import numpy as np

from .equilibria import (
    REGIME_MULTIPLE,
    REGIME_NONE,
    REGIME_UNIQUE,
    _infected_from_T,
    _radical_roots,
    equilibrium_quadratic,
    uninfected_equilibrium,
)
from .errors import ModelError, ParameterError, SweepError, _fails
from .model import (
    _NORMAL_MIN,
    PARAMETER_NAMES,
    DerivedConstants,
    ModelParameters,
    _constant_F,
    _check_field,
    _constants,
    _field_and_scales,
    _quadratic_roots_array,
    _replace_field,
)
from .reproduction import _r0_closed_form, r0_from_T0
from .stability import CharacteristicCoefficients, _closed_coefficients, _principal_minors, _residual_jacobian_entries
from .tolerances import DEFAULT_TOLERANCES

# The scalar route's refusals, which the kernel folds into its masks.
from .equilibria import _E0_REFUSALS, _RADICAL_REFUSALS, _REPORT_REFUSALS, _STATE_REFUSALS, _T0_REFUSALS, _residual_fails
from .model import _CONSTANTS_REFUSALS, _F_REFUSALS, _LOGISTIC_REFUSALS, _RATES_REFUSALS
from .reproduction import _R0_REFUSALS, _R0_VALUE_REFUSALS
from .stability import _COEFFICIENT_REFUSALS, _RANGE_REFUSALS

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

# The kernel's integer codes for the string columns: index into these.
_REGIME_TEXTS = (REGIME_NONE, REGIME_UNIQUE, REGIME_MULTIPLE, math.nan)
_STATUS_TEXTS = (STATUS_OK, STATUS_INVALID, STATUS_NO_EQUILIBRIUM)

# Most points on an axis and most cells in a grid.  A sweep holds about
# 600 bytes per cell at its peak, so a grid at the bound stays near 0.6 GB.
_MAX_POINTS = 1 << 20


@dataclass(frozen=True)
class Axis:
    """One swept parameter: name, closed range, point count (2 to 2**20), and scale."""

    name: str
    lo: float
    hi: float
    n: int
    scale: str = "linear"
    """Either "linear" or "log"."""

    def __post_init__(self):
        if self.name not in PARAMETER_NAMES:
            raise SweepError(f"unknown parameter {self.name!r}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise SweepError(f"axis {self.name}: ends must be finite, got [{self.lo!r}, {self.hi!r}]")
        if not self.lo < self.hi:
            raise SweepError(f"axis {self.name}: need lo < hi, got [{self.lo!r}, {self.hi!r}]")
        if self.n < 2:
            raise SweepError(f"axis {self.name}: need at least 2 points, got {self.n}")
        if self.n > _MAX_POINTS:
            raise SweepError(f"axis {self.name}: at most {_MAX_POINTS} points, got {self.n}")
        if self.scale not in ("linear", "log"):
            raise SweepError(f"axis {self.name}: scale must be linear or log, got {self.scale!r}")
        if self.scale == "log" and self.lo <= 0:
            raise SweepError(f"axis {self.name}: log scale requires lo > 0, got {self.lo!r}")
        if self.scale == "linear" and not math.isfinite(self.hi - self.lo):
            raise SweepError(f"axis {self.name}: a linear axis needs a finite hi - lo, got [{self.lo!r}, {self.hi!r}]")

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
        for k, name in enumerate(self.outputs):
            if name not in SWEEP_OUTPUTS:
                raise SweepError(f"unknown output {name!r}; choose from {SWEEP_OUTPUTS}")
            if name in self.outputs[:k]:
                raise SweepError(f"output {name!r} is listed twice")
        if self.axis2 is not None and self.axis2.name == self.axis1.name:
            raise SweepError(f"axis1 and axis2 both sweep {self.axis1.name!r}")
        cells = self.axis1.n * (1 if self.axis2 is None else self.axis2.n)
        if cells > _MAX_POINTS:
            raise SweepError(f"a grid holds at most {_MAX_POINTS} cells, got {cells}")


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
    """A sweep's results as columns over the cells, row-major with axis1 fastest.

    columns holds one list per requested output and status one status per
    cell, in cell order, as the batched evaluation returns them.  cells is
    the same grid as CellResult objects, built on first access and cached.
    """

    spec: SweepSpec
    axis1_values: np.ndarray
    axis2_values: np.ndarray | None
    columns: dict[str, list[float | str]]
    status: list[str]

    def column(self, name: str) -> list[float | str]:
        return list(self.columns[name])

    @cached_property
    def cells(self) -> tuple[CellResult, ...]:
        # Outermost axis first: axis2, when there is one, then axis1.
        axes = [v.tolist() for v in (self.axis2_values, self.axis1_values) if v is not None]
        indices = product(*(range(len(values)) for values in axes))
        axis_values = (values[::-1] for values in product(*axes))
        outputs = self.spec.outputs
        rows = zip(*(self.columns[name] for name in outputs))
        return tuple(
            CellResult(index, values, dict(zip(outputs, row)), cell_status)
            for index, values, row, cell_status in zip(indices, axis_values, rows, self.status)
        )


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of a threshold search; found = False is a result, not an error."""

    target: str
    found: bool
    axis_value: float | None
    r0_at_value: float | None
    bracket: tuple[float, float] | None


def _is_valid(name: str, value: float) -> bool:
    try:
        _check_field(name, value)
    except ParameterError:
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
    exactly when each of its axis values is: one field check per axis value
    decides the whole grid.
    """
    size = math.prod(len(values) for _, values in axes)
    params = SimpleNamespace(**{name: np.float64(getattr(base, name)) for name in PARAMETER_NAMES})
    valid = np.ones(size, dtype=bool)
    inner = 1
    for name, values in axes:
        outer = size // (inner * len(values))
        ok = np.array([_is_valid(name, v) for v in values.tolist()])
        setattr(params, name, np.tile(np.repeat(values, inner), outer))
        valid &= np.tile(np.repeat(ok, inner), outer)
        inner *= len(values)
    return params, valid


# The helpers below repeat the scalar route's IEEE operations in its order,
# so each cell equals the public functions' result bit for bit; the
# quadratics go through model._quadratic_roots_array, the scalar solver's twin.


def _residual(params, T, I, V):
    """residual_norm over arrays."""
    worst = 0.0
    for value, scale in _field_and_scales(params, T, I, V):
        ratio = np.where(scale > 0.0, abs(value) / scale, 0.0)
        worst = np.maximum(worst, np.where(np.isfinite(value), ratio, np.inf))
    return worst


def _infected_candidate(params, cons, a, b, d, root, present):
    """One quadratic root through infected_equilibrium's polish and filters.

    Returns (T, I, V, accepted, raises); raises marks the cells where
    _STATE_REFUSALS holds for a kept root.
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
    raises = ok & _fails(_STATE_REFUSALS, I, V)
    ok &= ~raises & ~(_residual(params, T, I, V) > DEFAULT_TOLERANCES.equilibrium_residual)
    return T, I, V, ok, raises


def _column(values, shown: np.ndarray) -> list:
    """values where shown, else nan, as a list of floats."""
    return np.where(shown, values, math.nan).tolist()


def _texts(codes: np.ndarray, texts: tuple) -> list:
    """texts[code] for each code, as a list."""
    return np.array(texts, dtype=object)[codes].tolist()


def _evaluate_grid(
    params: SimpleNamespace, valid: np.ndarray, outputs: tuple[str, ...]
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
        g = params.r_T - params.d_T
        proliferating = params.r_T > 0
        x1, x2, _ = _quadratic_roots_array(-k, g, params.s)
        root = np.where((params.s == 0.0) & (g <= 0.0), 0.0, np.where(np.copysign(1.0, g) > 0.0, x1, x2))
        T0 = np.where(proliferating, root, np.where(params.d_T > 0, params.s / params.d_T, 0.0))
        residual = _residual(params, T0, 0.0, 0.0)
        ok = valid & ~(proliferating & _fails(_LOGISTIC_REFUSALS, k)) & ~_fails(_T0_REFUSALS, params, T0)
        ok &= ~_fails(_E0_REFUSALS, params, T0, residual, _residual_fails(params, T0, residual, np.nextafter))
        ok &= ~_fails(_R0_REFUSALS, params, T0)
        R0 = _r0_closed_form(params, T0)
        ok &= ~_fails(_R0_VALUE_REFUSALS, R0)

        wants_estar = "estar_T" in outputs or "delta2" in outputs
        regime = T = delta2 = math.nan
        unique, coefficients_ok = np.False_, np.True_
        if wants_estar or "regime" in outputs:
            # derive_constants; F is None where H = 0, so it is 0.0 there
            theta, delta, A, H, D = _constants(params)
            F = np.where(H == 0.0, 0.0, _constant_F(params, delta, H))
            ok &= ~_fails(_RATES_REFUSALS, params) & ~_fails(_F_REFUSALS, params, A, H)
            ok &= ~_fails(_CONSTANTS_REFUSALS, (theta, delta, A, H, D, F))
            cons = DerivedConstants(theta=theta, delta=delta, A=A, H=H, D=D, F=F)

            # infected_equilibrium
            a, b, d = equilibrium_quadratic(params, cons)
            x1, x2, real = _quadratic_roots_array(a, b, d)
            lo, hi = np.where(a == 0.0, -d / b, np.minimum(x1, x2)), np.maximum(x1, x2)
            count = np.where(a == 0.0, b != 0.0, real * (1 + ((x1 != x2) | (x1 == 0.0) & (x2 == 0.0))))
            T_lo, I_lo, V_lo, lo_ok, lo_raises = _infected_candidate(params, cons, a, b, d, lo, count >= 1)
            T_hi, I_hi, V_hi, hi_ok, hi_raises = _infected_candidate(params, cons, a, b, d, hi, count == 2)
            duplicate = lo_ok & hi_ok & (abs(T_hi - T_lo) <= 1e-9 * np.maximum(abs(T_lo), 1.0))
            found = lo_ok.astype(int) + (hi_ok & ~duplicate)
            unique = found == 1
            T = np.where(lo_ok, T_lo, T_hi)
            I = np.where(lo_ok, I_lo, I_hi)
            V = np.where(lo_ok, V_lo, V_hi)
            # Codes into _REGIME_TEXTS.
            regime = np.where(found == 0, 0, np.where(unique, 1, 2))

            x1, x2, real = _radical_roots(params, cons, _quadratic_roots_array)
            closed, other = np.where(x1 < x2, (x2, x1), (x1, x2))
            nearer = np.where(abs(other - T) < abs(closed - T), other, closed)
            closed_diff = abs(nearer - T) / np.maximum(abs(T), 1e-300)
            radical = (H != 0.0) & real
            ok &= ~(lo_raises | hi_raises | unique & radical & _fails(_RADICAL_REFUSALS, nearer, T, closed_diff))
            # infected_equilibrium's report fields, 0.0 where the report holds none.
            threshold_T = params.T_max * (delta - params.r_I) / (A - params.r_I)
            for value, present in ((d, True), (threshold_T, A != params.r_I), (lo, count >= 1), (hi, count == 2),
                                   (np.where(unique, nearer, closed), radical), (closed_diff, radical & unique)):
                ok &= ~_fails(_REPORT_REFUSALS, None, np.where(present, value, 0.0))
            unique = ok & unique

        if "delta2" in outputs:
            # characteristic_coefficients
            a1, a2, a3 = _closed_coefficients(params, A, delta, T, I)
            m1, m2, m3 = _principal_minors(_residual_jacobian_entries(params, T, I, V))
            d1, d2, d3 = (
                abs(a - m) / np.maximum(abs(m), 1e-300) for a, m in ((a1, m1), (a2, m2), (a3, m3))
            )
            rel = np.maximum(np.maximum(d1, d2), d3)
            delta2 = CharacteristicCoefficients(a1, a2, a3, m1, m2, m3, rel).delta2
            coefficients_ok = ~_fails(_RANGE_REFUSALS, params, T) & ~_fails(_COEFFICIENT_REFUSALS, rel, delta2)

    columns = {
        "r0": (R0, ok),
        "t0": (T0, ok),
        "estar_T": (T, unique),
        "delta2": (delta2, unique & coefficients_ok),
    }
    values = {
        name: _texts(np.where(ok, regime, 3), _REGIME_TEXTS)
        if name == "regime"
        else _column(*columns[name])
        for name in outputs
    }
    # Codes into _STATUS_TEXTS.
    status = np.where(ok, 0, 1)
    if wants_estar:
        status = np.where(ok & ~unique, 2, status)
        status = np.where(unique & ~coefficients_ok, 1, status)
    return values, _texts(status, _STATUS_TEXTS)


def run_sweep(spec: SweepSpec) -> SweepGrid:
    """Evaluate every cell of the sweep grid, row-major with axis1 fastest."""
    axis1_values = spec.axis1.values()
    axis2_values = spec.axis2.values() if spec.axis2 is not None else None
    axes = [(spec.axis1.name, axis1_values)]
    if axis2_values is not None:
        axes.append((spec.axis2.name, axis2_values))
    params, valid = _grid_parameters(spec.base, axes)
    columns, status = _evaluate_grid(params, valid, spec.outputs)
    return SweepGrid(spec, axis1_values, axis2_values, columns, status)


def _threshold_level(params, target: str):
    """Value of r0 at the named threshold; broadcasts over arrays."""
    if target == "r0_eq_1":
        return 1.0
    return 1.0 - params.q / (params.d_I + params.q)


def _uninfected_T(params: ModelParameters, e0s: dict) -> float:
    """T0 of the set, solved once per distinct (s, r_T, d_T, T_max): the only
    fields uninfected_equilibrium reads.  e0s holds one search's solutions."""
    key = (params.s, params.r_T, params.d_T, params.T_max)
    if key not in e0s:
        e0s[key] = uninfected_equilibrium(params).state.T
    return e0s[key]


def _target_gap(params: ModelParameters, target: str, e0s: dict) -> float:
    """Signed distance of r0 from the requested threshold at this set."""
    R0 = r0_from_T0(params, _uninfected_T(params, e0s))
    return R0 - _threshold_level(params, target)


def threshold_locate(base: ModelParameters, axis: Axis, target: str = "r0_eq_1") -> ThresholdResult:
    """Locate an axis value where r0 crosses the named threshold.

    Scans the axis grid for the first sign change, then bisects (in log
    space for log axes, by _midpoint, which neither overflows nor
    underflows) until the bracket spans at most relative 1e-10.  Each point
    takes the scalar route, E0 solved once per distinct set of the fields
    it reads.  Grid points where that route raises a ModelError, exactly the
    cells run_sweep marks invalid_params, are skipped: a bracket never spans
    one, but where one borders a valid point the scan also visits the
    domain's edge between the two, so a crossing inside the domain is found
    even when the grid steps past that edge.  No sign change yields
    found = False.
    """
    if target not in THRESHOLD_TARGETS:
        raise SweepError(f"unknown target {target!r}; choose from {THRESHOLD_TARGETS}")
    e0s: dict = {}

    def gap_at(x: float) -> float:
        return _target_gap(_replace_field(base, axis.name, x), target, e0s)

    points = axis.values().tolist()

    @cache
    def grid_gap(k: int) -> float | None:
        """The gap at grid point k, or None where the point is not live."""
        try:
            return gap_at(points[k])
        except ModelError:
            return None

    def domain_edge(inside: float, g: float, outside: float) -> tuple[float, float]:
        """A valid point within the bisection's relative precision of the
        domain's edge, and its gap, bisecting from a live grid point toward
        an invalid value; each parameter's domain is an interval."""
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
        """(x, gap) along the axis; None where the domain is interrupted."""
        for k, x in enumerate(points):
            g = grid_gap(k)
            if g is None:
                yield None
                continue
            if k > 0 and grid_gap(k - 1) is None:
                yield domain_edge(x, g, points[k - 1])
            yield x, g
            if k + 1 < len(points) and grid_gap(k + 1) is None:
                yield domain_edge(x, g, points[k + 1])

    previous = None
    for point in scan():
        if point is not None:
            x, g = point
            if previous is not None and previous[1] * g < 0.0:
                (lo, g_lo), hi = previous, x
                break
            if g == 0.0:
                return ThresholdResult(target, True, x, _r0_at(base, axis, x, e0s), (x, x))
        previous = point
    else:
        return ThresholdResult(target, False, None, None, None)

    logspace = axis.scale == "log"
    for _ in range(200):
        mid = _midpoint(lo, hi, logspace)
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
    value = _midpoint(lo, hi, logspace)
    return ThresholdResult(
        target=target,
        found=True,
        axis_value=value,
        r0_at_value=_r0_at(base, axis, value, e0s),
        bracket=(lo, hi),
    )


def _midpoint(lo: float, hi: float, logspace: bool) -> float:
    """0.5 lo + 0.5 hi, or on log axes sqrt(lo hi), from mantissas scaled by
    even powers of two where lo hi is not a normal float: neither overflows."""
    if not logspace:
        return 0.5 * lo + 0.5 * hi
    if _NORMAL_MIN <= lo * hi < math.inf:
        return math.sqrt(lo * hi)
    k1, k2 = math.frexp(lo)[1] // 2, math.frexp(hi)[1] // 2
    return math.ldexp(math.sqrt(math.ldexp(lo, -2 * k1) * math.ldexp(hi, -2 * k2)), k1 + k2)


def _r0_at(base: ModelParameters, axis: Axis, x: float, e0s: dict) -> float:
    params = _replace_field(base, axis.name, x)
    return r0_from_T0(params, _uninfected_T(params, e0s))
