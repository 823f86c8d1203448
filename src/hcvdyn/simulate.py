"""Time integration with runtime invariant monitoring.

Two integrators are provided: a classical fixed-step RK4 and an adaptive
Dormand-Prince 5(4) pair with FSAL reuse and PI-free step control.  Both
step exactly onto the sample cadence, so CSV output and invariant checks
see the same time points regardless of method.

Invariant monitoring follows the comparison theorems: positivity is checked
unconditionally, while the T + I and V ceilings are only meaningful when the
comparison hypotheses hold (r_I <= r_T and r_T - d_T >= r_I - d_I) and the
initial state starts inside the invariant region.  Violations are logged,
never clamped; tiny negative dips within the integrator's absolute
tolerance are counted separately as benign.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationError, ParameterError
from .model import ModelParameters, State, field_function, positive_logistic_root
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__all__ = [
    "IntegratorConfig",
    "Bounds",
    "Violation",
    "Trajectory",
    "InvariantSummary",
    "ConvergenceReport",
    "RK4_FIXED",
    "RK45_ADAPTIVE",
    "asymptotic_bounds",
    "integrate",
    "check_invariants",
    "convergence_report",
]

RK4_FIXED = "rk4_fixed"
RK45_ADAPTIVE = "rk45_adaptive"

NEGATIVITY = "negativity"
T_PLUS_I_BOUND = "T_plus_I_bound"
V_BOUND = "V_bound"
VIOLATION_KINDS = (NEGATIVITY, T_PLUS_I_BOUND, V_BOUND)


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration settings.

    step applies to the fixed-step method; rel_tol, abs_tol, min_step and
    max_step to the adaptive one.  Samples are recorded every sample_every
    days and at t_end.  t_end = 0 yields just the initial sample.
    """

    method: str = RK45_ADAPTIVE
    t_end: float = 1000.0
    sample_every: float = 1.0
    step: float = 0.01
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    min_step: float = 1e-12
    max_step: float = math.inf
    max_steps: int = 50_000_000

    def __post_init__(self):
        if self.method not in (RK4_FIXED, RK45_ADAPTIVE):
            raise ParameterError(f"unknown integration method {self.method!r}")
        if not self.t_end >= 0:
            raise ParameterError(f"t_end must be nonnegative, got {self.t_end!r}")
        if not self.sample_every > 0:
            raise ParameterError(f"sample_every must be positive, got {self.sample_every!r}")
        if not self.step > 0:
            raise ParameterError(f"step must be positive, got {self.step!r}")
        if not self.rel_tol > 0 or not self.abs_tol >= 0:
            raise ParameterError("rel_tol must be positive and abs_tol nonnegative")
        if not 0 < self.min_step <= self.max_step:
            raise ParameterError("need 0 < min_step <= max_step")


@dataclass(frozen=True)
class Bounds:
    """Invariant-region ceilings for a run.

    applicable records whether the comparison hypotheses (r_I <= r_T and
    r_T - d_T >= r_I - d_I) hold; when they fail, the ceilings carry no
    guarantee and bound checks are skipped.
    """

    t_tilde0: float
    """Ceiling on total hepatocytes T + I (cells/ml)."""
    lambda0: float
    """Ceiling on virions, max(V(0), (1 - epsilon) p t_tilde0 / c)."""
    applicable: bool


@dataclass(frozen=True)
class Violation:
    time: float
    kind: str
    """One of negativity, T_plus_I_bound, V_bound."""
    magnitude: float
    """Excess beyond the violated bound (below zero, above the ceiling)."""


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution with integration statistics and the violation log."""

    times: np.ndarray
    states: np.ndarray
    """Shape (len(times), 3) array of (T, I, V) samples."""
    steps_taken: int
    steps_rejected: int
    violation_log: tuple[Violation, ...]
    benign_dips: int
    """Count of negative samples within the integrator's absolute tolerance."""
    bounds: Bounds
    initial_inside_omega: bool

    @property
    def final_state(self) -> State:
        T, I, V = self.states[-1]
        return State(float(T), float(I), float(V))


@dataclass(frozen=True)
class InvariantSummary:
    """Re-scan of a trajectory against the invariant checks."""

    counts: dict[str, int]
    worst: dict[str, float]
    benign_dips: int
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class ConvergenceReport:
    """Distance of a trajectory's final sample from its predicted attractor."""

    attractor: str | None
    """"E0", "Estar", or None when no prediction is available."""
    reference: State | None
    rel_distance: float
    rel_tol: float
    converged: bool


def asymptotic_bounds(params: ModelParameters, initial: State) -> Bounds:
    """Invariant-region ceilings for a run starting at the given state.

    t_tilde0 is the positive root of s + (r_T - d_T) x - (r_I/T_max) x^2.
    Degenerate sets are reported with a warning rather than an error: r_I = 0
    gives an unbounded (infinite) ceiling, and s = 0 with r_T <= d_T collapses
    the region to zero.
    """
    g = params.r_T - params.d_T
    if params.r_I > 0:
        t_tilde0 = positive_logistic_root(params.s, g, params.r_I / params.T_max)
    elif params.s > 0 or g > 0:
        t_tilde0 = math.inf
        warnings.warn("r_I = 0 leaves total hepatocytes unbounded; T-tilde0 is infinite")
    else:
        t_tilde0 = 0.0
    if t_tilde0 == 0.0:
        warnings.warn("degenerate bound: T-tilde0 = 0, the invariant region is empty")
    lambda0 = max(initial.V, (1.0 - params.epsilon) * params.p * t_tilde0 / params.c)
    applicable = params.r_I <= params.r_T and g >= params.r_I - params.d_I
    return Bounds(t_tilde0=t_tilde0, lambda0=lambda0, applicable=applicable)


def _inside_omega(state: State, bounds: Bounds) -> bool:
    return state.T + state.I <= bounds.t_tilde0 and state.V <= bounds.lambda0


class _Monitor:
    """Collects violations and benign dips at sample points."""

    def __init__(self, bounds: Bounds, check_bounds: bool, dip_tol: float, slack: float):
        self.bounds = bounds
        self.check_bounds = check_bounds and math.isfinite(bounds.t_tilde0)
        self.dip_tol = dip_tol
        self.slack = slack
        self.violations: list[Violation] = []
        self.benign = 0

    def observe(self, t: float, y: tuple[float, float, float]) -> None:
        for comp in y:
            if comp < 0.0:
                if -comp <= self.dip_tol:
                    self.benign += 1
                else:
                    self.violations.append(Violation(time=t, kind=NEGATIVITY, magnitude=-comp))
        if self.check_bounds:
            total = y[0] + y[1]
            if total > self.bounds.t_tilde0 * (1.0 + self.slack):
                self.violations.append(
                    Violation(time=t, kind=T_PLUS_I_BOUND, magnitude=total - self.bounds.t_tilde0)
                )
            if y[2] > self.bounds.lambda0 * (1.0 + self.slack):
                self.violations.append(
                    Violation(time=t, kind=V_BOUND, magnitude=y[2] - self.bounds.lambda0)
                )


def _sample_times(config: IntegratorConfig) -> list[float]:
    times = [0.0]
    k = 1
    while True:
        t = k * config.sample_every
        if t >= config.t_end:
            break
        times.append(t)
        k += 1
    if config.t_end > 0.0:
        times.append(config.t_end)
    return times


# Dormand-Prince 5(4) tableau.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = 71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9


def _finite(y: tuple[float, float, float]) -> bool:
    return math.isfinite(y[0]) and math.isfinite(y[1]) and math.isfinite(y[2])


def integrate(
    params: ModelParameters,
    initial: State,
    config: IntegratorConfig | None = None,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> Trajectory:
    """Integrate the model and monitor invariants at every sample.

    The initial state must be componentwise nonnegative (positivity of the
    flow is guaranteed for positive data; the I = V = 0 plane is invariant
    and admissible).  On step underflow, budget exhaustion, or a non-finite
    state, raises IntegrationError with the partial trajectory attached.
    """
    config = config or IntegratorConfig()
    if not initial.nonnegative:
        raise DomainError(f"initial state must be nonnegative, got {initial}")
    bounds = asymptotic_bounds(params, initial)
    inside = _inside_omega(initial, bounds)
    monitor = _Monitor(
        bounds,
        check_bounds=bounds.applicable and inside,
        dip_tol=config.abs_tol,
        slack=tolerances.bound_slack,
    )
    f = field_function(params)
    sample_times = _sample_times(config)
    samples: list[tuple[float, float, float]] = []
    stats = {"taken": 0, "rejected": 0}

    def record(t: float, y: tuple[float, float, float]) -> None:
        samples.append(y)
        monitor.observe(t, y)

    def partial() -> Trajectory:
        n = len(samples)
        return Trajectory(
            times=np.array(sample_times[:n]),
            states=np.array(samples).reshape(n, 3),
            steps_taken=stats["taken"],
            steps_rejected=stats["rejected"],
            violation_log=tuple(monitor.violations),
            benign_dips=monitor.benign,
            bounds=bounds,
            initial_inside_omega=inside,
        )

    def fail(message: str) -> IntegrationError:
        return IntegrationError(message, trajectory=partial())

    y = (initial.T, initial.I, initial.V)
    record(0.0, y)
    t = 0.0
    if config.method == RK4_FIXED:
        for t_next in sample_times[1:]:
            span = t_next - t
            n_sub = max(1, math.ceil(span / config.step))
            h = span / n_sub
            for _ in range(n_sub):
                k1 = f(t, y)
                k2 = f(t + 0.5 * h, tuple(yi + 0.5 * h * ki for yi, ki in zip(y, k1)))
                k3 = f(t + 0.5 * h, tuple(yi + 0.5 * h * ki for yi, ki in zip(y, k2)))
                k4 = f(t + h, tuple(yi + h * ki for yi, ki in zip(y, k3)))
                y = tuple(
                    yi + (h / 6.0) * (a + 2.0 * b + 2.0 * c_ + d)
                    for yi, a, b, c_, d in zip(y, k1, k2, k3, k4)
                )
                t += h
                stats["taken"] += 1
                if not _finite(y):
                    raise fail(f"state became non-finite near t = {t!r}")
                if stats["taken"] > config.max_steps:
                    raise fail(f"step budget {config.max_steps} exhausted at t = {t!r}")
            t = t_next
            record(t, y)
        return partial()

    h = min(config.sample_every, config.max_step, 1.0)
    k1 = f(t, y)
    for t_next in sample_times[1:]:
        while t < t_next:
            h_try = min(h, config.max_step, t_next - t)
            hits_boundary = h_try >= t_next - t
            y2 = tuple(yi + h_try * _A21 * k for yi, k in zip(y, k1))
            k2 = f(t + _C2 * h_try, y2)
            y3 = tuple(yi + h_try * (_A31 * a + _A32 * b) for yi, a, b in zip(y, k1, k2))
            k3 = f(t + _C3 * h_try, y3)
            y4 = tuple(
                yi + h_try * (_A41 * a + _A42 * b + _A43 * c_)
                for yi, a, b, c_ in zip(y, k1, k2, k3)
            )
            k4 = f(t + _C4 * h_try, y4)
            y5 = tuple(
                yi + h_try * (_A51 * a + _A52 * b + _A53 * c_ + _A54 * d)
                for yi, a, b, c_, d in zip(y, k1, k2, k3, k4)
            )
            k5 = f(t + _C5 * h_try, y5)
            y6 = tuple(
                yi + h_try * (_A61 * a + _A62 * b + _A63 * c_ + _A64 * d + _A65 * e)
                for yi, a, b, c_, d, e in zip(y, k1, k2, k3, k4, k5)
            )
            k6 = f(t + h_try, y6)
            y_new = tuple(
                yi + h_try * (_B1 * a + _B3 * c_ + _B4 * d + _B5 * e + _B6 * g)
                for yi, a, c_, d, e, g in zip(y, k1, k3, k4, k5, k6)
            )
            if not _finite(y_new):
                raise fail(f"state became non-finite near t = {t!r}")
            k7 = f(t + h_try, y_new)
            err = 0.0
            for yi, yn, a, c_, d, e, g, j in zip(y, y_new, k1, k3, k4, k5, k6, k7):
                e_i = h_try * (_E1 * a + _E3 * c_ + _E4 * d + _E5 * e + _E6 * g + _E7 * j)
                sc = config.abs_tol + config.rel_tol * max(abs(yi), abs(yn))
                err += (e_i / sc) ** 2
            err = math.sqrt(err / 3.0)
            if err <= 1.0:
                t = t_next if hits_boundary else t + h_try
                y = y_new
                k1 = k7
                stats["taken"] += 1
                factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**-0.2))
            else:
                stats["rejected"] += 1
                factor = max(0.2, 0.9 * err**-0.2)
            h = h_try * factor
            if h < config.min_step:
                raise fail(f"step size underflow ({h!r} < min_step) at t = {t!r}")
            if stats["taken"] + stats["rejected"] > config.max_steps:
                raise fail(f"step budget {config.max_steps} exhausted at t = {t!r}")
        record(t_next, y)
    return partial()


def check_invariants(
    trajectory: Trajectory,
    bounds: Bounds | None = None,
    dip_tol: float = 1e-10,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> InvariantSummary:
    """Re-scan a trajectory's samples against the invariant checks.

    Pure function of its inputs: positivity is always checked; the two
    ceiling checks run only when bounds.applicable and the first sample lies
    inside the region (mirroring the theorem hypotheses).
    """
    bounds = bounds if bounds is not None else trajectory.bounds
    first = State(*(float(x) for x in trajectory.states[0]))
    monitor = _Monitor(
        bounds,
        check_bounds=bounds.applicable and _inside_omega(first, bounds),
        dip_tol=dip_tol,
        slack=tolerances.bound_slack,
    )
    for t, row in zip(trajectory.times, trajectory.states):
        monitor.observe(float(t), (float(row[0]), float(row[1]), float(row[2])))
    counts = {kind: 0 for kind in VIOLATION_KINDS}
    worst = {kind: 0.0 for kind in VIOLATION_KINDS}
    for v in monitor.violations:
        counts[v.kind] += 1
        worst[v.kind] = max(worst[v.kind], v.magnitude)
    return InvariantSummary(
        counts=counts,
        worst=worst,
        benign_dips=monitor.benign,
        violations=tuple(monitor.violations),
    )


def convergence_report(
    params: ModelParameters,
    trajectory: Trajectory,
    rel_tol: float | None = None,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> ConvergenceReport:
    """Distance of the final sample from the attractor predicted by R0.

    For the uninfected equilibrium, T is compared relative to T0 while I and
    V are compared against 1e-3 rel_tol T0 (they vanish at the attractor, so
    a relative measure is meaningless).  For the infected equilibrium every
    component is compared relative to its own equilibrium value.
    """
    from .equilibria import REGIME_UNIQUE, infected_equilibrium, uninfected_equilibrium
    from .reproduction import r0_from_T0

    e0 = uninfected_equilibrium(params, tolerances).state
    R0 = r0_from_T0(params, e0.T)
    final = trajectory.final_state
    if R0 > 1.0:
        report = infected_equilibrium(params, tolerances)
        if report.regime == REGIME_UNIQUE:
            ref = report.candidates[0].state
            tol = 1e-2 if rel_tol is None else rel_tol
            dist = max(
                abs(final.T - ref.T) / ref.T,
                abs(final.I - ref.I) / ref.I,
                abs(final.V - ref.V) / ref.V,
            )
            return ConvergenceReport("Estar", ref, dist, tol, dist <= tol)
        tol = math.nan if rel_tol is None else rel_tol
        return ConvergenceReport(None, None, math.inf, tol, False)
    # r0_from_T0 has already rejected T0 <= 0.
    tol = 1e-3 if rel_tol is None else rel_tol
    small = 1e-3 * e0.T
    dist = max(abs(final.T - e0.T) / e0.T, final.I / small, final.V / small)
    return ConvergenceReport("E0", e0, dist, tol, dist <= tol)
