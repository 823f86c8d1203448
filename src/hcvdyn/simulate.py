"""Time integration with runtime invariant monitoring.

Two integrators are provided: a classical fixed-step RK4 and an adaptive
Dormand-Prince 5(4) pair with FSAL reuse and Gustafsson's PI step-size
control (see _PI_BETA): an I-controller's step size oscillates about DP5's
stability limit once the clearance rate c is large, and most of its
rejected steps and negative dips came from that oscillation.  Both step
exactly onto the sample cadence, so CSV output and invariant checks see
the same time points regardless of method; a step cut short onto its
sample time leaves the step size and the previous error as they were.
The stepping loops keep the state and each stage's slope in scalar locals
(T, I, V; aT, aI, aV; ...), not tuples built over zip: most of a step's
cost was that interpreter overhead, and each component repeats the same
floating-point operations in the same order, so trajectories are bit for
bit those of the tuple form.
The adaptive loop also reads its tableau, tolerances and math functions
from locals, and takes each min and max as the comparison that returns
what the builtin returned.

Once a step starts with |V| <= abs_tol, the adaptive loop takes V's
clearance -c V exactly: V advances by the integrating-factor form of the
same pair (Lawson 1967, SIAM J. Numer. Anal. 4:372-380; see _v_weights),
stepping N_V = f_V + c V = (1 - epsilon) p I, which is free of V; T and I
stay plain DP5.  Otherwise DP5 holds h near its stability limit 3.3 / c
while V decays towards E0, and the step count grows with c.  Above abs_tol
every factor is 1.0 and the step is plain DP5, bit for bit.  The gate has
two reasons.  Lawson's form does not keep fixed an equilibrium y* with
L y* != 0 (Hochbruck & Ostermann 2010, Acta Numerica 19:209-286), and the
only equilibrium a gated run can settle at is E0, where V* = 0.  And
ungated, the form took 2.9 to 6 times the steps at c near 1 to 1.3, where
V stays large on a slow manifold.

Invariant monitoring follows the comparison theorems: positivity is checked
unconditionally, while the T + I and V ceilings are only meaningful when the
comparison hypotheses hold (r_I <= r_T and r_T - d_T >= r_I - d_I) and the
initial state starts inside the invariant region.  Violations are logged,
never clamped; tiny negative dips within the integrator's absolute
tolerance are counted separately as benign.  The loops only record samples:
the monitor runs once per trajectory, when it is built (also the partial
one of a failed run).  One numpy pass picks the samples a rule could flag,
and those go through the monitor in time order, so the log is the one that
observing each sample as it was recorded would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import DomainError, IntegrationError, ParameterError
from .model import ModelParameters, State, _region, field_function
from .tolerances import DEFAULT_TOLERANCES

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

    step applies to the fixed-step method; rel_tol and abs_tol to the
    adaptive one.  Samples are recorded every sample_every days and at
    t_end.  t_end = 0 yields just the initial sample.
    """

    method: str = RK45_ADAPTIVE
    t_end: float = 1000.0
    sample_every: float = 1.0
    step: float = 0.01
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_steps: int = 50_000_000

    def __post_init__(self):
        if self.method not in (RK4_FIXED, RK45_ADAPTIVE):
            raise ParameterError(f"unknown integration method {self.method!r}")
        if not 0 <= self.t_end < math.inf:
            raise ParameterError(f"t_end must be finite and nonnegative, got {self.t_end!r}")
        if not self.sample_every > 0:
            raise ParameterError(f"sample_every must be positive, got {self.sample_every!r}")
        # An infinite step or tolerance would switch off substepping or
        # error control.
        if not 0 < self.step < math.inf:
            raise ParameterError(f"step must be positive and finite, got {self.step!r}")
        if not (0 < self.rel_tol < math.inf and 0 <= self.abs_tol < math.inf):
            raise ParameterError(
                f"rel_tol must be positive and abs_tol nonnegative, both finite, "
                f"got {self.rel_tol!r} and {self.abs_tol!r}"
            )
        if not (isinstance(self.max_steps, Integral) and self.max_steps >= 0):
            raise ParameterError(f"max_steps must be a nonnegative integer, got {self.max_steps!r}")


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
    """A trajectory's violation log counted by kind, with its benign dips."""

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

    The ceilings are model._region's; a degenerate set shows in the values,
    without a warning: r_I = 0 gives an unbounded (infinite) t_tilde0, and
    s = 0 with r_T <= d_T collapses the region to zero.
    """
    t_tilde0, v_ceiling, applicable = _region(params)
    return Bounds(t_tilde0=t_tilde0, lambda0=max(initial.V, v_ceiling), applicable=applicable)


def _inside_omega(state: State, bounds: Bounds) -> bool:
    return state.T + state.I <= bounds.t_tilde0 and state.V <= bounds.lambda0


class _Monitor:
    """Collects violations and benign dips at sample points."""

    def __init__(self, bounds: Bounds, check_bounds: bool, dip_tol: float):
        self.bounds = bounds
        self.check_bounds = check_bounds and math.isfinite(bounds.t_tilde0)
        self.dip_tol = dip_tol
        self.slack = DEFAULT_TOLERANCES.bound_slack
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

    def observe_all(self, times: list[float], states: np.ndarray) -> None:
        """Observe row k of the (n, 3) states at times[k], for each row a rule could flag.

        One numpy pass picks the rows; observe, the one writing of each rule,
        then sees them in time order.  The pass's float64 sum and comparisons
        are the IEEE operations observe makes on the row's Python floats.
        """
        flagged = (states < 0.0).any(axis=1)
        if self.check_bounds:
            flagged |= states[:, 0] + states[:, 1] > self.bounds.t_tilde0 * (1.0 + self.slack)
            flagged |= states[:, 2] > self.bounds.lambda0 * (1.0 + self.slack)
        for k in np.flatnonzero(flagged).tolist():
            self.observe(times[k], tuple(states[k].tolist()))


# Smallest adaptive step; a step size below it fails the run.
_MIN_STEP = 1e-12

# Most sample intervals a run holds; integrate refuses more before building
# its sample list.  At about 250 bytes a sample, 2**20 take about 260 MB.
_SAMPLE_LIST_LIMIT = 1 << 20


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


def _v_weights(z: float) -> tuple[float, ...]:
    """V's weights in the integrating-factor form of the tableau, z = -lambda h.

    With nodes c = (0, 1/5, 3/10, 4/5, 8/9, 1, 1), stage i starts from
    e^(z c_i) V and weights N_j by a_ij e^(z (c_i - c_j)); the update and the
    error estimate weight N_j by e^(z (1 - c_j)).  Returns the stage factors
    e^(z c_i) for i = 2..6 (the last is the update's), then a21 .. a65, b1,
    b3, b4, b5 and e1, e3, e4, e5 so weighted; b6, e6 and e7 keep factor 1.
    At z = 0 every factor is 1.0 and the weights are the plain tableau's.
    """
    exp = math.exp
    x2, x3, x4, x5, x6 = exp(z * (1 / 5)), exp(z * (3 / 10)), exp(z * (4 / 5)), exp(z * (8 / 9)), exp(z)
    x1_10, x3_5, x1_2, x7_10 = exp(z * (1 / 10)), exp(z * (3 / 5)), exp(z * (1 / 2)), exp(z * (7 / 10))
    x1_9, x31_45, x53_90, x4_45 = exp(z * (1 / 9)), exp(z * (31 / 45)), exp(z * (53 / 90)), exp(z * (4 / 45))
    return (
        x2, x3, x4, x5, x6,
        _A21 * x2,
        _A31 * x3, _A32 * x1_10,
        _A41 * x4, _A42 * x3_5, _A43 * x1_2,
        _A51 * x5, _A52 * x31_45, _A53 * x53_90, _A54 * x4_45,
        _A61 * x6, _A62 * x4, _A63 * x7_10, _A64 * x2, _A65 * x1_9,
        _B1 * x6, _B3 * x7_10, _B4 * x2, _B5 * x1_9,
        _E1 * x6, _E3 * x7_10, _E4 * x2, _E5 * x1_9,
    )


# Gustafsson's PI step-size control (Gustafsson 1991, ACM TOMS 17:533-554;
# Hairer & Wanner, Solving ODEs II, section IV.2): an accepted step scales h by
# 0.9 * err**-(0.2 - 0.75 * beta) * err_old**beta, at most 5, where err_old is
# the previous accepted step's error, at least _PI_ERR_FLOOR; a rejected step
# only shrinks h, by max(0.2, 0.9 * err**-(0.2 - 0.75 * beta)).
_PI_BETA = 0.08
_PI_EXPONENT = 0.2 - 0.75 * _PI_BETA
_PI_ERR_FLOOR = 1e-4


def _error_norm(*terms: tuple[float, float]) -> float:
    """RMS of error / scale over (error, scale) pairs, for when the plain sum raises.

    An error of 0 at scale 0 adds 0.  Any other error at scale 0, or a square
    beyond the float range, makes the norm infinite, which rejects the step.
    """
    total = 0.0
    for e, sc in terms:
        if sc == 0.0 and e == 0.0:
            continue
        try:
            total += (e / sc) ** 2
        except (ZeroDivisionError, OverflowError):
            return math.inf
    return math.sqrt(total / 3.0)


def integrate(params: ModelParameters, initial: State, config: IntegratorConfig | None = None) -> Trajectory:
    """Integrate the model and monitor invariants at every sample.

    The initial state must be componentwise nonnegative (positivity of the
    flow is guaranteed for positive data; the I = V = 0 plane is invariant
    and admissible, also with abs_tol = 0).  On step underflow, budget
    exhaustion (checked by RK4 before each sample interval), or a non-finite
    state, raises IntegrationError with the partial trajectory attached.
    A run holds at most 2**20 sample intervals (t_end / sample_every): more
    raise before the first step, without a list of sample times.  Every
    stage passes t, which the autonomous field's closure ignores.
    """
    config = config or IntegratorConfig()
    if not initial.nonnegative:
        raise DomainError(f"initial state must be nonnegative, got {initial}")
    bounds = asymptotic_bounds(params, initial)
    inside = _inside_omega(initial, bounds)
    f = field_function(params)
    sample_times = [0.0]
    samples: list[tuple[float, float, float]] = []

    def partial(taken: int, rejected: int) -> Trajectory:
        n = len(samples)
        states = np.array(samples).reshape(n, 3)
        monitor = _Monitor(bounds, check_bounds=bounds.applicable and inside, dip_tol=config.abs_tol)
        monitor.observe_all(sample_times, states)
        return Trajectory(
            times=np.array(sample_times[:n]),
            states=states,
            steps_taken=taken,
            steps_rejected=rejected,
            violation_log=tuple(monitor.violations),
            benign_dips=monitor.benign,
            bounds=bounds,
            initial_inside_omega=inside,
        )

    def fail(message: str, taken: int, rejected: int = 0) -> IntegrationError:
        return IntegrationError(message, trajectory=partial(taken, rejected))

    T, I, V = initial.T, initial.I, initial.V
    samples.append((T, I, V))
    intervals = config.t_end / config.sample_every
    if intervals > _SAMPLE_LIST_LIMIT:
        raise fail(f"a run holds at most {_SAMPLE_LIST_LIMIT} sample intervals, got "
                   f"{intervals!r} up to t = {config.t_end!r}", 0)
    sample_times = _sample_times(config)
    t = 0.0
    taken = rejected = 0
    if config.method == RK4_FIXED:
        for t_next in sample_times[1:]:
            span = t_next - t
            needed = max(1.0, span / config.step)
            if needed > config.max_steps - taken:
                message = f"reaching t = {t_next!r} takes {needed!r} steps of {config.step!r}"
                raise fail(f"step budget {config.max_steps} exhausted at t = {t!r}: {message}", taken)
            n_sub = math.ceil(needed)
            h = span / n_sub
            hh, h6 = 0.5 * h, h / 6.0
            for _ in range(n_sub):
                aT, aI, aV = f(t, (T, I, V))
                bT, bI, bV = f(t, (T + hh * aT, I + hh * aI, V + hh * aV))
                cT, cI, cV = f(t, (T + hh * bT, I + hh * bI, V + hh * bV))
                dT, dI, dV = f(t, (T + h * cT, I + h * cI, V + h * cV))
                T = T + h6 * (aT + 2.0 * bT + 2.0 * cT + dT)
                I = I + h6 * (aI + 2.0 * bI + 2.0 * cI + dI)
                V = V + h6 * (aV + 2.0 * bV + 2.0 * cV + dV)
                t += h
                taken += 1
                if not (math.isfinite(T) and math.isfinite(I) and math.isfinite(V)):
                    raise fail(f"state became non-finite near t = {t!r}", taken)
            t = t_next
            samples.append((T, I, V))
        return partial(taken, 0)

    # Locals for the loop: a global or attribute load per use, and a call of
    # min or max, cost more than the step's arithmetic.  Each conditional
    # expression returns what the builtin call it replaces returned.
    A21, A31, A32, A41, A42, A43 = _A21, _A31, _A32, _A41, _A42, _A43
    A51, A52, A53, A54 = _A51, _A52, _A53, _A54
    A61, A62, A63, A64, A65 = _A61, _A62, _A63, _A64, _A65
    B1, B3, B4, B5, B6 = _B1, _B3, _B4, _B5, _B6
    E1, E3, E4, E5, E6, E7 = _E1, _E3, _E4, _E5, _E6, _E7
    abs_tol, rel_tol, max_steps, min_step = config.abs_tol, config.rel_tol, config.max_steps, _MIN_STEP
    inf, sqrt = math.inf, math.sqrt
    beta, expo, err_floor = _PI_BETA, _PI_EXPONENT, _PI_ERR_FLOOR
    # lam is the clearance taken exactly: c while the gate is on, else 0.
    # V's weights (see _v_weights) are those of the step size h_w, 0 while
    # the gate is off; -1 has none yet.
    c, h_w = params.c, -1.0
    err_old = err_floor
    h = min(config.sample_every, 1.0)
    aT, aI, aV = f(t, (T, I, V))
    # The state's magnitudes, for the error scales and the gate.
    mT, mI, mV = abs(T), abs(I), abs(V)
    for t_next in sample_times[1:]:
        while t < t_next:
            left = t_next - t
            h_try = left if left < h else h
            # The gate: V's clearance is taken exactly only while |V| <= abs_tol.
            h_v = h_try if mV <= abs_tol else 0.0
            if h_v != h_w:
                h_w = h_v
                lam = c if h_v else 0.0
                (X2, X3, X4, X5, X6, W21, W31, W32, W41, W42, W43, W51, W52, W53, W54,
                 W61, W62, W63, W64, W65, WB1, WB3, WB4, WB5, WE1, WE3, WE4, WE5) = _v_weights(-lam * h_v)
            # V's slopes are N = f_V + lam * V, the field less its linear part.
            aN = aV + lam * V
            h2 = h_try * A21
            yV = X2 * V + h_try * W21 * aN
            bT, bI, bN = f(t, (T + h2 * aT, I + h2 * aI, yV))
            bN += lam * yV
            yV = X3 * V + h_try * (W31 * aN + W32 * bN)
            cT, cI, cN = f(t, (T + h_try * (A31 * aT + A32 * bT),
                               I + h_try * (A31 * aI + A32 * bI), yV))
            cN += lam * yV
            yV = X4 * V + h_try * (W41 * aN + W42 * bN + W43 * cN)
            dT, dI, dN = f(t, (T + h_try * (A41 * aT + A42 * bT + A43 * cT),
                               I + h_try * (A41 * aI + A42 * bI + A43 * cI), yV))
            dN += lam * yV
            yV = X5 * V + h_try * (W51 * aN + W52 * bN + W53 * cN + W54 * dN)
            eT, eI, eN = f(t, (T + h_try * (A51 * aT + A52 * bT + A53 * cT + A54 * dT),
                               I + h_try * (A51 * aI + A52 * bI + A53 * cI + A54 * dI), yV))
            eN += lam * yV
            yV = X6 * V + h_try * (W61 * aN + W62 * bN + W63 * cN + W64 * dN + W65 * eN)
            gT, gI, gN = f(t, (T + h_try * (A61 * aT + A62 * bT + A63 * cT + A64 * dT + A65 * eT),
                               I + h_try * (A61 * aI + A62 * bI + A63 * cI + A64 * dI + A65 * eI), yV))
            gN += lam * yV
            nT = T + h_try * (B1 * aT + B3 * cT + B4 * dT + B5 * eT + B6 * gT)
            nI = I + h_try * (B1 * aI + B3 * cI + B4 * dI + B5 * eI + B6 * gI)
            nV = X6 * V + h_try * (WB1 * aN + WB3 * cN + WB4 * dN + WB5 * eN + B6 * gN)
            # |x| < inf tests that x is finite.
            uT, uI, uV = abs(nT), abs(nI), abs(nV)
            if not (uT < inf and uI < inf and uV < inf):
                raise fail(f"state became non-finite near t = {t!r}", taken, rejected)
            kT, kI, kV = f(t, (nT, nI, nV))
            xT = h_try * (E1 * aT + E3 * cT + E4 * dT + E5 * eT + E6 * gT + E7 * kT)
            xI = h_try * (E1 * aI + E3 * cI + E4 * dI + E5 * eI + E6 * gI + E7 * kI)
            xV = h_try * (WE1 * aN + WE3 * cN + WE4 * dN + WE5 * eN + E6 * gN + E7 * (kV + lam * nV))
            sT = abs_tol + rel_tol * (uT if uT > mT else mT)
            sI = abs_tol + rel_tol * (uI if uI > mI else mI)
            sV = abs_tol + rel_tol * (uV if uV > mV else mV)
            try:
                err = sqrt(((xT / sT) ** 2 + (xI / sI) ** 2 + (xV / sV) ** 2) / 3.0)
            except (ZeroDivisionError, OverflowError):
                err = _error_norm((xT, sT), (xI, sI), (xV, sV))
            if err <= 1.0:
                T, I, V = nT, nI, nV
                mT, mI, mV = uT, uI, uV
                aT, aI, aV = kT, kI, kV
                taken += 1
                if h_try < h:
                    # Cut short onto the sample time: h and err_old stay.
                    t = t_next
                else:
                    t = t_next if h_try >= left else t + h_try
                    # err <= 1 and err_old >= err_floor keep the factor above
                    # 0.9 * err_floor**beta = 0.43, so only the upper clip applies.
                    factor = 0.9 * err**-expo * err_old**beta if err != 0.0 else 5.0
                    h = h_try * (factor if factor < 5.0 else 5.0)
                    err_old = err if err > err_floor else err_floor
            else:
                rejected += 1
                # max(0.2, x), also for a NaN err, whose factor is then 0.2.
                factor = 0.9 * err**-expo
                h = h_try * (factor if factor > 0.2 else 0.2)
            # A step onto its sample time may itself be below the minimum.
            if h < min_step and t < t_next:
                raise fail(f"step size underflow ({h!r} < min_step) at t = {t!r}", taken, rejected)
            if taken + rejected > max_steps:
                raise fail(f"step budget {max_steps} exhausted at t = {t!r}", taken, rejected)
        samples.append((T, I, V))
    return partial(taken, rejected)


def check_invariants(trajectory: Trajectory) -> InvariantSummary:
    """Count a trajectory's own violation log by kind, with its benign dips.

    integrate's monitor checked every sample, in time order, when it built
    the trajectory, with the run's abs_tol as the benign-dip tolerance, so
    the summary agrees with the run whatever tolerance it used.
    """
    counts = {kind: 0 for kind in VIOLATION_KINDS}
    worst = {kind: 0.0 for kind in VIOLATION_KINDS}
    for v in trajectory.violation_log:
        counts[v.kind] += 1
        worst[v.kind] = max(worst[v.kind], v.magnitude)
    return InvariantSummary(
        counts=counts,
        worst=worst,
        benign_dips=trajectory.benign_dips,
        violations=trajectory.violation_log,
    )


def convergence_report(params: ModelParameters, trajectory: Trajectory) -> ConvergenceReport:
    """Distance of the final sample from the attractor predicted by R0.

    A run whose first sample has I = V = 0 stays on that invariant plane, so
    it is compared with the uninfected equilibrium whatever R0 is.

    For the uninfected equilibrium, T is compared relative to T0 while I and
    V are divided by uninfected_component_scale T0 (they vanish at E0, so a
    relative measure is meaningless).  For the infected equilibrium every
    component is compared relative to its own equilibrium value.  rel_tol
    is the matching *_convergence tolerance, or NaN without an attractor.
    """
    from .equilibria import REGIME_UNIQUE, infected_equilibrium, uninfected_equilibrium
    from .reproduction import r0_from_T0

    e0 = uninfected_equilibrium(params).state
    R0 = r0_from_T0(params, e0.T)
    final = trajectory.final_state
    _, I0, V0 = trajectory.states[0]
    if R0 > 1.0 and (I0 != 0.0 or V0 != 0.0):
        report = infected_equilibrium(params)
        if report.regime == REGIME_UNIQUE:
            ref = report.candidates[0].state
            tol = DEFAULT_TOLERANCES.infected_convergence
            dist = max(
                abs(final.T - ref.T) / ref.T,
                abs(final.I - ref.I) / ref.I,
                abs(final.V - ref.V) / ref.V,
            )
            return ConvergenceReport("Estar", ref, dist, tol, dist <= tol)
        return ConvergenceReport(None, None, math.inf, math.nan, False)
    # r0_from_T0 has already rejected T0 <= 0.
    tol = DEFAULT_TOLERANCES.uninfected_convergence
    small = DEFAULT_TOLERANCES.uninfected_component_scale * e0.T
    dist = max(abs(final.T - e0.T) / e0.T, final.I / small, final.V / small)
    return ConvergenceReport("E0", e0, dist, tol, dist <= tol)
