"""The scalar stepping loops of integrate against an independent reference.

reference_integrate keeps the loops that preceded the scalar ones: each stage
builds its state as a tuple over zip, the error norm is a Python loop, and
the PI step-size rule takes builtin min and max.  Its DP5 steps loop over
the tableau in Lawson's integrating-factor form with L = -lam per component
(Lawson 1967, SIAM J. Numer. Anal. 4:372-380): lam is c for V while |V| <=
abs_tol at the start of the step, else 0, where every factor is 1.0 and the
step is plain DP5.  The factors e^(-lam h (c_i - c_j)) take their node
differences from exact fractions, not from the scalar loop's folded weights.
The scalar loops repeat the same floating-point operations in the same
order, so every sample, step count, benign dip and violation must be equal
bit for bit.
"""

import dataclasses
import math
from fractions import Fraction
from functools import reduce
from operator import add
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import draw_params
from hcvdyn import (
    RK4_FIXED,
    RK45_ADAPTIVE,
    SCENARIO_S1,
    SCENARIO_S2,
    IntegrationError,
    IntegratorConfig,
    State,
    integrate,
)
from hcvdyn.model import field_function
from hcvdyn.simulate import (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54,
    _A61, _A62, _A63, _A64, _A65, _B1, _B3, _B4, _B5, _B6,
    _E1, _E3, _E4, _E5, _E6, _E7,
    _MIN_STEP,
    _PI_BETA,
    _PI_ERR_FLOOR,
    _PI_EXPONENT,
    _inside_omega,
    _Monitor,
    _sample_times,
    asymptotic_bounds,
)

START = State(1e3, 2.0, 1.0)

# The Dormand-Prince 5(4) tableau: its nodes as exact fractions, and each
# row's nonzero weights as (stage, weight) pairs.  integrate passes t to
# every stage, since the field is autonomous; the reference passes the
# textbook stage times.
_NODES = tuple(map(Fraction, ("0", "1/5", "3/10", "4/5", "8/9", "1", "1")))
_ROWS = (
    ((0, _A21),),
    ((0, _A31), (1, _A32)),
    ((0, _A41), (1, _A42), (2, _A43)),
    ((0, _A51), (1, _A52), (2, _A53), (3, _A54)),
    ((0, _A61), (1, _A62), (2, _A63), (3, _A64), (4, _A65)),
)
_UPDATE = ((0, _B1), (2, _B3), (3, _B4), (4, _B5), (5, _B6))
_ERROR = ((0, _E1), (2, _E3), (3, _E4), (4, _E5), (5, _E6), (6, _E7))


def lawson_sum(z, node, row, slopes, h):
    """h * sum of a_j e^(z (node - c_j)) slopes[j] over a row's (j, a_j) pairs.

    A row of one weight multiplies h by it first, as integrate's first stage
    does; longer rows add their terms left to right.
    """
    terms = [(a * math.exp(z * float(node - _NODES[j])), slopes[j]) for j, a in row]
    if len(terms) == 1:
        ((w, k),) = terms
        return h * w * k
    return h * reduce(add, (w * k for w, k in terms))


def lawson_stage(y, z, node, row, slopes, h):
    """Each component's e^(z node) y + lawson_sum; slopes[j] are the stage's N_j tuples."""
    return tuple(
        math.exp(zi * float(node)) * yi + lawson_sum(zi, node, row, [n[i] for n in slopes], h)
        for i, (yi, zi) in enumerate(zip(y, z))
    )


def nonlinear(k, lam, y):
    """N = f(y) + lam * y, the field less its linear part -lam * y."""
    return tuple(ki + li * yi for ki, li, yi in zip(k, lam, y))


class Outcome(NamedTuple):
    times: np.ndarray
    states: np.ndarray
    steps_taken: int
    steps_rejected: int
    benign_dips: int
    violation_log: tuple
    error: str | None
    """Why the run stopped early, or None."""


def _finite(y):
    return math.isfinite(y[0]) and math.isfinite(y[1]) and math.isfinite(y[2])


def reference_integrate(params, initial, config):
    """The Outcome of the tuple-based loops; error names the failure, if any."""
    bounds = asymptotic_bounds(params, initial)
    monitor = _Monitor(
        bounds,
        check_bounds=bounds.applicable and _inside_omega(initial, bounds),
        dip_tol=config.abs_tol,
    )
    f = field_function(params)
    sample_times = _sample_times(config)
    samples = []
    stats = {"taken": 0, "rejected": 0}

    def record(t, y):
        samples.append(y)
        monitor.observe(t, y)

    def result(error=None):
        n = len(samples)
        return Outcome(
            np.array(sample_times[:n]),
            np.array(samples).reshape(n, 3),
            stats["taken"],
            stats["rejected"],
            monitor.benign,
            tuple(monitor.violations),
            error,
        )

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
                    return result("non-finite")
                if stats["taken"] > config.max_steps:
                    return result("budget")
            t = t_next
            record(t, y)
        return result()

    h = min(config.sample_every, 1.0)
    err_old = _PI_ERR_FLOOR
    k1 = f(t, y)
    for t_next in sample_times[1:]:
        while t < t_next:
            h_try = min(h, t_next - t)
            hits_boundary = h_try >= t_next - t
            lam = (0.0, 0.0, params.c if abs(y[2]) <= config.abs_tol else 0.0)
            z = tuple(-li * h_try for li in lam)
            slopes = [nonlinear(k1, lam, y)]
            for node, row in zip(_NODES[1:6], _ROWS):
                y_i = lawson_stage(y, z, node, row, slopes, h_try)
                slopes.append(nonlinear(f(t + float(node) * h_try, y_i), lam, y_i))
            y_new = lawson_stage(y, z, _NODES[6], _UPDATE, slopes, h_try)
            if not _finite(y_new):
                return result("non-finite")
            k7 = f(t + h_try, y_new)
            slopes.append(nonlinear(k7, lam, y_new))
            err = 0.0
            for i, (yi, yn, zi) in enumerate(zip(y, y_new, z)):
                e_i = lawson_sum(zi, _NODES[6], _ERROR, [n[i] for n in slopes], h_try)
                sc = config.abs_tol + config.rel_tol * max(abs(yi), abs(yn))
                err += (e_i / sc) ** 2
            err = math.sqrt(err / 3.0)
            if err <= 1.0:
                t = t_next if hits_boundary else t + h_try
                y = y_new
                k1 = k7
                stats["taken"] += 1
                # A step cut short onto its sample time leaves h and err_old.
                if h_try == h:
                    pi = 0.9 * err**-_PI_EXPONENT * err_old**_PI_BETA if err != 0.0 else 5.0
                    h = h_try * min(5.0, max(0.2, pi))
                    err_old = max(err, _PI_ERR_FLOOR)
            else:
                stats["rejected"] += 1
                h = h_try * max(0.2, 0.9 * err**-_PI_EXPONENT)
            if h < _MIN_STEP:
                return result("underflow")
            if stats["taken"] + stats["rejected"] > config.max_steps:
                return result("budget")
        record(t_next, y)
    return result()


def run(params, initial, config):
    """The Outcome of integrate; error is the IntegrationError's message, if any."""
    try:
        traj, error = integrate(params, initial, config), None
    except IntegrationError as exc:
        traj, error = exc.trajectory, str(exc)
    return Outcome(
        traj.times,
        traj.states,
        traj.steps_taken,
        traj.steps_rejected,
        traj.benign_dips,
        traj.violation_log,
        error,
    )


def assert_same_samples(got, want):
    assert got.times.tobytes() == want.times.tobytes()
    assert got.states.tobytes() == want.states.tobytes()
    assert got.benign_dips == want.benign_dips
    assert got.violation_log == want.violation_log


def assert_identical(got, want):
    assert_same_samples(got, want)
    assert (got.steps_taken, got.steps_rejected) == (want.steps_taken, want.steps_rejected)
    assert (got.error is None) == (want.error is None)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    u_c=st.floats(0.0, 1.0),
    method=st.sampled_from([RK45_ADAPTIVE, RK4_FIXED]),
    dense=st.booleans(),
)
def test_scalar_loops_equal_the_reference(seed, u_c, method, dense):
    params = dataclasses.replace(draw_params(np.random.default_rng(seed)), c=0.8 * (22.0 / 0.8) ** u_c)
    t_end = 100.0
    config = IntegratorConfig(method=method, t_end=t_end, sample_every=1.0 if dense else t_end, step=0.05)
    assert_identical(run(params, START, config), reference_integrate(params, START, config))


@pytest.mark.parametrize("params, c", [
    (SCENARIO_S1, None), (SCENARIO_S2, 0.8), (SCENARIO_S2, 22.0), (SCENARIO_S2, 200.0),
])
@pytest.mark.parametrize("every", [1.0, 1000.0])
def test_long_runs_equal_the_reference(params, c, every):
    if c is not None:
        params = dataclasses.replace(params, c=c)
    config = IntegratorConfig(t_end=1000.0, sample_every=every)
    got = run(params, START, config)
    assert got.error is None
    assert_identical(got, reference_integrate(params, START, config))


def test_exhausted_budget_attaches_the_reference_partial_trajectory():
    config = IntegratorConfig(t_end=100.0, max_steps=60)
    got = run(SCENARIO_S2, START, config)
    want = reference_integrate(SCENARIO_S2, START, config)
    assert got.error.startswith("step budget 60 exhausted") and want.error == "budget"
    assert_identical(got, want)
    assert len(got.times) > 1


def test_rk4_budget_fails_before_the_interval_with_the_reference_samples():
    # RK4 checks the budget before stepping through a sample interval, so it
    # stops short of the reference's count but keeps the same samples.
    config = IntegratorConfig(method=RK4_FIXED, t_end=10.0, step=0.01, max_steps=450)
    got = run(SCENARIO_S2, START, config)
    want = reference_integrate(SCENARIO_S2, START, config)
    assert got.error.startswith("step budget 450 exhausted") and want.error == "budget"
    assert_same_samples(got, want)
    assert len(got.times) == 5
    assert got.steps_taken == 400 and want.steps_taken == 451
