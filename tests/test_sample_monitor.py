"""The once-per-trajectory sample monitor against observing every sample.

integrate keeps its samples and, when it builds the Trajectory, lets one
numpy pass pick the rows a rule could flag; only those go through
_Monitor.observe.  Observing every row in time order must give the same
violation log, order included, and the same benign-dip count.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcvdyn import SCENARIO_S1, SCENARIO_S2, IntegrationError, IntegratorConfig, State, integrate
from hcvdyn.simulate import Bounds, _inside_omega, _Monitor, asymptotic_bounds
from hcvdyn.tolerances import DEFAULT_TOLERANCES

START = State(1e3, 2.0, 1.0)
SLACK = DEFAULT_TOLERANCES.bound_slack
BOUNDS = Bounds(t_tilde0=1.7e8, lambda0=3.5e8, applicable=True)


def _neighbours(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


def _values(dip_tol):
    """Component values on and beside every edge a rule tests."""
    edges = [0.0, -0.0, 1.0, 2.5e6]
    for x in (dip_tol, -dip_tol):
        edges += _neighbours(x)
    for ceiling in (BOUNDS.t_tilde0, BOUNDS.lambda0):
        edges += _neighbours(ceiling * (1.0 + SLACK)) + _neighbours(ceiling)
        edges.append(0.5 * ceiling * (1.0 + SLACK))
    ordinary = st.floats(-1e-6, 1e9, allow_nan=False, allow_infinity=False)
    return st.one_of(st.sampled_from(edges), ordinary)


def _every_row(monitor, times, samples):
    for t, y in zip(times, samples):
        monitor.observe(t, y)


def _assert_same_verdicts(bounds, check_bounds, dip_tol, times, samples):
    once = _Monitor(bounds, check_bounds, dip_tol)
    once.observe_all(times, np.array(samples).reshape(len(samples), 3))
    each = _Monitor(bounds, check_bounds, dip_tol)
    _every_row(each, times, samples)
    assert once.violations == each.violations
    assert once.benign == each.benign


@st.composite
def monitored_samples(draw):
    dip_tol = draw(st.sampled_from([0.0, 1e-10, 1e-6]))
    value = _values(dip_tol)
    samples = draw(st.lists(st.tuples(value, value, value), min_size=1, max_size=40))
    return dip_tol, samples


@settings(max_examples=300, deadline=None)
@given(drawn=monitored_samples(), check_bounds=st.booleans())
def test_one_pass_equals_observing_every_sample(drawn, check_bounds):
    dip_tol, samples = drawn
    times = [float(k) for k in range(len(samples))]
    _assert_same_verdicts(BOUNDS, check_bounds, dip_tol, times, samples)


def _run(params, config):
    try:
        return integrate(params, START, config)
    except IntegrationError as exc:
        return exc.trajectory


@pytest.mark.parametrize("params, config", [
    (replace(SCENARIO_S2, c=22.0), IntegratorConfig(t_end=200.0)),
    (replace(SCENARIO_S2, c=22.0), IntegratorConfig(t_end=1000.0, max_steps=3000)),
    (SCENARIO_S1, IntegratorConfig(t_end=200.0)),
], ids=["s2-bounds-checked", "s2-exhausted-budget", "s1-bounds-unchecked"])
def test_a_runs_log_equals_observing_every_sample(params, config):
    traj = _run(params, config)
    bounds = asymptotic_bounds(params, START)
    check_bounds = bounds.applicable and _inside_omega(START, bounds)
    assert check_bounds == (params is not SCENARIO_S1)
    each = _Monitor(bounds, check_bounds, config.abs_tol)
    samples = [tuple(row) for row in traj.states.tolist()]
    _every_row(each, traj.times.tolist(), samples)
    assert traj.violation_log == tuple(each.violations)
    assert traj.benign_dips == each.benign
    assert traj.benign_dips > 0 or params is SCENARIO_S1
