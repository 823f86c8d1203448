"""Time integration, invariant monitoring, and convergence checks."""

import hashlib
import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hcvdyn import equilibria, simulate
from hcvdyn import (
    RK4_FIXED,
    RK45_ADAPTIVE,
    SCENARIO_S1,
    SCENARIO_S2,
    DomainError,
    IntegrationError,
    IntegratorConfig,
    IntegrityError,
    ModelParameters,
    ParameterError,
    State,
    asymptotic_bounds,
    check_invariants,
    convergence_report,
    infected_equilibrium,
    integrate,
    uninfected_equilibrium,
)
from hcvdyn.cli import main
from hcvdyn.model import field_function, jacobian
from hcvdyn.tolerances import DEFAULT_TOLERANCES

START = State(1e3, 2.0, 1.0)


def test_config_validation():
    with pytest.raises(ParameterError):
        IntegratorConfig(method="euler")
    with pytest.raises(ParameterError):
        IntegratorConfig(t_end=-1.0)
    # An infinite horizon used to build its sample list until memory ran out.
    for t_end in (math.inf, math.nan):
        with pytest.raises(ParameterError, match="finite"):
            IntegratorConfig(t_end=t_end)
    with pytest.raises(ParameterError):
        IntegratorConfig(sample_every=0.0)
    with pytest.raises(ParameterError):
        IntegratorConfig(step=0.0)
    with pytest.raises(ParameterError):
        IntegratorConfig(rel_tol=0.0)


@pytest.mark.parametrize("field, value", [
    ("step", math.inf), ("rel_tol", math.inf), ("abs_tol", math.inf),
    ("step", math.nan), ("rel_tol", math.nan), ("abs_tol", math.nan),
    ("max_steps", -1), ("max_steps", 1.5), ("max_steps", 1e6), ("max_steps", math.inf),
])
def test_config_refuses_settings_that_switch_off_control(field, value):
    # An infinite step is never subdivided, an infinite tolerance accepts
    # every step, and a step budget is a count of steps.
    with pytest.raises(ParameterError, match=field):
        IntegratorConfig(**{field: value})


def test_config_keeps_its_limits():
    assert IntegratorConfig(abs_tol=0.0, max_steps=0).max_steps == 0
    assert IntegratorConfig(max_steps=np.int64(7), rel_tol=1e300, step=1e300).max_steps == 7


def test_asymptotic_bounds_reference_values():
    b1 = asymptotic_bounds(SCENARIO_S1, START)
    assert b1.t_tilde0 == pytest.approx(4375204.072113698, rel=1e-12)
    assert b1.lambda0 == pytest.approx(2187602.014180829, rel=1e-12)
    # S1 has r_I > r_T: the comparison hypotheses fail, so the ceilings
    # carry no guarantee for it.
    assert not b1.applicable

    b2 = asymptotic_bounds(SCENARIO_S2, START)
    assert b2.t_tilde0 == pytest.approx(177678576.4536969, rel=1e-12)
    assert b2.lambda0 == pytest.approx(355321617.1921031, rel=1e-12)
    assert b2.applicable


def test_asymptotic_bounds_report_degenerate_sets_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # r_I = 0 leaves total hepatocytes unbounded.
        assert asymptotic_bounds(replace(SCENARIO_S1, r_I=0.0), START).t_tilde0 == math.inf
        # s = 0 with r_T <= d_T collapses the region.
        collapsed = replace(SCENARIO_S1, s=0.0, d_T=SCENARIO_S1.r_T)
        assert asymptotic_bounds(collapsed, START).t_tilde0 == 0.0


def test_bounds_keep_a_large_initial_viral_load():
    b = asymptotic_bounds(SCENARIO_S2, State(1e3, 2.0, 1e12))
    assert b.lambda0 == 1e12


def test_integrate_rejects_negative_initial_state():
    with pytest.raises(DomainError):
        integrate(SCENARIO_S1, State(-1.0, 0.0, 0.0), IntegratorConfig(t_end=1.0))


def test_zero_horizon_returns_single_sample():
    traj = integrate(SCENARIO_S1, START, IntegratorConfig(t_end=0.0))
    assert traj.times.tolist() == [0.0]
    assert traj.states.shape == (1, 3)
    assert traj.final_state == START
    assert traj.steps_taken == 0


def test_sample_grid_covers_horizon():
    traj = integrate(SCENARIO_S1, START, IntegratorConfig(t_end=10.0, sample_every=2.5))
    assert traj.times.tolist() == [0.0, 2.5, 5.0, 7.5, 10.0]
    # A horizon that is not a multiple of the cadence still ends at t_end.
    traj = integrate(SCENARIO_S1, START, IntegratorConfig(t_end=9.0, sample_every=2.5))
    assert traj.times.tolist() == [0.0, 2.5, 5.0, 7.5, 9.0]


def test_subcritical_run_settles_at_uninfected_equilibrium():
    traj = integrate(SCENARIO_S1, START, IntegratorConfig(t_end=1000.0))
    T0 = uninfected_equilibrium(SCENARIO_S1).state.T
    final = traj.final_state
    assert abs(final.T - T0) <= 1e-3 * T0
    assert final.I <= 1e-6 * T0 and final.V <= 1e-6 * T0
    report = convergence_report(SCENARIO_S1, traj)
    assert report.attractor == "E0" and report.converged
    assert traj.violation_log == ()


def test_supercritical_run_settles_at_infected_equilibrium():
    traj = integrate(SCENARIO_S2, START, IntegratorConfig(t_end=1000.0))
    ref = infected_equilibrium(SCENARIO_S2).candidates[0].state
    final = traj.final_state
    for got, want in zip(final, ref):
        assert abs(got - want) <= 1e-2 * want
    report = convergence_report(SCENARIO_S2, traj)
    assert report.attractor == "Estar" and report.converged
    assert traj.violation_log == ()


def test_convergence_report_has_no_tolerance_without_equilibrium():
    # r0 = 1.26 but no infected equilibrium exists, so there is no attractor.
    params = ModelParameters(
        s=74600.0, r_T=0.0101, r_I=0.0505, d_T=0.00256, d_I=0.0583, T_max=7.79e6,
        beta=1.42e-7, p=4.06, c=7.5, q=0.323, eta=0.199, epsilon=0.261,
    )
    traj = integrate(params, START, IntegratorConfig(t_end=1.0))
    report = convergence_report(params, traj)
    assert report.attractor is None and not report.converged
    assert math.isnan(report.rel_tol)


@pytest.mark.parametrize("params, field, attractor", [
    (SCENARIO_S1, "uninfected_convergence", "E0"),
    (SCENARIO_S2, "infected_convergence", "Estar"),
])
def test_convergence_report_reads_its_threshold_from_the_tolerances(monkeypatch, params, field, attractor):
    traj = integrate(params, START, IntegratorConfig(t_end=1000.0))
    report = convergence_report(params, traj)
    assert report.attractor == attractor and report.converged
    assert report.rel_tol == getattr(DEFAULT_TOLERANCES, field)
    tight = replace(DEFAULT_TOLERANCES, **{field: report.rel_distance / 2})
    monkeypatch.setattr(simulate, "DEFAULT_TOLERANCES", tight)
    report = convergence_report(params, traj)
    assert report.rel_tol == getattr(tight, field) and not report.converged


def test_convergence_report_scales_i_and_v_at_e0_from_the_tolerances(monkeypatch):
    traj = integrate(SCENARIO_S1, START, IntegratorConfig(t_end=1000.0))
    T0 = uninfected_equilibrium(SCENARIO_S1).state.T
    final = traj.final_state

    def distance(scale):
        small = scale * T0
        return max(abs(final.T - T0) / T0, final.I / small, final.V / small)

    assert DEFAULT_TOLERANCES.uninfected_component_scale == 1e-3
    assert convergence_report(SCENARIO_S1, traj).rel_distance == distance(1e-3)
    # I and V end near 1e-68, so at this scale they decide the distance.
    monkeypatch.setattr(simulate, "DEFAULT_TOLERANCES", replace(DEFAULT_TOLERANCES, uninfected_component_scale=1e-80))
    report = convergence_report(SCENARIO_S1, traj)
    assert report.rel_distance == distance(1e-80) > 1.0 > distance(1e-3)


def test_convergence_report_honours_tolerances(monkeypatch):
    traj = integrate(SCENARIO_S2, START, IntegratorConfig(t_end=1.0))
    monkeypatch.setattr(equilibria, "DEFAULT_TOLERANCES", replace(DEFAULT_TOLERANCES, uninfected_residual=-1.0))
    # S2's T0 is bracketed within an ulp, which would accept any residual.
    monkeypatch.setattr(equilibria, "_root_within_an_ulp", lambda params, below, above: False)
    with pytest.raises(IntegrityError, match="uninfected equilibrium residual"):
        convergence_report(SCENARIO_S2, traj)


def test_convergence_report_predicts_e0_on_the_infection_free_plane():
    # I = V = 0 is invariant, so a supercritical run started there ends at
    # E0, not E*.
    traj = integrate(SCENARIO_S2, State(1e3, 0.0, 0.0), IntegratorConfig(t_end=1000.0))
    assert traj.final_state.I == 0.0 and traj.final_state.V == 0.0
    report = convergence_report(SCENARIO_S2, traj)
    assert report.attractor == "E0" and report.converged
    assert report.reference == uninfected_equilibrium(SCENARIO_S2).state
    # One infected cell leaves the plane, and E* is the attractor again.
    traj = integrate(SCENARIO_S2, State(1e3, 1.0, 0.0), IntegratorConfig(t_end=1000.0))
    assert convergence_report(SCENARIO_S2, traj).attractor == "Estar"


def test_fixed_step_agrees_with_adaptive():
    adaptive = integrate(
        SCENARIO_S2, START, IntegratorConfig(t_end=20.0, rel_tol=1e-10, abs_tol=1e-12)
    )
    fixed = integrate(
        SCENARIO_S2, START, IntegratorConfig(method=RK4_FIXED, t_end=20.0, step=0.01)
    )
    for got, want in zip(fixed.final_state, adaptive.final_state):
        assert got == pytest.approx(want, rel=1e-7)


def test_fixed_step_error_scales_as_fourth_order():
    reference = integrate(
        SCENARIO_S1, START,
        IntegratorConfig(t_end=10.0, sample_every=10.0, rel_tol=1e-12, abs_tol=1e-12),
    ).final_state

    def error(step):
        final = integrate(
            SCENARIO_S1, START,
            IntegratorConfig(method=RK4_FIXED, t_end=10.0, sample_every=10.0, step=step),
        ).final_state
        return max(abs(a - b) / max(abs(b), 1e-30) for a, b in zip(final, reference))

    ratio = error(0.5) / error(0.25)
    assert ratio >= 8.0


def test_integration_failure_attaches_partial_trajectory():
    config = IntegratorConfig(t_end=100.0, max_steps=10)
    with pytest.raises(IntegrationError) as info:
        integrate(SCENARIO_S2, START, config)
    partial = info.value.trajectory
    assert partial is not None
    assert partial.times[0] == 0.0
    assert partial.times[-1] < 100.0


def test_invariant_rescan_matches_online_log():
    traj = integrate(SCENARIO_S2, START, IntegratorConfig(t_end=200.0))
    summary = check_invariants(traj)
    assert summary.violations == traj.violation_log
    assert summary.counts == {kind: 0 for kind in summary.counts}
    assert summary.benign_dips == traj.benign_dips


# A drawn set whose I, cleared at d_I = 4.5 per day, dips below zero at
# every abs_tol below: by about abs_tol / 20 (4.8e-12, 4.8e-10, 4.9e-8).
DIPPING_PARAMS = ModelParameters(
    s=31.715263998057274, r_T=0.030429900818502564, r_I=0.06076572089420404,
    d_T=0.003698212236315526, d_I=4.512318950054784, T_max=184363.57450394228,
    beta=3.586775623626659e-07, p=12.495593714383618, c=0.1319370337449619,
    q=0.2776725776807703, eta=0.5467180737174006, epsilon=0.04512716556577467,
)


@pytest.mark.parametrize("abs_tol", [1e-10, 1e-8, 1e-6])
def test_invariant_summary_follows_the_runs_tolerance(abs_tol):
    # The summary used to re-scan the samples with a fixed dip tolerance of
    # 1e-10, so at a looser abs_tol it counted the run's benign dips as
    # negativity violations.
    traj = integrate(DIPPING_PARAMS, START, IntegratorConfig(abs_tol=abs_tol))
    summary = check_invariants(traj)
    assert summary.counts["negativity"] == 0
    assert summary.benign_dips == traj.benign_dips > 0
    if abs_tol > 1e-10:
        assert traj.states.min() < -1e-10


def test_a_dense_benchmark_c_logs_no_dip_beyond_abs_tol():
    # One of the 13 c values of the simulate benchmark's dense runs that
    # exited 2 under the I-controller (5120 + 1926 steps, one negativity
    # violation at t = 63): the PI rule kept its dips within abs_tol (4929 +
    # 5 steps, 969 benign dips).  Taking V's clearance exactly once V is
    # within abs_tol frees the step size from DP5's stability limit, and the
    # dips go.  The monitor's verdict and the step counts of that run are
    # pinned.
    params = replace(SCENARIO_S2, c=14.589615372592593)
    traj = integrate(params, START, IntegratorConfig(t_end=1000.0))
    assert (traj.steps_taken, traj.steps_rejected, traj.benign_dips) == (1294, 5, 0)
    assert traj.violation_log == ()


def test_dense_runs_near_the_stability_limit_rarely_reject():
    # The simulate benchmark's dense runs: s2 at the midpoints of 117
    # log-uniform slices of c in [0.8, 22], daily samples.  The I-controller
    # rejected 12 % of its attempts there, as its step size oscillated about
    # DP5's stability limit, and 13 runs logged negativity violations; the
    # PI rule left 2 (c = 3.75 and 4.08), which the gated integrating factor
    # removes.
    attempts = rejected = 0
    violating = []
    for k in range(117):
        c = 0.8 * (22.0 / 0.8) ** ((k + 0.5) / 117)
        traj = integrate(replace(SCENARIO_S2, c=c), START, IntegratorConfig(t_end=1000.0))
        attempts += traj.steps_taken + traj.steps_rejected
        rejected += traj.steps_rejected
        if traj.violation_log:
            violating.append(c)
    assert rejected <= 0.01 * attempts
    assert violating == []


@pytest.mark.parametrize("c, most", [(0.5, 873), (2.0, 1000), (22.0, 2000), (200.0, 10_000)])
def test_one_sample_runs_stop_growing_with_c(c, most):
    # s2 with one sample at 1000 d.  DP5 caps h near 3.3 / c, so the plain
    # loop took 6,841 + 5 steps at c = 22 and 60,594 + 6 at c = 200.  Once V
    # is within abs_tol its clearance is taken exactly.  At c = 0.5, V never
    # gets there, and the run is DP5's 868 + 5.
    params = replace(SCENARIO_S2, c=c)
    traj = integrate(params, START, IntegratorConfig(t_end=1000.0, sample_every=1000.0))
    assert traj.steps_taken + traj.steps_rejected <= most
    assert traj.violation_log == ()
    assert convergence_report(params, traj).converged


def test_s1_at_c_1_ends_at_lsodas_state():
    # The PI rule used up 400,000 steps by t = 445 on this run: its V falls
    # below abs_tol, where DP5 held h near its stability limit.  scipy's
    # Radau diverged at these tolerances; LSODA does not.
    from scipy.integrate import solve_ivp

    params = replace(SCENARIO_S1, c=1.0)
    traj = integrate(params, START, IntegratorConfig(t_end=1000.0, sample_every=1000.0, max_steps=2000))
    assert traj.steps_taken + traj.steps_rejected < 2000
    f = field_function(params)
    ref = solve_ivp(lambda t, y: f(t, tuple(y)), (0.0, 1000.0), list(START), method="LSODA",
                    rtol=1e-11, atol=1e-14, jac=lambda t, y: jacobian(params, y)).y[:, -1]
    assert max(abs(a - b) / b for a, b in zip(traj.final_state, ref)) <= 1e-6


def test_a_supercritical_s1_run_ends_at_radaus_state():
    # With c = 0.5 s1 is supercritical; the I-controller's steps flipped
    # signs near the stability limit and used up 400,000 attempts by t = 323.
    from scipy.integrate import solve_ivp

    params = replace(SCENARIO_S1, c=0.5)
    traj = integrate(params, START, IntegratorConfig(t_end=1000.0, sample_every=1000.0, max_steps=2000))
    assert traj.steps_taken + traj.steps_rejected < 2000
    f = field_function(params)
    ref = solve_ivp(lambda t, y: f(t, tuple(y)), (0.0, 1000.0), list(START), method="Radau",
                    rtol=1e-11, atol=1e-6, jac=lambda t, y: jacobian(params, y)).y[:, -1]
    assert max(abs(a - b) / b for a, b in zip(traj.final_state, ref)) <= 1e-6


def test_nonnegativity_is_always_monitored():
    # Even with bound checks inapplicable (S1), negativity is watched.
    traj = integrate(SCENARIO_S1, START, IntegratorConfig(t_end=300.0))
    assert traj.states.min() >= -1e-10
    assert not any(v.kind == "negativity" for v in traj.violation_log)


def test_equilibrium_start_stays_put():
    # Starting exactly on the uninfected equilibrium (I = V = 0) is allowed
    # and the trajectory stays there.
    T0 = uninfected_equilibrium(SCENARIO_S1).state.T
    traj = integrate(SCENARIO_S1, State(T0, 0.0, 0.0), IntegratorConfig(t_end=50.0))
    assert traj.final_state.T == pytest.approx(T0, rel=1e-9)
    assert traj.final_state.I == 0.0
    assert traj.final_state.V == 0.0


def test_rk4_substep_count_honours_step():
    traj = integrate(
        SCENARIO_S1, START,
        IntegratorConfig(method=RK4_FIXED, t_end=2.0, sample_every=1.0, step=0.3),
    )
    # ceil(1.0 / 0.3) = 4 substeps per unit sample interval.
    assert traj.steps_taken == 8


def test_zero_abs_tol_keeps_the_infection_free_plane():
    # With abs_tol = 0 the I and V error scales are 0 on the I = V = 0 plane;
    # their error estimates are 0 too, so they add nothing to the norm.
    config = IntegratorConfig(t_end=1000.0, abs_tol=0.0)
    traj = integrate(SCENARIO_S2, State(1e3, 0.0, 0.0), config)
    assert not traj.states[:, 1:].any()
    T0 = uninfected_equilibrium(SCENARIO_S2).state.T
    assert traj.final_state.T == pytest.approx(T0, rel=1e-9)


def test_overflowing_error_norm_rejects_until_the_step_underflows():
    # (e / sc) ** 2 leaves the float range when sc is about 1e-300.
    config = IntegratorConfig(t_end=10.0, abs_tol=0.0, rel_tol=1e-300)
    with pytest.raises(IntegrationError, match="step size underflow") as info:
        integrate(SCENARIO_S1, START, config)
    partial = info.value.trajectory
    assert partial.times.tolist() == [0.0]
    assert partial.steps_taken == 0 and partial.steps_rejected > 0


@pytest.mark.parametrize("t_end", [1e-13, 10.0000000000001])
def test_a_step_landing_on_a_short_last_interval_is_no_underflow(t_end):
    # The step onto t_end is shorter than the minimum step, and so is the
    # next step size it proposes; the run used to fail after its last step.
    traj = integrate(SCENARIO_S2, START, IntegratorConfig(t_end=t_end))
    assert traj.times[-1] == t_end
    assert np.isfinite(traj.states).all()


def test_simulate_writes_the_row_of_a_short_last_interval(tmp_path):
    out = tmp_path / "short.csv"
    assert main(["simulate", "s2", "--t-end", "10.0000000000001", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1].startswith("10.0000000000001,")


@pytest.mark.parametrize("step", [1e-320, 1e-9])
def test_rk4_step_beyond_the_budget_fails_at_once(step):
    # 1 / 1e-320 substeps overflow; 1e-9 asks for 1e12 over 1000 d.
    config = IntegratorConfig(method=RK4_FIXED, t_end=1000.0, step=step)
    start = time.perf_counter()
    with pytest.raises(IntegrationError, match="step budget 50000000 exhausted at t = 0.0"):
        integrate(SCENARIO_S2, START, config)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("t_end, max_steps", [(1e15, 50_000_000), (2.0**20 + 1.0, 1000)])
def test_many_more_sample_intervals_than_steps_fail_before_the_run(t_end, max_steps):
    # Each sample interval takes at least one step.  1e15 daily samples used
    # to build a list until memory ran out.
    config = IntegratorConfig(t_end=t_end, max_steps=max_steps)
    start = time.perf_counter()
    with pytest.raises(IntegrationError, match="a run holds at most 1048576 sample intervals") as info:
        integrate(SCENARIO_S1, START, config)
    assert time.perf_counter() - start < 0.5
    partial = info.value.trajectory
    assert partial.times.tolist() == [0.0] and partial.steps_taken == 0


def test_more_sample_intervals_than_a_run_holds_fail_within_the_budget(monkeypatch):
    # 2**21 intervals fit the default budget of 5e7 steps, but their samples
    # alone would take about 500 MB: refused before the list is built.
    def no_list(config):
        raise AssertionError("the sample list was built")

    monkeypatch.setattr(simulate, "_sample_times", no_list)
    with pytest.raises(IntegrationError, match="a run holds at most 1048576 sample intervals, got 2097152.0"):
        integrate(SCENARIO_S2, START, IntegratorConfig(t_end=2.0**21))


def test_few_more_sample_intervals_than_steps_step_out_the_budget():
    config = IntegratorConfig(t_end=2.0**20, max_steps=1000)
    with pytest.raises(IntegrationError, match="step budget 1000 exhausted") as info:
        integrate(SCENARIO_S1, START, config)
    assert "sample intervals" not in str(info.value)
    assert info.value.trajectory.times[-1] > 0.0


@pytest.mark.parametrize("argv, digest", [
    (["s1"], "552db84016b664bbb0de93b5a94fc1607c0e856d836c14f5d721deb1feca5a11"),
    (["s2"], "3b4d68a3ba5a61ed06f4359bc23a7f8409b2d2cf29e8b1ab3d1e86b567eb2b1f"),
    (["s1", "--method", "rk4", "--t-end", "50"],
     "0e96e6d19a99df21ae55a8b82026cc8b4b45203cb1ac36361f82777b63b95f37"),
    (["s2", "--method", "rk4", "--t-end", "50"],
     "b8fe3332d8ec548228e9d3d805011c7a42d2bc7cc3e30b67781f16e54e335bd3"),
], ids=["s1", "s2", "s1-rk4", "s2-rk4"])
def test_simulate_csv_bytes_are_pinned(tmp_path, capsys, argv, digest):
    # SHA-256 of the CSV.  The RK4 digests predate the scalar stepping loops;
    # the RK45 ones were taken under the PI step-size rule, whose last rows
    # agree with scipy's Radau (rtol 1e-12) to 1e-6 relative in every s2
    # component and in s1's T.  s1's I and V fall below abs_tol, where V's
    # clearance is taken exactly; its last row's I and V (1.2e-68, 6.4e-69)
    # are within 5e-69 of Radau, LSODA and DOP853 (rtol 1e-12, atol 1e-90
    # for I and V), held by abs_tol alone, not relative to themselves.
    out = tmp_path / "run.csv"
    assert main(["simulate", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
