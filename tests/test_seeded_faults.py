"""Every runtime cross-check still catches a seeded fault.

Each test perturbs one route of one check, by ten times the check's
tolerance unless said otherwise, and expects the check to fire: on s1, s2
and a seeded plausible draw for the checks at E0, and on s2 and a seeded
supercritical draw for those at E* (s1 has no E*).  J(E*) has its own test
in test_stability.py.
"""

import re

import numpy as np
import pytest

from conftest import draw_params, draw_supercritical_params

from hcvdyn import (
    DEFAULT_INITIAL_STATE,
    SCENARIO_S1,
    SCENARIO_S2,
    Axis,
    IntegrityError,
    SweepSpec,
    certify_global,
    characteristic_coefficients,
    infected_equilibrium,
    lyapunov_uninfected,
    r0_spectral,
    run_sweep,
    uninfected_equilibrium,
    uninfected_local,
)
from hcvdyn import _rowbounds, equilibria, model, reproduction, stability, sweep
from hcvdyn.equilibria import REGIME_NONE
from hcvdyn.sweep import STATUS_INVALID
from hcvdyn.tolerances import DEFAULT_TOLERANCES as TOL

E0_SETS = [SCENARIO_S1, SCENARIO_S2, draw_params(np.random.default_rng(26))]
# The fault seeded into the quadratic solver's roots, the check on T0 being
# the E0 residual.
SOLVER_FAULT = 1.0 + 10 * TOL.uninfected_residual
ESTAR_SETS = [SCENARIO_S2, draw_supercritical_params(np.random.default_rng(26))]


def faulty(fn, factor):
    """fn with its float result, or each float of its tuple, times factor."""
    def wrapped(*args):
        out = fn(*args)
        return tuple(x * factor for x in out) if isinstance(out, tuple) else out * factor
    return wrapped


@pytest.mark.parametrize("params", E0_SETS)
def test_e0_residual_catches_a_fault_in_the_quadratic_solver(monkeypatch, params):
    monkeypatch.setattr(model, "_quadratic_roots", faulty(model._quadratic_roots, SOLVER_FAULT))
    with pytest.raises(IntegrityError, match="uninfected equilibrium residual"):
        uninfected_equilibrium(params)


@pytest.mark.parametrize("params", ESTAR_SETS)
def test_polish_absorbs_a_fault_in_the_quadratic_solver(monkeypatch, params):
    # Three Newton steps on E*'s quadratic remove a fault in the solver's
    # roots, so the quadratic route still finds T* (up to about 1e-2
    # relative on s2; a larger fault moves the root out of (0, T_max]).
    # The radical route takes its roots from the same solver unpolished, so
    # its check catches the fault, as the E0 residual does.
    expected = infected_equilibrium(params).candidates[0].state.T
    monkeypatch.setattr(equilibria, "_quadratic_roots", faulty(equilibria._quadratic_roots, SOLVER_FAULT))
    with pytest.raises(IntegrityError, match="radical T") as raised:
        infected_equilibrium(params)
    polished = float(re.search(r"from quadratic root (\S+) by", str(raised.value)).group(1))
    assert polished == pytest.approx(expected, rel=1e-12)


def test_sweep_marks_cells_of_a_faulty_solver_invalid(monkeypatch):
    solve = sweep._quadratic_roots_array

    def faulty_array(a, b, d):
        x1, x2, real = solve(a, b, d)
        return x1 * SOLVER_FAULT, x2 * SOLVER_FAULT, real

    spec = SweepSpec(SCENARIO_S2, Axis("beta", 1e-8, 1e-6, 5, "log"))
    assert STATUS_INVALID not in run_sweep(spec).status
    monkeypatch.setattr(sweep, "_quadratic_roots_array", faulty_array)
    assert run_sweep(spec).status == [STATUS_INVALID] * 5


@pytest.mark.parametrize("params", ESTAR_SETS)
def test_estar_residual_rejects_a_fault_in_i_star(monkeypatch, params):
    # The residual check rejects a candidate rather than raising.
    fault = faulty(equilibria._infected_from_T, 1.0 + 10 * TOL.equilibrium_residual)
    monkeypatch.setattr(equilibria, "_infected_from_T", fault)
    report = infected_equilibrium(params)
    assert report.regime == REGIME_NONE and report.candidates == ()


@pytest.mark.parametrize("params", ESTAR_SETS)
def test_radical_check_catches_a_fault_in_the_closed_form(monkeypatch, params):
    # Both branches of the radical come from _radical_roots.
    fault = faulty(equilibria._radical_roots, 1.0 + 10 * TOL.t_star_radical)
    monkeypatch.setattr(equilibria, "_radical_roots", fault)
    with pytest.raises(IntegrityError, match="radical T"):
        infected_equilibrium(params)


@pytest.mark.parametrize("params", E0_SETS)
def test_e0_jacobian_check_catches_a_fault_in_the_general_jacobian(monkeypatch, params):
    general = stability._jacobian_entries

    def faulty_entries(*args):
        row0, (j10, j11, j12), row2 = general(*args)
        return row0, (j10, j11 * (1.0 + 10 * TOL.jacobian_agreement), j12), row2

    monkeypatch.setattr(stability, "_jacobian_entries", faulty_entries)
    with pytest.raises(IntegrityError, match=r"J\(E0\) deviates"):
        uninfected_local(params)


@pytest.mark.parametrize("params", ESTAR_SETS)
def test_coefficient_check_catches_a_fault_in_a_closed_form(monkeypatch, params):
    point = infected_equilibrium(params).candidates[0]
    closed = stability._closed_coefficients

    def faulty_coefficients(*args):
        a1, a2, a3 = closed(*args)
        return a1, a2 * (1.0 + 10 * TOL.char_coeff_integrity), a3

    monkeypatch.setattr(stability, "_closed_coefficients", faulty_coefficients)
    with pytest.raises(IntegrityError, match="minor expansion"):
        characteristic_coefficients(params, point)


@pytest.mark.parametrize("params", E0_SETS)
def test_r0_routes_catch_a_fault_in_the_closed_form(monkeypatch, params):
    fault = faulty(reproduction.r0_from_T0, 1.0 + 10 * TOL.r0_agreement)
    monkeypatch.setattr(reproduction, "r0_from_T0", fault)
    with pytest.raises(IntegrityError, match="disagrees with closed-form r0"):
        r0_spectral(params)


@pytest.mark.parametrize("params", E0_SETS)
def test_lyapunov_routes_catch_a_fault_in_the_gradient_route(monkeypatch, params):
    rate = stability._lyapunov_rate

    def faulty_rate(*args):
        value, scale = rate(*args)
        return value * (1.0 + 10 * TOL.lyapunov_agreement), scale

    monkeypatch.setattr(stability, "_lyapunov_rate", faulty_rate)
    with pytest.raises(IntegrityError, match="Lyapunov derivative routes disagree"):
        lyapunov_uninfected(params, DEFAULT_INITIAL_STATE)


@pytest.mark.parametrize("params", [SCENARIO_S1, SCENARIO_S2])
def test_certificate_v_check_catches_a_fault_in_the_e0_weight(monkeypatch, params):
    # The E0 grid drops the V axis because the weight cancels every V term;
    # a wrong weight leaves them in, and the rates at the ends of the V axis
    # then differ from the rate at V = 0.  The check compares each pair
    # against its own term scale, so it sees a fault of ten margins in the
    # weight where the V terms carry a pair's scale, as on s1 and s2.  On
    # the seeded draw of E0_SETS they stay below b T0 V_max = 1.4, and the
    # same fault moves no pair's rate by more than 2e-3 of its margin.
    weight = faulty(stability._lyapunov_weight, 1.0 + 10 * TOL.certificate_margin)
    monkeypatch.setattr(stability, "_lyapunov_weight", weight)
    with pytest.raises(IntegrityError, match="E0 Lyapunov derivative depends on V"):
        certify_global(params, "E0", 20)


def bound_rows(monkeypatch, grid_points=20):
    """Send E* through the row bounds at grid_points, and count their calls.

    The kept lines' rows are bounded only when they hold more points than
    one block, so a block of one V row takes every grid of more than one
    kept pair there."""
    monkeypatch.setattr(stability, "_CERTIFICATE_BLOCK", grid_points)
    kept_rows, calls = _rowbounds.kept_rows, []

    def counted(*args):
        calls.append(len(args[4]))
        return kept_rows(*args)

    monkeypatch.setattr(_rowbounds, "kept_rows", counted)
    return calls


@pytest.mark.parametrize("params", ESTAR_SETS)
def test_certificate_row_bounds_catch_a_low_rate_bound(monkeypatch, params):
    # The E* certificate scans only the V rows whose bounds can reach its
    # peak or its tolerance, and checks every rate it evaluates against its
    # row's bound.  A bound ten allowances too low falls below the rate at
    # the end of a V row where that row peaks.
    # On the seeded draw a line's seed is caught first (see below).
    bound_rows(monkeypatch)
    monkeypatch.setattr(_rowbounds, "ALLOWANCE", -9 * _rowbounds.ALLOWANCE)
    with pytest.raises(IntegrityError, match="exceeds the bound of its"):
        certify_global(params, "Estar", 20)


@pytest.mark.parametrize("params", ESTAR_SETS)
def test_certificate_row_bounds_catch_a_low_scale_bound(monkeypatch, params):
    # The term-scale bound needs no allowance.  Halved, it falls below the
    # term scale at an end of some V row: those reach 0.95 of their bound
    # on s2 and 0.90 on the seeded draw at N = 20.
    bounds = _rowbounds.bounds

    def halved(*args):
        rate, scale, vertex = bounds(*args)
        return rate, 0.5 * scale, vertex

    calls = bound_rows(monkeypatch)
    monkeypatch.setattr(_rowbounds, "bounds", halved)
    with pytest.raises(IntegrityError, match=r"exceeds the bound of its \(T, I\) row"):
        certify_global(params, "Estar", 20)
    assert calls


@pytest.mark.parametrize("params", ESTAR_SETS)
def test_certificate_row_bounds_catch_a_fault_in_a_scanned_row(monkeypatch, params):
    # The bounds' seeds are right; the rows the certificate scans carry a
    # term scale twice the true one, which passes the scale bound on the
    # row of the grid's scale peak.
    rate = stability._lyapunov_rate

    def doubled_on_rows(params, target, anchor, T, I, V):
        value, scale = rate(params, target, anchor, T, I, V)
        if np.ndim(V) == 1:  # a scanned row; the seeds take a V column per pair
            scale = 2.0 * scale
        return value, scale

    calls = bound_rows(monkeypatch)
    monkeypatch.setattr(stability, "_lyapunov_rate", doubled_on_rows)
    with pytest.raises(IntegrityError, match=r"exceeds the bound of its \(T, I\) row"):
        certify_global(params, "Estar", 20)
    assert calls


# The E0 sets, and E*'s seeded draw: on s2 no E* seed comes within 170
# allowances of its T line's bound (N = 20 to 60), where the rows' bounds
# are tight enough to catch the same fault (the row-bound test above).
LINE_ALLOWANCE_SETS = [(params, "E0") for params in E0_SETS] + [(ESTAR_SETS[1], "Estar")]
LINE_SETS = [(params, "E0") for params in E0_SETS] + [(params, "Estar") for params in ESTAR_SETS]


@pytest.mark.parametrize("params, target", LINE_ALLOWANCE_SETS)
def test_certificate_line_bounds_catch_a_low_rate_bound(monkeypatch, params, target):
    # Each T line is bounded before its (T, I) pairs are built, and its
    # seeds' rates are checked against the bound.  A bound ten allowances
    # too low falls below a seed where the line's bound is tight: E0's
    # concave quadratic in I peaks at a seed on some line, one allowance
    # below its bound, and on the seeded draw an E* seed comes within 1.3
    # allowances of its line's bound at N = 20.
    monkeypatch.setattr(_rowbounds, "ALLOWANCE", -9 * _rowbounds.ALLOWANCE)
    with pytest.raises(IntegrityError, match="exceeds the bound of its T line"):
        certify_global(params, target, 20)


@pytest.mark.parametrize("params, target", LINE_SETS)
def test_certificate_line_bounds_catch_a_low_scale_bound(monkeypatch, params, target):
    # The term-scale bound takes each factor at its worst end of the line's
    # box; a seed reaches 0.9995 of it or more on these sets at N = 20.
    line_bounds = _rowbounds.line_bounds

    def halved(*args):
        rate, scale, *rest = line_bounds(*args)
        return rate, 0.5 * scale, *rest

    monkeypatch.setattr(_rowbounds, "line_bounds", halved)
    with pytest.raises(IntegrityError, match="exceeds the bound of its T line"):
        certify_global(params, target, 20)


@pytest.mark.parametrize("params", E0_SETS)
def test_certificate_checks_each_scanned_e0_pair_against_its_line(monkeypatch, params):
    # The seeds pass their lines' bounds; the bounds the scan then gets are
    # half the true scale bounds, which the pairs of the line that holds
    # the grid's scale peak pass.
    kept_lines = _rowbounds.kept_lines

    def halved_after_the_seeds(*args):
        lines, rate, scale, allowance = kept_lines(*args)
        return lines, rate, 0.5 * scale, allowance

    monkeypatch.setattr(_rowbounds, "kept_lines", halved_after_the_seeds)
    with pytest.raises(IntegrityError, match="exceeds the bound of its T line"):
        certify_global(params, "E0", 20)


@pytest.mark.parametrize("params", ESTAR_SETS)
def test_certificate_checks_each_scanned_estar_row_against_its_line(monkeypatch, params):
    # At N = 20 the kept lines' rows fit in one block, so E* scans them
    # without row bounds.  As for E0 above, the scan gets half the true
    # scale bounds of the lines, which the rows of the line that holds the
    # grid's scale peak pass.
    kept_lines, kept_rows = _rowbounds.kept_lines, []

    def halved_after_the_seeds(*args):
        lines, rate, scale, allowance = kept_lines(*args)
        return lines, rate, 0.5 * scale, allowance

    monkeypatch.setattr(_rowbounds, "kept_lines", halved_after_the_seeds)
    monkeypatch.setattr(_rowbounds, "kept_rows", lambda *args: kept_rows.append(args))
    with pytest.raises(IntegrityError, match="exceeds the bound of its T line"):
        certify_global(params, "Estar", 20)
    assert kept_rows == []
