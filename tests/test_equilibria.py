"""Uninfected and infected equilibria: closed forms, roots, regimes."""

import math
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest

from conftest import E0_WITHIN_AN_ULP, OVERFLOWING_CONSTANT_TERM, bisect_root, draw_params, draw_supercritical_params

from hcvdyn import (
    REGIME_NONE,
    REGIME_UNIQUE,
    SCENARIO_S1,
    SCENARIO_S2,
    Axis,
    DomainError,
    ModelParameters,
    SweepSpec,
    certify_global,
    existence_regime,
    infected_equilibrium,
    infected_T_closed_form,
    r0,
    residual_norm,
    run_sweep,
    stability_report,
    uninfected_equilibrium,
)
from hcvdyn.equilibria import _radical, _root_within_an_ulp, equilibrium_quadratic
from hcvdyn.model import _quadratic_roots, derive_constants
from hcvdyn.sweep import STATUS_INVALID


def test_uninfected_reference_values():
    assert uninfected_equilibrium(SCENARIO_S1).state.T == pytest.approx(
        9800204.077382902, rel=1e-12
    )
    assert uninfected_equilibrium(SCENARIO_S2).state.T == pytest.approx(
        9950005.02512309, rel=1e-12
    )


def test_uninfected_matches_bisection_oracle():
    for params in (SCENARIO_S1, SCENARIO_S2):
        def f(T, params=params):
            return params.s + (params.r_T - params.d_T) * T - params.r_T / params.T_max * T * T

        root = bisect_root(f, 1.0, 10.0 * params.T_max)
        T0 = uninfected_equilibrium(params).state.T
        assert abs(T0 - root) <= 1e-10 * root


def test_uninfected_degenerate_branches():
    # Without proliferation the steady state is source over death.
    params = replace(SCENARIO_S1, r_T=0.0)
    assert uninfected_equilibrium(params).state.T == pytest.approx(
        params.s / params.d_T, rel=1e-15
    )
    # Without proliferation, death, or source there is nothing to balance.
    empty = replace(SCENARIO_S1, r_T=0.0, d_T=0.0, s=0.0)
    assert uninfected_equilibrium(empty).state.T == 0.0
    with pytest.raises(DomainError):
        uninfected_equilibrium(replace(SCENARIO_S1, r_T=0.0, d_T=0.0))


def test_uninfected_refuses_a_non_finite_t0():
    # r_T/T_max overflows, so the logistic root is inf/inf = NaN.
    with pytest.raises(DomainError, match="T0 is not finite"):
        uninfected_equilibrium(replace(SCENARIO_S1, T_max=5e-324))


ULP_ROOT = replace(SCENARIO_S1, **E0_WITHIN_AN_ULP)


def test_uninfected_accepts_a_root_within_an_ulp():
    point = uninfected_equilibrium(ULP_ROOT)
    assert point.state.T == ULP_ROOT.T_max
    assert point.residual_norm == 1.0


# s > 0, so the E0 root is positive, but it is about s/d_T = 1e-511: below the
# smallest subnormal.  The closed form returns 0.0, which the one-ulp bracket
# used to accept as E0 = (0, 0, 0) with residual 1.0.
E0_UNDERFLOWS = replace(
    SCENARIO_S1, s=1.315984862854064e-263, r_T=2.618502923278814e+158,
    d_T=1.0301890244408551e+248, T_max=2.4058085303302554e+249,
)


def test_an_e0_root_below_the_smallest_subnormal_is_refused_everywhere():
    for route in (uninfected_equilibrium, r0):
        with pytest.raises(DomainError, match="T0 underflows"):
            route(E0_UNDERFLOWS)
    with pytest.raises(DomainError):
        stability_report(E0_UNDERFLOWS)
    spec = SweepSpec(base=E0_UNDERFLOWS, axis1=Axis(name="eta", lo=E0_UNDERFLOWS.eta, hi=0.9, n=2))
    assert run_sweep(spec).status == [STATUS_INVALID, STATUS_INVALID]
    # Without a source the root is 0 itself.
    assert uninfected_equilibrium(replace(E0_UNDERFLOWS, s=0.0)).state.T == 0.0


def test_root_bracket_compares_signs():
    # dT/dt = s = 1e-200 on both sides: their product underflows to 0, but
    # no sign change brackets a root.
    flat = replace(SCENARIO_S1, s=1e-200, r_T=0.0, d_T=0.0)
    assert not _root_within_an_ulp(flat, 1.0, 2.0)
    assert not _root_within_an_ulp(ULP_ROOT, math.nan, math.nan)
    T0 = ULP_ROOT.T_max
    assert _root_within_an_ulp(ULP_ROOT, math.nextafter(T0, 0.0), math.nextafter(T0, math.inf))


def test_uninfected_state_is_a_steady_state():
    point = uninfected_equilibrium(SCENARIO_S2)
    assert point.state.I == 0.0 and point.state.V == 0.0
    assert point.residual_norm <= 1e-9


def test_equilibrium_quadratic_reference_coefficients():
    a1, b1, d1 = equilibrium_quadratic(SCENARIO_S1, derive_constants(SCENARIO_S1))
    assert a1 == pytest.approx(-1.955356682232174e-07, rel=1e-12)
    assert b1 == pytest.approx(4.177570943392861, rel=1e-12)
    assert d1 == pytest.approx(-21785704.285714284, rel=1e-12)

    a2, b2, d2 = equilibrium_quadratic(SCENARIO_S2, derive_constants(SCENARIO_S2))
    assert a2 == pytest.approx(-6.9407545337000005e-06, rel=1e-12)
    assert b2 == pytest.approx(34.985757355000004, rel=1e-12)
    assert d2 == pytest.approx(-30714275.714285716, rel=1e-12)


def test_no_infected_equilibrium_below_threshold():
    report = infected_equilibrium(SCENARIO_S1)
    assert report.regime == REGIME_NONE
    assert report.candidates == ()


def test_unique_infected_equilibrium_reference_values():
    report = infected_equilibrium(SCENARIO_S2)
    assert report.regime == REGIME_UNIQUE
    (point,) = report.candidates
    assert point.state.T == pytest.approx(3908396.5694500306, rel=1e-10)
    assert point.state.I == pytest.approx(4441870.023766153, rel=1e-10)
    assert point.state.V == pytest.approx(8882851.673527552, rel=1e-10)
    assert point.residual_norm <= 1e-8
    # Production balance (1 - epsilon) p I* = c V* holds exactly.
    p_eff = (1.0 - SCENARIO_S2.epsilon) * SCENARIO_S2.p
    assert p_eff * point.state.I == pytest.approx(SCENARIO_S2.c * point.state.V, rel=1e-15)


def test_radical_closed_form_matches_root():
    report = infected_equilibrium(SCENARIO_S2)
    closed = infected_T_closed_form(SCENARIO_S2)
    assert closed == pytest.approx(report.candidates[0].state.T, rel=1e-9)
    assert report.closed_form_T == pytest.approx(closed, rel=1e-15)
    assert report.closed_form_rel_diff <= 1e-9


def test_radical_cross_check_uses_the_nearer_branch():
    # E* is the smaller root here, on the -sqrt branch of the radical form;
    # the +sqrt branch (about 1.23e7) is no steady state.
    params = ModelParameters(
        s=5640.0, r_T=0.00962, r_I=0.399, d_T=0.00898, d_I=0.0353, T_max=5.6e6,
        beta=1.34e-8, p=18.1, c=21.3, q=0.0885, eta=0.205, epsilon=0.0754,
    )
    report = infected_equilibrium(params)
    assert report.regime == REGIME_UNIQUE
    T_star = report.candidates[0].state.T
    assert T_star == pytest.approx(3944671.275, rel=1e-9)
    # Both branches are the roots the shared solver gives for the radical's
    # own quadratic; the report carries the smaller.
    x1, x2 = _quadratic_roots(*_radical(params, derive_constants(params)))
    assert infected_T_closed_form(params) == max(x1, x2)
    assert report.closed_form_T == min(x1, x2)
    assert report.closed_form_rel_diff <= 1e-9


# draw_params(np.random.default_rng(7)), draw 1529: the other root of E*'s
# quadratic is 1.43e12, about 2.6e8 times T*.  The textbook radical,
# (1/2) (-D/H + sqrt((D/H)^2 + G)) and its Vieta partner, cancelled to
# 5581.016357421875 and its cross-check raised at relative 4.7e-9.
FAR_OTHER_ROOT = ModelParameters(
    s=2185.0321735216853, r_T=0.0025077385819624954, r_I=0.10574076309273685,
    d_T=0.607866865393771, d_I=0.014084290940136574, T_max=151897.15483804976,
    beta=1.1308660201217082e-08, p=0.013571394300483807, c=5.9423769574003975,
    q=0.010905605146507236, eta=0.8648843738615724, epsilon=0.8733255213868786,
)
# E*'s T, the smaller root of equilibrium_quadratic's coefficients taken
# exactly from the float parameters, to 80 digits (decimal module).
FAR_OTHER_ROOT_T = Decimal(
    "5581.0163837861434625996949254428811980285254370194795663151540665513044551835191"
)


def test_radical_cross_check_holds_where_the_other_root_is_far():
    report = infected_equilibrium(FAR_OTHER_ROOT)
    (point,) = report.candidates
    exact = float(FAR_OTHER_ROOT_T)
    assert point.state.T == pytest.approx(exact, rel=2e-16)
    assert report.closed_form_T == pytest.approx(exact, rel=2e-16)
    assert report.closed_form_rel_diff <= 1e-15


def test_radical_cross_check_agrees_to_1e_12_on_plausible_sets():
    rng = np.random.default_rng(7)
    reported = 0
    for _ in range(20_000):
        diff = infected_equilibrium(draw_params(rng)).closed_form_rel_diff
        if diff is not None:
            assert diff <= 1e-12
            reported += 1
    assert reported > 1000


def test_random_supercritical_sets_have_verified_equilibria():
    rng = np.random.default_rng(20260814)
    for _ in range(30):
        params = draw_supercritical_params(rng)
        report = infected_equilibrium(params)
        assert report.regime == REGIME_UNIQUE
        (point,) = report.candidates
        assert point.state.strictly_positive
        assert point.residual_norm <= 1e-8
        # The T root satisfies the reduced quadratic to roundoff.
        a, b, d = equilibrium_quadratic(params, derive_constants(params))
        T = point.state.T
        scale = abs(a * T * T) + abs(b * T) + abs(d)
        assert abs(a * T * T + b * T + d) <= 1e-10 * scale


def test_existence_regime_reports_criteria_and_disagreements():
    report = existence_regime(SCENARIO_S2)
    assert report.regime == REGIME_UNIQUE
    assert report.r0 == pytest.approx(2.4877037105528053, rel=1e-12)
    assert report.criteria["r0_above_one"] is True
    # The constant-term criterion predicts no equilibrium here although a
    # verified one exists; the report flags that is a disagreement instead
    # of failing.
    assert report.criteria["constant_term_positive"] is False
    assert "constant_term_positive" in report.disagreements

    subcritical = existence_regime(SCENARIO_S1)
    assert subcritical.regime == REGIME_NONE
    assert subcritical.criteria["r0_above_one"] is False
    assert "r0_above_one" not in subcritical.disagreements


def test_existence_regime_refuses_a_non_finite_constant_term():
    # The constant term of the E* quadratic overflows; infected_equilibrium
    # used to return existence_condition = -inf and rejected_T_roots = (inf,).
    params = ModelParameters(**OVERFLOWING_CONSTANT_TERM)
    for route in (infected_equilibrium, existence_regime):
        with pytest.raises(DomainError, match="existence_condition is not finite: -inf"):
            route(params)


# A whole-domain set whose kept E* root gives V* = inf.
INFINITE_VSTAR = ModelParameters(
    s=9.457512730893574e178, r_T=2.2491417000201497e-83, r_I=7.001732560034088e202,
    d_T=1.4653916836728986e121, d_I=7.716470087406847e99, T_max=2.1700509020896067e101,
    beta=1.2472986773327517e-286, p=3.512894044934534e238, c=5.604022371967061e96,
    q=5e-324, eta=0.5879537893122085, epsilon=0.6998521582595274,
)


def test_a_non_finite_infected_equilibrium_is_a_domain_error():
    # It used to reach State and raise ParameterError: V must be finite.
    routes = (infected_equilibrium, stability_report, lambda p: certify_global(p, "Estar", 4))
    for route in routes:
        with pytest.raises(DomainError, match="infected equilibrium is not finite"):
            route(INFINITE_VSTAR)
    eta = INFINITE_VSTAR.eta
    spec = SweepSpec(base=INFINITE_VSTAR, axis1=Axis(name="eta", lo=eta, hi=0.9, n=2))
    assert run_sweep(spec).status[0] == STATUS_INVALID


# A whole-domain set whose field at T0 overflows: r_T T0 is inf and the
# crowding factor rounds to 0, so dT/dt is NaN.
OVERFLOWING_FIELD_AT_T0 = ModelParameters(
    s=0.0, r_T=1.409058331347511e112, r_I=0.0, d_T=4.6873395417921403e98,
    d_I=4.930934129455052e-82, T_max=1.5273671494710102e232, beta=1.125508459642639e-275,
    p=7.486207118539219e93, c=7.238403762695502e119, q=5e-324,
    eta=0.9015882069153618, epsilon=0.08196640349463058,
)


def test_a_field_that_leaves_the_float_range_at_t0_is_a_domain_error():
    # The NaN component used to be skipped, so T0 came back with residual 0.0.
    params = OVERFLOWING_FIELD_AT_T0
    T0 = 1.5273671494709594e232
    assert residual_norm(params, (T0, 0.0, 0.0)) == math.inf
    for route in (uninfected_equilibrium, r0):
        with pytest.raises(DomainError, match="vector field at T0 leaves the float range"):
            route(params)
    spec = SweepSpec(base=params, axis1=Axis(name="eta", lo=params.eta, hi=0.95, n=2), outputs=("r0",))
    assert run_sweep(spec).status == [STATUS_INVALID, STATUS_INVALID]


# C pow rounds this T_max**2 to 25937581136744.508; the product is correctly
# rounded, 25937581136744.51.
POW_MISROUNDS_T_MAX_SQUARED = ModelParameters(
    s=76348.20608617018, r_T=0.362286594360993, r_I=0.09253983841826187,
    d_T=0.0016272059582477531, d_I=0.05388728587875255, T_max=5092895.162551897,
    beta=1.728204457122375e-07, p=13.526326076329319, c=1.546343648072833,
    q=0.16120784583519443, eta=0.4529636573012123, epsilon=0.42885723822859656,
)


def test_t_max_is_squared_by_multiplication():
    params = POW_MISROUNDS_T_MAX_SQUARED
    cons = derive_constants(params)
    T_max, r_I, r_T = params.T_max, params.r_I, params.r_T
    assert cons.F == 4.0 * params.q * (T_max * T_max) * (r_I - cons.delta) / (r_I * r_T * cons.H)
    # With pow's square the radical lands at 408873.9952454951, one ulp
    # farther from E*.
    report = infected_equilibrium(params)
    assert report.closed_form_T == 408873.99524549505
    assert report.closed_form_rel_diff == 1.4236087789960457e-16


def test_rejected_roots_are_reported():
    report = infected_equilibrium(SCENARIO_S1)
    # The quadratic still has real roots; each fails range or positivity.
    assert report.rejected_T_roots
    constants = derive_constants(SCENARIO_S1)
    for T in report.rejected_T_roots:
        in_range = 0.0 < T <= SCENARIO_S1.T_max * (1.0 + 1e-12)
        I = (constants.A / SCENARIO_S1.r_I - 1.0) * T + SCENARIO_S1.T_max * (
            1.0 - constants.delta / SCENARIO_S1.r_I
        )
        assert not in_range or I <= 0.0


def test_closed_form_requires_nonzero_curvature():
    # A = r_I - r_T makes H vanish exactly and degenerates the radical.
    params = replace(
        SCENARIO_S1, r_T=0.1, r_I=0.6, beta=1e-7, p=1.0, c=2.0, eta=0.0, epsilon=0.0, T_max=1e7
    )
    constants = derive_constants(params)
    assert constants.A == 0.5
    assert constants.H == 0.0
    assert constants.F is None
    with pytest.raises(DomainError):
        infected_T_closed_form(params)


def test_states_rejected_outside_cell_cap():
    # A quadratic root above T_max is not a biologically admissible T*.
    rng = np.random.default_rng(5)
    for _ in range(10):
        params = draw_supercritical_params(rng)
        report = infected_equilibrium(params)
        for point in report.candidates:
            assert point.state.T <= params.T_max * (1.0 + 1e-12)
