"""Parameter validation, derived constants, and vector-field algebra."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import draw_params, fd_jacobian

from hcvdyn import (
    SCENARIO_S1,
    SCENARIO_S2,
    DomainError,
    ModelParameters,
    ParameterError,
    State,
    derive_constants,
    jacobian,
    residual_norm,
    vector_field,
)
from hcvdyn.model import (
    PARAMETER_NAMES,
    _region,
    assumption_warnings,
    field_function,
    positive_logistic_root,
    validate,
)
from hcvdyn.sweep import _is_valid


def replace(params, **kw):
    from dataclasses import replace as _replace

    return _replace(params, **kw)


def test_parameter_validation_rejects_bad_values():
    with pytest.raises(ParameterError):
        replace(SCENARIO_S1, s=-1.0)
    with pytest.raises(ParameterError):
        replace(SCENARIO_S1, T_max=0.0)
    with pytest.raises(ParameterError):
        replace(SCENARIO_S1, c=0.0)
    with pytest.raises(ParameterError):
        replace(SCENARIO_S1, eta=1.0)
    with pytest.raises(ParameterError):
        replace(SCENARIO_S1, epsilon=-0.1)
    with pytest.raises(ParameterError):
        replace(SCENARIO_S1, beta=math.nan)
    with pytest.raises(ParameterError):
        replace(SCENARIO_S1, p=math.inf)


# Zeros of both signs, subnormals, the rounding edge below 1, the float
# range's ends and the non-finite values.
EDGE_VALUES = (
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e-300, 1.0 - 2.0**-53, 1.0, -1.0, 1e308, -1e308, 1.7976931348623157e308,
)


def _constructs(name, value):
    try:
        replace(SCENARIO_S2, **{name: value})
    except ParameterError:
        return False
    return True


def test_field_check_agrees_with_construction_on_edge_values():
    for name in PARAMETER_NAMES:
        for value in EDGE_VALUES:
            assert _is_valid(name, value) is _constructs(name, value), (name, value)


@settings(max_examples=500, deadline=None)
@given(name=st.sampled_from(PARAMETER_NAMES), value=st.floats())
def test_field_check_agrees_with_construction(name, value):
    assert _is_valid(name, value) is _constructs(name, value)


@pytest.mark.parametrize("updates, message", [
    # Every field is finite before any range rule runs.
    ({"beta": math.nan, "s": -1.0}, "beta must be finite, got nan"),
    ({"s": -1.0, "p": "x"}, "p must be a real number, got 'x'"),
    # The nonnegative rates come first, then T_max, c > 0 and the efficacies.
    ({"T_max": 0.0, "q": -1.0}, "q must be nonnegative, got -1.0"),
    ({"T_max": 0.0, "c": -1.0}, "c must be nonnegative, got -1.0"),
    ({"T_max": 0.0, "c": 0.0}, "T_max must be positive, got 0.0"),
    ({"c": -0.0, "eta": 1.0}, "c must be positive, got -0.0"),
    ({"epsilon": -0.5, "eta": 1.0}, "eta must lie in [0, 1), got 1.0"),
])
def test_first_error_of_a_set_with_several_bad_fields(updates, message):
    with pytest.raises(ParameterError) as excinfo:
        replace(SCENARIO_S2, **updates)
    assert str(excinfo.value) == message


def test_parameters_coerce_to_float():
    params = replace(SCENARIO_S1, p=1)
    assert isinstance(params.p, float)
    assert params.p == 1.0


def test_parameter_names_cover_all_fields():
    assert set(PARAMETER_NAMES) == {
        "s", "r_T", "r_I", "d_T", "d_I", "T_max", "beta", "p", "c", "q", "eta", "epsilon",
    }


def test_validate_flags_fast_infected_proliferation():
    # S1 has r_I > r_T, which voids the invariant-region comparison bound.
    warnings = validate(SCENARIO_S1)
    assert any("r_I" in w and "r_T" in w for w in warnings)
    assert any("r_I" in w for w in assumption_warnings(SCENARIO_S1))


def test_state_iterates_in_order():
    state = State(3.0, 2.0, 1.0)
    assert tuple(state) == (3.0, 2.0, 1.0)
    assert state.nonnegative
    assert state.strictly_positive
    assert not State(0.0, 0.0, 0.0).strictly_positive
    assert State(0.0, 0.0, 0.0).nonnegative


def test_positive_logistic_root_matches_quadratic():
    rng = np.random.default_rng(20260814)
    for _ in range(200):
        s = float(10.0 ** rng.uniform(-3, 3))
        g = float(rng.uniform(-2.0, 2.0))
        k = float(10.0 ** rng.uniform(-8, 0))
        root = positive_logistic_root(s, g, k)
        assert root > 0
        # The residual scaled by the terms' magnitudes stays at roundoff.
        scale = s + abs(g * root) + k * root * root
        assert abs(s + g * root - k * root * root) <= 1e-13 * scale


def test_positive_logistic_root_stable_for_negative_growth():
    # g < 0 with tiny s k: the naive (g + sqrt(g^2 + 4 s k)) / (2k) cancels.
    root = positive_logistic_root(1e-8, -1.0, 1e-10)
    assert root == pytest.approx(1e-8, rel=1e-12)
    assert positive_logistic_root(0.0, -1.0, 1.0) == 0.0


def test_derived_constants_reference_values():
    c1 = derive_constants(SCENARIO_S1)
    assert c1.theta == pytest.approx(1.0999999899841129e-07, rel=1e-12)
    assert c1.delta == pytest.approx(0.6, rel=1e-15)
    assert c1.A == pytest.approx(0.4999999450000005, rel=1e-14)
    assert c1.H == pytest.approx(39.107133644643476, rel=1e-13)
    assert c1.D == pytest.approx(-835514188.6785724, rel=1e-12)
    assert c1.F == pytest.approx(-445662205441605.56, rel=1e-12)

    c2 = derive_constants(SCENARIO_S2)
    assert c2.theta == pytest.approx(0.00019998999999992773, rel=1e-12)
    assert c2.delta == pytest.approx(0.8, rel=1e-15)
    assert c2.A == pytest.approx(1.9996000200000001, rel=1e-14)
    assert c2.H == pytest.approx(34.7037726685, rel=1e-13)
    assert c2.D == pytest.approx(-174928786.775, rel=1e-12)
    assert c2.F == pytest.approx(-17700833859002.613, rel=1e-12)


def test_derive_constants_do_not_depend_on_the_region_ceiling():
    # The T + I ceiling, about (r_T - d_T) T_max / r_I = 8.9e308, is beyond
    # the float range here, and is 0 in the second set; neither is a derived
    # constant, so both sets have their constants.
    unbounded = replace(SCENARIO_S1, r_T=1e301)
    assert _region(unbounded)[0] == math.inf
    assert derive_constants(unbounded).A == derive_constants(SCENARIO_S1).A
    collapsed = replace(SCENARIO_S1, s=1e-300, d_T=1e50)
    assert _region(collapsed)[0] == 0.0
    assert derive_constants(collapsed).H == derive_constants(SCENARIO_S1).H


def test_derive_constants_needs_positive_proliferation():
    with pytest.raises(DomainError):
        derive_constants(replace(SCENARIO_S1, r_I=0.0))
    with pytest.raises(DomainError):
        derive_constants(replace(SCENARIO_S1, r_T=0.0))


def test_derive_constants_raise_when_t_max_squared_overflows():
    # T_max * T_max is inf from about 1.34e154 on, and the finiteness check
    # sees it.
    with pytest.raises(DomainError, match="not finite"):
        derive_constants(replace(SCENARIO_S2, T_max=1e200))


def test_vector_field_components():
    # Hand-evaluated at a small state so every term matters.
    params = SCENARIO_S1
    T, I, V = 1000.0, 2.0, 1.0
    crowding = 1.0 - (T + I) / params.T_max
    expected = np.array(
        [
            params.s + params.r_T * T * crowding - params.d_T * T
            - (1 - params.eta) * params.beta * V * T + params.q * I,
            params.r_I * I * crowding - params.d_I * I
            + (1 - params.eta) * params.beta * V * T - params.q * I,
            (1 - params.epsilon) * params.p * I - params.c * V,
        ]
    )
    assert vector_field(params, (T, I, V)) == pytest.approx(expected, rel=1e-15)


def test_vector_field_rejects_non_finite_states():
    with pytest.raises(DomainError):
        vector_field(SCENARIO_S1, (math.nan, 1.0, 1.0))
    with pytest.raises(DomainError):
        vector_field(SCENARIO_S1, (1.0, math.inf, 1.0))


def test_field_function_matches_vector_field():
    rng = np.random.default_rng(7)
    for _ in range(20):
        params = draw_params(rng)
        f = field_function(params)
        y = tuple(float(10.0 ** rng.uniform(0, 7)) for _ in range(3))
        assert np.allclose(f(0.0, y), vector_field(params, y), rtol=1e-15, atol=0.0)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(25):
        params = draw_params(rng)
        y = [float(10.0 ** rng.uniform(1, 7)) for _ in range(3)]
        J = jacobian(params, y)
        J_fd = fd_jacobian(params, y)
        scale = np.abs(J).max()
        assert np.abs(J - J_fd).max() <= 2e-5 * scale


def test_residual_norm_is_zero_scale_free():
    # The uninfected steady state has residual at roundoff despite T ~ 1e7.
    from hcvdyn import uninfected_equilibrium

    point = uninfected_equilibrium(SCENARIO_S1)
    assert residual_norm(SCENARIO_S1, point.state) < 1e-12
    # A state far from equilibrium has residual of order one.
    assert residual_norm(SCENARIO_S1, (1.0, 1.0, 1.0)) > 1e-3


@pytest.mark.parametrize("updates, message", [
    # r_I r_T underflows to 0, and H divides by it.
    ({"r_T": 5e-324}, "r_I r_T > 0"),
    # H is about -2.5e-34, but r_I r_T H underflows to 0, and F divides by it.
    ({"r_I": 2e-150, "r_T": 1e-150, "beta": 1e-190}, "r_I r_T H underflows"),
])
def test_underflowing_rate_products_raise_domain_error(updates, message):
    with pytest.raises(DomainError, match=message):
        derive_constants(replace(SCENARIO_S1, **updates))
