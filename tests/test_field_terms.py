"""The field's terms, written once, against the expressions that preceded them.

reference_field and reference_term_scales are the field and the term-scale
expressions as they were written out before model._field_terms; the
reference residuals are residual_norm and the sweep kernel's _residual
built on them.  Over the whole parameter domain and states of either sign
from 1e-300 to 1e300, 0 and the smallest subnormal, and over plausible sets
and states, _field, the integrators' field_function closure, residual_norm
and sweep._residual must equal them bit for bit, on Python floats and on
arrays, with any NaN counted equal to any NaN.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import any_value

from hcvdyn import PARAMETER_NAMES, SCENARIO_S1, DomainError, ModelParameters
from hcvdyn import jacobian, residual_norm, vector_field
from hcvdyn.model import PLAUSIBLE_RANGES, _field, field_function
from hcvdyn.sweep import _residual


def reference_field(params, T, I, V):
    crowding = 1.0 - (T + I) / params.T_max
    infection = (1.0 - params.eta) * params.beta * V * T
    return (
        params.s + params.r_T * T * crowding - params.d_T * T - infection + params.q * I,
        params.r_I * I * crowding - params.d_I * I + infection - params.q * I,
        (1.0 - params.epsilon) * params.p * I - params.c * V,
    )


def reference_term_scales(params, T, I, V):
    crowding = 1.0 - (T + I) / params.T_max
    infection = abs((1.0 - params.eta) * params.beta * V * T)
    return (
        params.s + abs(params.r_T * T * crowding) + abs(params.d_T * T) + infection + abs(params.q * I),
        abs(params.r_I * I * crowding) + abs(params.d_I * I) + infection + abs(params.q * I),
        abs((1.0 - params.epsilon) * params.p * I) + abs(params.c * V),
    )


def reference_residual_norm(params, T, I, V):
    worst = 0.0
    for value, scale in zip(reference_field(params, T, I, V), reference_term_scales(params, T, I, V)):
        if not math.isfinite(value):
            worst = math.inf
        elif scale > 0.0:
            worst = max(worst, abs(value) / scale)
        elif value != 0.0:
            worst = math.inf
    return worst


def reference_sweep_residual(params, T, I, V):
    worst = 0.0
    for value, scale in zip(reference_field(params, T, I, V), reference_term_scales(params, T, I, V)):
        ratio = np.where(scale > 0.0, abs(value) / scale, np.where(value != 0.0, np.inf, 0.0))
        ratio = np.where(np.isfinite(value), ratio, np.inf)
        worst = np.where(ratio > worst, ratio, worst)
    return worst


def bits(values):
    """The float64 bit patterns of values, with every NaN as one pattern."""
    x = np.asarray(values, dtype=np.float64)
    return np.where(np.isnan(x), np.nan, x).view(np.int64).tolist()


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)


# Plausible sets and states give terms of comparable size, where the order
# of the additions shows in the last bits.
RANGES = dict(PLAUSIBLE_RANGES, q=(1e-3, 1.0), r_I=(1e-3, 3.4))
magnitudes = log_uniform(1e-300, 1e300) | log_uniform(1e-3, 1e8) | st.sampled_from([0.0, 5e-324])
coordinates = st.tuples(magnitudes, st.sampled_from([1.0, -1.0])).map(lambda m: m[0] * m[1])
parameter_sets = st.one_of(
    st.fixed_dictionaries({name: any_value(name) for name in PARAMETER_NAMES}),
    st.fixed_dictionaries({name: log_uniform(*RANGES[name]) for name in RANGES}).map(
        lambda fields: dict(fields, eta=0.5, epsilon=0.5)
    ),
).map(lambda fields: ModelParameters(**fields))
cells = st.tuples(parameter_sets, coordinates, coordinates, coordinates)


@settings(max_examples=500, deadline=None)
@given(cell=cells)
def test_scalar_field_and_residual_equal_the_written_out_expressions(cell):
    params, T, I, V = cell
    assert bits(_field(params, T, I, V)) == bits(reference_field(params, T, I, V))
    assert bits(field_function(params)(0.0, (T, I, V))) == bits(reference_field(params, T, I, V))
    assert bits(residual_norm(params, (T, I, V))) == bits(reference_residual_norm(params, T, I, V))


@settings(max_examples=100, deadline=None)
@given(grid=st.lists(cells, min_size=1, max_size=64))
def test_array_field_and_sweep_residual_equal_the_written_out_expressions(grid):
    sets, T, I, V = zip(*grid)
    params = SimpleNamespace(**{name: np.array([getattr(p, name) for p in sets]) for name in PARAMETER_NAMES})
    T, I, V = np.array(T), np.array(I), np.array(V)
    with np.errstate(all="ignore"):
        assert bits(_field(params, T, I, V)) == bits(reference_field(params, T, I, V))
        assert bits(_residual(params, T, I, V)) == bits(reference_sweep_residual(params, T, I, V))
        # The sweep kernel's parameters are numpy scalars where not swept.
        first = SimpleNamespace(**{name: np.float64(getattr(sets[0], name)) for name in PARAMETER_NAMES})
        assert bits(_residual(first, T, I, V)) == bits(reference_sweep_residual(first, T, I, V))


@pytest.mark.parametrize("route", [vector_field, jacobian, residual_norm])
def test_every_state_route_refuses_a_non_finite_state(route):
    with pytest.raises(DomainError, match=r"state must be finite, got \(1\.0, nan, 2\.0\)"):
        route(SCENARIO_S1, (1.0, math.nan, 2.0))
