"""The local analysis's 3x3 checks on floats against the numpy route they replaced.

The numpy versions of the J agreement check, the principal minors and the
coefficient check live here only, as an oracle.  Wherever the numpy route
raises, the float route must raise the same exception with the same message;
everywhere else both return the same coefficients, max_rel_diff,
eigenvalues and Jacobian, bit for bit.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import any_value, draw_params, draw_supercritical_params

from hcvdyn import (
    SCENARIO_S1,
    SCENARIO_S2,
    CharacteristicCoefficients,
    DomainError,
    IntegrityError,
    LocalReport,
    ModelError,
    ModelParameters,
    State,
    cubic_roots,
    derive_constants,
    infected_equilibrium,
    jacobian,
    routh_hurwitz,
    stability,
    uninfected_equilibrium,
)
from hcvdyn.model import PARAMETER_NAMES, _ldexp, _quadratic_roots
from hcvdyn.tolerances import DEFAULT_TOLERANCES


def numpy_jacobian_check(closed, general, label):
    """The J agreement check on 3x3 arrays, as it ran with numpy."""
    with np.errstate(all="ignore"):
        scale = np.max(np.abs(general))
        denom = np.maximum(np.abs(general), 1e-6 * scale)
        rel = np.max(np.abs(closed - general) / denom)
    if rel > DEFAULT_TOLERANCES.jacobian_agreement:
        raise IntegrityError(
            f"specialised J({label}) deviates from the general Jacobian by "
            f"relative {float(rel)!r}"
        )


def numpy_minors(J):
    """(-trace, sum of principal 2x2 minors, -det) of a 3x3 array."""
    with np.errstate(all="ignore"):
        a1 = -(J[0, 0] + J[1, 1] + J[2, 2])
        a2 = (
            J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
            + J[0, 0] * J[2, 2] - J[0, 2] * J[2, 0]
            + J[1, 1] * J[2, 2] - J[1, 2] * J[2, 1]
        )
        a3 = -(
            J[0, 0] * (J[1, 1] * J[2, 2] - J[1, 2] * J[2, 1])
            - J[0, 1] * (J[1, 0] * J[2, 2] - J[1, 2] * J[2, 0])
            + J[0, 2] * (J[1, 0] * J[2, 1] - J[1, 1] * J[2, 0])
        )
    return a1, a2, a3


def numpy_coefficients(params, cons, point, general):
    """The coefficient check with the minors of a numpy array."""
    if not (0.0 < params.T_max * params.T_max < math.inf and point.T * params.T_max > 0.0):
        raise DomainError("characteristic coefficients need T_max**2 and T* T_max within the float range")
    a1, a2, a3 = stability._closed_coefficients(params, cons.A, cons.delta, point.T, point.I)
    m1, m2, m3 = map(float, numpy_minors(np.array(general)))
    rel = float(np.max([abs(a - m) / max(abs(m), 1e-300) for a, m in ((a1, m1), (a2, m2), (a3, m3))]))
    if not rel <= DEFAULT_TOLERANCES.char_coeff_integrity:
        raise IntegrityError(
            f"closed-form characteristic coefficients deviate from the minor "
            f"expansion by relative {rel!r}"
        )
    return CharacteristicCoefficients(a1, a2, a3, m1, m2, m3, rel)


def numpy_uninfected_local(params, T0):
    """_uninfected_local with J as an array, checked against jacobian()."""
    if T0 <= 0:
        raise DomainError("local analysis requires a positive uninfected level T0")
    b_eff = (1.0 - params.eta) * params.beta
    p_eff = (1.0 - params.epsilon) * params.p
    block_11 = params.r_I * (1.0 - T0 / params.T_max) - (params.d_I + params.q)
    J = np.array(
        [
            [-params.s / T0 - params.r_T * T0 / params.T_max,
             -params.r_T * T0 / params.T_max + params.q,
             -b_eff * T0],
            [0.0, block_11, b_eff * T0],
            [0.0, p_eff, -params.c],
        ]
    )
    numpy_jacobian_check(J, jacobian(params, (T0, 0.0, 0.0)), "E0")
    trace2 = block_11 - params.c
    entries = (block_11, b_eff * T0, p_eff, params.c)
    det2 = -params.c * block_11 - b_eff * T0 * p_eff
    m = 0 if math.isfinite(det2) else max(math.frexp(x)[1] for x in entries)
    b11, bT, pe, c = (math.ldexp(x, -m) for x in entries)
    roots = _quadratic_roots(1.0, c - b11, -c * b11 - bT * pe)
    det2 = _ldexp(-c * b11 - bT * pe, 2 * m)
    if isinstance(roots[0], float) and math.copysign(1.0, trace2) < 0.0:
        roots = roots[::-1]
    eigs = (complex(J[0, 0]), *(complex(_ldexp(z.real, m), _ldexp(z.imag, m)) for z in roots))
    if not all(cmath.isfinite(z) for z in eigs):
        raise DomainError(f"E0 eigenvalues are not finite: {eigs!r}")
    band = DEFAULT_TOLERANCES.marginal_band
    classification = stability._classify((-J[0, 0], band), (-trace2, band), (det2, band))
    return LocalReport(jacobian=J, eigenvalues=eigs, classification=classification)


def numpy_infected_local(params, point):
    """(coefficients, LocalReport) at E* with every check on numpy arrays."""
    cons = derive_constants(params)
    general = stability._residual_jacobian_entries(params, *point)
    coeffs = numpy_coefficients(params, cons, point, general)
    b_eff = (1.0 - params.eta) * params.beta
    closed = np.array(
        [
            [-(params.s + params.q * point.I) / point.T - params.r_T * point.T / params.T_max,
             params.q - params.r_T * point.T / params.T_max,
             -b_eff * point.T],
            [(cons.A - params.r_I) * point.I / params.T_max,
             -(cons.A * point.T + params.r_I * point.I) / params.T_max,
             b_eff * point.T],
            [0.0, (1.0 - params.epsilon) * params.p, -params.c],
        ]
    )
    numpy_jacobian_check(closed, np.array(general), "Estar")
    eigs = cubic_roots(coeffs.a1, coeffs.a2, coeffs.a3)
    verdict = routh_hurwitz(coeffs.a1, coeffs.a2, coeffs.a3).classification
    return coeffs, LocalReport(jacobian=closed, eigenvalues=eigs, classification=verdict)


def outcome(route, *args):
    """What a route returns, with arrays as their bytes, or the error it raises."""
    try:
        result = route(*args)
    except (ModelError, ArithmeticError) as exc:
        return type(exc), str(exc)
    parts = result if isinstance(result, tuple) else (result,)
    return tuple(
        (part.jacobian.dtype, part.jacobian.shape, part.jacobian.tobytes(), repr(part.eigenvalues), part.classification)
        if isinstance(part, LocalReport) else repr(part)
        for part in parts
    )


def float_infected_local(params, point):
    coeffs, _, local = stability._infected_local(params, derive_constants(params), point)
    return coeffs, local


def assert_routes_agree(params, states=()):
    """Both routes at E0, at E* when it is unique, and at the given states."""
    try:
        T0 = uninfected_equilibrium(params).state.T
    except ModelError:
        T0 = None
    if T0 is not None:
        assert outcome(stability._uninfected_local, params, T0) == outcome(numpy_uninfected_local, params, T0)
    try:
        candidates = infected_equilibrium(params).candidates
        derive_constants(params)
    except ModelError:
        return
    for point in [c.state for c in candidates[:1]] + list(states):
        assert outcome(float_infected_local, params, point) == outcome(numpy_infected_local, params, point)


seeds = st.integers(0, 2**32 - 1)
whole_domain = st.fixed_dictionaries({name: any_value(name) for name in PARAMETER_NAMES})
magnitudes = st.one_of(
    st.floats(-300.0, 300.0).map(lambda x: 10.0**x), st.sampled_from([5e-324, 1e-308, 1e308])
)
positive_states = st.lists(st.builds(State, magnitudes, magnitudes, magnitudes), max_size=3)


@settings(max_examples=200, deadline=None)
@given(seed=seeds, states=positive_states)
def test_float_route_matches_numpy_route_on_drawn_sets(seed, states):
    assert_routes_agree(draw_params(np.random.default_rng(seed)), states)


@settings(max_examples=100, deadline=None)
@given(seed=seeds, states=positive_states)
def test_float_route_matches_numpy_route_on_supercritical_sets(seed, states):
    assert_routes_agree(draw_supercritical_params(np.random.default_rng(seed)), states)


@settings(max_examples=400, deadline=None)
@given(fields=whole_domain, states=positive_states)
def test_float_route_matches_numpy_route_over_the_whole_domain(fields, states):
    try:
        params = ModelParameters(**fields)
    except ModelError:
        assume(False)
    assert_routes_agree(params, states)


def test_float_route_matches_numpy_route_on_the_bundled_sets():
    assert_routes_agree(SCENARIO_S1, [State(1e3, 2.0, 1.0)])
    assert_routes_agree(SCENARIO_S2, [State(1e3, 2.0, 1.0)])


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1.0, -2.5, 1e308, -1e308, math.inf, -math.inf, math.nan]
entries = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
rows = st.tuples(*[st.tuples(entries, entries, entries)] * 3)


def check_outcome(route, closed, general):
    try:
        route(closed, general, "X")
    except Exception as exc:  # noqa: BLE001 - any escape must match
        return type(exc), str(exc)
    return None


@settings(max_examples=500, deadline=None)
@given(closed=rows, general=rows)
def test_jacobian_check_on_floats_matches_numpy(closed, general):
    assert check_outcome(stability._check_jacobian_agreement, closed, general) == check_outcome(
        numpy_jacobian_check, np.array(closed), np.array(general)
    )


@settings(max_examples=500, deadline=None)
@given(J=rows)
def test_minors_on_floats_match_numpy(J):
    # Bit for bit, except a NaN's sign, which IEEE 754 leaves open; a NaN
    # minor fails the coefficient check either way.
    def bits(x):
        return "nan" if x != x else np.float64(x).tobytes()

    floats = stability._principal_minors(J)
    arrays = numpy_minors(np.array(J))
    assert [bits(x) for x in floats] == [bits(x) for x in arrays]


def _rows(*values):
    return tuple(tuple(values[3 * i: 3 * i + 3]) for i in range(3))


S2_STAR = infected_equilibrium(SCENARIO_S2).candidates[0].state
S2_GENERAL = stability._residual_jacobian_entries(SCENARIO_S2, *S2_STAR)


@pytest.mark.parametrize("special", [0.0, 5e-324, math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("index", [0, 4, 7, 8])
def test_checks_agree_with_one_special_entry(special, index):
    flat = [x for row in S2_GENERAL for x in row]
    flat[index] = special
    general = _rows(*flat)
    closed = stability._infected_rows(SCENARIO_S2, derive_constants(SCENARIO_S2).A, S2_STAR, S2_GENERAL)
    assert check_outcome(stability._check_jacobian_agreement, closed, general) == check_outcome(
        numpy_jacobian_check, np.array(closed), np.array(general)
    )
    cons = derive_constants(SCENARIO_S2)
    assert outcome(stability._coefficients, SCENARIO_S2, cons, S2_STAR, general) == outcome(
        numpy_coefficients, SCENARIO_S2, cons, S2_STAR, general
    )


@pytest.mark.parametrize("general, closed", [
    # The scale is 0: 0/0 is NaN, which passes, and x/0 is inf, which fails.
    (_rows(*[0.0] * 9), _rows(*[0.0] * 9)),
    (_rows(*[0.0] * 9), _rows(1.0, *[0.0] * 8)),
    # 1e-6 times a subnormal scale underflows to 0.
    (_rows(5e-324, *[0.0] * 8), _rows(5e-324, *[0.0] * 8)),
    (_rows(5e-324, *[0.0] * 8), _rows(5e-324, 5e-324, *[0.0] * 7)),
    # An infinite scale, and inf - inf.
    (_rows(math.inf, 1.0, *[0.0] * 7), _rows(math.inf, 1.0, *[0.0] * 7)),
    (_rows(math.inf, 1.0, *[0.0] * 7), _rows(1.0, 1.0, *[0.0] * 7)),
    (_rows(math.nan, 1.0, *[0.0] * 7), _rows(1.0, 2.0, *[0.0] * 7)),
    (_rows(1e308, -1e308, *[1.0] * 7), _rows(-1e308, 1e308, *[1.0] * 7)),
])
def test_jacobian_check_agrees_on_fixed_special_cases(general, closed):
    assert check_outcome(stability._check_jacobian_agreement, closed, general) == check_outcome(
        numpy_jacobian_check, np.array(closed), np.array(general)
    )
