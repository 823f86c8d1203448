"""Basic reproduction number: closed form, spectral route, reference pairs."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import draw_params

from hcvdyn import (
    SCENARIO_S1,
    SCENARIO_S2,
    DomainError,
    ModelParameters,
    existence_regime,
    r0,
    r0_from_T0,
    r0_spectral,
    uninfected_equilibrium,
)


def test_r0_reference_values():
    assert r0(SCENARIO_S1) == pytest.approx(0.8204131071688912, rel=1e-12)
    assert r0(SCENARIO_S2) == pytest.approx(2.4877037105528053, rel=1e-12)


def test_r0_from_stated_reference_pairs():
    # Externally published (T0, r0) pairs: feeding the stated T0 into the
    # formula reproduces the stated r0.
    assert r0_from_T0(SCENARIO_S1, 4160020.0) == pytest.approx(0.455681255199817, rel=1e-12)
    assert r0_from_T0(SCENARIO_S2, 14875270.0) == pytest.approx(3.6498199936881752, rel=1e-12)


def test_r0_from_T0_domain_errors():
    with pytest.raises(DomainError):
        r0_from_T0(SCENARIO_S1, 0.0)
    with pytest.raises(DomainError):
        r0_from_T0(SCENARIO_S1, -1.0)
    with pytest.raises(DomainError):
        r0_from_T0(replace(SCENARIO_S1, d_I=0.0, q=0.0), 1e6)


def test_spectral_route_agrees_with_closed_form():
    rng = np.random.default_rng(20260814)
    for _ in range(100):
        params = draw_params(rng)
        value = r0(params)
        rho = r0_spectral(params).rho
        assert abs(value - rho) <= 1e-12 * max(1.0, value)


def _eigensolver_rho(params):
    """Spectral radius of K = -DF . DV^(-1) by numpy's eigensolver."""
    T0 = uninfected_equilibrium(params).state.T
    # dI/dt = r_I I (1 - (T + I)/T_max) + (1 - eta) beta V T - (d_I + q) I
    # dV/dt = (1 - epsilon) p I - c V, linearised in (I, V) at (T0, 0, 0).
    # New infections feed only the infected-cell row.
    DF = np.array(
        [[params.r_I * (1.0 - T0 / params.T_max), (1.0 - params.eta) * params.beta * T0], [0.0, 0.0]]
    )
    # Transfer: infected cells are lost at d_I + q, virions produced at
    # (1 - epsilon) p and cleared at c.
    DV = np.array([[-(params.d_I + params.q), 0.0], [(1.0 - params.epsilon) * params.p, -params.c]])
    return float(np.abs(np.linalg.eigvals(-DF @ np.linalg.inv(DV))).max())


def test_next_generation_matrix_structure():
    rng = np.random.default_rng(20261019)
    for params in [SCENARIO_S1, SCENARIO_S2] + [draw_params(rng) for _ in range(100)]:
        assert r0_spectral(params).rho == pytest.approx(_eigensolver_rho(params), rel=1e-12, abs=0.0)


# rho must not go through K[0,0]'s square, which underflows in the first two
# sets and overflows in the third, nor through K[0,1], a 0 * inf NaN in the
# fourth (DV^(-1)'s -1/c entry overflows and beta = 0).
@pytest.mark.parametrize(
    "params, expected",
    [
        (replace(SCENARIO_S1, r_I=1e-200, beta=1e-210), 3.411600401946315e-202),
        (replace(SCENARIO_S1, r_I=1e-160, beta=1e-175), 3.3299328603018947e-162),
        (replace(SCENARIO_S1, beta=1e160), 8.166835832800386e166),
        (
            ModelParameters(
                s=5e-324, r_T=2.7e-62, r_I=2.8e104, d_T=9e-44, d_I=4.9e-92, T_max=9.8e-05,
                beta=0.0, p=5e-324, c=5e-324, q=7e46, eta=0.0, epsilon=0.0,
            ),
            4e57,
        ),
    ],
    ids=["square_underflows", "square_subnormal", "square_overflows", "inverse_overflows"],
)
def test_spectral_radius_matches_closed_form_at_float_extremes(params, expected):
    assert r0(params) == expected
    assert r0_spectral(params).rho == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_r0_monotone_in_infectivity():
    values = [r0(replace(SCENARIO_S1, beta=b)) for b in (1e-8, 1e-7, 1e-6)]
    assert values[0] < values[1] < values[2]


@pytest.mark.parametrize("route", [r0, r0_spectral])
def test_underflowing_c_delta_raises_domain_error(route):
    # c (d_I + q) = 5e-324 * 0.1 rounds to 0, and both routes divide by it.
    with pytest.raises(DomainError, match="c \\(d_I \\+ q\\)"):
        route(replace(SCENARIO_S1, c=5e-324, q=0.0))


def test_non_finite_r0_raises_domain_error():
    # r0's proliferation term overflows to -inf.  analyze used to print it.
    params = ModelParameters(
        s=2.5e221, r_T=2.5e-169, r_I=7.4e-50, d_T=0.0, d_I=8.8e-161, T_max=4.3e-108,
        beta=2.3e-177, p=1.2e-121, c=3.7e-115, q=0.0, eta=0.0, epsilon=0.0,
    )
    with pytest.raises(DomainError, match="reproduction number is not finite: -inf"):
        existence_regime(params)


def test_r0_beyond_the_float_range_raises_domain_error():
    # r_I / delta overflows, so r0 is inf.  r0 used to return it.
    params = ModelParameters(
        s=5e-324, r_T=1.0, r_I=4.463186123660912e139, d_T=1.0, d_I=5e-324, T_max=1.0,
        beta=1.0, p=1.0, c=1.0, q=5e-324, eta=1e-4, epsilon=0.17793376369126435,
    )
    with pytest.raises(DomainError, match="reproduction number is not finite: inf"):
        r0(params)
    with pytest.raises(DomainError, match="reproduction number is not finite: inf"):
        r0_from_T0(params, 0.5)


def test_non_finite_spectral_radius_raises_domain_error():
    # (1 - epsilon) p / (c delta) overflows, and beta = 0 makes K[0,0] a
    # 0 * inf NaN, which would pass the cross-check against the closed form.
    # r0 is finite (0.0037...), so this refusal is a false failure that
    # scaled arithmetic would remove.
    params = replace(SCENARIO_S1, beta=0.0, p=1e300, c=1e-300)
    with pytest.raises(DomainError, match="spectral radius is not finite: nan"):
        r0_spectral(params)
