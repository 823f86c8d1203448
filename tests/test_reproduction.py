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


def test_next_generation_matrix_structure():
    decomp = r0_spectral(SCENARIO_S2)
    # New infections feed only the infected-cell row.
    assert decomp.DF[1, 0] == 0.0 and decomp.DF[1, 1] == 0.0
    assert np.all(decomp.DF >= 0.0)
    # Transfer: infected cells are lost at delta, virions produced at
    # (1 - epsilon) p and cleared at c.
    delta = SCENARIO_S2.d_I + SCENARIO_S2.q
    assert decomp.DV[0, 0] == pytest.approx(-delta, rel=1e-15)
    assert decomp.DV[1, 1] == pytest.approx(-SCENARIO_S2.c, rel=1e-15)
    # rho is the spectral radius of K by an independent eigensolver.
    eigs = np.linalg.eigvals(decomp.K)
    assert decomp.rho == pytest.approx(float(np.abs(eigs).max()), rel=1e-12)


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
    # 1/c overflows, and 0 * inf makes the next-generation matrix NaN, which
    # used to pass the cross-check against the closed form.
    params = ModelParameters(
        s=5e-324, r_T=2.7e-62, r_I=2.8e104, d_T=9e-44, d_I=4.9e-92, T_max=9.8e-05,
        beta=0.0, p=5e-324, c=5e-324, q=7e46, eta=0.0, epsilon=0.0,
    )
    with pytest.raises(DomainError, match="spectral radius is not finite: nan"):
        r0_spectral(params)
