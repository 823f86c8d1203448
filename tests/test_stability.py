"""Local stability: Jacobians, characteristic coefficients, Routh-Hurwitz."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import draw_supercritical_params, minor_coefficients

from hcvdyn import (
    MARGINAL,
    SCENARIO_S1,
    SCENARIO_S2,
    STABLE,
    UNSTABLE,
    IntegrityError,
    characteristic_coefficients,
    cubic_roots,
    infected_equilibrium,
    infected_jacobian,
    infected_local,
    jacobian,
    routh_hurwitz,
    stability_report,
    uninfected_local,
)
from hcvdyn.tolerances import DEFAULT_TOLERANCES


def s2_equilibrium():
    return infected_equilibrium(SCENARIO_S2).candidates[0]


def test_uninfected_classification_reference():
    report1 = uninfected_local(SCENARIO_S1)
    assert report1.classification == STABLE
    eigs = sorted(z.real for z in report1.eigenvalues)
    assert eigs == pytest.approx(
        [-2.5119713916651136, -0.08579089400157502, -0.04900204077382901], rel=1e-10
    )
    assert all(abs(z.imag) == 0.0 for z in report1.eigenvalues)

    report2 = uninfected_local(SCENARIO_S2)
    assert report2.classification == UNSTABLE
    eigs2 = sorted(z.real for z in report2.eigenvalues)
    assert eigs2 == pytest.approx(
        [-1.990002010049236, -1.658292087632851, 0.35885203135147237], rel=1e-10
    )


def test_uninfected_jacobian_matches_general():
    from hcvdyn import uninfected_equilibrium

    for params in (SCENARIO_S1, SCENARIO_S2):
        state = uninfected_equilibrium(params).state
        J_closed = uninfected_local(params).jacobian
        J_general = jacobian(params, state)
        scale = np.abs(J_general).max()
        assert np.abs(J_closed - J_general).max() <= 1e-10 * scale


def test_infected_jacobian_matches_general():
    point = s2_equilibrium()
    J_closed = infected_jacobian(SCENARIO_S2, point)
    J_general = jacobian(SCENARIO_S2, point.state)
    denom = np.maximum(np.abs(J_general), 1e-6 * np.abs(J_general).max())
    assert (np.abs(J_closed - J_general) / denom).max() <= 1e-10
    # Virions do not react to target cells directly.
    assert J_closed[2, 0] == 0.0 and J_general[2, 0] == 0.0


@pytest.mark.parametrize(
    "field, check",
    [
        ("jacobian_agreement", lambda tol: infected_jacobian(SCENARIO_S2, s2_equilibrium(), tol)),
        ("char_coeff_integrity", lambda tol: characteristic_coefficients(SCENARIO_S2, s2_equilibrium(), tol)),
    ],
)
def test_integrity_messages_print_plain_floats(field, check):
    with pytest.raises(IntegrityError) as excinfo:
        check(replace(DEFAULT_TOLERANCES, **{field: -1.0}))
    assert "relative " in str(excinfo.value)
    assert "np.float64" not in str(excinfo.value)


def test_characteristic_coefficients_reference():
    coeffs = characteristic_coefficients(SCENARIO_S2, s2_equilibrium())
    assert coeffs.a1 == pytest.approx(2.6812009014794644, rel=1e-12)
    assert coeffs.a2 == pytest.approx(2.0581703061948238, rel=1e-12)
    assert coeffs.a3 == pytest.approx(0.47929836963630423, rel=1e-12)
    assert coeffs.delta2 == pytest.approx(5.039069710731518, rel=1e-12)
    assert coeffs.max_rel_diff <= 1e-8


def test_characteristic_coefficients_match_minor_expansion():
    rng = np.random.default_rng(20260814)
    for _ in range(25):
        params = draw_supercritical_params(rng)
        point = infected_equilibrium(params).candidates[0]
        coeffs = characteristic_coefficients(params, point)
        m1, m2, m3 = minor_coefficients(jacobian(params, point.state))
        assert coeffs.a1 == pytest.approx(m1, rel=1e-8, abs=0.0)
        assert coeffs.a2 == pytest.approx(m2, rel=1e-8, abs=0.0)
        assert coeffs.a3 == pytest.approx(m3, rel=1e-8, abs=0.0)


def test_infected_local_reference():
    report = infected_local(SCENARIO_S2, s2_equilibrium())
    assert report.classification == STABLE
    eigs = sorted(z.real for z in report.eigenvalues)
    assert eigs == pytest.approx([-1.55707141, -0.65204452, -0.47208496], rel=1e-6)
    assert max(abs(z.imag) for z in report.eigenvalues) == 0.0


def test_cubic_roots_match_companion_solver():
    rng = np.random.default_rng(11)
    for _ in range(300):
        a1, a2, a3 = (
            float(rng.choice((-1.0, 1.0))) * 10.0 ** rng.uniform(-3, 3) for _ in range(3)
        )
        ours = sorted(cubic_roots(a1, a2, a3), key=lambda z: (z.real, z.imag))
        ref = sorted(np.roots([1.0, a1, a2, a3]), key=lambda z: (z.real, z.imag))
        scale = max(1e-30, max(abs(z) for z in ref))
        for z, w in zip(ours, ref):
            assert abs(z - complex(w)) <= 1e-8 * scale


def test_cubic_roots_repeated():
    # (x + 2)^3 and (x - 1)^2 (x + 3) exercise the degenerate branches.
    triple = cubic_roots(6.0, 12.0, 8.0)
    for z in triple:
        assert z == pytest.approx(-2.0, rel=1e-6)
    double = sorted(cubic_roots(1.0, -5.0, 3.0), key=lambda z: z.real)
    assert double[0].real == pytest.approx(-3.0, rel=1e-9)
    assert double[1].real == pytest.approx(1.0, rel=1e-6)
    assert double[2].real == pytest.approx(1.0, rel=1e-6)


def test_cubic_roots_extreme_scales():
    # Residual-based check at scales where naive formulas overflow.
    for a1, a2, a3 in ((1e150, 1e150, 1e150), (1e-140, 1e-150, 1e-160), (0.0, 0.0, 0.0)):
        roots = cubic_roots(a1, a2, a3)
        assert len(roots) == 3


def test_routh_hurwitz_verdicts():
    stable = routh_hurwitz(6.0, 11.0, 6.0)  # roots -1, -2, -3
    assert stable.classification == STABLE
    assert stable.delta2 == pytest.approx(60.0, rel=1e-15)

    unstable = routh_hurwitz(-1.0, 1.0, -1.0)
    assert unstable.classification == UNSTABLE

    # a3 = 0 puts a root at the origin: marginal, not stable.
    assert routh_hurwitz(2.0, 1.0, 0.0).classification == MARGINAL


def test_routh_hurwitz_matches_root_signs():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 200:
        a1, a2, a3 = (
            float(rng.choice((-1.0, 1.0))) * 10.0 ** rng.uniform(-2, 2) for _ in range(3)
        )
        verdict = routh_hurwitz(a1, a2, a3)
        if verdict.classification == MARGINAL:
            continue
        max_re = max(z.real for z in np.roots([1.0, a1, a2, a3]))
        if abs(max_re) <= 1e-9:
            continue
        assert verdict.classification == (STABLE if max_re < 0 else UNSTABLE)
        checked += 1


def test_stability_report_assembles_everything():
    report = stability_report(SCENARIO_S2)
    assert report.estar_present
    assert report.routh_hurwitz.classification == STABLE
    assert report.estar_local.classification == STABLE
    assert report.e0.classification == UNSTABLE
    assert "constant_term_positive" in report.consistency_flags
    assert "routh_hurwitz_vs_eigenvalues" not in report.consistency_flags

    subcritical = stability_report(SCENARIO_S1)
    assert not subcritical.estar_present
    assert subcritical.coefficients is None
    assert subcritical.e0.classification == STABLE
    assert subcritical.consistency_flags == ()
