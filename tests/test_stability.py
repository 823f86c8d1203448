"""Local stability: Jacobians, characteristic coefficients, Routh-Hurwitz."""

from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import OVERFLOWING_MINORS, draw_supercritical_params, minor_coefficients

from hcvdyn import (
    MARGINAL,
    SCENARIO_S1,
    SCENARIO_S2,
    STABLE,
    UNSTABLE,
    DomainError,
    IntegrityError,
    ModelParameters,
    State,
    characteristic_coefficients,
    cubic_roots,
    infected_equilibrium,
    infected_jacobian,
    infected_local,
    jacobian,
    r0_spectral,
    routh_hurwitz,
    stability_report,
    uninfected_local,
)
from hcvdyn import equilibria, model, stability
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


# Plausible sets whose E* is accepted with a field residual (7.0e-12 and
# 4.7e-9) well inside equilibrium_residual, yet large enough that the
# closed forms, which assume f = 0 there, miss the general Jacobian by more
# than jacobian_agreement (J00: 1.67e-10 relative) and the minors by more
# than char_coeff_integrity (a2: 1.0e-6 relative).
RESIDUAL_BREAKS_JACOBIAN = ModelParameters(
    s=0.5650537751777257, r_T=0.009271134055471026, r_I=0.018438905828167665,
    d_T=0.0034876903579689907, d_I=2.2292890092448463, T_max=27241708.572986238,
    beta=1.3110669542637816e-07, p=1.664355019144473, c=0.14611390460673196,
    q=0.03816310798234901, eta=0.05689768816331997, epsilon=0.14694692219550431,
)
RESIDUAL_BREAKS_MINORS = ModelParameters(
    s=9.09140213309427, r_T=0.02307411947606787, r_I=0.012871118763059136,
    d_T=0.005767242894233975, d_I=3.7061982737167556, T_max=60857444.90241122,
    beta=8.349275364938507e-07, p=42.574552051220806, c=0.17373369836853048,
    q=0.03613995756003735, eta=0.50022740054753, epsilon=0.23224941262980336,
)


@pytest.mark.parametrize("params", [RESIDUAL_BREAKS_JACOBIAN, RESIDUAL_BREAKS_MINORS])
def test_closed_forms_are_checked_with_the_field_residual_added_back(params):
    report = stability_report(params)
    assert report.routh_hurwitz is not None
    assert report.coefficients.max_rel_diff <= 1e-12


def test_supercritical_draws_pass_every_local_check():
    # Draw 34 of this sequence is RESIDUAL_BREAKS_JACOBIAN.
    rng = np.random.default_rng(3)
    for _ in range(40):
        stability_report(draw_supercritical_params(rng))


def test_jacobian_check_still_catches_a_seeded_fault(monkeypatch):
    point = infected_equilibrium(RESIDUAL_BREAKS_JACOBIAN).candidates[0]
    entries = stability._residual_jacobian_entries

    def perturbed(*args):
        (j00, *rest), *rows = entries(*args)
        return ((j00 * (1.0 + 1e-9), *rest), *rows)

    monkeypatch.setattr(stability, "_residual_jacobian_entries", perturbed)
    with pytest.raises(IntegrityError, match=r"J\(Estar\) deviates") as excinfo:
        infected_jacobian(RESIDUAL_BREAKS_JACOBIAN, point)
    assert float(str(excinfo.value).split()[-1]) == pytest.approx(1e-9, rel=1e-3)


def test_stability_report_derives_its_constants_and_e_star_rows_once(monkeypatch):
    calls = {"derive_constants": 0, "_residual_jacobian_entries": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    derive = counted("derive_constants", model.derive_constants)
    for module in (model, equilibria, stability):
        monkeypatch.setattr(module, "derive_constants", derive)
    monkeypatch.setattr(stability, "_residual_jacobian_entries",
                        counted("_residual_jacobian_entries", stability._residual_jacobian_entries))
    report = stability_report(SCENARIO_S2)
    assert report.estar_present
    assert calls == {"derive_constants": 1, "_residual_jacobian_entries": 1}


@pytest.mark.parametrize(
    "field, check",
    [
        ("jacobian_agreement", lambda: infected_jacobian(SCENARIO_S2, s2_equilibrium())),
        ("char_coeff_integrity", lambda: characteristic_coefficients(SCENARIO_S2, s2_equilibrium())),
    ],
)
def test_integrity_messages_print_plain_floats(monkeypatch, field, check):
    monkeypatch.setattr(stability, "DEFAULT_TOLERANCES", replace(DEFAULT_TOLERANCES, **{field: -1.0}))
    with pytest.raises(IntegrityError) as excinfo:
        check()
    assert "relative " in str(excinfo.value)
    assert "np.float64" not in str(excinfo.value)


def test_characteristic_coefficients_reference():
    coeffs = characteristic_coefficients(SCENARIO_S2, s2_equilibrium())
    assert coeffs.a1 == pytest.approx(2.6812009014794644, rel=1e-12)
    assert coeffs.a2 == pytest.approx(2.0581703061948238, rel=1e-12)
    assert coeffs.a3 == pytest.approx(0.47929836963630423, rel=1e-12)
    assert coeffs.delta2 == pytest.approx(5.039069710731518, rel=1e-12)
    assert coeffs.max_rel_diff <= 1e-8


def test_characteristic_coefficients_raise_when_t_max_squared_overflows():
    # beta = 0 gives H = 0, so derive_constants has no F and never squares
    # T_max; the closed-form coefficients do.
    params = replace(SCENARIO_S2, beta=0.0, T_max=1e200)
    with pytest.raises(DomainError, match="T_max"):
        characteristic_coefficients(params, State(1e3, 1e3, 1.0))


# A unique infected equilibrium at T* = 9e-163: T_max**2 and T* T_max
# underflow to 0, and the closed forms divide by both.
TINY_LIVER = ModelParameters(
    s=0.0, r_T=1e-162, r_I=1.0, d_T=0.0, d_I=0.05, T_max=1e-162,
    beta=1.0, p=1.0, c=1.0, q=0.0, eta=0.0, epsilon=0.0,
)


def test_infected_equilibrium_holds_where_its_quadratics_underflow():
    # Both E*'s quadratic and the radical's own take the solver's scaled
    # route: (D/H)^2 underflows, and the textbook radical gave 4.5e-163.
    report = infected_equilibrium(TINY_LIVER)
    (point,) = report.candidates
    assert point.state.T == pytest.approx(9e-163, rel=1e-15)
    assert report.closed_form_T == pytest.approx(9e-163, rel=1e-15)
    assert report.closed_form_rel_diff <= 1e-15


def test_characteristic_coefficients_raise_when_the_denominators_underflow():
    # E* at the exact root T* = 9e-163 of its quadratic, as
    # infected_equilibrium reports it.
    estar = State(9e-163, 5e-164, 5e-164)
    with pytest.raises(DomainError, match="within the float range"):
        characteristic_coefficients(TINY_LIVER, estar)


def test_characteristic_coefficients_raise_when_a_minor_overflows():
    # minor_a3 is inf, so its relative difference is inf / inf = NaN, which
    # used to lose to the other two in max() and pass the check.
    params = ModelParameters(**OVERFLOWING_MINORS)
    estar = infected_equilibrium(params).candidates[0]
    with pytest.raises(IntegrityError, match="by relative nan$"):
        characteristic_coefficients(params, estar)


def test_characteristic_coefficients_are_plain_floats():
    coeffs = characteristic_coefficients(SCENARIO_S2, s2_equilibrium())
    assert [type(getattr(coeffs, f.name)) for f in fields(coeffs)] == [float] * 7


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


@pytest.mark.parametrize("coefficients", [(np.nan, 1.0, 1.0), (1.0, np.nan, 0.5), (1.0, 1.0, np.inf)])
def test_routh_hurwitz_refuses_non_finite_coefficients(coefficients):
    # Every comparison with NaN is false, so (nan, 1, 1) used to read stable.
    with pytest.raises(DomainError, match="finite coefficients"):
        routh_hurwitz(*coefficients)


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


def test_unchecked_spectral_r0_is_flagged():
    # T0 above T_max makes DF[0, 0] < 0: no next-generation splitting, so
    # r0_spectral is |r0| by construction and was not cross-checked.
    params = replace(SCENARIO_S1, s=1e5, beta=1e-12)
    report = stability_report(params)
    assert report.r0 == -0.028625116901604592
    assert report.r0_spectral == 0.028625116901604596
    assert report.consistency_flags == ("r0_spectral_unchecked",)
    assert not r0_spectral(params).checked
    assert r0_spectral(SCENARIO_S1).checked and r0_spectral(SCENARIO_S2).checked


def test_non_finite_e0_eigenvalues_raise_domain_error():
    # The block entry r_I (1 - T0/T_max) - delta, an eigenvalue to first
    # order, is about -1.4e433, beyond the float range.
    params = ModelParameters(
        s=476.2530628410215, r_T=9.484273281450855e-131, r_I=1.9946832924596227e255,
        d_T=2.0220405426144735e-06, d_I=1.3355001158524913e280, T_max=9.777160091864035e-225,
        beta=2.1278927268606072e285, p=1.0585929272221459e-268, c=5.458954202282944e-68,
        q=1.6061294406324266e72, eta=0.8245557538504698, epsilon=0.16027614951375435,
    )
    with pytest.raises(DomainError, match="E0 eigenvalues are not finite"):
        uninfected_local(params)
