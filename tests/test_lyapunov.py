"""Lyapunov functions and global-stability grid certificates."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import draw_certificate_params, draw_params, draw_supercritical_params

from hcvdyn import (
    SCENARIO_S1,
    SCENARIO_S2,
    DomainError,
    ModelParameters,
    State,
    certify_global,
    infected_equilibrium,
    lyapunov_infected,
    lyapunov_uninfected,
    r0,
    uninfected_equilibrium,
)
from hcvdyn import lyapunov
from hcvdyn.model import _region

# Modified supercritical set on the theorem slice r_I = r_T, s = d_T T_max,
# d_I + q = d_T, where the infected equilibrium has a global certificate.
SLICE_PARAMS = replace(
    SCENARIO_S2, r_T=0.112, r_I=0.112, d_T=0.8, d_I=0.3, q=0.5, s=8e6, T_max=1e7
)


def collected_derivative(params, T0, state):
    """Independent algebraic form of dL/dt for the uninfected equilibrium."""
    T, I, V = state
    one_minus_theta = (1.0 - params.eta) * (1.0 - params.epsilon)
    delta_r0 = (
        params.r_I * (1.0 - T0 / params.T_max)
        + one_minus_theta * params.beta * params.p * T0 / params.c
    )
    return (
        -(params.s / (T * T0)) * (T - T0) ** 2
        - (params.r_T / params.T_max) * (T + I - T0) * (T + (params.r_I / params.r_T) * I - T0)
        - params.q * I * T0 / T
        + I * (delta_r0 - params.d_I)
    )


def test_uninfected_lyapunov_properties():
    T0 = uninfected_equilibrium(SCENARIO_S1).state.T
    # At T = T0 the logarithmic well vanishes exactly; only the linear
    # I and V terms remain.
    w = (1.0 - SCENARIO_S1.eta) * SCENARIO_S1.beta * T0 / SCENARIO_S1.c
    L_eq, _ = lyapunov_uninfected(SCENARIO_S1, (T0, 1e-12, 1e-12))
    assert L_eq == pytest.approx(1e-12 * (1.0 + w), rel=1e-9)
    # Away from the equilibrium the function is positive.
    L, _ = lyapunov_uninfected(SCENARIO_S1, (T0 / 2.0, 1e3, 1e2))
    assert L > 0.0


def test_uninfected_lyapunov_dual_routes_agree():
    rng = np.random.default_rng(20260814)
    for params in (SCENARIO_S1, SCENARIO_S2):
        T0 = uninfected_equilibrium(params).state.T
        for _ in range(100):
            state = tuple(float(10.0 ** rng.uniform(0, 8)) for _ in range(3))
            _, grad = lyapunov_uninfected(params, state)
            collected = collected_derivative(params, T0, state)
            assert abs(grad - collected) <= 1e-9 * max(1.0, abs(grad), abs(collected))


def test_lyapunov_rejects_nonpositive_states():
    with pytest.raises(DomainError):
        lyapunov_uninfected(SCENARIO_S1, (0.0, 1.0, 1.0))
    with pytest.raises(DomainError):
        lyapunov_uninfected(SCENARIO_S1, (1.0, -1.0, 1.0))
    estar = infected_equilibrium(SCENARIO_S2).candidates[0]
    with pytest.raises(DomainError):
        lyapunov_infected(SCENARIO_S2, (1.0, 0.0, 1.0), estar)


def test_infected_lyapunov_vanishes_at_equilibrium():
    estar = infected_equilibrium(SCENARIO_S2).candidates[0]
    L, dLdt = lyapunov_infected(SCENARIO_S2, estar.state, estar)
    assert L == 0.0
    assert dLdt == 0.0
    # Elsewhere the function is positive (Volterra form).
    st = estar.state
    L_off, _ = lyapunov_infected(SCENARIO_S2, (st.T * 2, st.I / 3, st.V * 5), estar)
    assert L_off > 0.0


def test_lyapunov_derivatives_are_plain_floats():
    _, dLdt = lyapunov_uninfected(SCENARIO_S1, (1e5, 1e3, 1e2))
    assert type(dLdt) is float
    estar = infected_equilibrium(SCENARIO_S2).candidates[0]
    st = estar.state
    _, dLdt = lyapunov_infected(SCENARIO_S2, (st.T * 2, st.I / 3, st.V * 5), estar)
    assert type(dLdt) is float


def test_certificate_uninfected_advisory_when_hypothesis_fails():
    # r0 = 0.82 exceeds 1 - q/delta = 1/6: the hypothesis fails even though
    # the sampled derivative stays negative.
    report = certify_global(SCENARIO_S1, target="E0", grid_points=12)
    assert not report.preconditions_met
    assert report.violations == ()
    assert report.min_margin < 0.0
    assert any("hypothesis" in note for note in report.notes)


def test_certificate_uninfected_clean_under_hypothesis():
    rng = np.random.default_rng(3)
    for _ in range(5):
        params = draw_certificate_params(rng)
        report = certify_global(params, target="E0", grid_points=12)
        assert report.preconditions_met
        assert report.violations == ()
        assert report.r0 < 1.0 - params.q / (params.d_I + params.q)


# A plausible E0 set on which R0 < 1 - q/delta holds, yet the grid finds
# violations.  With r_I far below r_T, T-tilde0 (about 1.4e9) lies far above
# T_max, and there the collected term
# -(r_T/T_max)(T + I - T0)(T + (r_I/r_T) I - T0) is positive.
FAR_R_I_PARAMS = ModelParameters(
    s=37.06800137764832, r_T=2.7172938167250864, r_I=0.014215168348310228,
    d_T=0.0027556424288158483, d_I=0.06617595041142241, T_max=7295727.84869788,
    beta=5.142370165409041e-07, p=0.27352108334343694, c=13.85603324734895,
    q=0.17328453190759652, eta=0.20334371483982078, epsilon=0.21393569860299405,
)


def test_certificate_finds_violations_although_the_hypothesis_holds():
    params = FAR_R_I_PARAMS
    assert _region(params)[0] > 100.0 * params.T_max
    report = certify_global(params, target="E0", grid_points=120)
    assert report.preconditions_met
    assert report.notes == ("hypothesis R0 < 1 - q/delta: gap 0.08281287660913036",)
    assert report.points_sampled == 1688640
    assert report.min_margin == 217169348.67326272
    assert report.tolerance == 1124.2966469170203
    assert len(report.violations) == 83280
    assert report.violations[0] == (
        655060.6067838593, 38105473.75937086, 21.61834982598133, 1194097.3771672777
    )
    assert report.violations[-1] == (
        5946544.544253885, 121671551.54785872, 21618349.825981308, 3354810.64459756
    )
    # The collected form agrees with the gradient route at the worst point,
    # so the violation is the function's, not a rounding artefact.
    row = max(report.violations, key=lambda row: row[3])
    worst = row[3]
    assert worst == report.min_margin
    state = State(*row[:3])
    T0 = uninfected_equilibrium(params).state.T
    collected = collected_derivative(params, T0, state)
    assert collected == pytest.approx(worst, rel=1e-9)
    T, I, _ = state
    assert -(params.r_T / params.T_max) * (T + I - T0) * (T + (params.r_I / params.r_T) * I - T0) > 0.0


def test_certificate_single_point_sits_on_the_anchor():
    # A one-point grid samples the equilibrium itself, where dL/dt is zero
    # by construction; the verdict then hinges on the hypothesis flag alone.
    report = certify_global(SCENARIO_S1, target="E0", grid_points=1)
    assert report.points_sampled == 1
    assert report.min_margin == 0.0
    assert report.violations == ()
    assert not report.preconditions_met


def test_certificate_infected_clean_on_theorem_slice():
    assert r0(SLICE_PARAMS) == pytest.approx(2.4995000249999997, rel=1e-12)
    report = certify_global(SLICE_PARAMS, target="Estar", grid_points=12)
    assert report.preconditions_met
    assert report.violations == ()


def test_certificate_infected_advisory_off_slice():
    report = certify_global(SCENARIO_S2, target="Estar", grid_points=8)
    assert not report.preconditions_met  # S2 is not on the theorem slice
    assert report.violations == ()


def test_certificate_infected_needs_an_equilibrium():
    with pytest.raises(DomainError):
        certify_global(SCENARIO_S1, target="Estar", grid_points=8)


def test_certificate_rejects_unknown_target():
    with pytest.raises(DomainError):
        certify_global(SCENARIO_S1, target="nowhere")


class Allocated(Exception):
    """Raised in place of building a certificate axis."""


def test_certificate_refuses_a_grid_beyond_two_to_the_twenty(monkeypatch):
    # The bound is checked before any axis is built, so no test allocates a
    # grid of that size: here building one raises Allocated instead.
    def allocated(*args):
        raise Allocated

    monkeypatch.setattr(lyapunov, "_grid_axis", allocated)
    with pytest.raises(Allocated):
        certify_global(SCENARIO_S1, target="E0", grid_points=2**20)
    for grid_points in (0, 2**20 + 1, 10**9, 20.0, "20"):
        with pytest.raises(DomainError, match=r"grid_points must be an integer from 1 to 1048576, got"):
            certify_global(SCENARIO_S1, target="E0", grid_points=grid_points)


def test_slice_equilibrium_reference_values():
    report = infected_equilibrium(SLICE_PARAMS)
    (point,) = report.candidates
    assert point.state.T == pytest.approx(4332606.221409141, rel=1e-9)
    assert point.state.I == pytest.approx(11591317.76950017, rel=1e-9)
    assert point.state.V == pytest.approx(23180317.27544644, rel=1e-9)


@pytest.mark.parametrize("params", [SCENARIO_S1, replace(SCENARIO_S1, T_max=1e300)])
def test_uninfected_lyapunov_beyond_the_float_range_raises(params):
    # (T - T0)**2 used to raise OverflowError here.
    with pytest.raises(DomainError, match="not finite"):
        lyapunov_uninfected(params, State(1e200, 1.0, 1.0))


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_lyapunov_rejects_non_finite_states(bad):
    estar = infected_equilibrium(SCENARIO_S2).candidates[0]
    for state in ((bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)):
        with pytest.raises(DomainError):
            lyapunov_uninfected(SCENARIO_S1, state)
        with pytest.raises(DomainError):
            lyapunov_infected(SCENARIO_S2, state, estar)


def test_uninfected_lyapunov_where_t_over_t0_underflows_raises():
    # ln(T / T0) used to raise ValueError: T / T0 rounds to 0.
    with pytest.raises(DomainError, match="underflows"):
        lyapunov_uninfected(SCENARIO_S1, (5e-324, 1.0, 1.0))


def test_uninfected_lyapunov_where_t_times_t0_underflows_raises():
    # T / T0 stays positive, but the collected route's s / (T T0) used to
    # raise ZeroDivisionError.
    params = replace(SCENARIO_S1, s=1e-3, r_T=1.0, d_T=0.999, T_max=1e-300)
    T0 = uninfected_equilibrium(params).state.T
    assert 5e-324 / T0 > 0.0 and 5e-324 * T0 == 0.0
    with pytest.raises(DomainError, match="underflows"):
        lyapunov_uninfected(params, (5e-324, 1.0, 1.0))


@pytest.mark.parametrize("component", [0, 1, 2], ids=["T", "I", "V"])
def test_infected_lyapunov_where_a_ratio_to_estar_underflows_raises(component):
    # ln(x / x*) used to raise ValueError: x / x* rounds to 0.
    estar = infected_equilibrium(SCENARIO_S2).candidates[0]
    state = list(estar.state)
    state[component] = 5e-324
    with pytest.raises(DomainError, match="underflows"):
        lyapunov_infected(SCENARIO_S2, tuple(state), estar)


# repr((L, dL/dt)) of both Lyapunov functions at four states on s1, s2, two
# draw_params sets and two draw_supercritical_params sets (seed 20261022),
# recorded while each function spelled its own L: one Volterra function now
# gives the same floats.
LYAPUNOV_STATES = [(1e3, 2.0, 1.0), (4e6, 3e5, 2e4), (1e-3, 1e-2, 1e5), (2.5e7, 7.0, 3e-4)]
LYAPUNOV_PINS = {
    ("uninfected", "s1"): ["(80266227.10503301, -587903.1466326913)", "(3291645.7171761547, -390872.7205496751)",
                           "(215709048.54279765, -98051521994.21014)", "(6022180.18106328, -1155178.7601514577)"],
    ("uninfected", "s2"): ["(81644062.15772745, -19905962.671480663)", "(3457018.6103884033, -6570612.834426685)",
                           "(219306437.85580346, -99569600776.31462)", "(5883034.797643747, -45300490.66615457)"],
    ("uninfected", "draw0"): ["(1167564.8718200587, -1506.3517349528458)", "(3339928.1137826974, -301382.27663077455)",
                              "(4716422.036242914, -208237645.8747812)", "(23568679.445623357, -11349484.70978971)"],
    ("uninfected", "draw1"): ["(367367.2085774831, -1156486.0125957266)", "(3826452.9471739614, -1255213.7056639793)",
                              "(1765492.0491585801, -1179572489867.4646)", "(24340866.713017996, -2953922.6107985335)"],
    ("uninfected", "super0"): ["(221.13060079152066, -22.80552634853821)", "(4295768.732393656, -2329823.171531384)",
                               "(4966.547616715252, -11630149.68464174)", "(24995013.356555786, -32421751.95684246)"],
    ("uninfected", "super1"): ["(981.9139362934494, -38.90162625807464)", "(4299955.518922426, 547176.6701451918)",
                               "(20.563856578448107, -389.1763552465729)", "(24999957.128112193, -1221812.5853659431)"],
    ("infected", "s2"): ["(193027779.91129482, -15174964.954376847)", "(43227632.8611137, -97388822.77255605)",
                         "(190703387.84059256, -39104762388.52368)", "(229201770.95949396, -162039279530.69366)"],
    ("infected", "super0"): ["(298627.74988062057, -786.7784121456134)", "(4093396.481083391, -2198488.360991196)",
                             "(685136.075028073, -450894421.7207028)", "(25095367.089383073, -31656212.574029285)"],
    ("infected", "super1"): ["(727096145.9245174, -77240441.64171301)", "(146972017.05319917, -80799476.1713258)",
                             "(1185975214.561497, -2925948211.3334174)", "(502355169.332197, -18560545337.432964)"],
}


def pinned_sets():
    rng = np.random.default_rng(20261022)
    sets = {"s1": SCENARIO_S1, "s2": SCENARIO_S2}
    sets.update((f"draw{k}", draw_params(rng)) for k in range(2))
    sets.update((f"super{k}", draw_supercritical_params(rng)) for k in range(2))
    return sets


def test_lyapunov_values_are_pinned():
    sets = pinned_sets()
    for (function, name), pins in LYAPUNOV_PINS.items():
        params = sets[name]
        if function == "uninfected":
            got = [repr(lyapunov_uninfected(params, state)) for state in LYAPUNOV_STATES]
        else:
            estar = infected_equilibrium(params).candidates[0]
            got = [repr(lyapunov_infected(params, state, estar)) for state in LYAPUNOV_STATES]
        assert got == pins, (function, name)


_ESTAR = infected_equilibrium(SCENARIO_S2).candidates[0]
_NO_E0 = replace(SCENARIO_S1, r_T=0.0, d_T=0.0)
_ZERO_T0 = replace(SCENARIO_S1, s=0.0, r_T=0.0)
_TINY_T0 = replace(SCENARIO_S1, s=1e-3, r_T=1.0, d_T=0.999, T_max=1e-300)  # T0 = 3.2e-152
# T0 = 1e-6, so at T = T0 the collected route's s / (T T0) overflows while
# L and the gradient route stay finite.
_HUGE_S = replace(SCENARIO_S1, s=1e300, r_T=1.0, d_T=1e306, T_max=1e300)
_NO_PRODUCTION = replace(SCENARIO_S2, p=0.0)
_POSITIVE = "Lyapunov evaluation needs a strictly positive state, got "

# (function, params, state, E* or None) -> (class, message), recorded while
# each function wrote its own refusals: each refusal in the order the
# functions check it, and, where two hold, the one raised first.
LYAPUNOV_REFUSALS = [
    (lyapunov_uninfected, SCENARIO_S1, (0.0, 1.0, 1.0), None, _POSITIVE + "(0.0, 1.0, 1.0)"),
    (lyapunov_uninfected, SCENARIO_S1, (1.0, -1.0, 1.0), None, _POSITIVE + "(1.0, -1.0, 1.0)"),
    (lyapunov_uninfected, SCENARIO_S1, (1.0, 1.0, 0.0), None, _POSITIVE + "(1.0, 1.0, 0.0)"),
    (lyapunov_uninfected, _NO_E0, (1.0, 1.0, 1.0), None, "no uninfected steady state: r_T = 0, d_T = 0 and s > 0"),
    (lyapunov_uninfected, _ZERO_T0, (1.0, 1.0, 1.0), None, "Lyapunov function is undefined for T0 = 0"),
    (lyapunov_uninfected, SCENARIO_S1, (5e-324, 1.0, 1.0), None, "Lyapunov function underflows at (5e-324, 1.0, 1.0)"),
    (lyapunov_uninfected, _TINY_T0, (5e-324, 1.0, 1.0), None, "Lyapunov function underflows at (5e-324, 1.0, 1.0)"),
    (lyapunov_uninfected, SCENARIO_S1, (1e200, 1.0, 1.0), None, "Lyapunov function is not finite at (1e+200, 1.0, 1.0)"),
    (lyapunov_uninfected, SCENARIO_S1, (float("nan"), 1.0, 1.0), None, "Lyapunov function is not finite at (nan, 1.0, 1.0)"),
    (lyapunov_uninfected, SCENARIO_S1, (1.0, float("inf"), 1.0), None, "Lyapunov function is not finite at (1.0, inf, 1.0)"),
    (lyapunov_uninfected, _HUGE_S, (1e-6, 1.0, 1.0), None, "Lyapunov function is not finite at (1e-06, 1.0, 1.0)"),
    (lyapunov_infected, SCENARIO_S2, (0.0, 1.0, 1.0), _ESTAR, _POSITIVE + "(0.0, 1.0, 1.0)"),
    (lyapunov_infected, SCENARIO_S2, (1.0, 1.0, 1.0), State(1.0, 0.0, 1.0),
     "infected-equilibrium Lyapunov function needs positive (T*, I*, V*)"),
    (lyapunov_infected, SCENARIO_S2, (1.0, 1.0, 1.0), State(-1.0, 1.0, 1.0),
     "infected-equilibrium Lyapunov function needs positive (T*, I*, V*)"),
    (lyapunov_infected, SCENARIO_S2, (5e-324, _ESTAR.state.I, _ESTAR.state.V), _ESTAR,
     "Lyapunov function underflows at (5e-324, 4441870.02376613, 8882851.673527507)"),
    (lyapunov_infected, SCENARIO_S2, (_ESTAR.state.T, _ESTAR.state.I, 5e-324), _ESTAR,
     "Lyapunov function underflows at (3908396.5694500296, 4441870.02376613, 5e-324)"),
    (lyapunov_infected, _NO_PRODUCTION, (1.0, 1.0, 5e-324), _ESTAR.state, "Lyapunov function underflows at (1.0, 1.0, 5e-324)"),
    (lyapunov_infected, _NO_PRODUCTION, (1.0, 1.0, 1.0), _ESTAR.state, "Lyapunov weight is undefined without virion production"),
    (lyapunov_infected, _NO_PRODUCTION, (1e300, 1e300, 1e300), _ESTAR.state,
     "Lyapunov weight is undefined without virion production"),
    (lyapunov_infected, SCENARIO_S2, (1e300, 1e300, 1e300), _ESTAR,
     "Lyapunov function is not finite at (1e+300, 1e+300, 1e+300)"),
    (lyapunov_infected, SCENARIO_S2, (1.0, float("nan"), 1.0), _ESTAR, "Lyapunov function is not finite at (1.0, nan, 1.0)"),
]


@pytest.mark.parametrize("function, params, state, estar, message", LYAPUNOV_REFUSALS)
def test_lyapunov_refusals_are_pinned(function, params, state, estar, message):
    with pytest.raises(DomainError) as raised:
        function(params, state) if estar is None else function(params, state, estar)
    assert type(raised.value) is DomainError
    assert str(raised.value) == message


def test_the_anchor_is_checked_before_the_state():
    # Where both fail, the anchor's refusal comes first; a state that is not
    # positive used to be refused first.
    with pytest.raises(DomainError, match="^no uninfected steady state"):
        lyapunov_uninfected(_NO_E0, (0.0, 1.0, 1.0))
    with pytest.raises(DomainError, match="^Lyapunov function is undefined for T0 = 0$"):
        lyapunov_uninfected(_ZERO_T0, (0.0, 1.0, 1.0))
    with pytest.raises(DomainError, match=r"needs positive \(T\*, I\*, V\*\)$"):
        lyapunov_infected(SCENARIO_S2, (0.0, 1.0, 1.0), State(1.0, 0.0, 1.0))
