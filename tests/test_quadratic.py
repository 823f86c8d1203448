"""The one quadratic solver behind T0, the invariant region's ceiling, E*
and the E0 block eigenvalues, against decimal at 80 digits.

_quadratic_roots takes the plain route where b^2 - 4ad is a finite normal
float, and otherwise solves the equation scaled by powers of two, so a root
is lost only when it lies outside the float range itself.  The pins and the
whole-domain checks here are sets the plain route alone refused.
"""

import math
import random
import subprocess
import sys
from dataclasses import replace
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import any_value

from hcvdyn import (
    PARAMETER_NAMES,
    SCENARIO_S1,
    DomainError,
    ModelError,
    ModelParameters,
    uninfected_equilibrium,
    uninfected_local,
)
from hcvdyn.formats import Scenario, render_scenario
from hcvdyn.model import (
    DEFAULT_INITIAL_STATE,
    _quadratic_roots,
    _quadratic_roots_array,
    _region,
    positive_logistic_root,
)

EXACT = Context(prec=80, Emax=10**6, Emin=-(10**6))
FLOAT_MAX = Decimal(sys.float_info.max)
SMALLEST = Decimal(5e-324)

# Whole-domain sets (from the 20,000-draw sample below) that the plain route
# refused and that analyze now answers, with their decimal answers.  In the
# first, g^2 is finite but 4 s k overflows ("uninfected equilibrium T0 is not
# finite"); in the second, trace^2 of the E0 block overflows ("E0
# eigenvalues are not finite").
T0_PIN = dict(
    s=1.6059484463526526e164, r_T=1.0378895204753431e48, r_I=8.263063001673519e90, d_T=2.709505887367695e-210,
    d_I=5e-324, T_max=6.637147734151798e-104, beta=3.392226303104842e-238, p=2.850730940109298e232,
    c=1.6417531631418575e131, q=7.429175374854339e-42, eta=0.8805305462691764, epsilon=0.04672381254907876,
)
T0_PIN_EXACT = "3204652.7612600657386"
EIGENVALUE_PIN = dict(
    s=1.5105016242840484e-251, r_T=1.5654905853025832e-223, r_I=1.6255666176453502e191, d_T=4.0779466524862325e-20,
    d_I=5.021798196987934e258, T_max=1.0001313638450586e-07, beta=5e-324, p=2.6061047812010053e-62,
    c=9.629925535029757e-136, q=1.6215080052315957e90, eta=0.518318714645844, epsilon=0.4309313149850351,
)
EIGENVALUE_PIN_EXACT = ("-9.6299255350297568e-136", "-5.0217981969879336e258")


def exact_roots(a, b, d):
    """(True, (u/a, d/u)) for the real roots of a x^2 + b x + d, as decimals
    without cancellation, or (False, (real part, |imaginary part|)) for a
    complex pair; the coefficients are floats or decimals."""
    with localcontext(EXACT):
        a, b, d = (Decimal(x) for x in (a, b, d))
        disc = b * b - 4 * a * d
        if disc < 0:
            return False, (-b / (2 * a), abs((-disc).sqrt() / (2 * a)))
        u = -(b + disc.sqrt() if b >= 0 else b - disc.sqrt()) / 2
        return True, (u / a, d / u) if u else (Decimal(0), Decimal(0))


def array_roots(a, b, d):
    """_quadratic_roots_array on one-element arrays, inside the errstate the
    sweep kernel runs it in."""
    with np.errstate(all="ignore"):
        return _quadratic_roots_array(np.array([a]), np.array([b]), np.array([d]))


def in_range(x):
    return x == 0 or SMALLEST <= abs(x) <= FLOAT_MAX


def ulps(x, exact):
    """Distance of the float x from exact, in ulps of exact's nearest float."""
    with localcontext(EXACT):
        return float(abs(Decimal(x) - exact) / Decimal(math.ulp(float(exact))))


def exact_t0(s, g, k):
    """Decimal positive root of s + g x - k x^2."""
    if s == 0 and g <= 0:
        return Decimal(0)
    _, roots = exact_roots(-k, g, s)
    return max(roots)


def exact_block_eigenvalues(J):
    """Decimal eigenvalues of J(E0)'s infected block, from its float entries."""
    with localcontext(EXACT):
        m11, m12, m21, m22 = (Decimal(float(x)) for x in (J[1, 1], J[1, 2], J[2, 1], J[2, 2]))
        return exact_roots(1, -(m11 + m22), m11 * m22 - m12 * m21)


@pytest.mark.parametrize("a, b, d", [
    (1.0, -1e200, 1.0),              # b^2 overflows
    (1e200, 0.0, -1e200),            # 4ad overflows; roots +-1
    (1e-200, -3e-200, 2e-200),       # everything underflows; roots 1 and 2
    (1.0, -9e-163, 0.0),             # b^2 underflows; roots 0 and 9e-163
    (-1.12e-8, 0.049, 1e300),        # the invariant region's ceiling on s1 with s = 1e300
    (1e100, 1e200, 1e300),           # complex, with b^2 and 4ad both overflowing
    (1.0, 2.0, 3.0),                 # complex, plain route
    (3.0, -7.0, 2.0),                # real, plain route
])
def test_roots_are_within_an_ulp_of_decimal(a, b, d):
    real, exact = exact_roots(a, b, d)
    x1, x2 = _quadratic_roots(a, b, d)
    if real:
        assert ulps(x1, exact[0]) <= 1 and ulps(x2, exact[1]) <= 1
    else:
        assert x1 == x2.conjugate() and x1.imag > 0
        assert ulps(x1.real, exact[0]) <= 1 and ulps(x1.imag, exact[1]) <= 1
    # The array twin repeats the same operations.
    y1, y2, y_real = array_roots(a, b, d)
    assert bool(y_real[0]) == real
    if real:
        assert (y1[0], y2[0]) == (x1, x2)
    else:
        assert np.isnan(y1[0]) and np.isnan(y2[0])


def test_zero_u_and_roots_beyond_the_float_range():
    assert _quadratic_roots(1.0, 0.0, 0.0) == (0.0, 0.0)
    # 2e308 is beyond the range, 5e-299 is not; neither raises OverflowError.
    x1, x2 = _quadratic_roots(1e-10, -2e298, 1.0)
    assert x1 == math.inf and x2 == 1.0 / 2e298
    y1, y2, _ = array_roots(1e-10, -2e298, 1.0)
    assert (y1[0], y2[0]) == (x1, x2)


def test_the_region_ceiling_is_the_exact_root_where_g2_plus_4sk_overflows():
    params = replace(SCENARIO_S1, s=1e300, r_I=1e20)
    exact = exact_t0(params.s, params.r_T - params.d_T, params.r_I / params.T_max)
    assert ulps(_region(params)[0], exact) <= 1


def test_t0_pin_the_plain_route_refused():
    T0 = uninfected_equilibrium(ModelParameters(**T0_PIN)).state.T
    assert ulps(T0, Decimal(T0_PIN_EXACT)) <= 1


def test_e0_eigenvalue_pin_the_plain_route_refused():
    report = uninfected_local(ModelParameters(**EIGENVALUE_PIN))
    _, (large, small) = exact_block_eigenvalues(report.jacobian)
    assert [float(x) for x in (small, large)] == [float(x) for x in EIGENVALUE_PIN_EXACT]
    # The +sqrt root first, then the -sqrt root.
    assert ulps(report.eigenvalues[1].real, small) <= 1 and ulps(report.eigenvalues[2].real, large) <= 1


@pytest.mark.parametrize("fields", [
    EIGENVALUE_PIN,
    # trace^2 of the E0 block overflows.
    dict(s=5.6e-21, r_T=3.5e-89, r_I=6.6e142, d_T=2.2e-264, d_I=9.6e277, T_max=6.1e-27,
         beta=1e-108, p=4e-113, c=2.4e57, q=2e-74, eta=0.0, epsilon=0.0),
    dict(s=4.0e75, r_T=0.1416, r_I=1.0, d_T=2.6e-241, d_I=3.5e192, T_max=1.0,
         beta=0.0, p=0.0, c=5e-324, q=0.0, eta=0.0, epsilon=0.0),
    # OVERFLOWING_REGION_MASK of test_cli.py: trace^2 overflows here too.
    dict(s=1.234210004894301e37, r_T=4.878078517193004e88, r_I=8.0793235049216e-292,
         d_T=1.6308333013868833e-285, d_I=9.462271156896241e-203, T_max=2.0568069766764265e-72,
         beta=4.503900841667006e-255, p=1.4542933404974727e-220, c=1.947961548790704e199,
         q=6.512960630525431e-253, eta=0.892241916140536, epsilon=0.08722129978085853),
    # The E0 block's determinant overflows: b_eff T0 times p_eff is inf.
    dict(s=3.3622883766452427e-167, r_T=54.07186503807023, r_I=1.8557518069925053e-49,
         d_T=1.8286263426027657e-189, d_I=2.9776554603613745e-135, T_max=1.614534821973249e122,
         beta=27292810069.448376, p=2.309806188057537e255, c=1.2737710709712195e-75,
         q=1.6463369106156204e-59, eta=0.7086767780172942, epsilon=0.8185600955545735),
])
def test_e0_eigenvalues_the_plain_route_refused_match_decimal(fields):
    report = uninfected_local(ModelParameters(**fields))
    real, exact = exact_block_eigenvalues(report.jacobian)
    assert real
    # exact holds (u/a, d/u); the +sqrt root is the larger.
    for z, root in zip(report.eigenvalues[1:], sorted(exact, reverse=True)):
        assert z.imag == 0.0 and ulps(z.real, root) <= 1


@pytest.mark.parametrize("fields", [T0_PIN, EIGENVALUE_PIN])
def test_analyze_answers_the_pins(tmp_path, fields):
    scn = tmp_path / "pin.scn"
    scn.write_text(render_scenario(Scenario(ModelParameters(**fields), DEFAULT_INITIAL_STATE)))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "hcvdyn", "analyze", str(scn), "--machine"],
        capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert f"t0 = {uninfected_equilibrium(ModelParameters(**fields)).state.T!r}\n" in done.stdout


def whole_domain_draws(n=20_000, seed=7):
    """The whole-domain sample: each rate 10^U(-300, 300), or one time in ten
    0 or 5e-324 at even odds; eta and epsilon uniform on [0, 1)."""
    rng = random.Random(seed)
    for _ in range(n):
        fields = {}
        for name in PARAMETER_NAMES:
            if name in ("eta", "epsilon"):
                fields[name] = rng.random()
            elif rng.random() < 0.1:
                fields[name] = 0.0 if rng.random() < 0.5 else 5e-324
            else:
                fields[name] = 10.0 ** rng.uniform(-300.0, 300.0)
        try:
            yield ModelParameters(**fields)
        except ModelError:
            pass


def t0_is_answered(params):
    """False where T0 is not finite, or more than 4 ulp from the exact root,
    although k = r_T/T_max is finite and positive and that root is in the
    float range."""
    k = params.r_T / params.T_max if params.r_T > 0 else 0.0
    if not 0.0 < k < math.inf:
        return True
    exact = exact_t0(params.s, params.r_T - params.d_T, k)
    return not in_range(exact) or ulps(positive_logistic_root(params.s, params.r_T - params.d_T, k), exact) <= 4


def e0_eigenvalues_are_answered(params):
    """False where uninfected_local refuses E0 eigenvalues as not finite
    although every J(E0) entry is finite and the exact eigenvalues are in range."""
    try:
        T0 = uninfected_equilibrium(params).state.T
        uninfected_local(params)
    except DomainError as exc:
        if "E0 eigenvalues are not finite" not in str(exc):
            return True
    except ModelError:
        return True
    else:
        return True
    b_eff, p_eff = (1.0 - params.eta) * params.beta, (1.0 - params.epsilon) * params.p
    block_11 = params.r_I * (1.0 - T0 / params.T_max) - (params.d_I + params.q)
    J = np.array([
        [-params.s / T0 - params.r_T * T0 / params.T_max, -params.r_T * T0 / params.T_max + params.q, -b_eff * T0],
        [0.0, block_11, b_eff * T0],
        [0.0, p_eff, -params.c],
    ])
    return not np.isfinite(J).all() or any(abs(x) > FLOAT_MAX for x in exact_block_eigenvalues(J)[1])


def test_whole_domain_count():
    sets = list(whole_domain_draws())
    assert len(sets) == 18_090
    assert sum(not t0_is_answered(p) for p in sets) == 0
    assert sum(not e0_eigenvalues_are_answered(p) for p in sets) == 0


whole_domain = st.fixed_dictionaries({name: any_value(name) for name in PARAMETER_NAMES}).map(
    lambda fields: ModelParameters(**fields)
)


@settings(max_examples=300, deadline=None)
@given(params=whole_domain)
def test_t0_and_e0_eigenvalues_are_answered_over_the_whole_domain(params):
    assert t0_is_answered(params)
    assert e0_eigenvalues_are_answered(params)
