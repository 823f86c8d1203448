"""Shared samplers and independent oracles for the test suite.

Samplers draw log-uniform parameter sets; all tests seed their own
numpy Generator so runs are reproducible.  any_value is the hypothesis
strategy for one field over its whole domain.  Oracles recompute quantities by
an independent route (bisection, finite differences, numpy eigensolvers)
so the closed forms in the package are checked against something they do
not share code with.
"""

from __future__ import annotations

import math
import signal

import numpy as np
import pytest
from hypothesis import strategies as st

from hcvdyn import (
    REGIME_UNIQUE,
    ModelError,
    ModelParameters,
    State,
    infected_equilibrium,
    r0,
    vector_field,
)

# A valid set with a unique infected equilibrium whose minor a3 overflows to
# inf; the values are strings, as a scenario file holds them.
OVERFLOWING_MINORS = {
    "s": "7185279323429804.0", "r_T": "2.3087838254430722e-45", "r_I": "3.5627608317084783e-22",
    "d_T": "4.7362281747125076e-157", "d_I": "6.618809129841355e-50", "T_max": "1.102761058134422e-34",
    "beta": "1.5828113398756662e+22", "p": "1.5335940461523477e+204", "c": "5.903998246723914e+108",
    "q": "5e-324", "eta": "0.15444422251938714", "epsilon": "0.38739835578406456",
}

# A valid set whose E* quadratic has a constant term (existence_condition)
# that overflows to -inf, and a rejected root at inf.
OVERFLOWING_CONSTANT_TERM = {
    "s": 1.2347665649844455e-204, "r_T": 2.392675980102134e-66, "r_I": 2.900723132772846e-199,
    "d_T": 4.852563583907121e49, "d_I": 5e-324, "T_max": 9.321163987036603e-107,
    "beta": 3.412293370689695e122, "p": 0.0, "c": 6.383049461704197e32,
    "q": 2.0161862133766807e119, "eta": 0.6388294271130139, "epsilon": 0.6129433763761614,
}

# Fields that make s1's E0 root T_max (1 - 2.4e-241), which rounds to T_max.
# There 1 - T/T_max is exactly 0 and d_T T is the only large term, so the
# relative residual is 1 although no float lies nearer the root.
E0_WITHIN_AN_ULP = {
    "s": 1.3863213939262216e-151, "r_T": 1.7119498222815848e40,
    "d_T": 4.04288909918404e-201, "T_max": 1.0110488016421182e263,
}

# One verdict line per acceptance criterion, printed after the run so the
# lines survive pytest's output capture.
CRITERION_LINES: dict[int, str] = {}


def record_criterion(number: int, summary: str, passed: bool) -> None:
    verdict = "PASS" if passed else "FAIL"
    CRITERION_LINES[number] = f"criterion {number:02d}: {verdict} - {summary}"


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    # Backstop: a criterion test that dies before its recorder runs (for
    # example while pre-generating inputs) still gets a FAIL line.
    if report.when == "call" and item.name.startswith("test_criterion_"):
        number = int(item.name.split("_")[2])
        if report.failed and number not in CRITERION_LINES:
            record_criterion(number, item.name, passed=False)
    return report


# Every test's call is bounded in wall time, so that a hang fails rather
# than stalling the suite: a wrong integrator stage runs on toward its
# 50,000,000-step budget.  The slowest test takes about 7 s.  pytest-timeout
# is not installed; SIGALRM serves where the platform has it.
TEST_TIME_LIMIT_S = 120


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        return (yield)

    def expire(signum, frame):
        pytest.fail(f"{item.nodeid} ran past {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(CRITERION_LINES):
        terminalreporter.write_line(CRITERION_LINES[number])


def pow10(rng: np.random.Generator, lo: float, hi: float) -> float:
    """10**U(lo, hi): log-uniform over [10**lo, 10**hi]."""
    return float(10.0 ** rng.uniform(lo, hi))


def any_value(name: str) -> st.SearchStrategy[float]:
    """A valid value of the field anywhere in its domain: log-uniform over
    [1e-300, 1e300], exactly 0 where allowed, or the smallest subnormal."""
    if name in ("eta", "epsilon"):
        return st.floats(0.0, 1.0, exclude_max=True)
    log_uniform = st.floats(-300.0, 300.0).map(lambda x: 10.0**x)
    special = [5e-324] if name in ("T_max", "c") else [0.0, 5e-324]
    return st.one_of(log_uniform, st.sampled_from(special))


def draw_params(rng: np.random.Generator) -> ModelParameters:
    """Random parameter set with a proper next-generation splitting.

    Keeping s below d_T T_max keeps the uninfected equilibrium below the
    carrying capacity, so the new-infection block of the linearisation is
    entrywise nonnegative and the spectral radius equals the closed form.
    """
    r_T = pow10(rng, -2.7, 0.53)
    d_T = pow10(rng, -3.0, -0.15)
    T_max = pow10(rng, 5.0, 8.0)
    s = pow10(rng, -1.0, math.log10(0.99 * d_T * T_max))
    return ModelParameters(
        s=s,
        r_T=r_T,
        r_I=pow10(rng, -2.7, 0.53),
        d_T=d_T,
        d_I=pow10(rng, -3.0, 0.7),
        T_max=T_max,
        beta=pow10(rng, -9.0, -6.0),
        p=pow10(rng, -2.0, 1.7),
        c=pow10(rng, -1.0, 1.34),
        q=float(rng.uniform(0.0, 0.5)),
        eta=float(rng.uniform(0.0, 0.9)),
        epsilon=float(rng.uniform(0.0, 0.9)),
    )


def draw_certificate_params(rng: np.random.Generator) -> ModelParameters:
    """Rejection-sample a set satisfying r0 < 1 - q/delta.

    That is the hypothesis of the global-stability statement for the
    uninfected equilibrium, so certificates on these sets must come back
    clean.  The ranges keep the proliferation rates comparable (r_I <= r_T)
    and the turnover rates ordered (d_I >= d_T), matching the regime the
    statement was written for.
    """
    while True:
        r_T = pow10(rng, -2.7, 0.53)
        d_T = pow10(rng, -3.0, -0.15)
        if not d_T < r_T:
            continue
        T_max = pow10(rng, 5.0, 8.0)
        params = ModelParameters(
            s=pow10(rng, -1.0, math.log10(d_T * T_max)),
            r_T=r_T,
            r_I=r_T * float(rng.uniform(0.5, 1.0)),
            d_T=d_T,
            d_I=pow10(rng, math.log10(max(d_T, 1e-3)), 0.7),
            T_max=T_max,
            beta=pow10(rng, -9.0, -6.0),
            p=pow10(rng, -2.0, 1.7),
            c=pow10(rng, -1.0, 1.06),
            q=float(rng.uniform(0.05, 0.5)),
            eta=float(rng.uniform(0.0, 0.9)),
            epsilon=float(rng.uniform(0.0, 0.9)),
        )
        delta = params.d_I + params.q
        if params.q / delta < 1.0 and r0(params) < 1.0 - params.q / delta:
            return params


def draw_supercritical_params(rng: np.random.Generator) -> ModelParameters:
    """Rejection-sample a set with r0 > 1.05 and a unique infected equilibrium."""
    while True:
        params = draw_params(rng)
        try:
            if r0(params) < 1.05:
                continue
            report = infected_equilibrium(params)
        except ModelError:
            continue
        if report.regime == REGIME_UNIQUE:
            return params


def draw_state_in_omega(rng: np.random.Generator, t_tilde0: float, v_cap: float) -> State:
    """Strictly positive state inside the invariant region.

    T + I stays below the cell ceiling and V below the virion ceiling, so
    the run-specific V bound equals the ceiling itself.
    """
    total = t_tilde0 * float(rng.uniform(0.05, 0.999))
    split = float(rng.uniform(0.001, 0.999))
    return State(
        total * split,
        total * (1.0 - split),
        v_cap * float(rng.uniform(1e-6, 0.999)),
    )


def bisect_root(f, lo: float, hi: float, iterations: int = 200) -> float:
    """Plain bisection; independent root oracle for closed-form checks."""
    flo = f(lo)
    assert flo * f(hi) <= 0.0, "bisection oracle needs a sign change"
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def fd_jacobian(params: ModelParameters, y, rel_step: float = 3e-6) -> np.ndarray:
    """Central-difference Jacobian oracle."""
    y = np.asarray(tuple(y), dtype=float)
    J = np.zeros((3, 3))
    for j in range(3):
        h = rel_step * max(abs(y[j]), 1.0)
        up = y.copy()
        dn = y.copy()
        up[j] += h
        dn[j] -= h
        J[:, j] = (vector_field(params, up) - vector_field(params, dn)) / (2.0 * h)
    return J


def minor_coefficients(J: np.ndarray) -> tuple[float, float, float]:
    """Characteristic coefficients of -J by principal-minor expansion.

    For det(lambda I - J) = lambda^3 + a1 lambda^2 + a2 lambda + a3:
    a1 = -tr J, a2 = sum of principal 2x2 minors, a3 = -det J.
    """
    a1 = -float(np.trace(J))
    a2 = float(
        J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        + J[0, 0] * J[2, 2] - J[0, 2] * J[2, 0]
        + J[1, 1] * J[2, 2] - J[1, 2] * J[2, 1]
    )
    a3 = -float(np.linalg.det(J))
    return a1, a2, a3
