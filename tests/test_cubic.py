"""cubic_roots against mpmath.polyroots: one real root by Newton's method
(Kahan 1986) and the deflated quadratic through model._quadratic_roots.

The coefficients are scaled by powers of two, so the bounds hold at any
magnitude in the float range: each root lies within 1e-13 of the largest
root plus what a perturbation of each coefficient by 16 ulps allows.
"""

import itertools
import math
import sys

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hcvdyn import SCENARIO_S2, cubic_roots, stability_report
from hcvdyn.cli import main

EPS = sys.float_info.epsilon


def reference_roots(a1, a2, a3, dps=60):
    """Roots of the monic cubic at dps digits, solved at O(1) scale."""
    with mpmath.workdps(dps):
        a = [mpmath.mpf(x) for x in (a1, a2, a3)]
        k = max(abs(a[0]), mpmath.sqrt(abs(a[1])), mpmath.cbrt(abs(a[2]))) or mpmath.mpf(1)
        roots = mpmath.polyroots([1, a[0] / k, a[1] / k**2, a[2] / k**3], maxsteps=200, extraprec=200)
        return [complex(z * k) for z in roots]


def within(ours, ref, tolerances):
    """Whether some pairing puts each root of ours within its reference's tolerance."""
    return any(
        all(abs(z - w) <= t for z, w, t in zip(perm, ref, tolerances))
        for perm in itertools.permutations(ours)
    )


def tolerances(a1, a2, a3, ref, floor):
    """floor times the largest root plus each root's first-order error when
    every a_k moves by 16 ulps of itself: 16 eps sum_k |a_k| |r|^(3-k) / |p'(r)|,
    taken at the scale S = max(|a1|, sqrt|a2|, |a3|^(1/3)).  Near a multiple
    root p'(r) is small, and no float method does better than this allows."""
    S = max(abs(a1), math.sqrt(abs(a2)), abs(a3) ** (1.0 / 3.0)) or 1.0
    b1, b2, b3 = a1 / S, a2 / S / S, a3 / S / S / S
    scaled = [w / S for w in ref]
    out = []
    for i, r in enumerate(scaled):
        slope = abs(math.prod(r - w for j, w in enumerate(scaled) if j != i))
        spread = abs(b1) * abs(r) ** 2 + abs(b2) * abs(r) + abs(b3)
        out.append(floor * max(map(abs, ref)) + (16 * EPS * S * spread / slope if slope else math.inf))
    return out


def check_order(roots):
    """Three real roots descend; otherwise the real root, then +imag, then -imag."""
    assert len(roots) == 3 and all(isinstance(z, complex) for z in roots)
    if all(z.imag == 0.0 for z in roots):
        assert roots[0].real >= roots[1].real >= roots[2].real
    else:
        assert roots[0].imag == 0.0
        assert roots[1].imag > 0.0
        assert roots[2] == roots[1].conjugate()


def test_large_coefficients_keep_the_small_pair():
    # x^3 + k x^2 + k x + k = (x + k - 1)(x^2 + x + 1) + O(1) for k = 1e150:
    # the pair is -1/2 +- i sqrt(3)/2 to within 1/k.  A closed form that
    # takes the pair as a difference of O(1) terms of the cubic scaled by 1/k
    # loses it to 0.
    big, plus, minus = cubic_roots(1e150, 1e150, 1e150)
    assert big == pytest.approx(-1e150, rel=1e-15)
    assert abs(plus - complex(-0.5, math.sqrt(3.0) / 2.0)) <= 1e-15
    assert abs(minus - complex(-0.5, -math.sqrt(3.0) / 2.0)) <= 1e-15


def deflated_reference(a1, a2, a3, dps=400):
    """Roots of a monic cubic whose a1 dwarfs a2 and a3, at dps digits: the
    root near -a1 by Newton's method, the pair from the deflated quadratic."""
    with mpmath.workdps(dps):
        a = [mpmath.mpf(x) for x in (a1, a2, a3)]
        cubic = lambda x: ((x + a[0]) * x + a[1]) * x + a[2]
        big = mpmath.findroot(cubic, -a[0], solver="newton", verify=False)
        c1 = big + a[0]
        c0 = c1 * big + a[1]
        root = mpmath.sqrt(mpmath.mpc(c1 * c1 - 4 * c0))
        return [complex(big), complex((-c1 + root) / 2), complex((-c1 - root) / 2)]


@pytest.mark.parametrize("k", [1e162, 1e300, 1e308])
def test_an_underflowing_scaled_a3_keeps_the_small_pair(k):
    # Scaled by 2^-3e, a3 = k underflows to 0 for these k (1.5e161 does not).
    # The pair -1/2 +- i sqrt(3)/2 then comes from the unscaled a2 and a3,
    # deflated by the large root; the scaled cubic alone gave (0, -1, -k).
    ours = cubic_roots(k, k, k)
    check_order(ours)
    ref = deflated_reference(k, k, k)
    assert within(ours, ref, [4 * EPS * abs(w) for w in ref])


SIGNED_MAGNITUDE = st.builds(
    lambda sign, exponent: sign * 10.0 ** exponent,
    st.sampled_from((-1.0, 1.0)),
    st.floats(min_value=-100.0, max_value=100.0),
)


@settings(max_examples=300, deadline=None)
@given(SIGNED_MAGNITUDE, SIGNED_MAGNITUDE, SIGNED_MAGNITUDE)
# The scaled a3 underflows and the pair, -5e-91 +- 1e-72 i, comes from the
# unscaled a2 and a3 (with a negative large root, +imag first).
@example(-1e90, -1.0, -1e-54)
def test_roots_are_accurate_over_two_hundred_decades(a1, a2, a3):
    ours = cubic_roots(a1, a2, a3)
    check_order(ours)
    ref = reference_roots(a1, a2, a3)
    assert within(ours, ref, tolerances(a1, a2, a3, ref, floor=1e-13))


def test_integer_roots_are_recovered():
    # All 455 cubics with roots in -6..6.  A double root moves by about
    # sqrt(eps) under rounding, so the bound is 1e-7 of the largest root.
    for roots in itertools.combinations_with_replacement(range(-6, 7), 3):
        r1, r2, r3 = roots
        a = (-(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3)
        ref = [complex(r) for r in roots]
        bound = 1e-7 * max(1, *map(abs, roots))
        assert within(cubic_roots(*map(float, a)), ref, [bound] * 3), roots


def test_root_order():
    assert cubic_roots(-6.0, 11.0, -6.0) == pytest.approx((3, 2, 1), rel=1e-15)
    assert cubic_roots(1.0, 1.0, 1.0) == pytest.approx((-1, 1j, -1j), abs=1e-15)
    # (x - 1)^2 (x + 3) and (x + 2)^3: repeated roots descend too.
    assert cubic_roots(1.0, -5.0, 3.0) == (1 + 0j, 1 + 0j, -3 + 0j)
    assert cubic_roots(6.0, 12.0, 8.0) == (-2 + 0j, -2 + 0j, -2 + 0j)
    for a in ((-6.0, 11.0, -6.0), (1.0, 1.0, 1.0), (-1.0, -1.0000000114105179, 1.0)):
        check_order(cubic_roots(*a))
    check_order(stability_report(SCENARIO_S2).estar_local.eigenvalues)


@pytest.mark.parametrize("coefficients", [
    (math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan),
    (math.inf, 1.0, 1.0), (1.0, -math.inf, 1.0), (1.0, 1.0, math.inf), (math.inf, math.inf, math.inf),
])
def test_non_finite_coefficients_return_three_values(coefficients):
    roots = cubic_roots(*coefficients)
    assert len(roots) == 3 and all(isinstance(z, complex) for z in roots)


def test_analyze_pins_the_s2_eigenvalues(capsys):
    # An 80-digit reference gives the middle root as -0.6520445232145824.
    assert main(["analyze", "s2", "--machine"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "estar_eigenvalues = -0.47208496441714937, -0.6520445232145824, -1.5570714138477286" in lines
