"""The blocked grid certificate against a whole-grid reference.

reference_certificate evaluates the whole grid at once, as certify_global
did before it worked in blocks of T-slices.  The blocked evaluation must
give the same report bit for bit: points sampled, worst margin, tolerance,
and the violations with their order.  For E0 the reference takes the rate
at V = 0 on the whole (T, I) grid, where certify_global drops the V axis
because its weight cancels every V term, and the term scale over the whole
N^3 grid, so each grid also checks that the ends of the V axis give the
tolerance.  With v_inclusive=True it evaluates the E0 rate at every grid
point instead, as certify_global did before; that route is kept here only.
"""

import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import hypothesis
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import any_value

from hcvdyn import (
    SCENARIO_S1,
    SCENARIO_S2,
    DomainError,
    ModelError,
    ModelParameters,
    certify_global,
    derive_constants,
    infected_equilibrium,
    r0_from_T0,
    uninfected_equilibrium,
)
from hcvdyn import lyapunov, model
from hcvdyn.cli import main
from hcvdyn.equilibria import REGIME_UNIQUE
from hcvdyn.model import PARAMETER_NAMES, PLAUSIBLE_RANGES, _field
from hcvdyn.lyapunov import CertificateReport, _grid_axis
from hcvdyn.tolerances import DEFAULT_TOLERANCES

# PLAUSIBLE_RANGES has no range for r_I, eta and epsilon.
RANGES = dict(PLAUSIBLE_RANGES, r_I=(1e-3, 3.4), eta=(0.0, 0.99), epsilon=(0.0, 0.99))

# Theorem-slice set with a unique infected equilibrium (tests/test_lyapunov.py).
SLICE_PARAMS = replace(
    SCENARIO_S2, r_T=0.112, r_I=0.112, d_T=0.8, d_I=0.3, q=0.5, s=8e6, T_max=1e7
)


def reference_certificate(params, target="E0", grid_points=20, v_inclusive=False):
    """certify_global's report, evaluated over the whole grid at once."""
    if grid_points < 1:
        raise DomainError(f"grid_points must be at least 1, got {grid_points!r}")
    if target not in ("E0", "Estar"):
        raise DomainError(f"target must be 'E0' or 'Estar', got {target!r}")
    cons = derive_constants(params)
    bound_TI, bound_V, _ = model._region(params)
    if not math.isfinite(bound_TI) or bound_TI <= 0:
        raise DomainError("certificate region is degenerate for this parameter set")
    e0 = uninfected_equilibrium(params).state
    R0 = r0_from_T0(params, e0.T)

    notes: list[str] = []
    if target == "E0":
        anchor = e0
        if cons.delta > 0:
            gap = (1.0 - params.q / cons.delta) - R0
            preconditions_met = gap > 0
            notes.append(f"hypothesis R0 < 1 - q/delta: gap {gap!r}")
        else:
            preconditions_met = False
            notes.append("hypothesis undefined: delta = 0")
    else:
        report = infected_equilibrium(params)
        if report.regime != REGIME_UNIQUE:
            raise DomainError(
                f"Estar certificate needs a unique infected equilibrium, regime is {report.regime}"
            )
        anchor = report.candidates[0].state
        rel = lambda x, y: abs(x - y) <= 1e-9 * max(abs(x), abs(y), 1e-300)
        on_slice = (
            rel(params.r_I, params.r_T)
            and rel(params.s, params.d_T * params.T_max)
            and rel(cons.delta, params.d_T)
        )
        preconditions_met = on_slice and R0 > 1
        notes.append(
            f"theorem slice (r_I = r_T, s = d_T T_max, delta = d_T): {on_slice}; R0 = {R0!r}"
        )

    if grid_points == 1:
        T = np.array([anchor.T])
        I = np.array([anchor.I])
        V = np.array([anchor.V])
    else:
        axis_T = _grid_axis(bound_TI, grid_points)
        axis_I = _grid_axis(bound_TI, grid_points)
        axis_V = _grid_axis(bound_V, grid_points)
        T, I, V = (g.ravel() for g in np.meshgrid(axis_T, axis_I, axis_V, indexing="ij"))
        with np.errstate(over="ignore"):  # T + I may pass the float maximum
            keep = T + I <= bound_TI * (1.0 + 1e-12)
        T, I, V = T[keep], I[keep], V[keep]

    b_eff = (1.0 - params.eta) * params.beta

    def rate_terms(T, I, V):
        f0, f1, f2 = _field(params, T, I, V)
        g_T = 1.0 - anchor.T / T
        if target == "E0":
            g_I = np.ones_like(T)
            g_V = np.full_like(T, b_eff * anchor.T / params.c)
        else:
            g_I = 1.0 - anchor.I / I
            w = b_eff * anchor.T * anchor.V / ((1.0 - params.epsilon) * params.p * anchor.I)
            g_V = w * (1.0 - anchor.V / V)
        return g_T * f0, g_I * f1, g_V * f2

    with np.errstate(over="ignore", invalid="ignore"):
        t0, t1, t2 = rate_terms(T, I, V)
        dLdt = t0 + t1 + t2
        term_scale = np.abs(t0) + np.abs(t1) + np.abs(t2)
        if target == "E0" and not v_inclusive:
            # Each (T, I) pair's rate at V = 0, repeated along its V row.
            pair_T, pair_I = T[::grid_points], I[::grid_points]
            t0, t1, t2 = rate_terms(pair_T, pair_I, np.zeros_like(pair_T))
            dLdt = np.repeat(t0 + t1 + t2, grid_points)
    scale_peak = np.max(term_scale, initial=0.0)
    if not np.isfinite(scale_peak):
        raise DomainError("Lyapunov derivative leaves the float range on the certificate grid")
    tolerance = DEFAULT_TOLERANCES.certificate_margin * max(1.0, float(scale_peak))
    min_margin = float(np.max(dLdt, initial=-math.inf))
    bad = np.flatnonzero(dLdt > tolerance)
    violations = tuple((float(T[k]), float(I[k]), float(V[k]), float(dLdt[k])) for k in bad)
    return CertificateReport(
        target=target,
        grid_shape=(grid_points, grid_points, grid_points),
        points_sampled=int(T.size),
        min_margin=min_margin,
        tolerance=tolerance,
        violations=violations,
        preconditions_met=preconditions_met,
        r0=R0,
        notes=tuple(notes),
    )


def assert_identical(params, target, grid_points):
    got = certify_global(params, target, grid_points)
    ref = reference_certificate(params, target, grid_points)
    assert got.points_sampled == ref.points_sampled
    # repr tells -0.0 from 0.0 and compares NaN with itself.
    assert repr(got.min_margin) == repr(ref.min_margin)
    assert repr(got.tolerance) == repr(ref.tolerance)
    assert got.violations == ref.violations
    assert repr(got) == repr(ref)
    return got


@pytest.mark.parametrize("grid_points", [1, 2, 3, 40, 127, 128, 129, 140])
@pytest.mark.parametrize(
    "params, target",
    [(SCENARIO_S1, "E0"), (SCENARIO_S2, "E0"), (SCENARIO_S2, "Estar"), (SLICE_PARAMS, "Estar")],
)
def test_blocks_equal_the_whole_grid(params, target, grid_points):
    assert_identical(params, target, grid_points)


def test_blocks_keep_violations_in_row_major_order():
    # r_I far below r_T: the E0 grid has violations in many T-slices.
    params = replace(SCENARIO_S1, r_I=1e-3 * SCENARIO_S1.r_T, q=0.0)
    report = assert_identical(params, "E0", 40)
    assert len(report.violations) > 100
    slices = {row[0] for row in report.violations}
    assert len(slices) > 2


def test_nan_term_scale_in_a_later_block_raises(monkeypatch):
    # An overflowing field (inf - inf) makes a term scale NaN.  Stand in for
    # the overflow with NaN in dT/dt on one slice of the last block: the
    # certificate raises instead of reporting a tolerance the NaN lowered.
    params = replace(SCENARIO_S1, q=0.0)
    monkeypatch.setattr(lyapunov, "DEFAULT_TOLERANCES", replace(DEFAULT_TOLERANCES, certificate_margin=1e-2))
    n = 60
    nan_slice = _grid_axis(model._region(params)[0], n)[-2]

    def overflowing_field(params, T, I, V):
        f0, f1, f2 = model._field(params, T, I, V)
        return np.where(T == nan_slice, math.nan, f0), f1, f2

    monkeypatch.setattr(lyapunov, "_field", overflowing_field)
    with pytest.raises(DomainError, match="float range"):
        certify_global(params, "E0", n)


def test_overflowing_field_on_the_grid_raises():
    # The field overflows on the grid; this used to report NaN as the worst
    # margin, an infinite tolerance and a clean certificate.
    params = replace(SCENARIO_S1, r_I=1e-300, beta=1e-19)
    with pytest.raises(DomainError, match="float range"):
        certify_global(params, "E0", 20)


@pytest.mark.parametrize("bound", [0.0, 5e-324, 1e-320, math.inf, math.nan])
def test_degenerate_axis_raises(bound):
    with pytest.raises(DomainError, match="degenerate"):
        _grid_axis(bound, 5)


def test_zero_virion_ceiling_raises():
    # p = 0 is a valid set, but its V axis is [0, 0].
    params = replace(SCENARIO_S1, p=0.0)
    with pytest.raises(DomainError, match="degenerate"):
        certify_global(params, "E0", 5)
    assert certify_global(params, "E0", 1).violations == ()


def _log_uniform(name):
    lo, hi = RANGES[name]
    if lo <= 0.0:
        return st.floats(lo, hi)
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)


@st.composite
def plausible_params(draw):
    values = {name: draw(_log_uniform(name)) for name in RANGES}
    return ModelParameters(**values)


@settings(max_examples=60, deadline=None)
@given(
    params=plausible_params(),
    target=st.sampled_from(["E0", "Estar"]),
    grid_points=st.integers(1, 60),
)
def test_blocks_equal_the_whole_grid_over_plausible_sets(params, target, grid_points):
    try:
        ref = reference_certificate(params, target, grid_points)
    except ModelError as exc:
        # No unique E*, or its radical cross-check raises: the same error.
        with pytest.raises(type(exc)) as raised:
            certify_global(params, target, grid_points)
        assert str(raised.value) == str(exc)
        return
    assert repr(certify_global(params, target, grid_points)) == repr(ref)


whole_domain_params = st.fixed_dictionaries({name: any_value(name) for name in PARAMETER_NAMES}).map(
    lambda fields: ModelParameters(**fields)
)


def _report_or_error(route, *args):
    try:
        return route(*args), None
    except ModelError as exc:
        return None, exc


@settings(max_examples=300, deadline=None)
@given(params=st.one_of(plausible_params(), whole_domain_params), grid_points=st.integers(1, 24))
def test_v_free_e0_report_matches_the_v_inclusive_route(params, grid_points):
    # The V-free report drops the V terms' rounding from the rates only: the
    # same error or none, the same violating points in the same order, the
    # same tolerance bit for bit, and a worst margin within the tolerance.
    old, old_error = _report_or_error(reference_certificate, params, "E0", grid_points, True)
    new, new_error = _report_or_error(certify_global, params, "E0", grid_points)
    assert (type(new_error), str(new_error)) == (type(old_error), str(old_error))
    if old is None:
        return
    assert [row[:3] for row in new.violations] == [row[:3] for row in old.violations]
    assert repr(new.tolerance) == repr(old.tolerance)
    difference = abs(new.min_margin - old.min_margin)
    assert difference <= new.tolerance
    hypothesis.target(difference / new.tolerance, label="|min_margin difference| / tolerance")


def _traced_peak(params, target, grid_points):
    tracemalloc.start()
    try:
        certify_global(params, target, grid_points)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_certificate_memory_is_bounded_by_a_block():
    # The whole-grid evaluation peaked at 269 MB here.
    assert _traced_peak(SCENARIO_S1, "E0", 140) < 16 * 2**20
    # Blocks of whole T-slices, each up to N**2 points, peaked at 5.5 MiB
    # here; blocks of 2**14 points and 16 bytes per (T, I) pair take 2.3.
    assert _traced_peak(SCENARIO_S1, "E0", 300) < 4 * 2**20
    # E*'s row bounds are computed in blocks of pairs, and only the rows
    # they keep are held: 1.15 and 2.38 MiB here (1.21 and 2.32 when every
    # row was scanned).  One more float per pair would take 0.15 and 0.68.
    assert _traced_peak(SLICE_PARAMS, "Estar", 140) < 1.5 * 2**20
    assert _traced_peak(SLICE_PARAMS, "Estar", 300) < 3 * 2**20
    # Pairs are built only on the T lines the line bounds keep, so the
    # N x N region mask is gone: these four now take 0.10, 0.21, 0.10 and
    # 0.24 MiB.  At N = 2000, where the mask and the pairs of every line
    # took 65 MiB for E0, a few floats per line take 1.2 and 1.3 MiB.
    assert _traced_peak(SCENARIO_S1, "E0", 2000) < 3 * 2**20
    assert _traced_peak(SLICE_PARAMS, "Estar", 2000) < 3 * 2**20


# (scenario, target, grid) -> (exit code, SHA-256 of stdout) of hcvdyn certify,
# recorded before each block evaluated its (T, I) pairs against the V axis
# by broadcasting.  The E0 pins of grids above one point were recorded again
# when E0 dropped the V axis: min_margin and the violations' dL/dt changed in
# their last digits, nothing else did.  --machine does not change the output.
CLI_PINS = {
    ("s1", "e0", 1): (3, "c422af4dd979fe169a2d9e9c8dfa3b5b4f2b54530707a3b363caf77cbc321b63"),
    ("s1", "e0", 2): (3, "83a03cac10d085eaae20621509f9bd59e74d1773799439a80b3bb3d1e3ea5f60"),
    ("s1", "e0", 40): (3, "5b32ee80ef65243e66412a9185561efa7e2d01b5960e52ae9c01ca33c3a2fbbe"),
    ("s1", "e0", 129): (3, "8520cf691adb24587998acc59eddebe67e7bbdbfe5093dead5298ce2b15a519f"),
    ("s1", "estar", 1): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("s1", "estar", 2): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("s1", "estar", 40): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("s1", "estar", 129): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("s2", "e0", 1): (3, "153a49ef681bae988ad904c01765c749d3b76c1e10f378ab433fc9517b47fdc6"),
    ("s2", "e0", 2): (3, "5bb78bd114ae3fa20d2722c18ab6ab77a465022b4b3d965fc9313f6bdbb26e68"),
    ("s2", "e0", 40): (2, "d13b2d3487a9917cbff3873e3a98c97ae1542ce3ec7fbc62a719113eca1d8861"),
    ("s2", "e0", 129): (2, "f620a3b22b4e522859dc94903ff8f6a724f821bf518cd3127e80f75049a586d8"),
    ("s2", "estar", 1): (3, "9f91987e02c80d7556af60e9dfc347dcb3c68a3a04dcac59c498b6fed5e371d6"),
    ("s2", "estar", 2): (3, "eb52e6b522d9d594eeca6a81237b8d4a356a85b7a7b1424391d7af2bda4f136a"),
    ("s2", "estar", 40): (3, "5750e19c9631fe3f4cfb9aab4b304a8d1eeb0231996234f46560d8cc3b63658e"),
    ("s2", "estar", 129): (3, "d1cb1439f2c2dfdda116a64dc0da9b785b9fc147ad5ed8da6ff2876f2f678fa5"),
}


@pytest.mark.parametrize("machine", [[], ["--machine"]], ids=["plain", "machine"])
@pytest.mark.parametrize("scenario, target, grid", list(CLI_PINS))
def test_certify_cli_output_is_pinned(capsys, scenario, target, grid, machine):
    code = main(["certify", scenario, "--target", target, "--grid", str(grid), *machine])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == CLI_PINS[scenario, target, grid]
