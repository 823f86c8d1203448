"""Scenario and sweep-spec parsing, CSV emission, SVG rendering."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcvdyn import (
    PARAMETER_NAMES,
    SCENARIO_S1,
    SCENARIO_S2,
    IntegratorConfig,
    ModelParameters,
    ParameterError,
    Scenario,
    ScenarioError,
    State,
    integrate,
    parse_scenario,
    parse_sweep_spec,
    render_line_svg,
    render_scenario,
    write_sweep_csv,
    write_trajectory_csv,
)
from hcvdyn.formats import METHOD_TOKENS, bundled_scenarios, resolve_scenario_path

MINIMAL = """
s = 10.0
r_T = 0.05
r_I = 0.112
d_T = 0.001
d_I = 0.1
T_max = 1e7
beta = 1e-7
p = 1.0
c = 2.0
q = 0.5
eta = 1e-7
epsilon = 1e-8
T0 = 1e3
I0 = 2.0
V0 = 1.0
"""


def test_bundled_scenarios_match_reference_parameters():
    bundled = bundled_scenarios()
    assert set(bundled) == {"s1", "s2"}
    s1 = parse_scenario(bundled["s1"], source="s1")
    assert s1.params == SCENARIO_S1
    assert s1.initial == State(1e3, 2.0, 1.0)
    assert s1.t_end == 1000.0
    s2 = parse_scenario(bundled["s2"], source="s2")
    assert s2.params == SCENARIO_S2


def test_parse_minimal_scenario():
    scenario = parse_scenario(MINIMAL)
    assert scenario.params == SCENARIO_S1
    assert scenario.t_end is None and scenario.method is None
    assert scenario.name is None


def test_parse_handles_comments_blank_lines_and_crlf():
    text = "# header\r\n" + MINIMAL.replace("\n", "\r\n") + "t_end = 5 # trailing\r\n\r\n"
    scenario = parse_scenario(text)
    assert scenario.params == SCENARIO_S1
    assert scenario.t_end == 5.0


def test_duplicate_key_reports_both_lines():
    text = MINIMAL + "beta = 2e-7\n"
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text, source="dup.scn")
    assert "duplicate key 'beta'" in str(info.value)
    assert info.value.line is not None
    assert "dup.scn" in str(info.value)


def test_missing_key_is_named():
    text = MINIMAL.replace("c = 2.0\n", "")
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    assert "missing required keys" in str(info.value)
    assert " c" in str(info.value)


def test_unknown_key_reports_line():
    with pytest.raises(ScenarioError) as info:
        parse_scenario(MINIMAL + "gamma = 3\n")
    assert "unknown key 'gamma'" in str(info.value)
    assert info.value.line == MINIMAL.count("\n") + 1


def test_malformed_number_reports_line():
    with pytest.raises(ScenarioError) as info:
        parse_scenario(MINIMAL.replace("beta = 1e-7", "beta = fast"))
    assert "not a number" in str(info.value)
    assert info.value.line is not None


def test_non_finite_values_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario(MINIMAL.replace("beta = 1e-7", "beta = inf"))


def test_malformed_line_rejected():
    with pytest.raises(ScenarioError) as info:
        parse_scenario("s: 10\n")
    assert "expected 'key = value'" in str(info.value)
    assert info.value.line == 1


def test_invalid_parameters_surface_as_scenario_errors():
    with pytest.raises(ScenarioError) as info:
        parse_scenario(MINIMAL.replace("eta = 1e-7", "eta = 1"))
    assert "eta" in str(info.value)


def test_method_tokens_normalise():
    scenario = parse_scenario(MINIMAL + "method = rk4_fixed\n")
    assert scenario.method == "rk4"
    scenario = parse_scenario(MINIMAL + "method = rk45\n")
    assert scenario.method == "rk45"
    with pytest.raises(ScenarioError):
        parse_scenario(MINIMAL + "method = euler\n")


def test_render_parse_round_trip():
    scenario = Scenario(
        params=SCENARIO_S2,
        initial=State(5e2, 1.0, 3.0),
        t_end=250.0,
        method="rk4",
        step=0.05,
        rel_tol=1e-9,
        abs_tol=1e-11,
        name="roundtrip check",
    )
    assert parse_scenario(render_scenario(scenario)) == scenario
    # The bundled corpus round-trips too.
    for name, text in bundled_scenarios().items():
        scenario = parse_scenario(text, source=name)
        assert parse_scenario(render_scenario(scenario), source=name) == scenario


def test_names_that_do_not_fit_a_line_are_quoted():
    scenario = Scenario(SCENARIO_S1, State(1e3, 2.0, 1.0), name=" run #2\n")
    text = render_scenario(scenario)
    assert text.startswith('name = " run \\u00232\\n"\n')
    assert parse_scenario(text) == scenario
    assert parse_scenario(MINIMAL + 'name = "s1"  # quoted\n').name == "s1"
    with pytest.raises(ScenarioError, match=":17: name: not a JSON string"):
        parse_scenario(MINIMAL + 'name = "unterminated\n')


finite = st.floats(allow_nan=False, allow_infinity=False)


def _parameter(name):
    """Any value ModelParameters accepts for the field."""
    if name in ("eta", "epsilon"):
        return st.floats(0.0, 1.0, exclude_max=True)
    if name in ("T_max", "c"):
        return st.floats(0.0, exclude_min=True, allow_infinity=False)
    return st.floats(0.0, allow_infinity=False)


optional = st.none() | finite
scenarios = st.builds(
    Scenario,
    params=st.fixed_dictionaries({name: _parameter(name) for name in PARAMETER_NAMES}).map(
        lambda fields: ModelParameters(**fields)
    ),
    initial=st.builds(State, finite, finite, finite),
    t_end=optional,
    method=st.none() | st.sampled_from(sorted(METHOD_TOKENS)),
    step=optional,
    rel_tol=optional,
    abs_tol=optional,
    name=st.none() | st.text(),
)


@settings(max_examples=500, deadline=None)
@given(scenario=scenarios)
def test_render_parse_round_trip_over_the_whole_domain(scenario):
    assert parse_scenario(render_scenario(scenario)) == scenario


def test_resolve_scenario_accepts_bundled_names_and_paths(tmp_path):
    assert "s = 10.0" in resolve_scenario_path("s1")
    assert resolve_scenario_path("s2.scn") == resolve_scenario_path("s2")
    path = tmp_path / "own.scn"
    path.write_text(MINIMAL)
    assert resolve_scenario_path(str(path)) == MINIMAL
    with pytest.raises(FileNotFoundError):
        resolve_scenario_path("nonexistent")


SWEEP_TEXT = MINIMAL.replace("T0 = 1e3\n", "").replace("I0 = 2.0\n", "").replace(
    "V0 = 1.0\n", ""
) + "axis1 = beta 1e-8 1e-6 5 log\n"


def test_parse_sweep_spec():
    spec = parse_sweep_spec(SWEEP_TEXT)
    assert spec.base == SCENARIO_S1
    assert spec.axis1.name == "beta"
    assert spec.axis1.n == 5 and spec.axis1.scale == "log"
    assert spec.axis2 is None
    assert spec.outputs == ("r0", "regime", "t0", "estar_T", "delta2")


def test_parse_sweep_spec_with_second_axis_and_outputs():
    text = SWEEP_TEXT + "axis2 = q 0.0 0.5 3 linear\noutputs = r0 regime\n"
    spec = parse_sweep_spec(text)
    assert spec.axis2.name == "q"
    assert spec.outputs == ("r0", "regime")


def test_sweep_spec_errors():
    with pytest.raises(ScenarioError) as info:
        parse_sweep_spec(SWEEP_TEXT.replace("axis1 = beta 1e-8 1e-6 5 log",
                                            "axis1 = beta 1e-8 1e-6 log"))
    assert "expected" in str(info.value)
    with pytest.raises(ScenarioError):
        parse_sweep_spec(SWEEP_TEXT.replace("5 log", "five log"))
    with pytest.raises(ScenarioError):
        parse_sweep_spec(SWEEP_TEXT.replace("beta 1e-8", "bogus 1e-8"))
    with pytest.raises(ScenarioError):
        parse_sweep_spec(SWEEP_TEXT + "outputs = r0 nonsense\n")
    with pytest.raises(ScenarioError):
        parse_sweep_spec(SWEEP_TEXT.replace("axis1", "axis9"))


def test_trajectory_csv_round_trips_bitwise():
    traj = integrate(SCENARIO_S1, State(1e3, 2.0, 1.0), IntegratorConfig(t_end=5.0))
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,T,I,V"
    assert len(lines) == len(traj.times) + 1
    for line, t, row in zip(lines[1:], traj.times, traj.states):
        t_back, T_back, I_back, V_back = (float(x) for x in line.split(","))
        assert t_back == t
        assert (T_back, I_back, V_back) == tuple(row)


def test_sweep_csv_layout():
    from hcvdyn import Axis, SweepSpec, run_sweep

    spec = SweepSpec(
        base=SCENARIO_S1,
        axis1=Axis(name="beta", lo=1e-8, hi=1e-6, n=3, scale="log"),
        axis2=Axis(name="q", lo=0.1, hi=0.5, n=2),
        outputs=("r0", "regime"),
    )
    buf = io.StringIO()
    write_sweep_csv(run_sweep(spec), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "beta,q,r0,regime,status"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert float(first[0]) == 1e-8 and float(first[1]) == 0.1
    assert first[3] == "no_infected_eq" and first[4] == "ok"


def test_svg_renders_a_single_polyline_with_extremes():
    xs = np.linspace(0.0, 10.0, 50)
    ys = np.sin(xs) * 100.0 + 200.0
    svg = render_line_svg(xs, ys, "T", width=640, height=400)
    assert svg.count("<polyline") == 1
    assert 'width="640"' in svg and 'height="400"' in svg
    assert f"{ys.min():.6g}" in svg and f"{ys.max():.6g}" in svg
    assert ">T</text>" in svg
    # The geometry: a 70 px margin, x from xs' range and y from ys' range,
    # flipped so that larger values sit higher.
    svg = render_line_svg((0.0, 1.0, 2.0), (0.0, 1.0, 0.5), "T", width=640, height=400)
    assert 'points="70.00,330.00 320.00,70.00 570.00,200.00"' in svg


@pytest.mark.parametrize("width, height", [(0, 500), (-10, 500), (140, 500), (800, 140), (800, -1)])
def test_svg_without_a_plot_area_is_refused(width, height):
    # The plot area is the size less a 70 px margin on each side; at 140 px
    # or less it is empty or mirrored.
    with pytest.raises(ParameterError, match="must exceed 140 px"):
        render_line_svg([0.0, 1.0], [1.0, 2.0], "T", width=width, height=height)
    assert 'width="141"' in render_line_svg([0.0, 1.0], [1.0, 2.0], "T", width=141, height=141)


def test_svg_handles_constant_series():
    svg = render_line_svg([0.0, 1.0, 2.0], [5.0, 5.0, 5.0], "I")
    assert "<polyline" in svg
    assert not math.isnan(float(svg.split('points="')[1].split(" ")[0].split(",")[1]))
