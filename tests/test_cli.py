"""Command-line interface: outputs, file emission, exit-status contract."""

import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest

from conftest import OVERFLOWING_MINORS
from test_lyapunov import FAR_R_I_PARAMS
from test_stability import RESIDUAL_BREAKS_JACOBIAN

import hcvdyn
from hcvdyn import SCENARIO_S2, State, cli, lyapunov
from hcvdyn.cli import main
from hcvdyn.formats import Scenario, bundled_scenarios, render_scenario

S1_Q0_LOW_BETA = """
s = 10.0
r_T = 0.05
r_I = 0.112
d_T = 0.001
d_I = 0.1
T_max = 1e7
beta = 1e-9
p = 1.0
c = 2.0
q = 0.0
eta = 1e-7
epsilon = 1e-8
T0 = 1e3
I0 = 2.0
V0 = 1.0
"""

SWEEP_SPEC = """
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
axis1 = eta 0.0 1.0 3 linear
outputs = r0
"""


def test_analyze_subcritical_report(capsys):
    assert main(["analyze", "s1"]) == 0
    out = capsys.readouterr().out
    assert "r0 < 1" in out
    assert "no_infected_eq" in out
    assert "t0 = 9800204.077382902" in out


def test_analyze_supercritical_report(capsys):
    assert main(["analyze", "s2"]) == 0
    out = capsys.readouterr().out
    assert "r0 > 1" in out
    assert "unique_infected_eq" in out
    assert "routh_hurwitz = loc_asymp_stable" in out
    assert "estar_T = " in out


def test_analyze_machine_output_is_flat(capsys):
    assert main(["analyze", "s2", "--machine"]) == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        assert re.fullmatch(r"[A-Za-z0-9_]+ = .*", line), line
    assert "r0_relation = r0 > 1" in out
    assert "regime = unique_infected_eq" in out


def test_analyze_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    assert main(["analyze", "s1", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert "r0 < 1" in target.read_text()


def test_analyze_validation_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text(S1_Q0_LOW_BETA.replace("eta = 1e-7", "eta = 1"))
    assert main(["analyze", str(bad)]) == 1
    assert "eta" in capsys.readouterr().err


def test_simulate_writes_csv_and_summary(tmp_path, capsys):
    target = tmp_path / "run.csv"
    assert main(["simulate", "s1", "--out", str(target), "--t-end", "20"]) == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "t,T,I,V"
    assert len(lines) == 22
    out = capsys.readouterr().out
    assert "samples = 21" in out
    assert "violations = 0" in out


def test_simulate_stdout_csv(capsys):
    assert main(["simulate", "s1", "--t-end", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["t,T,I,V", "0.0,1000.0,2.0,1.0"]
    assert "samples = 1" in captured.err


def test_simulate_svg_emission(tmp_path):
    target = tmp_path / "run.csv"
    assert main(
        ["simulate", "s1", "--out", str(target), "--svg", "--t-end", "10",
         "--width", "300", "--height", "200"]
    ) == 0
    for label in "TIV":
        svg = (tmp_path / f"run_{label}.svg").read_text()
        assert "<polyline" in svg
        assert 'width="300"' in svg


def test_simulate_svg_requires_out():
    with pytest.raises(SystemExit) as info:
        main(["simulate", "s1", "--svg"])
    assert info.value.code == 1


@pytest.mark.parametrize("size", [["--width", "0"], ["--height", "140"]])
def test_simulate_refuses_an_svg_size_before_the_run(tmp_path, monkeypatch, capsys, size):
    # This used to integrate and write the whole CSV before refusing the size.
    def no_run(*args):
        raise AssertionError("integrated although the SVG size is refused")

    monkeypatch.setattr(cli, "integrate", no_run)
    target = tmp_path / "r.csv"
    assert main(["simulate", "s2", "--t-end", "5", "--out", str(target), "--svg", *size]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.strip()]
    assert captured.err.startswith("error: SVG width and height must exceed 140 px")
    assert list(tmp_path.iterdir()) == []


def test_simulate_method_flag(tmp_path):
    target = tmp_path / "rk4.csv"
    assert main(
        ["simulate", "s1", "--out", str(target), "--t-end", "5", "--method", "rk4"]
    ) == 0
    assert len(target.read_text().splitlines()) == 7


def _s2_with(**updates):
    text = bundled_scenarios()["s2"]
    for key, value in updates.items():
        text, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        if n == 0:
            text += f"{key} = {value}\n"
    return text


def test_simulate_zero_abs_tol_on_the_infection_free_plane(tmp_path, capsys):
    # The I and V error scales are 0 on the I = V = 0 plane; this used to
    # end in a ZeroDivisionError traceback.
    scn = tmp_path / "plane.scn"
    scn.write_text(_s2_with(I0="0.0", V0="0.0", abs_tol="0.0"))
    target = tmp_path / "plane.csv"
    assert main(["simulate", str(scn), "--out", str(target)]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    last = target.read_text().splitlines()[-1].split(",")
    assert last[0] == "1000.0" and last[2:] == ["0.0", "0.0"]
    # s2 is supercritical, but the run stays on the plane and ends at E0;
    # it used to print attractor = Estar and converged = false.
    summary = captured.out.splitlines()
    assert "attractor = E0" in summary and "converged = true" in summary


@pytest.mark.parametrize("updates, message", [
    # The error norm's square overflows; this used to raise OverflowError.
    ({"abs_tol": "0.0", "rel_tol": "1e-300", "t_end": "10.0"}, "step size underflow"),
    # RK4 substep counts that overflow or exceed the budget; these used to
    # raise OverflowError or run for minutes.
    ({"method": "rk4", "step": "1e-320"}, "step budget"),
    ({"method": "rk4", "step": "1e-9"}, "step budget"),
], ids=["norm-overflow", "rk4-step-1e-320", "rk4-step-1e-9"])
def test_simulate_integration_failures_exit_4(tmp_path, capsys, updates, message):
    scn = tmp_path / "fail.scn"
    scn.write_text(_s2_with(**updates))
    target = tmp_path / "fail.csv"
    assert main(["simulate", str(scn), "--out", str(target)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err
    assert target.read_text().splitlines() == ["t,T,I,V", "0.0,1000.0,2.0,1.0"]


@pytest.mark.parametrize("argv, updates, code, message", [
    (["--t-end", "inf"], {}, 1, "t_end must be finite"),
    ([], {"t_end": "1e15"}, 4, "a run holds at most 1048576 sample intervals"),
], ids=["t-end-inf", "t-end-1e15"])
def test_unreachable_horizon_exits_at_once(tmp_path, capsys, argv, updates, code, message):
    # Both used to build a sample list until memory ran out.
    scn = tmp_path / "far.scn"
    scn.write_text(_s2_with(**updates))
    target = tmp_path / "far.csv"
    start = time.perf_counter()
    assert main(["simulate", str(scn), "--out", str(target), *argv]) == code
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {message}")


def test_certify_advisory_exit(capsys):
    assert main(["certify", "s1"]) == 3
    out = capsys.readouterr().out
    assert "preconditions_met = false" in out
    assert "violations = 0" in out
    assert "advisory" in out


def test_certify_clean_exit(tmp_path, capsys):
    scn = tmp_path / "q0.scn"
    scn.write_text(S1_Q0_LOW_BETA)
    assert main(["certify", str(scn), "--grid", "15"]) == 0
    out = capsys.readouterr().out
    assert "preconditions_met = true" in out
    assert "verdict = certified" in out


def test_certify_prints_the_first_violation_rows(tmp_path, capsys):
    scn = tmp_path / "far.scn"
    scn.write_text(render_scenario(Scenario(FAR_R_I_PARAMS, State(1e3, 2.0, 1.0))))
    assert main(["certify", str(scn), "--grid", "60"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert "violations = 10620" in lines
    rows = [line for line in lines if line.startswith("violation = ")]
    assert len(rows) == 10
    assert rows[0] == (
        "violation = state=(613875.6008306626, 52515047.42679953, 21.61834982598133)"
        " dLdt=181255.55485859327"
    )


def test_analyze_reports_a_set_whose_e_star_residual_broke_the_jacobian_check(tmp_path, capsys):
    scn = tmp_path / "jstar.scn"
    scn.write_text(render_scenario(Scenario(RESIDUAL_BREAKS_JACOBIAN, State(1e3, 2.0, 1.0))))
    assert main(["analyze", str(scn), "--machine"]) == 0
    assert any(line.startswith("routh_hurwitz = ") for line in capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("command", [["analyze", "--machine"], ["analyze"], ["validate"]])
@pytest.mark.parametrize("name", ["evil\nr0 = 99", "evil\rr0 = 99", "evil\u2028r0 = 99"])
def test_a_name_with_a_line_break_prints_as_one_json_line(tmp_path, capsys, command, name):
    scn = tmp_path / "evil.scn"
    scn.write_text(render_scenario(Scenario(SCENARIO_S2, State(1e3, 2.0, 1.0), name=name)), encoding="utf-8")
    assert main([command[0], str(scn), *command[1:]]) == 0
    lines = capsys.readouterr().out.split("\n")
    scenario_lines = [line for line in lines if line.startswith("scenario = ")]
    assert len(scenario_lines) == 1
    assert json.loads(scenario_lines[0].removeprefix("scenario = ")) == name
    assert not any(line.startswith("r0 = 99") or "\r" in line or "\u2028" in line for line in lines)


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_a_plain_name_prints_as_it_is(tmp_path, capsys, command):
    scn = tmp_path / "plain.scn"
    scn.write_text(render_scenario(Scenario(SCENARIO_S2, State(1e3, 2.0, 1.0), name="Höpital run 2")),
                   encoding="utf-8")
    assert main([command, str(scn)]) == 0
    assert "scenario = Höpital run 2\n" in capsys.readouterr().out


def test_certify_single_point_grid(capsys):
    assert main(["certify", "s1", "--grid", "1"]) == 3
    out = capsys.readouterr().out
    assert "points_sampled = 1" in out
    assert "min_margin = 0.0" in out


def test_certify_estar_needs_equilibrium(capsys):
    assert main(["certify", "s1", "--target", "estar"]) == 1
    assert "unique infected equilibrium" in capsys.readouterr().err


def test_certify_refuses_a_grid_beyond_the_bound(monkeypatch, capsys):
    # Refused before any axis is built; building one fails the test rather
    # than allocate 10**9 points.
    monkeypatch.setattr(lyapunov, "_grid_axis", lambda *args: pytest.fail("a certificate axis was built"))
    assert main(["certify", "s1", "--grid", "1000000000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: grid_points must be an integer from 1 to 1048576, got 1000000000\n"


def test_sweep_emits_grid_with_cell_statuses(tmp_path, capsys):
    spec = tmp_path / "grid.swp"
    spec.write_text(SWEEP_SPEC)
    assert main(["sweep", str(spec)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "eta,r0,status"
    assert len(lines) == 4
    assert lines[1].endswith("ok")
    assert lines[3].endswith("invalid_params")


def test_sweep_out_flag(tmp_path):
    spec = tmp_path / "grid.swp"
    spec.write_text(SWEEP_SPEC)
    target = tmp_path / "grid.csv"
    assert main(["sweep", str(spec), "--out", str(target)]) == 0
    assert target.read_text().startswith("eta,r0,status")


def test_sweep_spec_with_duplicate_outputs_exits_1(tmp_path, capsys):
    spec = tmp_path / "grid.swp"
    spec.write_text(SWEEP_SPEC.replace("outputs = r0", "outputs = r0 r0"))
    assert main(["sweep", str(spec)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'r0' is listed twice" in captured.err


def test_sweep_past_the_point_bound_exits_1_before_allocating(tmp_path, capsys):
    spec = tmp_path / "huge.swp"
    spec.write_text(SWEEP_SPEC.replace("axis1 = eta 0.0 1.0 3 linear", "axis1 = c 0.8 22 1000000000 log"))
    target = tmp_path / "huge.csv"
    tracemalloc.start()
    try:
        assert main(["sweep", str(spec), "--out", str(target)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert not target.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {spec}:14: axis1: axis c: at most 1048576 points, got 1000000000"
    ]


@pytest.mark.parametrize("axis, message", [
    # hi - lo overflows: the cells read nan,nan,invalid_params with exit 0.
    ("c -1e308 1e308 3 linear", "axis1: axis c: a linear axis needs a finite hi - lo, got [-1e+308, 1e+308]"),
    ("c 1.0 inf 3 linear", "axis1: must be finite, got 'inf'"),
])
def test_sweep_axis_with_a_non_finite_span_or_end_exits_1(tmp_path, capsys, axis, message):
    spec = tmp_path / "grid.swp"
    spec.write_text(SWEEP_SPEC.replace("axis1 = eta 0.0 1.0 3 linear", f"axis1 = {axis}"))
    target = tmp_path / "grid.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", str(spec), "--out", str(target)]) == 1
    assert not target.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {spec}:14: {message}"]


def test_sweep_missing_file_exits_1(capsys):
    assert main(["sweep", "/no/such/spec.swp"]) == 1
    assert "no such sweep-spec file" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "validate", "simulate", "certify", "sweep"])
def test_input_that_is_not_utf8_exits_1_with_one_error_line(tmp_path, capsys, command):
    # A Latin-1 name: a byte that no UTF-8 text holds, whatever the locale.
    text = SWEEP_SPEC if command == "sweep" else S1_Q0_LOW_BETA
    path = tmp_path / "latin1.txt"
    path.write_bytes(text.encode("ascii") + 'name = "Hôpital"\n'.encode("latin-1"))
    start = len(text) + len('name = "H')
    out = tmp_path / "out.csv"
    assert main([command, str(path), *(["--out", str(out)] if command in ("simulate", "sweep") else [])]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.splitlines() == [f"error: {path}: not UTF-8 text: invalid continuation byte at byte {start}"]


@pytest.mark.parametrize("command", ["validate", "sweep"])
def test_input_with_a_byte_order_mark_reads_as_without(tmp_path, capsys, command):
    # Some editors start UTF-8 files with one.
    text = SWEEP_SPEC if command == "sweep" else S1_Q0_LOW_BETA
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert main([command, str(plain)]) == 0
    expected = capsys.readouterr()
    assert main([command, str(marked)]) == 0
    assert capsys.readouterr() == expected


def test_utf8_input_reads_the_same_whatever_the_locale(tmp_path):
    # Under the C locale without UTF-8 mode the locale's encoding is ASCII,
    # which cannot read the name's two-byte character.
    path = tmp_path / "utf8.scn"
    path.write_bytes(S1_Q0_LOW_BETA.encode("ascii") + 'name = "Hôpital"\n'.encode("utf-8"))
    src = str(Path(hcvdyn.__file__).parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONIOENCODING": "utf-8", "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "hcvdyn", "validate", str(path)], capture_output=True, env=env,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    assert "scenario = Hôpital\n".encode("utf-8") in done.stdout


@pytest.mark.parametrize("command, options", [
    ("analyze", []), ("certify", ["--grid", "5"]), ("simulate", ["--t-end", "10"])
])
def test_overflowing_t_max_squared_exits_1_without_traceback(tmp_path, capsys, command, options):
    # T_max**2 is beyond the float range; validate accepts the file.  The E0
    # certificate takes none of the derived constants: its own grid leaves
    # the float range.
    scn = tmp_path / "huge.scn"
    scn.write_text(S1_Q0_LOW_BETA.replace("T_max = 1e7", "T_max = 1e200"))
    assert main(["validate", str(scn)]) == 0
    capsys.readouterr()
    assert main([command, str(scn), *options]) == 1
    err = capsys.readouterr().err
    if command == "certify":
        assert err.startswith("error: Lyapunov derivative leaves the float range on the certificate grid")
    else:
        assert err.startswith("error: derived constants are not finite")
    assert "Traceback" not in err


def test_sweep_past_the_float_range_of_t_max_squared(tmp_path, capsys):
    spec = tmp_path / "huge.swp"
    spec.write_text(
        SWEEP_SPEC.replace("axis1 = eta 0.0 1.0 3 linear", "axis1 = T_max 1e6 1e200 5 log")
        .replace("outputs = r0", "outputs = r0 regime")
    )
    assert main(["sweep", str(spec)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 6
    assert lines[-1] == "1e+200,nan,nan,invalid_params"
    assert captured.err == ""


S1 = S1_Q0_LOW_BETA.replace("beta = 1e-9", "beta = 1e-7").replace("q = 0.0", "q = 0.5")


def _with(text, updates):
    """text with each key's line set to the updated value."""
    for key, value in updates.items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    return text


# residual_norm divided numpy scalars inf / inf here, so a RuntimeWarning
# used to precede the error line.
INF_OVER_INF = {
    "s": "7.775145337375735e-107", "r_T": "1.0732927412698947e134", "r_I": "1.2082069445728576e217",
    "d_T": "1.208684962335591e40", "d_I": "8.500655517705868e-36", "T_max": "2.8400311450361502e200",
    "beta": "5.476784478792699e-155", "p": "0", "c": "4.096951146138325e-12",
    "q": "2.430769372323158e-75", "eta": "0.31253195236107967", "epsilon": "0.3059631440117525",
}
# T + I overflows in the certificate's region mask; numpy used to warn about it.
OVERFLOWING_REGION_MASK = {
    "s": "1.234210004894301e+37", "r_T": "4.878078517193004e+88", "r_I": "8.0793235049216e-292",
    "d_T": "1.6308333013868833e-285", "d_I": "9.462271156896241e-203", "T_max": "2.0568069766764265e-72",
    "beta": "4.503900841667006e-255", "p": "1.4542933404974727e-220", "c": "1.947961548790704e+199",
    "q": "6.512960630525431e-253", "eta": "0.892241916140536", "epsilon": "0.08722129978085853",
}
# Sets whose E0 block entry r_I (1 - T0/T_max) - delta, and with it an
# eigenvalue, lies beyond the float range.
BEYOND_RANGE_E0_EIGENVALUE = {
    "s": "4.9945622033094145e+96", "r_T": "3.2953609450145934e-75", "r_I": "8.522705570434794e+105",
    "d_T": "0.07412432052404683", "d_I": "5.237224747659174e+285", "T_max": "5e-324",
    "beta": "2.804429471833782e+34", "p": "4.4088671320170496e+150", "c": "2.0743514722977203e+137",
    "q": "1.1596354021194713e-279", "eta": "0.32519564392023936", "epsilon": "0.13699261849425914",
}
BEYOND_RANGE_E0_BLOCK = {
    "s": "6507038451258491.0", "r_T": "1.980548971055057e-60", "r_I": "2.891917921594651e+188",
    "d_T": "26065690.67908297", "d_I": "1.3918633520903956e-189", "T_max": "3.751549771830253e-247",
    "beta": "2.1974147026320373e-276", "p": "6.259296862219173e+43", "c": "3.0726509381526053e+153",
    "q": "1.70924132895932e+74", "eta": "0.4302138011866691", "epsilon": "0.7944153719037911",
}
# The constant term of the E* quadratic overflows to -inf.
NON_FINITE_CONSTANT_TERM = {
    "s": "1.2347665649844455e-204", "r_T": "2.392675980102134e-66", "r_I": "2.900723132772846e-199",
    "d_T": "4.852563583907121e49", "d_I": "5e-324", "T_max": "9.321163987036603e-107",
    "beta": "3.412293370689695e122", "p": "0", "c": "6.383049461704197e32",
    "q": "2.0161862133766807e119", "eta": "0.6388294271130139", "epsilon": "0.6129433763761614",
}


@pytest.mark.parametrize("command, updates", [
    # The field overflows on the grid; this used to print a clean certificate.
    (["certify"], {"r_I": "1e-300", "beta": "1e-19"}),
    # p = 0 makes the V axis [0, 0]; this used to fail in log10.
    (["certify"], {"p": "0.0"}),
    # r_I r_T underflows to 0.
    (["analyze"], {"r_T": "5e-324"}),
    (["certify"], {"r_T": "5e-324"}),
    # r_I r_T H underflows to 0 although H does not.
    (["analyze"], {"r_I": "2e-150", "r_T": "1e-150", "beta": "1e-190"}),
    (["certify", "--target", "estar"], {"r_I": "2e-150", "r_T": "1e-150", "beta": "1e-190"}),
    # An E0 eigenvalue is beyond the float range: the block entry
    # r_I (1 - T0/T_max) - delta overflows to -inf.
    (["analyze", "--machine"], BEYOND_RANGE_E0_EIGENVALUE),
    (["analyze"], INF_OVER_INF),
    (["certify", "--grid", "5", "--target", "e0"], INF_OVER_INF),
    (["certify", "--grid", "5", "--target", "estar"], INF_OVER_INF),
    # The same on another set, without --machine.
    (["analyze"], BEYOND_RANGE_E0_BLOCK),
    (["certify", "--grid", "5", "--target", "e0"], OVERFLOWING_REGION_MASK),
    # existence_regime used to return this; the CLI refused it.
    (["analyze", "--machine"], NON_FINITE_CONSTANT_TERM),
    # An SVG of 140 px or less has no plot area; this used to write width="0".
    (["simulate", "--t-end", "5", "--out", "r.csv", "--svg", "--width", "0"], {}),
])
def test_out_of_range_sets_exit_1_with_one_error_line(tmp_path, monkeypatch, capsys, command, updates):
    monkeypatch.chdir(tmp_path)
    scn = tmp_path / "edge.scn"
    scn.write_text(_with(S1, updates))
    assert main(["validate", str(scn)]) == 0
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command[0], str(scn), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    # A warning would print on stderr before the error line.
    assert [str(w.message) for w in caught] == []
    assert list(tmp_path.glob("*.svg")) == []


def test_overflowing_minor_fails_the_coefficient_cross_check(tmp_path, capsys):
    # minor_a3 overflows to inf, so its relative difference is NaN, which
    # fails the check before the CLI reaches the non-finite spectral r0.
    scn = tmp_path / "edge.scn"
    scn.write_text(_with(S1, OVERFLOWING_MINORS))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["analyze", str(scn)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: closed-form characteristic coefficients deviate from the minor "
        "expansion by relative nan\n"
    )
    assert [str(w.message) for w in caught] == []


# r_I / delta overflows, so r0 is inf.  certify used to print r0 = inf and
# exit 3, and sweep to write inf as an ok cell.
NON_FINITE_R0 = {
    "s": "5e-324", "r_T": "1.0", "r_I": "4.463186123660912e139", "d_T": "1.0", "d_I": "5e-324",
    "T_max": "1.0", "beta": "1.0", "p": "1.0", "c": "1.0", "q": "5e-324", "eta": "1e-4",
    "epsilon": "0.17793376369126435",
}


@pytest.mark.parametrize("command", [["analyze"], ["certify"], ["certify", "--target", "estar"]])
def test_non_finite_r0_exits_1(tmp_path, capsys, command):
    scn = tmp_path / "edge.scn"
    scn.write_text(_with(S1, NON_FINITE_R0))
    assert main([command[0], str(scn), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: reproduction number is not finite: inf\n"


def test_simulate_summary_ends_in_the_non_finite_r0_error(tmp_path, capsys):
    # The run rests at E0, so the integration succeeds and the summary fails.
    scn = tmp_path / "edge.scn"
    scn.write_text(_with(S1, dict(NON_FINITE_R0, T0="1e-162", I0="0.0", V0="0.0")))
    assert main(["simulate", str(scn), "--t-end", "1", "--out", str(tmp_path / "out.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: reproduction number is not finite: inf\n"
    assert (tmp_path / "out.csv").read_text().count("\n") == 3


def test_sweep_marks_non_finite_r0_cells_invalid(tmp_path, capsys):
    spec = tmp_path / "edge.swp"
    spec.write_text(_with(SWEEP_SPEC, NON_FINITE_R0))
    assert main(["sweep", str(spec)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # eta = 1.0 is outside the domain.
    assert lines[1:] == ["0.0,nan,invalid_params", "0.5,nan,invalid_params", "1.0,nan,invalid_params"]


def test_sweep_where_c_delta_underflows_marks_the_cell_invalid(tmp_path, capsys):
    spec = tmp_path / "c.swp"
    spec.write_text(
        SWEEP_SPEC.replace("axis1 = eta 0.0 1.0 3 linear", "axis1 = c 5e-324 1.0 3 log")
        .replace("q = 0.5", "q = 0.0")
    )
    assert main(["sweep", str(spec)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "5e-324,nan,invalid_params"
    assert lines[2].endswith(",ok") and lines[3].endswith(",ok")


def test_validate_reports_warnings(capsys):
    assert main(["validate", "s1"]) == 0
    out = capsys.readouterr().out
    assert "ok = true" in out
    assert "warning = " in out


def test_parse_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "dup.scn"
    bad.write_text(S1_Q0_LOW_BETA + "beta = 2e-7\n")
    assert main(["analyze", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "duplicate key 'beta'" in err


def test_unknown_input_exits_1(capsys):
    assert main(["analyze", "mystery"]) == 1
    assert "no such scenario" in capsys.readouterr().err


def test_unwritable_output_exits_4(capsys):
    assert main(["analyze", "s1", "--out", "/nonexistent-dir/report.txt"]) == 4


def test_usage_errors_exit_1():
    for argv in ([], ["frobnicate"], ["simulate", "s1", "--method", "euler"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1


def test_one_parser_per_process(monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "hcvdyn":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    for _ in range(20):
        assert main(["validate", "s1"]) == 0
        with pytest.raises(SystemExit):
            main(["frobnicate"])
    capsys.readouterr()
    # Zero if an earlier test in this process already built it.
    assert len(built) <= 1


def _outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# Successes, usage errors from argparse and from main, and an advisory exit.
REUSE_SEQUENCE = [
    (["analyze", "s2", "--machine"], 0),
    (["simulate", "s1", "--svg"], 1),
    (["validate", "s1", "--no-such-option"], 1),
    ([], 1),
    (["certify", "s1", "--grid", "5"], 3),
    (["validate", "s1"], 0),
]


def test_each_call_on_the_shared_parser_repeats_its_first_outcome(capsys):
    first = {}
    for argv, code in REUSE_SEQUENCE:
        first[tuple(argv)] = _outcome(argv, capsys)
        assert first[tuple(argv)][0] == code, argv
    assert "--svg requires --out" in first[("simulate", "s1", "--svg")][2]
    assert "unrecognized arguments: --no-such-option" in first[("validate", "s1", "--no-such-option")][2]
    assert "the following arguments are required: command" in first[()][2]
    interleaved = [argv for argv, _ in REUSE_SEQUENCE[::-1] + REUSE_SEQUENCE[1::2] + REUSE_SEQUENCE[::2]]
    for argv in interleaved:
        assert _outcome(argv, capsys) == first[tuple(argv)], argv
