"""Every CLI command over the whole parameter domain exits with a documented
code, raises nothing and emits no RuntimeWarning; an analyze that exits 0
and a certify that does not exit 1 print only finite values.

Scenario files are drawn far outside the plausible ranges: each rate is
log-uniform over [1e-300, 1e300], or exactly 0 where the model allows it,
or the smallest subnormal 5e-324.  simulate is left out: its step count on
such sets is unbounded, because an explicit integrator's step shrinks with
the fastest rate.  A directory given as the input file exits 1 as well, on
every command that reads one.
"""

import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcvdyn import DEFAULT_INITIAL_STATE, ModelParameters
from hcvdyn.cli import main
from hcvdyn.formats import Scenario, render_scenario

RATES = ("s", "r_T", "r_I", "d_T", "d_I", "T_max", "beta", "p", "c", "q")
# ModelParameters requires these to be positive; every other rate may be 0.
POSITIVE = ("T_max", "c")
# A printed value beyond the float range: repr's nan, inf or -inf.
NON_FINITE = re.compile(r"\b(nan|inf)\b")

COMMANDS = (
    ["validate"],
    ["analyze"],
    ["certify", "--grid", "5", "--target", "e0"],
    ["certify", "--grid", "5", "--target", "estar"],
)


def _rate(name):
    log_uniform = st.floats(-300.0, 300.0).map(lambda x: 10.0**x)
    special = [5e-324] if name in POSITIVE else [0.0, 5e-324]
    return st.one_of(log_uniform, st.sampled_from(special))


@st.composite
def scenarios(draw):
    values = {name: draw(_rate(name)) for name in RATES}
    efficacy = st.floats(0.0, 1.0, exclude_max=True)
    values.update(eta=draw(efficacy), epsilon=draw(efficacy))
    return Scenario(ModelParameters(**values), DEFAULT_INITIAL_STATE)


@settings(max_examples=200, deadline=None)
@given(scenario=scenarios())
def test_every_command_exits_with_a_documented_code(scenario):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.scn"
        path.write_text(render_scenario(scenario))
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with (
                contextlib.redirect_stdout(out),
                contextlib.redirect_stderr(err),
                warnings.catch_warnings(record=True) as caught,
            ):
                warnings.simplefilter("always")
                code = main([command[0], str(path), *command[1:]])
            assert code in range(5), (command, code)
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (command, caught)
            if (command == ["analyze"] and code == 0) or (command[0] == "certify" and code != 1):
                assert not NON_FINITE.search(out.getvalue()), (command, out.getvalue())


@pytest.mark.parametrize("command", ["analyze", "simulate", "sweep"])
def test_a_directory_as_input_exits_1_with_one_error_line(tmp_path, capsys, command):
    # A directory passes the existence checks; reading it raised
    # IsADirectoryError, which exited 4 like an I/O failure mid-run.
    out = tmp_path / "out.csv"
    argv = [command, str(tmp_path), *(["--out", str(out)] if command != "analyze" else [])]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.splitlines() == [f"error: {tmp_path}: not a regular file"]
