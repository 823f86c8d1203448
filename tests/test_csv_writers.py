"""The CSV writers: one repr per distinct float, written by blocks of rows.

_float_texts formats each distinct float64 bit pattern once and must give
exactly [repr(v) for v in values]; the writers' bytes must not depend on
how rows are split into blocks.
"""

import hashlib
import io
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcvdyn import SCENARIO_S2, Axis, SweepSpec, run_sweep, write_sweep_csv, write_trajectory_csv
from hcvdyn import formats
from hcvdyn.formats import _float_texts
from hcvdyn.simulate import Bounds, Trajectory

NEGATIVE_NAN = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000000))[0]
POOL = [
    0.0, -0.0, math.nan, NEGATIVE_NAN, math.inf, -math.inf, 5e-324, -5e-324, 1e16, 1e-05,
    0.30000000000000004, 9950005.02512309, 2.1544346900318866e-09, 0.1111111111111111,
    1.7976931348623157e308, 2.2250738585072014e-308, 1.0, 1000.0,
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(POOL), st.floats()), max_size=60))
def test_float_texts_equal_repr(values):
    assert _float_texts(values) == [repr(v) for v in values]


@pytest.mark.parametrize("values", [[0.0, -0.0], [-0.0, 0.0], [-0.0, 1.0, 0.0, -0.0]])
def test_signed_zeros_keep_their_sign(values):
    # Deduplicating on float equality would write both zeros alike.
    assert _float_texts(values) == [repr(v) for v in values]


def _hand_built_trajectory(n=40_000):
    """More rows than two blocks; T cycles through 7 values, I and V repeat
    both signed zeros."""
    k = np.arange(n)
    T = np.array([0.0, -0.0, 1e3, 9950005.02512309, 5e-324, 1e16, 1e-05])[k % 7]
    I = np.where(k % 3 == 0, -0.0, k / 7.0)
    V = np.where(k % 5 == 0, 0.0, 1.0 / (1.0 + k))
    states = np.column_stack([T, I, V])
    return Trajectory(k.astype(float), states, 0, 0, (), 0, Bounds(1.0, 1.0, False), True)


def test_trajectory_csv_bytes_are_pinned():
    buffer = io.StringIO()
    write_trajectory_csv(_hand_built_trajectory(), buffer)
    text = buffer.getvalue()
    assert text.startswith("t,T,I,V\n0.0,0.0,-0.0,0.0\n1.0,-0.0,0.14285714285714285,0.5\n")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a3a15e6cad48c04b1bffe712d348d0d525fce75ee605250754a5df3e7643ba6f"
    )


class _Writes(io.StringIO):
    """A text buffer that records the number of lines in each write."""

    def __init__(self):
        super().__init__()
        self.lines = []

    def write(self, text):
        self.lines.append(text.count("\n"))
        return super().write(text)


def test_trajectory_rows_are_written_by_blocks():
    fh = _Writes()
    write_trajectory_csv(_hand_built_trajectory(), fh)
    block = formats._BLOCK_ROWS
    assert fh.lines == [1, block, block, 40_000 - 2 * block]


def test_sweep_rows_are_written_by_blocks_of_whole_axis1_rows():
    spec = SweepSpec(SCENARIO_S2, Axis("beta", 1e-9, 1e-6, 200, "log"), Axis("eta", 0.0, 1.0, 100))
    fh = _Writes()
    write_sweep_csv(run_sweep(spec), fh)
    rows = formats._BLOCK_ROWS // 200
    assert fh.lines == [1] + [rows * 200] * (100 // rows) + [100 % rows * 200]


SPECS = [
    SweepSpec(SCENARIO_S2, Axis("beta", 1e-9, 1e-6, 9, "log"), Axis("eta", 0.0, 1.0, 6)),
    SweepSpec(SCENARIO_S2, Axis("eta", 0.0, 1.0, 11), outputs=("regime", "t0", "r0")),
]


@pytest.mark.parametrize("block", [1, 10, 20, 40, 1000])
@pytest.mark.parametrize("spec", SPECS, ids=["2d", "1d"])
def test_sweep_csv_does_not_depend_on_the_block_size(monkeypatch, spec, block):
    grid = run_sweep(spec)
    whole = io.StringIO()
    write_sweep_csv(grid, whole)
    monkeypatch.setattr(formats, "_BLOCK_ROWS", block)
    blocks = io.StringIO()
    write_sweep_csv(grid, blocks)
    assert blocks.getvalue() == whole.getvalue()
