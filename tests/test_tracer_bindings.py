"""The names the benchmark's tracer wraps stay bound where it looks them up.

perfbench/tracing.py replaces each (module, attribute) of its WRAPPED table
on hcvdyn.<module>, and simulate.field_function, with a recording wrapper.
A name that stops being bound there fails only a traced benchmark run, so
this checks them all.  The tracer is loaded read-only, by path.
"""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_name_the_tracer_wraps_is_bound():
    tracing = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing)  # writes no bytecode cache
    names = [*tracing["WRAPPED"], ("simulate", "field_function")]
    unbound = [(module, attr) for module, attr in names
               if not callable(getattr(importlib.import_module(f"hcvdyn.{module}"), attr, None))]
    assert unbound == []
