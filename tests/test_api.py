"""The public API: every threshold comes from hcvdyn.tolerances."""

import dataclasses
import inspect

import hcvdyn


def test_no_public_callable_takes_tolerances():
    takes = []
    for name in hcvdyn.__all__:
        obj = getattr(hcvdyn, name)
        if not callable(obj):
            continue
        try:
            signature = inspect.signature(obj)
        except (TypeError, ValueError):
            continue
        if "tolerances" in signature.parameters:
            takes.append(name)
    assert takes == []


def test_simulate_options_are_the_ones_callers_set():
    fields = tuple(field.name for field in dataclasses.fields(hcvdyn.IntegratorConfig))
    assert fields == ("method", "t_end", "sample_every", "step", "rel_tol", "abs_tol", "max_steps")
    assert tuple(inspect.signature(hcvdyn.check_invariants).parameters) == ("trajectory",)
    assert tuple(inspect.signature(hcvdyn.convergence_report).parameters) == ("params", "trajectory")
