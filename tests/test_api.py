"""The public API: every threshold comes from hcvdyn.tolerances."""

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
