"""Symbolic identities of the model's closed forms, proved with sympy.

The private helpers take any object with the parameter attributes, so
sympy symbols go through them unchanged.  Their float literals (1.0 - x)
come through as Floats; nsimplify turns them into exact rationals before
the identities are checked.  sympy is a test dependency only.
"""

import ast
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import sympy

from hcvdyn import ModelParameters, lyapunov, model

P = SimpleNamespace(**{f.name: sympy.Symbol(f.name, positive=True) for f in fields(ModelParameters)})
T, I, V, T0 = sympy.symbols("T I V T0", positive=True)


def e0_rate(weight):
    """dL/dt of the E0 Lyapunov function with V-weight `weight`, as
    certify_global forms it: (1 - T0/T) dT/dt + dI/dt + weight dV/dt."""
    f0, f1, f2 = model._signed(*model._field_terms(P, T, I, V))
    return (1 - T0 / T) * f0 + f1 + weight * f2


def exact(expr):
    return sympy.expand(sympy.nsimplify(expr, rational=True))


def test_v_drops_out_of_the_e0_rate():
    # The weight (1 - eta) beta T0 / c cancels every V term, for any T0.
    weight = (1 - P.eta) * P.beta * T0 / P.c
    assert exact(sympy.diff(e0_rate(weight), V)) == 0
    # Any other weight leaves V in: the identity is not vacuous.
    assert exact(sympy.diff(e0_rate(2 * weight), V)) != 0
    # The certificate's kernel, anchored at E0 with E0's weight, forms that
    # same rate.
    anchor = SimpleNamespace(T=T0, I=0, V=0)
    assert exact(lyapunov._lyapunov_weight(P, anchor) - weight) == 0
    rate, _ = lyapunov._lyapunov_rate(P, anchor, weight, T, I, V)
    assert exact(rate - e0_rate(weight)) == 0


def test_the_e0_rate_equals_its_collected_form():
    # lyapunov_uninfected's second route, written out as it computes it
    # (delta R0 - d_I standing for delta (R0 - 1 + q/delta)), equals the
    # kernel's rate once s is eliminated through T0's equation
    # s + (r_T - d_T) T0 - (r_T / T_max) T0**2 = 0.
    anchor = SimpleNamespace(T=T0, I=0, V=0)
    rate, _ = lyapunov._lyapunov_rate(P, anchor, lyapunov._lyapunov_weight(P, anchor), T, I, V)
    delta_r0 = P.r_I * (1 - T0 / P.T_max) + (1 - P.eta) * (1 - P.epsilon) * P.beta * P.p * T0 / P.c
    collected = (
        -(P.s / (T * T0)) * (T - T0) ** 2
        - (P.r_T / P.T_max) * (T + I - T0) * (T + (P.r_I / P.r_T) * I - T0)
        - P.q * I * T0 / T
        + I * (delta_r0 - P.d_I)
    )
    s_at_T0 = (P.r_T / P.T_max) * T0**2 - (P.r_T - P.d_T) * T0
    assert sympy.cancel(exact((rate - collected).subs(P.s, s_at_T0))) == 0
    # Without T0's equation the routes differ: the identity is not vacuous.
    assert sympy.cancel(exact(rate - collected)) != 0


def test_v_is_cleared_linearly():
    # integrate takes V's clearance -c V exactly once |V| <= abs_tol, and
    # steps N_V = f_V + c V by DP5's weights: N_V must not depend on V.
    closure = model.field_function(P)(0.0, (T, I, V))[2]
    signed = model._signed(*model._field_terms(P, T, I, V))[2]
    for f_v in (closure, signed):
        assert exact(f_v - ((1 - P.epsilon) * P.p * I - P.c * V)) == 0
        assert exact(sympy.diff(f_v + P.c * V, V)) == 0


def test_the_package_does_not_import_sympy():
    for path in Path(model.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "sympy" for name in names), path.name
