"""Numerical tolerances used across the package.

All comparison thresholds live in one frozen record so that every module and
every test reads the same numbers.  Each field documents the check it guards
and whether it is relative or absolute.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Repo-wide numerical tolerances.

    Every check reads DEFAULT_TOLERANCES when it runs; no operation takes
    its own thresholds.
    """

    equilibrium_residual: float = 1e-8
    """Componentwise-relative vector-field residual accepted for any
    equilibrium this package reports."""

    uninfected_residual: float = 1e-9
    """Tighter residual bound for the uninfected equilibrium, whose first
    component is a plain scalar root."""

    t_star_radical: float = 1e-9
    """Relative agreement required between the quadratic-root T* and its
    independent radical closed form."""

    jacobian_agreement: float = 1e-10
    """Entrywise relative agreement between specialised equilibrium Jacobians
    and the general Jacobian."""

    char_coeff_integrity: float = 1e-6
    """Hard ceiling on the closed-vs-minor disagreement; beyond this the
    coefficients raise IntegrityError instead of returning."""

    r0_agreement: float = 1e-12
    """Relative agreement between the closed-form reproduction number and the
    next-generation spectral radius."""

    lyapunov_agreement: float = 1e-9
    """Relative agreement between the gradient-dot-field and collected forms
    of the uninfected Lyapunov derivative."""

    marginal_band: float = 1e-12
    """Absolute half-width around zero inside which a stability quantity is
    classified marginal rather than signed."""

    certificate_margin: float = 1e-9
    """Scaled slack allowed above zero before a grid point counts as a
    certificate violation."""

    bound_slack: float = 1e-6
    """Relative slack applied to invariant-region bounds during trajectory
    checking."""

    infected_convergence: float = 1e-2
    """Largest componentwise-relative distance of a run's final sample from
    E* that convergence_report counts as converged."""

    uninfected_convergence: float = 1e-3
    """Largest scaled distance of a run's final sample from E0 that
    convergence_report counts as converged."""

    uninfected_component_scale: float = 1e-3
    """Fraction of T0 that scales I and V, which vanish at E0, in convergence_report."""


DEFAULT_TOLERANCES = Tolerances()
