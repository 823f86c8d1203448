"""Within-host HCV dynamics with proliferating cell classes and spontaneous cure.

The model tracks target cells T, infected cells I, and free virus V:

    dT/dt = s + r_T T (1 - (T + I)/T_max) - d_T T - (1 - eta) beta V T + q I
    dI/dt = r_I I (1 - (T + I)/T_max) - d_I I + (1 - eta) beta V T - q I
    dV/dt = (1 - epsilon) p I - c V

The package computes equilibria in closed form and by root finding, the
basic reproduction number (algebraic and spectral routes), local stability
via Routh-Hurwitz, Lyapunov-based global-stability certificates, time
integration with invariant monitoring, and parameter sweeps.  A CLI wraps
the same operations; see `python -m hcvdyn --help`.
"""

from .errors import (
    DomainError,
    IntegrationError,
    IntegrityError,
    ModelError,
    ParameterError,
    ScenarioError,
    SweepError,
)
from .model import (
    DEFAULT_INITIAL_STATE,
    PARAMETER_NAMES,
    SCENARIO_S1,
    SCENARIO_S2,
    DerivedConstants,
    ModelParameters,
    State,
    derive_constants,
    jacobian,
    residual_norm,
    vector_field,
)
from .equilibria import (
    REGIME_MULTIPLE,
    REGIME_NONE,
    REGIME_UNIQUE,
    EquilibriumPoint,
    ExistenceReport,
    existence_regime,
    infected_equilibrium,
    infected_T_closed_form,
    uninfected_equilibrium,
)
from .reproduction import NextGenDecomposition, r0, r0_from_T0, r0_spectral
from .stability import (
    MARGINAL,
    STABLE,
    UNSTABLE,
    CharacteristicCoefficients,
    LocalReport,
    RouthHurwitzReport,
    StabilityReport,
    characteristic_coefficients,
    cubic_roots,
    infected_jacobian,
    infected_local,
    routh_hurwitz,
    stability_report,
    uninfected_local,
)
from .lyapunov import CertificateReport, certify_global, lyapunov_infected, lyapunov_uninfected
from .simulate import (
    RK4_FIXED,
    RK45_ADAPTIVE,
    Bounds,
    ConvergenceReport,
    IntegratorConfig,
    InvariantSummary,
    Trajectory,
    Violation,
    asymptotic_bounds,
    check_invariants,
    convergence_report,
    integrate,
)
from .sweep import (
    SWEEP_OUTPUTS,
    THRESHOLD_TARGETS,
    Axis,
    CellResult,
    SweepGrid,
    SweepSpec,
    ThresholdResult,
    run_sweep,
    threshold_locate,
)
from .formats import (
    Scenario,
    bundled_scenarios,
    parse_scenario,
    parse_sweep_spec,
    render_line_svg,
    render_scenario,
    resolve_scenario_path,
    write_sweep_csv,
    write_trajectory_csv,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ModelError", "ParameterError", "DomainError", "IntegrityError",
    "IntegrationError", "ScenarioError", "SweepError",
    # model
    "ModelParameters", "State", "DerivedConstants", "PARAMETER_NAMES",
    "SCENARIO_S1", "SCENARIO_S2", "DEFAULT_INITIAL_STATE",
    "derive_constants", "vector_field", "jacobian", "residual_norm",
    # equilibria
    "EquilibriumPoint", "ExistenceReport",
    "REGIME_NONE", "REGIME_UNIQUE", "REGIME_MULTIPLE",
    "uninfected_equilibrium", "infected_equilibrium", "existence_regime",
    "infected_T_closed_form",
    # reproduction number
    "NextGenDecomposition", "r0", "r0_from_T0", "r0_spectral",
    # stability
    "STABLE", "UNSTABLE", "MARGINAL",
    "LocalReport", "CharacteristicCoefficients", "RouthHurwitzReport",
    "StabilityReport",
    "uninfected_local", "infected_jacobian", "infected_local",
    "characteristic_coefficients", "cubic_roots", "routh_hurwitz",
    "stability_report",
    # Lyapunov functions and certificates
    "CertificateReport", "lyapunov_uninfected", "lyapunov_infected", "certify_global",
    # simulation
    "RK4_FIXED", "RK45_ADAPTIVE", "IntegratorConfig", "Bounds", "Violation",
    "Trajectory", "InvariantSummary", "ConvergenceReport",
    "asymptotic_bounds", "integrate", "check_invariants", "convergence_report",
    # sweeps
    "Axis", "SweepSpec", "CellResult", "SweepGrid", "ThresholdResult",
    "SWEEP_OUTPUTS", "THRESHOLD_TARGETS", "run_sweep", "threshold_locate",
    # formats
    "Scenario", "parse_scenario", "render_scenario", "parse_sweep_spec",
    "bundled_scenarios", "resolve_scenario_path",
    "write_trajectory_csv", "write_sweep_csv", "render_line_svg",
    # tolerances
    "Tolerances", "DEFAULT_TOLERANCES",
]
