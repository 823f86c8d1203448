"""Command-line interface.

Subcommands: analyze (equilibria, reproduction number, stability), simulate
(CSV trajectory, optional SVG charts), certify (Lyapunov grid certificate),
sweep (parameter grids to CSV), validate (parse and sanity-check a scenario).

Exit statuses are a stable contract:

====  =========================================================
 0    success
 1    usage error or validation failure (bad flags, bad files,
      parameters outside the model's domain)
 2    violation (invariant breach in a trajectory, or a
      certificate counterexample)
 3    advisory (certificate grid clean but theorem hypotheses
      not met)
 4    I/O or integration failure
====  =========================================================
"""

from __future__ import annotations

import argparse
import cmath
import functools
import sys
from pathlib import Path
from typing import IO, NoReturn

from .errors import (
    DomainError,
    IntegrationError,
    IntegrityError,
    ParameterError,
    ScenarioError,
    SweepError,
)
from .formats import (
    METHOD_TOKENS,
    Scenario,
    _name_text,
    _read_text,
    check_svg_size,
    parse_scenario,
    parse_sweep_spec,
    render_line_svg,
    resolve_scenario_path,
    write_sweep_csv,
    write_trajectory_csv,
)
from .model import validate as validate_params
from .simulate import (
    IntegratorConfig,
    Trajectory,
    convergence_report,
    integrate,
)
from .stability import certify_global, stability_report
from .sweep import run_sweep

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_ADVISORY = 3
EXIT_RUNTIME = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract wants 1."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, complex):
        return f"{value.real!r}{value.imag:+}j" if value.imag else repr(value.real)
    return str(value)


def _emit(pairs: list[tuple[str, object]], fh: IO[str]) -> None:
    fh.write("".join(f"{key} = {_fmt(value)}\n" for key, value in pairs))


def _load_scenario(argument: str) -> Scenario:
    try:
        text = resolve_scenario_path(argument)
    except FileNotFoundError as exc:
        # Bad input argument, not an I/O failure: maps to the usage status.
        raise ScenarioError("no such scenario file or bundled scenario", source=argument) from exc
    return parse_scenario(text, source=argument)


def _relation(r0: float) -> str:
    if r0 < 1.0:
        return "r0 < 1"
    if r0 > 1.0:
        return "r0 > 1"
    return "r0 = 1"


def _analysis_pairs(scenario: Scenario, machine: bool) -> list[tuple[str, object]]:
    report = stability_report(scenario.params)
    existence = report.existence
    pairs: list[tuple[str, object]] = []
    if scenario.name is not None:
        pairs.append(("scenario", _name_text(scenario.name)))

    delta = scenario.params.d_I + scenario.params.q
    pairs += [
        ("t0", report.e0_point.state.T),
        ("t0_residual", report.e0_point.residual_norm),
        ("r0", report.r0),
        ("r0_spectral", report.r0_spectral),
        ("r0_agreement_delta", abs(report.r0 - report.r0_spectral)),
        ("delta", delta),
    ]
    if delta > 0:
        pairs.append(("one_minus_q_over_delta", 1.0 - scenario.params.q / delta))
    if machine:
        pairs += [("r0_relation", _relation(report.r0)), ("regime", existence.regime)]
    else:
        pairs.append(("regime", f"{_relation(report.r0)} ({existence.regime})"))
    pairs.append(("existence_condition", existence.existence_condition))
    if existence.threshold_T is not None:
        pairs.append(("threshold_T", existence.threshold_T))
    for name, verdict in (existence.criteria or {}).items():
        pairs.append((f"criterion_{name}", verdict))

    pairs += [
        ("e0_classification", report.e0.classification),
        ("e0_eigenvalues", ", ".join(_fmt(z) for z in report.e0.eigenvalues)),
        ("estar_present", report.estar_present),
    ]
    if report.estar_present:
        estar = report.estar.state
        coeffs = report.coefficients
        pairs += [
            ("estar_T", estar.T),
            ("estar_I", estar.I),
            ("estar_V", estar.V),
            ("estar_residual", report.estar.residual_norm),
        ]
        if existence.closed_form_T is not None:
            pairs += [
                ("closed_form_T", existence.closed_form_T),
                ("closed_form_rel_diff", existence.closed_form_rel_diff),
            ]
        pairs += [
            ("a1", coeffs.a1),
            ("a2", coeffs.a2),
            ("a3", coeffs.a3),
            ("delta2", coeffs.delta2),
            ("routh_hurwitz", report.routh_hurwitz.classification),
            ("estar_classification", report.estar_local.classification),
            ("estar_eigenvalues", ", ".join(_fmt(z) for z in report.estar_local.eigenvalues)),
        ]
    flags = report.consistency_flags
    pairs.append(("consistency_flags", "; ".join(flags) if flags else "none"))
    # A value beyond the float range is an error, not a result to print.
    eigenvalues = [("e0_eigenvalues", z) for z in report.e0.eigenvalues]
    if report.estar_present:
        eigenvalues += [("estar_eigenvalues", z) for z in report.estar_local.eigenvalues]
    for key, value in pairs + eigenvalues:
        if isinstance(value, (float, complex)) and not cmath.isfinite(value):
            raise DomainError(f"{key} is not finite: {_fmt(value)}")
    return pairs


def cmd_analyze(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.file)
    pairs = _analysis_pairs(scenario, machine=args.machine)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _emit(pairs, fh)
    else:
        _emit(pairs, sys.stdout)
    return EXIT_OK


def _integrator_config(scenario: Scenario, args: argparse.Namespace) -> IntegratorConfig:
    overrides: dict[str, object] = {}
    method = args.method or scenario.method
    if method is not None:
        overrides["method"] = METHOD_TOKENS[method]
    t_end = args.t_end if args.t_end is not None else scenario.t_end
    if t_end is not None:
        overrides["t_end"] = t_end
    for key in ("step", "rel_tol", "abs_tol"):
        value = getattr(scenario, key)
        if value is not None:
            overrides[key] = value
    return IntegratorConfig(**overrides)


def _simulation_summary(scenario: Scenario, trajectory: Trajectory) -> list[tuple[str, object]]:
    final = trajectory.final_state
    pairs: list[tuple[str, object]] = [
        ("samples", len(trajectory.times)),
        ("steps_taken", trajectory.steps_taken),
        ("steps_rejected", trajectory.steps_rejected),
        ("final_t", float(trajectory.times[-1])),
        ("final_T", final.T),
        ("final_I", final.I),
        ("final_V", final.V),
        ("t_plus_i_bound", trajectory.bounds.t_tilde0),
        ("v_bound", trajectory.bounds.lambda0),
        ("bounds_applicable", trajectory.bounds.applicable),
        ("initial_inside_omega", trajectory.initial_inside_omega),
        ("violations", len(trajectory.violation_log)),
        ("benign_dips", trajectory.benign_dips),
    ]
    convergence = convergence_report(scenario.params, trajectory)
    pairs += [
        ("attractor", convergence.attractor or "none"),
        ("rel_distance", convergence.rel_distance),
        ("converged", convergence.converged),
    ]
    for violation in trajectory.violation_log[:10]:
        pairs.append(
            ("violation", f"t={violation.time!r} {violation.kind} excess={violation.magnitude!r}")
        )
    return pairs


def _write_svg_set(trajectory: Trajectory, args: argparse.Namespace) -> None:
    out = Path(args.out)
    base = out.with_suffix("") if out.suffix else out
    for column, label in enumerate("TIV"):
        svg = render_line_svg(
            trajectory.times,
            trajectory.states[:, column],
            label,
            width=args.width,
            height=args.height,
        )
        Path(f"{base}_{label}.svg").write_text(svg, encoding="utf-8")


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.file)
    config = _integrator_config(scenario, args)
    if args.svg:  # refuse the size before the run and its CSV
        check_svg_size(args.width, args.height)
    exit_code = EXIT_OK
    try:
        trajectory = integrate(scenario.params, scenario.initial, config)
    except IntegrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        trajectory = exc.trajectory
        exit_code = EXIT_RUNTIME
        if trajectory is None:
            return exit_code

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_trajectory_csv(trajectory, fh)
        summary_fh = sys.stdout
    else:
        write_trajectory_csv(trajectory, sys.stdout)
        summary_fh = sys.stderr
    if args.svg:
        _write_svg_set(trajectory, args)

    if exit_code == EXIT_OK:
        _emit(_simulation_summary(scenario, trajectory), summary_fh)
        if trajectory.violation_log:
            exit_code = EXIT_VIOLATION
    return exit_code


def cmd_certify(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.file)
    target = {"e0": "E0", "estar": "Estar"}[args.target]
    report = certify_global(scenario.params, target=target, grid_points=args.grid)
    if report.violations:
        verdict = "violations found"
    elif not report.preconditions_met:
        verdict = "advisory: grid clean but theorem hypotheses not met"
    else:
        verdict = "certified"
    pairs: list[tuple[str, object]] = [
        ("target", report.target),
        ("r0", report.r0),
        ("preconditions_met", report.preconditions_met),
        ("grid_shape", "x".join(str(n) for n in report.grid_shape)),
        ("points_sampled", report.points_sampled),
        ("tolerance", report.tolerance),
        ("min_margin", report.min_margin),
        ("violations", len(report.violations)),
    ]
    for T, I, V, value in report.violations[:10]:
        pairs.append(("violation", f"state=({T!r}, {I!r}, {V!r}) dLdt={value!r}"))
    for note in report.notes:
        pairs.append(("note", note))
    pairs.append(("verdict", verdict))
    _emit(pairs, sys.stdout)
    if report.violations:
        return EXIT_VIOLATION
    if not report.preconditions_met:
        return EXIT_ADVISORY
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    path = Path(args.file)
    if not path.exists():
        raise ScenarioError("no such sweep-spec file", source=args.file)
    spec = parse_sweep_spec(_read_text(path, args.file), source=args.file)
    grid = run_sweep(spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_sweep_csv(grid, fh)
    else:
        write_sweep_csv(grid, sys.stdout)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.file)
    warnings = validate_params(scenario.params)
    pairs: list[tuple[str, object]] = [("ok", True)]
    if scenario.name is not None:
        pairs.append(("scenario", _name_text(scenario.name)))
    pairs.append(("warnings", len(warnings)))
    for warning in warnings:
        pairs.append(("warning", warning))
    _emit(pairs, sys.stdout)
    return EXIT_OK


# One parser per process: building it costs about 16 times a parse.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="hcvdyn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="equilibria, r0, and stability for a scenario")
    analyze.add_argument("file", help="scenario file path or bundled name (s1, s2)")
    analyze.add_argument("--out", help="write the report here instead of stdout")
    analyze.add_argument("--machine", action="store_true", help="flat key = value output")
    analyze.set_defaults(func=cmd_analyze)

    simulate = sub.add_parser("simulate", help="integrate a scenario and emit CSV")
    simulate.add_argument("file", help="scenario file path or bundled name (s1, s2)")
    simulate.add_argument("--out", help="CSV output path (default: stdout)")
    simulate.add_argument("--svg", action="store_true",
                          help="also write <out>_T.svg, <out>_I.svg, <out>_V.svg")
    simulate.add_argument("--machine", action="store_true",
                          help="accepted for interface symmetry; the summary is already flat")
    simulate.add_argument("--t-end", type=float, default=None, help="override horizon in days")
    simulate.add_argument("--method", choices=sorted(METHOD_TOKENS), default=None,
                          help="integrator override")
    simulate.add_argument("--width", type=int, default=800, help="SVG width in pixels")
    simulate.add_argument("--height", type=int, default=500, help="SVG height in pixels")
    simulate.set_defaults(func=cmd_simulate)

    certify = sub.add_parser("certify", help="Lyapunov grid certificate for E0 or Estar")
    certify.add_argument("file", help="scenario file path or bundled name (s1, s2)")
    certify.add_argument("--target", choices=("e0", "estar"), default="e0",
                         help="equilibrium to certify (default e0)")
    certify.add_argument("--grid", type=int, default=20, help="grid points per axis (default 20)")
    certify.add_argument("--machine", action="store_true",
                         help="accepted for interface symmetry; output is already flat")
    certify.set_defaults(func=cmd_certify)

    sweep = sub.add_parser("sweep", help="evaluate a parameter sweep to CSV")
    sweep.add_argument("file", help="sweep-spec file path")
    sweep.add_argument("--out", help="CSV output path (default: stdout)")
    sweep.set_defaults(func=cmd_sweep)

    validate = sub.add_parser("validate", help="parse a scenario and report warnings")
    validate.add_argument("file", help="scenario file path or bundled name (s1, s2)")
    validate.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "svg", False) and not args.out:
        parser.error("--svg requires --out to derive the SVG file names")
    try:
        return args.func(args)
    except (ScenarioError, ParameterError, DomainError, SweepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IntegrityError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
