"""File formats: scenario files, sweep specs, CSV and SVG emission.

Scenario files are line-oriented `key = value` text with `#` comments.
Keys are the twelve model parameters, the three initial conditions T0, I0,
V0, and optional integrator overrides (t_end, method, step, rel_tol,
abs_tol) plus a free-form name.  A name that starts with a double quote is
a JSON string, so any name fits on its line.  Parse errors carry 1-based
line numbers.

Sweep-spec files reuse the same syntax with axis lines
(`axis1 = <param> <lo> <hi> <n> <linear|log>`) and an optional
space-separated `outputs` list.

CSV floats are written with repr(), the shortest digit string that
round-trips to the same double, so emitted numbers parse back bitwise
identical.  The CSV writers emit blocks of rows, one write per block, and
format each distinct float64 bit pattern of a block once: the bytes are
those of one repr per value, with -0.0 and 0.0 kept apart.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import IO

import numpy as np

from .errors import ParameterError, ScenarioError, SweepError
from .model import PARAMETER_NAMES, ModelParameters, State
from .sweep import SWEEP_OUTPUTS, Axis, SweepSpec
from .simulate import RK4_FIXED, RK45_ADAPTIVE, Trajectory

__all__ = [
    "Scenario",
    "parse_scenario",
    "render_scenario",
    "parse_sweep_spec",
    "bundled_scenarios",
    "resolve_scenario_path",
    "write_trajectory_csv",
    "write_sweep_csv",
    "render_line_svg",
]

STATE_KEYS = ("T0", "I0", "V0")
OPTION_KEYS = ("t_end", "method", "step", "rel_tol", "abs_tol", "name")
METHOD_TOKENS = {"rk4": RK4_FIXED, "rk45": RK45_ADAPTIVE}
"""Short integrator tokens (Scenario.method, the CLI's --method) and the
IntegratorConfig.method each names.  Scenario files also accept the latter."""

_LINE_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.*?)\s*$")


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario: parameters, initial state, optional overrides."""

    params: ModelParameters
    initial: State
    t_end: float | None = None
    method: str | None = None
    """Canonical short token "rk4" or "rk45"."""
    step: float | None = None
    rel_tol: float | None = None
    abs_tol: float | None = None
    name: str | None = None


def _key_value_lines(text: str, source: str) -> list[tuple[int, str, str]]:
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        match = _LINE_RE.match(line)
        if match is None:
            raise ScenarioError(f"expected 'key = value', got {line!r}", line=lineno, source=source)
        entries.append((lineno, match.group(1), match.group(2)))
    return entries


def _parse_float(key: str, raw: str, lineno: int, source: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ScenarioError(f"{key}: not a number: {raw!r}", line=lineno, source=source) from None
    if not math.isfinite(value):
        raise ScenarioError(f"{key}: must be finite, got {raw!r}", line=lineno, source=source)
    return value


def _collect_unique(
    entries: list[tuple[int, str, str]], known: tuple[str, ...], source: str
) -> dict[str, tuple[int, str]]:
    seen: dict[str, tuple[int, str]] = {}
    for lineno, key, raw in entries:
        if key not in known:
            raise ScenarioError(f"unknown key {key!r}", line=lineno, source=source)
        if key in seen:
            raise ScenarioError(
                f"duplicate key {key!r} (first set on line {seen[key][0]})",
                line=lineno,
                source=source,
            )
        seen[key] = (lineno, raw)
    return seen


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    """Parse scenario text; raises ScenarioError with line numbers."""
    known = PARAMETER_NAMES + STATE_KEYS + OPTION_KEYS
    seen = _collect_unique(_key_value_lines(text, source), known, source)

    missing = [k for k in PARAMETER_NAMES + STATE_KEYS if k not in seen]
    if missing:
        raise ScenarioError(f"missing required keys: {', '.join(missing)}", source=source)

    def number(key: str) -> float:
        lineno, raw = seen[key]
        return _parse_float(key, raw, lineno, source)

    try:
        params = ModelParameters(**{k: number(k) for k in PARAMETER_NAMES})
        initial = State(*(number(k) for k in STATE_KEYS))
    except ParameterError as exc:
        raise ScenarioError(str(exc), source=source) from exc

    options: dict[str, object] = {}
    for key in ("t_end", "step", "rel_tol", "abs_tol"):
        if key in seen:
            options[key] = number(key)
    if "method" in seen:
        lineno, raw = seen["method"]
        short = [token for token, method in METHOD_TOKENS.items() if raw in (token, method)]
        if not short:
            raise ScenarioError(
                f"method must be one of {sorted([*METHOD_TOKENS, *METHOD_TOKENS.values()])}, "
                f"got {raw!r}",
                line=lineno,
                source=source,
            )
        options["method"] = short[0]
    if "name" in seen:
        lineno, raw = seen["name"]
        options["name"] = raw
        if raw.startswith('"'):
            try:
                options["name"] = json.loads(raw)
            except ValueError:
                raise ScenarioError(f"name: not a JSON string: {raw!r}", line=lineno, source=source) from None
    return Scenario(params=params, initial=initial, **options)


def _name_text(name: str) -> str:
    """A scenario name as its `name = ...` line writes it: as is where the
    line parses back to the name (one line, no comment, no surrounding
    whitespace), else a JSON string with # escaped."""
    plain = name == name.strip() and "#" not in name and not name.startswith('"')
    if not plain or len((name + ".").splitlines()) > 1:
        return json.dumps(name).replace("#", "\\u0023")
    return name


def render_scenario(scenario: Scenario) -> str:
    """Render a scenario back to file text; parse(render(s)) == s."""
    lines = []
    if scenario.name is not None:
        lines.append(f"name = {_name_text(scenario.name)}")
    for key in PARAMETER_NAMES:
        lines.append(f"{key} = {getattr(scenario.params, key)!r}")
    for key, value in zip(STATE_KEYS, scenario.initial):
        lines.append(f"{key} = {value!r}")
    for key in ("t_end", "step", "rel_tol", "abs_tol"):
        value = getattr(scenario, key)
        if value is not None:
            lines.append(f"{key} = {value!r}")
    if scenario.method is not None:
        lines.append(f"method = {scenario.method}")
    return "\n".join(lines) + "\n"


def parse_sweep_spec(text: str, source: str = "<sweep>") -> SweepSpec:
    """Parse a sweep-spec file into a SweepSpec.

    Requires all twelve parameter keys and an axis1 line; axis2 and outputs
    are optional (outputs defaults to every available column).
    """
    known = PARAMETER_NAMES + ("axis1", "axis2", "outputs", "name")
    seen = _collect_unique(_key_value_lines(text, source), known, source)

    missing = [k for k in PARAMETER_NAMES if k not in seen]
    if missing:
        raise ScenarioError(f"missing required keys: {', '.join(missing)}", source=source)
    if "axis1" not in seen:
        raise ScenarioError("missing required key: axis1", source=source)

    try:
        base = ModelParameters(
            **{k: _parse_float(k, seen[k][1], seen[k][0], source) for k in PARAMETER_NAMES}
        )
    except ParameterError as exc:
        raise ScenarioError(str(exc), source=source) from exc

    def parse_axis(key: str) -> Axis:
        lineno, raw = seen[key]
        parts = raw.split()
        if len(parts) != 5:
            raise ScenarioError(
                f"{key}: expected '<param> <lo> <hi> <n> <linear|log>', got {raw!r}",
                line=lineno,
                source=source,
            )
        name, lo, hi, n, scale = parts
        lo_value = _parse_float(key, lo, lineno, source)
        hi_value = _parse_float(key, hi, lineno, source)
        try:
            n_value = int(n)
        except ValueError:
            raise ScenarioError(
                f"{key}: point count must be an integer, got {n!r}", line=lineno, source=source
            ) from None
        try:
            return Axis(name=name, lo=lo_value, hi=hi_value, n=n_value, scale=scale)
        except SweepError as exc:
            raise ScenarioError(f"{key}: {exc}", line=lineno, source=source) from exc

    axis1 = parse_axis("axis1")
    axis2 = parse_axis("axis2") if "axis2" in seen else None

    outputs: tuple[str, ...] = SWEEP_OUTPUTS
    if "outputs" in seen:
        lineno, raw = seen["outputs"]
        outputs = tuple(raw.split())
        for name in outputs:
            if name not in SWEEP_OUTPUTS:
                raise ScenarioError(
                    f"unknown output {name!r}; choose from {SWEEP_OUTPUTS}",
                    line=lineno,
                    source=source,
                )
        if not outputs:
            raise ScenarioError("outputs must not be empty", line=lineno, source=source)
    try:
        return SweepSpec(base=base, axis1=axis1, axis2=axis2, outputs=outputs)
    except SweepError as exc:
        raise ScenarioError(str(exc), source=source) from exc


def _read_text(path: Path, source: str) -> str:
    """The text of a scenario or sweep-spec file, which must be a regular
    file of UTF-8 whatever the locale (a leading byte-order mark is
    dropped); raises ScenarioError if it is not."""
    if not path.is_file():
        raise ScenarioError("not a regular file", source=source)
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", source=source) from None


def bundled_scenarios() -> dict[str, str]:
    """Names of the scenario files shipped with the package."""
    out = {}
    for entry in resources.files("hcvdyn.data").iterdir():
        if entry.name.endswith(".scn"):
            out[entry.name[: -len(".scn")]] = entry.read_text(encoding="utf-8")
    return out


def resolve_scenario_path(argument: str) -> str:
    """Scenario text for a CLI argument: a file path or a bundled name."""
    path = Path(argument)
    if path.exists():
        return _read_text(path, argument)
    stem = argument[: -len(".scn")] if argument.endswith(".scn") else argument
    bundled = bundled_scenarios()
    if stem in bundled:
        return bundled[stem]
    raise FileNotFoundError(f"no such scenario file or bundled scenario: {argument!r}")


_BLOCK_ROWS = 1 << 14
"""CSV rows per write: a trajectory's rows, or a sweep's whole axis1 rows
up to this many cells (at least one axis1 row)."""


def _float_texts(values) -> list[str]:
    """repr of each value, formatted once per distinct float64 bit pattern.

    Keyed on the bits, not on float equality, which would merge -0.0 with 0.0.
    """
    bits, index = np.unique(
        np.ascontiguousarray(values, dtype=np.float64).view(np.int64), return_inverse=True
    )
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return texts[index].tolist()


def _write_rows(columns: list, fh: IO[str]) -> None:
    """One write of the rows that zip(*columns) makes, comma-joined."""
    fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


def write_trajectory_csv(trajectory: Trajectory, fh: IO[str]) -> None:
    """Emit `t,T,I,V` rows; floats use repr for lossless round-trips."""
    fh.write("t,T,I,V\n")
    times, states = trajectory.times, trajectory.states
    for start in range(0, len(times), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        t = list(map(repr, times[rows].tolist()))
        _write_rows([t, *(_float_texts(states[rows, k]) for k in range(3))], fh)


def write_sweep_csv(grid, fh: IO[str]) -> None:
    """Emit sweep cells row-major: axis columns, outputs, status.

    Written by blocks of whole axis1 rows; each distinct axis value is
    formatted once, and each distinct output float once per block.
    """
    spec = grid.spec
    axes = [spec.axis1] if spec.axis2 is None else [spec.axis1, spec.axis2]
    fh.write(",".join([a.name for a in axes] + list(spec.outputs) + ["status"]) + "\n")
    axis1 = list(map(repr, grid.axis1_values.tolist()))
    axis2 = None if grid.axis2_values is None else list(map(repr, grid.axis2_values.tolist()))
    n1, rows = len(axis1), len(grid.status) // len(axis1)
    step = max(1, _BLOCK_ROWS // n1)
    for row in range(0, rows, step):
        count = min(step, rows - row)
        cells = slice(row * n1, (row + count) * n1)
        columns = [axis1 * count]
        if axis2 is not None:
            columns.append([text for v in axis2[row : row + count] for text in [v] * n1])
        for name in spec.outputs:
            values = grid.columns[name][cells]
            # regime holds strings and nan; str of a float is its repr.
            columns.append(list(map(str, values)) if name == "regime" else _float_texts(values))
        columns.append(grid.status[cells])
        _write_rows(columns, fh)


_SVG_MARGIN = 70


def check_svg_size(width: int, height: int) -> None:
    """Raise ParameterError unless width and height exceed twice the 70 px
    margin, without which the plot area would be empty or mirrored."""
    if not (width > 2 * _SVG_MARGIN and height > 2 * _SVG_MARGIN):
        raise ParameterError(f"SVG width and height must exceed {2 * _SVG_MARGIN} px, got {width!r} x {height!r}")


def render_line_svg(
    xs: np.ndarray,
    ys: np.ndarray,
    label: str,
    width: int = 800,
    height: int = 500,
) -> str:
    """Single-polyline SVG chart with min/max labels on both axes, of a size check_svg_size accepts."""
    check_svg_size(width, height)
    margin = _SVG_MARGIN
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    x_span = x_hi - x_lo or 1.0
    y_span = y_hi - y_lo or 1.0
    inner_w = width - 2 * margin
    inner_h = height - 2 * margin

    points = []
    for x, y in zip(xs, ys):
        px = margin + (x - x_lo) / x_span * inner_w
        py = height - margin - (y - y_lo) / y_span * inner_h
        points.append(f"{px:.2f},{py:.2f}")

    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>\n'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>\n'
        f'<text x="{width // 2}" y="24" text-anchor="middle" font-size="16">{label}</text>\n'
        f'<text x="{margin}" y="{height - margin + 20}" text-anchor="middle" '
        f'font-size="12">{x_lo:.6g}</text>\n'
        f'<text x="{width - margin}" y="{height - margin + 20}" text-anchor="middle" '
        f'font-size="12">{x_hi:.6g}</text>\n'
        f'<text x="{margin - 8}" y="{height - margin}" text-anchor="end" '
        f'font-size="12">{y_lo:.6g}</text>\n'
        f'<text x="{margin - 8}" y="{margin + 4}" text-anchor="end" '
        f'font-size="12">{y_hi:.6g}</text>\n'
        f'<polyline fill="none" stroke="#1f6fb2" stroke-width="1.5" '
        f'points="{" ".join(points)}"/>\n'
        "</svg>\n"
    )
