"""Command-line interface: evaluate, optimize, sweep, phase-map, figure.

Output is plain CSV or JSON with byte-stable formatting: floats are
rendered with repr (shortest round-trip), rows follow the axis order,
and CSV files begin with the comment line `# otto-rel schema v1`.

Exit status: 0 on success, 2 on input/domain-validation errors, 3 when
the request is well-formed but the physics says no (no interior
optimum) or the arithmetic does (division by zero, overflow, a non-finite
result).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from typing import Iterable, Iterator, Optional, Sequence

from .core import (
    SUDDEN_COMPRESSION,
    SUDDEN_EXPANSION,
    CycleParams,
    heats_and_work,
    omega_function,
)
from .high_temperature import ReducedParams, performance, reduced_load
from .optima import (
    NoInteriorOptimumError,
    Objective,
    eta_omega_sc,
    eta_omega_se,
    optimize,
    peak_efficiency,
)
from .phase_diagram import OperationalMode, PhaseMap, classify_signs, mode_fractions, rasterize

SCHEMA_LINE = "# otto-rel schema v1"

_SCENARIOS = {"sc": SUDDEN_COMPRESSION, "se": SUDDEN_EXPANSION}

# Output token of each mode: a dict lookup, where Enum.value runs Python code.
_MODE_TOKENS = {mode: mode.value for mode in OperationalMode}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write(output: Optional[str], chunks: Iterable[str]) -> None:
    """Write the chunks in order to the --output file, or to stdout when it is None."""
    if output is None:
        sys.stdout.writelines(chunks)
        return
    with open(output, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(chunks)


def _csv(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    lines = [SCHEMA_LINE, ",".join(header)]
    for row in rows:
        lines.append(",".join(map(_fmt, row)))
    return "\n".join(lines) + "\n"


def _require_finite(pairs: Iterable[tuple[str, object]], error=FloatingPointError) -> None:
    """Raise error at the first named float that is inf or nan."""
    for key, value in pairs:
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{key} is not finite ({value!r})")


_OPEN = (lambda x: 0.0 < x < 1.0, "lie in (0,1)")
_RATIO = (lambda x: 0.0 < x <= 1.0, "lie in (0,1]")
_POSITIVE = (lambda x: x > 0.0, "be positive")

# The domain of every numeric flag, checked even where a subcommand or figure ignores it.
_DOMAINS = {
    "tau": _OPEN,
    "v": _OPEN,
    "beta_h": _POSITIVE,
    "omega_h": _POSITIVE,
    "z": _RATIO,
    "z_min": _RATIO,
    "z_max": _RATIO,
    "points": (lambda n: 1 <= n <= 10_000, "lie in [1, 10000]"),
    "resolution": (lambda n: 2 <= n <= 10_000, "lie in [2, 10000]"),
}


def _check(name: str, value) -> None:
    test, domain = _DOMAINS[name]
    if not test(value):
        raise ValueError(f"{name.replace('_', '-')} must {domain}, got {value}")


def _check_domains(args) -> None:
    """Validate every numeric flag given, finiteness first, before any dispatch."""
    flags = vars(args).items()
    _require_finite(((name.replace("_", "-"), value) for name, value in flags), ValueError)
    for name, value in flags:
        if name in _DOMAINS and value is not None:
            _check(name, value)


def _evaluator(args) -> tuple:
    """The (point, record) pair of an evaluate or sweep request.

    The scenario, the units, the load g = tau*f(v) and eta_max are read
    once here.  point(z) is the validated operating point at ratio z;
    record(z, point) is its evaluation as the fixed-order output mapping.
    """
    token, tau, v, beta_h = args.scenario, args.tau, args.v, args.beta_h
    scenario = _SCENARIOS[token]
    g = reduced_load(tau, v)
    try:
        cap = peak_efficiency(g, scenario)
    except NoInteriorOptimumError:
        cap = None  # the omega column stays empty where eta_max cannot be certified
    if args.exact:
        # the mode reads the energies in units of omega_h
        unit = omega_h = args.omega_h
        beta_c, scale, evaluate = beta_h / tau, 1.0, heats_and_work

        def point(z: float) -> CycleParams:
            omega_c = z * omega_h
            if omega_c == 0.0:
                raise FloatingPointError(
                    f"omega_c = z*omega_h underflows to 0 at omega-h={omega_h}"
                )
            if beta_c == math.inf:
                raise FloatingPointError(f"beta_c = beta_h/tau overflows at beta-h={beta_h}")
            return CycleParams(v, beta_c, beta_h, omega_c, omega_h)

    else:
        # the mode reads the unit-free forms; the energies print in units of 1/beta_h
        unit, scale, evaluate = 1.0, beta_h, performance

        def point(z: float) -> ReducedParams:
            return ReducedParams(z, g)

    def record(z: float, params: tuple) -> dict:
        q_h, q_c, w_ext = rec = evaluate(params, scenario)
        return {
            "z": z,
            "tau": tau,
            "v": v,
            "beta_h": beta_h,
            "scenario": token,
            "q_h": q_h / scale,
            "q_c": q_c / scale,
            "w_ext": w_ext / scale,
            "eta": rec.eta,
            "omega": None if cap is None else omega_function(rec, cap) / scale,
            "mode": _MODE_TOKENS[classify_signs(w_ext / unit, q_h / unit, q_c / unit)],
        }

    return point, record


def _render_mapping(mapping: dict, fmt: str, output: Optional[str]) -> None:
    _require_finite(mapping.items())
    if fmt == "json":
        _write(output, [json.dumps(mapping) + "\n"])
    else:
        _write(output, [_csv(list(mapping), [list(mapping.values())])])


def _cmd_evaluate(args) -> int:
    point, record = _evaluator(args)
    _render_mapping(record(args.z, point(args.z)), args.format, args.output)
    return 0


def _cmd_optimize(args) -> int:
    objective = Objective(args.objective)
    report = optimize(objective, _SCENARIOS[args.scenario], args.tau, args.v)
    # work and omega print in units of 1/beta_h; eta is a ratio
    scale = 1.0 if objective is Objective.EFFICIENCY else args.beta_h
    mapping = {
        "objective": args.objective,
        "scenario": args.scenario,
        "tau": args.tau,
        "v": args.v,
        "beta_h": args.beta_h,
        "z_star": report.z_star,
        "value": report.value_at_opt / scale,
        "eta": report.eta_at_opt,
        "source": "closed-form",
    }
    _render_mapping(mapping, args.format, args.output)
    return 0


_EVAL_HEADER = (
    "z",
    "tau",
    "v",
    "beta_h",
    "scenario",
    "q_h",
    "q_c",
    "w_ext",
    "eta",
    "omega",
    "mode",
)
# the columns of a sweep row that vary with z
_ROW_KEYS = ("z", *_EVAL_HEADER[5:])


def _cmd_sweep(args) -> int:
    if args.z_max < args.z_min:
        raise ValueError(
            f"z-max {args.z_max} must not be below z-min {args.z_min}"
        )
    points = 1 if args.z_max == args.z_min else args.points
    grid = _linspace(args.z_min, args.z_max, points)
    point, record = _evaluator(args)
    rows = []
    for z in grid:
        params = point(z)
        # record runs once per column, not once per row: perfbench/test_perfbench.py
        # pins 7 * 11 performance calls for a 7-point sweep, and only the
        # benchmark change (ROADMAP.md item 4) may move that pin.
        row = [record(z, params)[key] for key in _EVAL_HEADER]
        del row[1:5]  # the request columns, written once below
        rows.append(row)
    # the request columns passed _check_domains; z and the computed cells are checked here
    _require_finite(zip(itertools.cycle(_ROW_KEYS), itertools.chain.from_iterable(rows)))
    request = ",".join(map(_fmt, (args.tau, args.v, args.beta_h, args.scenario)))
    _write(args.output, [_csv(_EVAL_HEADER, ((row[0], request, *row[1:]) for row in rows))])
    return 0


_RASTER_HEADER = ("z", "tau", "v", "scenario", "mode")


def _raster(token: str, phase_maps: Iterable[PhaseMap]) -> Iterator[str]:
    """Raster CSV: the header, then one string per z row.

    Each column keeps its tail "tau,v,scenario,mode" and changes it only
    where one of its runs starts, so a row is its z joined to the tails.
    """
    yield _csv(_RASTER_HEADER, ())
    for phase_map in phase_maps:
        v, axis = repr(phase_map.v), phase_map.axis
        # z row -> the (column, mode) runs that start there
        starts = [[] for _ in axis]
        for j, column in enumerate(phase_map.runs):
            for start, mode in column:
                starts[start].append((j, mode))
        tails = [""] * len(axis)
        for z, due in zip(axis, starts):
            for j, mode in due:
                tails[j] = f"{axis[j]!r},{v},{token},{_MODE_TOKENS[mode]}\n"
            head = repr(z) + ","
            yield head + head.join(tails)


def _cmd_phase_map(args) -> int:
    phase_map = rasterize(_SCENARIOS[args.scenario], args.v, args.resolution)
    _write(args.output, _raster(args.scenario, [phase_map]))
    summary = {
        "mode_fractions": mode_fractions(phase_map),
        "v": args.v,
        "scenario": args.scenario,
    }
    _write(None, [json.dumps(summary) + "\n"])
    return 0


def _parse_v_list(raw: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in raw.split(","))
    except ValueError as exc:
        raise ValueError(f"could not parse v-list {raw!r}") from exc
    for v in values:
        _check("v", v)
    return values


def _linspace(lo: float, hi: float, points: int) -> list[float]:
    """points evenly spaced values from lo to hi; [lo] when points is 1.

    The last value is hi itself: lo + step * (points - 1) can round past it.
    """
    if points == 1:
        return [lo]
    step = (hi - lo) / (points - 1)
    return [lo + step * i for i in range(points - 1)] + [hi]


def _figure_2(v_list, points: int) -> str:
    rows = []
    # The public per-scenario functions, which the benchmark's tracer
    # rebinds by name to time every figure-2 optimum.
    for token, fn in (("sc", eta_omega_sc), ("se", eta_omega_se)):
        for v in v_list:
            for eta_c in _linspace(0.01, 0.99, points):
                rows.append([eta_c, v, token, fn(eta_c, v)])
    return _csv(("eta_c", "v", "scenario", "eta_omega"), rows)


def _z_axis(points: int) -> list[float]:
    return [(i + 1) / points for i in range(points)]


def _figure_z(v_list, tau: float, points: int, columns: tuple[str, ...]) -> str:
    """Figures 3 and 4: hot-limit "eta"/"work" columns along the z axis."""
    rows = []
    loads = [reduced_load(tau, v) for v in v_list]
    for token, scenario in _SCENARIOS.items():
        for v, g in zip(v_list, loads):
            for z in _z_axis(points):
                rec = performance(ReducedParams(z, g), scenario)
                cells = {"eta": rec.eta, "work": rec.w_ext}
                rows.append([z, v, token, *(cells[column] for column in columns)])
    return _csv(("z", "v", "scenario", *columns), rows)


# Figures 3 and 4: their default tau and their columns along z.
_Z_FIGURES = {3: (0.5, ("work",)), 4: (0.4, ("eta", "work"))}


def _cmd_figure(args) -> int:
    v_list = _parse_v_list(args.v_list)
    if args.id in (5, 6):
        # v-list and resolution are validated, so no raster raises mid-file
        token = "sc" if args.id == 5 else "se"
        maps = (rasterize(_SCENARIOS[token], v, args.resolution) for v in v_list)
        _write(args.output, _raster(token, maps))
        return 0
    points = (100 if args.id == 2 else 200) if args.points is None else args.points
    if args.id == 2:
        text = _figure_2(v_list, points)
    else:
        default_tau, columns = _Z_FIGURES[args.id]
        tau = default_tau if args.tau is None else args.tau
        text = _figure_z(v_list, tau, points, columns)
    _write(args.output, [text])
    return 0


def _add_common(parser) -> None:
    parser.add_argument("--tau", type=float, required=True, help="beta_h/beta_c in (0,1)")
    parser.add_argument("--v", type=float, required=True, help="oscillator velocity in (0,1)")
    parser.add_argument("--beta-h", type=float, default=1.0, help="hot inverse temperature (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otto-rel",
        description="Asymmetric relativistic quantum Otto cycle calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="heats, work, efficiency at one point")
    p_eval.add_argument("--scenario", choices=tuple(_SCENARIOS), required=True)
    p_eval.add_argument("--z", type=float, required=True, help="frequency ratio in (0,1]")
    _add_common(p_eval)
    p_eval.add_argument(
        "--exact",
        action="store_true",
        help="use the exact cycle energetics instead of the high-temperature forms",
    )
    p_eval.add_argument(
        "--omega-h",
        type=float,
        default=1.0,
        help="hot-side frequency for --exact (default 1); beta_c is beta_h/tau",
    )
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")
    p_eval.add_argument("--output", default=None, help="file path (default stdout)")
    p_eval.set_defaults(handler=_cmd_evaluate)

    p_opt = sub.add_parser("optimize", help="optimal ratio for one objective")
    p_opt.add_argument("--objective", choices=[o.value for o in Objective], required=True)
    p_opt.add_argument("--scenario", choices=tuple(_SCENARIOS), required=True)
    _add_common(p_opt)
    p_opt.add_argument("--format", choices=("json", "csv"), default="json")
    p_opt.add_argument("--output", default=None, help="file path (default stdout)")
    p_opt.set_defaults(handler=_cmd_optimize)

    p_sweep = sub.add_parser("sweep", help="evaluate along a z range")
    p_sweep.add_argument("--scenario", choices=tuple(_SCENARIOS), required=True)
    _add_common(p_sweep)
    p_sweep.add_argument("--z-min", type=float, required=True)
    p_sweep.add_argument("--z-max", type=float, required=True)
    p_sweep.add_argument("--points", type=int, default=101)
    p_sweep.add_argument("--output", default=None, help="file path (default stdout)")
    p_sweep.set_defaults(handler=_cmd_sweep, exact=False)

    p_phase = sub.add_parser("phase-map", help="mode raster plus JSON mode fractions")
    p_phase.add_argument("--scenario", choices=tuple(_SCENARIOS), required=True)
    p_phase.add_argument("--v", type=float, required=True, help="oscillator velocity in (0,1)")
    p_phase.add_argument("--resolution", type=int, default=200)
    p_phase.add_argument(
        "--output",
        required=True,
        help="CSV path for the raster; the JSON summary goes to stdout",
    )
    p_phase.set_defaults(handler=_cmd_phase_map)

    p_fig = sub.add_parser("figure", help="long-format CSV data for figures 2-6")
    p_fig.add_argument("--id", type=int, choices=(2, 3, 4, 5, 6), required=True)
    p_fig.add_argument(
        "--v-list",
        default="0.35,0.75,0.95",
        help="comma-separated velocities (default 0.35,0.75,0.95)",
    )
    p_fig.add_argument("--tau", type=float, default=None, help="figures 3 and 4 only")
    p_fig.add_argument("--points", type=int, default=None, help="axis resolution, figures 2-4")
    p_fig.add_argument("--resolution", type=int, default=200, help="grid size, figures 5-6")
    p_fig.add_argument("--output", default=None, help="file path (default stdout)")
    p_fig.set_defaults(handler=_cmd_figure)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_domains(args)
        return args.handler(args)
    except NoInteriorOptimumError as exc:
        print(f"otto-rel: error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"otto-rel: error: numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"otto-rel: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
