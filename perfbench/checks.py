"""Output checks for every command the benchmark runs.

``check(command, outcome, reference, tol)`` returns a list of problems,
empty when the output is correct; ``tol`` is the agreement demanded at the
reference points.  Checks run outside every timed region.
Numbers are compared with the independent model in ``model.py`` and, at
the reference points, with the 60-digit fixtures of tests/_reference.py.
"""

from __future__ import annotations

import ast
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import model
from workloads import Command

SCHEMA_LINE = "# otto-rel schema v1"
EVAL_KEYS = ("z", "tau", "v", "beta_h", "scenario", "q_h", "q_c", "w_ext", "eta", "omega", "mode")
OPTIMIZE_KEYS = ("objective", "scenario", "tau", "v", "beta_h", "z_star", "value", "eta", "source")
FIGURE2_HEADER = ("eta_c", "v", "scenario", "eta_omega")
PHASE_HEADER = ("z", "tau", "v", "scenario", "mode")
MODES = ("engine", "refrigerator", "heater", "accelerator", "boundary")
SOURCES = ("closed-form", "oracle-fallback")

#: Relative agreement demanded between the program and the independent model.
MODEL_TOL = 1e-9
#: Distance from z_star at which `optimize` must beat its neighbours.
LOCAL_MAX_STEP = 1e-4
#: Cells per phase map whose mode is recomputed independently.
SAMPLED_CELLS = 400


@dataclass
class Outcome:
    """What one command left behind: exit status, streams, written file."""

    status: int
    stdout: str
    stderr: str
    output: Optional[str] = None


class CheckFailure(Exception):
    """One violated expectation about a command's output."""


def load_reference(root: Path) -> dict:
    """The REFERENCE mapping of tests/_reference.py, read without executing it."""
    tree = ast.parse((root / "tests" / "_reference.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "REFERENCE" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise ValueError("tests/_reference.py defines no REFERENCE")


def _flags(argv) -> dict[str, str]:
    flags = {}
    i = 1
    while i < len(argv):
        key = argv[i][2:].replace("-", "_")
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            flags[key] = argv[i + 1]
            i += 2
        else:
            flags[key] = ""
            i += 1
    return flags


def _reject_constant(token: str):
    raise CheckFailure(f"non-finite JSON number {token}")


def _json(text: str) -> dict:
    lines = text.splitlines()
    if len(lines) != 1:
        raise CheckFailure(f"expected one JSON line, got {len(lines)}")
    try:
        return json.loads(lines[0], parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"invalid JSON: {exc}") from None


def _csv(text: str, header) -> list[list[str]]:
    if not text.endswith("\n"):
        raise CheckFailure("CSV does not end with a newline")
    lines = text[:-1].split("\n")
    if lines[0] != SCHEMA_LINE:
        raise CheckFailure(f"schema line is {lines[0]!r}")
    if len(lines) < 2 or lines[1] != ",".join(header):
        raise CheckFailure(f"header is {lines[1:2]!r}")
    rows = [line.split(",") for line in lines[2:]]
    for row in rows:
        if len(row) != len(header):
            raise CheckFailure(f"row has {len(row)} cells: {row}")
    return rows


def _finite(cell, name: str) -> float:
    try:
        value = float(cell)
    except (TypeError, ValueError):
        raise CheckFailure(f"{name} is not a number: {cell!r}") from None
    if not math.isfinite(value):
        raise CheckFailure(f"{name} is not finite: {cell!r}")
    return value


def _close(got: float, want: float, tol: float, what: str, scale: float = 1.0) -> None:
    if not abs(got - want) <= tol * max(scale, abs(want)):
        raise CheckFailure(f"{what} = {got!r}, expected {want!r}")


def _record(values: dict, flags: dict, exact: bool, cap: float) -> None:
    """One evaluate/sweep row: first law, model agreement, eta, mode.

    cap is the maximum efficiency at the request's (tau, v) that enters omega.
    """
    q_h = _finite(values["q_h"], "q_h")
    q_c = _finite(values["q_c"], "q_c")
    w = _finite(values["w_ext"], "w_ext")
    omega = _finite(values["omega"], "omega")
    z = _finite(values["z"], "z")
    scale = max(1.0, abs(q_h), abs(q_c), abs(w))
    if not abs(w - (q_h + q_c)) <= 1e-12 * scale:
        raise CheckFailure(f"first law: w_ext {w!r} != q_h + q_c {q_h + q_c!r}")
    for key in ("tau", "v", "beta_h"):
        if _finite(values[key], key) != float(flags.get(key, "1.0")):
            raise CheckFailure(f"{key} echoed as {values[key]!r}")
    if values["scenario"] != flags["scenario"]:
        raise CheckFailure(f"scenario echoed as {values['scenario']!r}")
    scenario, tau, v = flags["scenario"], float(flags["tau"]), float(flags["v"])
    beta_h = float(flags.get("beta_h", "1.0"))
    if exact:
        want = model.exact(scenario, z, tau, v, beta_h, float(flags.get("omega_h", "1.0")))
    else:
        want = model.hot_limit(scenario, z, tau, v, beta_h)
    for name, got, expected in zip(("q_h", "q_c", "w_ext"), (q_h, q_c, w), want):
        _close(got, expected, MODEL_TOL, name, scale)
    eta = values["eta"]
    if q_h > 0.0:
        _close(_finite(eta, "eta"), w / q_h, 1e-12, "eta")
    elif eta not in (None, ""):
        raise CheckFailure(f"eta {eta!r} reported although q_h <= 0")
    _close(omega, 2.0 * w - cap * q_h, MODEL_TOL, "omega", scale)
    if values["mode"] not in MODES:
        raise CheckFailure(f"unknown mode {values['mode']!r}")
    if min(abs(w), abs(q_h), abs(q_c)) > 1e-6 and values["mode"] != model.mode(w, q_h, q_c):
        raise CheckFailure(f"mode {values['mode']!r} for signs of {(w, q_h, q_c)}")


def _mapping(outcome: Outcome, flags: dict, keys) -> dict:
    if flags.get("format", "json") == "json":
        mapping = _json(outcome.stdout)
        if tuple(mapping) != keys:
            raise CheckFailure(f"JSON keys are {tuple(mapping)}")
        return mapping
    rows = _csv(outcome.stdout, keys)
    if len(rows) != 1:
        raise CheckFailure(f"expected one CSV row, got {len(rows)}")
    return dict(zip(keys, rows[0]))


def _cap(flags: dict) -> float:
    return model.Objectives(flags["scenario"], float(flags["tau"]), float(flags["v"])).eta_max


def _evaluate(outcome: Outcome, flags: dict, reference: dict, tol: float) -> None:
    _record(_mapping(outcome, flags, EVAL_KEYS), flags, "exact" in flags, _cap(flags))


def _optimize(outcome: Outcome, flags: dict, reference: dict, tol: float) -> None:
    result = _mapping(outcome, flags, OPTIMIZE_KEYS)
    if result["source"] not in SOURCES:
        raise CheckFailure(f"unknown source {result['source']!r}")
    z = _finite(result["z_star"], "z_star")
    value = _finite(result["value"], "value")
    eta = _finite(result["eta"], "eta")
    objective, scenario = flags["objective"], flags["scenario"]
    tau, v = float(flags["tau"]), float(flags["v"])
    goal = model.Objectives(scenario, tau, v, float(flags.get("beta_h", "1.0")))
    f = getattr(goal, objective)
    if not (0.0 < z - LOCAL_MAX_STEP and z + LOCAL_MAX_STEP < 1.0):
        raise CheckFailure(f"z_star {z!r} too close to the window edge")
    if not (f(z) >= f(z - LOCAL_MAX_STEP) and f(z) >= f(z + LOCAL_MAX_STEP)):
        raise CheckFailure(f"z_star {z!r} is not a local maximum of {objective}")
    _close(value, f(z), MODEL_TOL, "value")
    _close(eta, goal.eta(z), MODEL_TOL, "eta")
    point = reference["optima"].get(f"tau={flags['tau']},v={flags['v']}")
    if point is not None and flags.get("beta_h", "1.0") == "1.0":
        z_key = "z_work" if objective == "work" else f"z_{objective}_{scenario}"
        value_key = {"eta": "eta_max", "work": "work_max", "omega": "omega_max"}[objective]
        eta_key = {"eta": "eta_max", "work": "eta_mw", "omega": "eta_omega"}[objective]
        for name, got, key in (("z_star", z, z_key), ("value", value, f"{value_key}_{scenario}"),
                               ("eta", eta, f"{eta_key}_{scenario}")):
            if not abs(got - point[key]) <= tol:
                raise CheckFailure(f"{name} {got!r} differs from reference {point[key]!r}")


def _sweep(outcome: Outcome, flags: dict, reference: dict, tol: float) -> None:
    rows = _csv(outcome.stdout, EVAL_KEYS)
    points = int(flags["points"])
    if len(rows) != points:
        raise CheckFailure(f"{len(rows)} rows for {points} points")
    z_min, z_max = float(flags["z_min"]), float(flags["z_max"])
    step = (z_max - z_min) / (points - 1)
    cap = _cap(flags)
    for i, row in enumerate(rows):
        values = dict(zip(EVAL_KEYS, row))
        _close(_finite(values["z"], "z"), z_min + step * i, 1e-12, f"z of row {i}")
        _record(values, flags, False, cap)


def _figure2(outcome: Outcome, flags: dict, reference: dict, tol: float) -> None:
    rows = _csv(outcome.stdout, FIGURE2_HEADER)
    v_list = [float(v) for v in flags["v_list"].split(",")]
    points = int(flags["points"])
    if len(rows) != 2 * len(v_list) * points:
        raise CheckFailure(f"{len(rows)} rows for {len(v_list)} velocities x {points} points")
    step = 0.98 / (points - 1)
    expected = [(scenario, v, 0.01 + step * i)
                for scenario in ("sc", "se") for v in v_list for i in range(points)]
    for row, (scenario, v, eta_c) in zip(rows, expected):
        got_eta_c, got_v, got_eta = _finite(row[0], "eta_c"), _finite(row[1], "v"), _finite(row[3], "eta_omega")
        if row[2] != scenario or got_v != v:
            raise CheckFailure(f"row {row} out of order")
        _close(got_eta_c, eta_c, 1e-12, "eta_c")
        if scenario == "se" and not got_eta <= 0.5:
            raise CheckFailure(f"eta_omega_se {got_eta!r} above 1/2")
        want = model.Objectives(scenario, 1.0 - got_eta_c, v).eta_at_omega_optimum()
        if not abs(got_eta - want) <= tol:
            raise CheckFailure(f"eta_omega {got_eta!r} at {row[:3]}, model gives {want!r}")


def _phase_map(outcome: Outcome, flags: dict, reference: dict, tol: float) -> None:
    summary = _json(outcome.stdout)
    if tuple(summary) != ("mode_fractions", "v", "scenario"):
        raise CheckFailure(f"summary keys are {tuple(summary)}")
    fractions = summary["mode_fractions"]
    if tuple(fractions) != MODES:
        raise CheckFailure(f"mode_fractions keys are {tuple(fractions)}")
    if not abs(sum(fractions.values()) - 1.0) <= 1e-12:
        raise CheckFailure(f"mode fractions sum to {sum(fractions.values())!r}")
    scenario, v, resolution = flags["scenario"], float(flags["v"]), int(flags["resolution"])
    if summary["v"] != v or summary["scenario"] != scenario:
        raise CheckFailure(f"summary echoes v={summary['v']!r}, scenario={summary['scenario']!r}")
    rows = _csv(outcome.output or "", PHASE_HEADER)
    if len(rows) != resolution * resolution:
        raise CheckFailure(f"{len(rows)} rows for resolution {resolution}")
    axis = [(i + 0.5) / resolution for i in range(resolution)]
    counts = dict.fromkeys(MODES, 0)
    v_cell = repr(v)
    for k, row in enumerate(rows):
        if row[2] != v_cell or row[3] != scenario or row[4] not in counts:
            raise CheckFailure(f"row {k} is {row}")
        counts[row[4]] += 1
    for token, count in counts.items():
        _close(fractions[token], count / len(rows), 1e-12, f"fraction of {token}")
    rng = random.Random(f"{scenario}:{v}:{resolution}")
    for _ in range(SAMPLED_CELLS):
        i, j = rng.randrange(resolution), rng.randrange(resolution)
        row = rows[i * resolution + j]
        if float(row[0]) != axis[i] or float(row[1]) != axis[j]:
            raise CheckFailure(f"cell ({i}, {j}) is at {row[:2]}")
        q_h, q_c, w = model.hot_limit(scenario, axis[i], axis[j], v)
        if min(abs(w), abs(q_h), abs(q_c)) > 1e-6 and row[4] != model.mode(w, q_h, q_c):
            raise CheckFailure(f"cell ({i}, {j}) is {row[4]!r}, model gives {model.mode(w, q_h, q_c)!r}")


_BY_COMMAND = {
    "evaluate": _evaluate,
    "optimize": _optimize,
    "sweep": _sweep,
    "figure": _figure2,
    "phase-map": _phase_map,
}


def check(command: Command, outcome: Outcome, reference: dict, tol: float) -> list[str]:
    """Problems with one command's outcome; an empty list means it passed."""
    problems = []
    if outcome.status != command.status:
        problems.append(f"exit status {outcome.status}, expected {command.status}")
    if "Traceback" in outcome.stderr or "Traceback" in outcome.stdout:
        problems.append("traceback printed")
    if problems or command.status != 0:
        diagnostic = outcome.stderr.startswith("otto-rel: error:") and outcome.stderr.count("\n") == 1
        if command.status != 0 and not diagnostic:
            problems.append(f"no one-line diagnostic on stderr: {outcome.stderr[:200]!r}")
        return problems
    try:
        _BY_COMMAND[command.argv[0]](outcome, _flags(command.argv), reference, tol)
    except CheckFailure as exc:
        problems.append(str(exc))
    except (LookupError, TypeError, ValueError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return problems
