"""Command-line interface: schemas, exit codes, reproducibility."""

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import otto_rel
from otto_rel import (
    SUDDEN_COMPRESSION,
    NoInteriorOptimumError,
    Objective,
    ReducedParams,
    optimize,
    performance,
    reduced_load,
)
from otto_rel.optima import eta_max_sc
from otto_rel import cli
from _reference import REFERENCE

SCHEMA = "# otto-rel schema v1"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- evaluate ----------------------------------------------------------------


def test_evaluate_json_schema_and_values(capsys):
    code, out, err = run(
        capsys, "evaluate", "--scenario", "sc", "--z", "0.8", "--tau", "0.5", "--v", "0.5"
    )
    assert code == 0 and err == ""
    pairs = json.loads(out, object_pairs_hook=list)
    assert [k for k, _ in pairs] == [
        "z", "tau", "v", "beta_h", "scenario", "q_h", "q_c", "w_ext",
        "eta", "omega", "mode",
    ]
    data = dict(pairs)
    rec = performance(ReducedParams(z=0.8, g=reduced_load(0.5, 0.5)), SUDDEN_COMPRESSION)
    assert data["q_h"] == pytest.approx(rec.q_h, rel=1e-15, abs=0)
    assert data["q_c"] == pytest.approx(rec.q_c, rel=1e-15, abs=0)
    assert data["w_ext"] == pytest.approx(rec.w_ext, rel=1e-15, abs=0)
    assert data["eta"] == pytest.approx(rec.eta, rel=1e-15, abs=0)
    cap = eta_max_sc(0.5, 0.5)
    assert data["omega"] == pytest.approx(2 * rec.w_ext - cap * rec.q_h, rel=1e-12, abs=0)
    assert data["mode"] == "engine"
    assert data["scenario"] == "sc"


def test_evaluate_eta_is_null_outside_window(capsys):
    code, out, _ = run(
        capsys, "evaluate", "--scenario", "sc", "--z", "0.3", "--tau", "0.5", "--v", "0.5"
    )
    assert code == 0
    assert '"eta": null' in out
    assert json.loads(out)["mode"] == "refrigerator"


def test_evaluate_unit_ratio_is_boundary(capsys):
    code, out, _ = run(
        capsys, "evaluate", "--scenario", "se", "--z", "1.0", "--tau", "0.5", "--v", "0.5"
    )
    assert code == 0
    data = json.loads(out)
    assert data["w_ext"] == 0.0
    assert data["mode"] == "boundary"


def test_evaluate_exact_matches_reference(capsys):
    want = REFERENCE["exact_p0"]["sc"]
    code, out, _ = run(
        capsys, "evaluate", "--scenario", "sc", "--exact", "--z", "0.5",
        "--tau", "0.5", "--v", "0.5", "--beta-h", "0.5", "--omega-h", "2.0",
    )
    assert code == 0
    data = json.loads(out)
    assert data["q_h"] == pytest.approx(want["q_h"], rel=1e-12, abs=0)
    assert data["q_c"] == pytest.approx(want["q_c"], rel=1e-12, abs=0)
    assert data["w_ext"] == pytest.approx(want["w_ext"], rel=1e-12, abs=0)
    assert data["eta"] == pytest.approx(want["eta"], rel=1e-12, abs=0)


def test_evaluate_csv_format(capsys):
    code, out, _ = run(
        capsys, "evaluate", "--scenario", "sc", "--z", "0.3", "--tau", "0.5",
        "--v", "0.5", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == SCHEMA
    assert lines[1] == "z,tau,v,beta_h,scenario,q_h,q_c,w_ext,eta,omega,mode"
    cells = lines[2].split(",")
    assert cells[0] == "0.3"
    assert cells[8] == ""  # eta undefined here, blank cell not "None"
    assert cells[10] == "refrigerator"


# -- optimize ----------------------------------------------------------------


def test_optimize_closed_form_objectives(capsys):
    want = REFERENCE["optima"]["tau=0.5,v=0.5"]
    code, out, _ = run(
        capsys, "optimize", "--objective", "eta", "--scenario", "se",
        "--tau", "0.5", "--v", "0.5",
    )
    assert code == 0
    data = json.loads(out)
    assert list(data) == [
        "objective", "scenario", "tau", "v", "beta_h", "z_star", "value", "eta", "source",
    ]
    assert data["source"] == "closed-form"
    assert data["z_star"] == pytest.approx(want["z_eta_se"], rel=1e-12, abs=0)
    assert data["value"] == pytest.approx(want["eta_max_se"], rel=1e-12, abs=0)
    assert data["eta"] == data["value"]

    code, out, _ = run(
        capsys, "optimize", "--objective", "work", "--scenario", "sc",
        "--tau", "0.5", "--v", "0.5",
    )
    data = json.loads(out)
    assert data["source"] == "closed-form"
    assert data["z_star"] == pytest.approx(want["z_work"], rel=1e-12, abs=0)
    assert data["value"] == pytest.approx(want["work_max_sc"], rel=1e-12, abs=0)


def test_optimize_trade_off_reports_closed_form(capsys):
    want = REFERENCE["optima"]["tau=0.5,v=0.5"]
    code, out, _ = run(
        capsys, "optimize", "--objective", "omega", "--scenario", "sc",
        "--tau", "0.5", "--v", "0.5",
    )
    assert code == 0
    data = json.loads(out)
    assert data["source"] == "closed-form"
    assert data["z_star"] == pytest.approx(want["z_omega_sc"], rel=1e-13, abs=0)
    assert data["value"] == pytest.approx(want["omega_max_sc"], rel=1e-11, abs=0)


def test_window_failures_exit_3(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise NoInteriorOptimumError("stationary ratio 1.0 is outside the engine window (0.9, 1.0)")

    monkeypatch.setattr(cli, "optimize", explode)
    code, out, err = run(
        capsys, "optimize", "--objective", "work", "--scenario", "sc",
        "--tau", "0.5", "--v", "0.5",
    )
    assert code == 3
    assert out == ""
    assert "outside the engine window" in err


def test_cubic_residual_failure_exits_3(capsys, monkeypatch):
    # a root that fails the cubic's residual gate is a numeric failure, not a traceback
    monkeypatch.setattr(otto_rel.cubic, "RESIDUAL_TOL", -1.0)
    code, out, err = run(
        capsys, "optimize", "--objective", "eta", "--scenario", "sc",
        "--tau", "0.5", "--v", "0.5",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("otto-rel: error: numeric failure: root ") and err.count("\n") == 1


def test_exact_tiny_cold_prefactor_keeps_its_value(capsys):
    # 2*beta_c*v = 4e-310 is subnormal, but h_a = omega_c/2 * L/d is not
    code, out, err = run(
        capsys, "evaluate", "--exact", "--tau", "0.5", "--z", "1", "--scenario", "sc",
        "--v", "1e-300", "--beta-h", "1e-10", "--omega-h", "1000",
    )
    assert code == 0 and err == ""
    # 400-digit mpmath value of Q_h
    assert json.loads(out)["q_h"] == pytest.approx(4999999999.9999915, rel=1e-15, abs=0)


@pytest.mark.parametrize("exact", [(), ("--exact",)], ids=["hot-limit", "exact"])
def test_record_runs_no_enum_code(exact):
    # Enum.value is Python code in enum.py; the mode token is a dict lookup
    args = cli.build_parser().parse_args(
        ["evaluate", "--scenario", "sc", "--z", "0.8", "--tau", "0.5", "--v", "0.5", *exact]
    )
    point, record = cli._evaluator(args)
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__") == "enum":
            entered.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        mapping = record(0.8, point(0.8))
    finally:
        sys.setprofile(previous)
    assert entered == []
    assert mapping["mode"] == "engine"


_POINT = ("--scenario", "sc", "--tau", "0.5", "--v", "0.5")
_SWEEP = ("sweep", *_POINT, "--z-min", "0.1", "--z-max", "0.9")


@pytest.mark.parametrize(
    "argv, factors",
    [
        pytest.param(("evaluate", *_POINT, "--z", "0.8"), 1, id="evaluate"),
        pytest.param(("evaluate", *_POINT, "--z", "0.8", "--exact"), 1, id="evaluate-exact"),
        *(
            pytest.param(
                ("optimize", *_POINT, "--objective", objective), 1, id=f"optimize-{objective}"
            )
            for objective in ("eta", "work", "omega")
        ),
        pytest.param((*_SWEEP, "--points", "1"), 1, id="sweep-1"),
        pytest.param((*_SWEEP, "--points", "7"), 1, id="sweep-7"),
        pytest.param(("figure", "--id", "3"), 3, id="figure-3"),
        pytest.param(("figure", "--id", "4", "--v-list", "0.2,0.5"), 2, id="figure-4"),
        # figure 2 is one optimum per row, and each optimum forms its own load
        pytest.param(("figure", "--id", "2", "--points", "5"), 2 * 3 * 5, id="figure-2"),
    ],
)
def test_one_factor_per_request_and_velocity(capsys, factor_calls, argv, factors):
    # the load g = tau*f(v) is formed once per request (per velocity for figures)
    # and passed down, so no row, record or certificate probe forms it again
    code, _, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert len(factor_calls) == factors


def test_subnormal_load_optimum_is_certified(capsys):
    # tau * f(v) is subnormal; the efficiency cubic still has its root
    code, out, err = run(
        capsys, "optimize", "--objective", "eta", "--scenario", "sc",
        "--tau", "1e-310", "--v", "0.99",
    )
    assert code == 0 and err == ""
    record = json.loads(out)
    assert record["z_star"] == 7.521245344491325e-156
    assert record["source"] == "closed-form"


def test_tiny_expansion_load_optimum_reaches_the_root(capsys):
    # at g below about 1.5e-162 the cubic's spread (3g/2)**2 underflows to 0
    # and the root, about (g/2)**(1/3), is Cardano's
    code, out, err = run(
        capsys, "optimize", "--objective", "eta", "--scenario", "se",
        "--tau", "1e-200", "--v", "0.5",
    )
    assert code == 0 and err == ""
    assert json.loads(out)["z_star"] == 1.6818284554978302e-67


@pytest.mark.parametrize(
    "scenario, root",
    [
        # 80-digit roots of the efficiency cubic at g = 5e-324
        ("sc", "2.7223123787726305239705988594767059547735071197052851163851552e-162"),
        ("se", "1.3518179858534569563922748001792423031956789142974046376386161e-108"),
    ],
    ids=["sc", "se"],
)
def test_smallest_subnormal_load_optimum_reaches_the_root(capsys, scenario, root):
    # tau * f(v) rounds to 5e-324, where the unscaled cubic's load
    # coefficients would round to one bit or to 0
    code, out, err = run(
        capsys, "optimize", "--objective", "eta", "--scenario", scenario,
        "--tau", "5e-324", "--v", "0.5",
    )
    assert code == 0 and err == ""
    z_star = json.loads(out)["z_star"]
    assert abs(Decimal(z_star) - Decimal(root)) <= 4 * Decimal(math.ulp(z_star))


# the cubic root leaves the engine window, so eta_max would be negative
_NEGATIVE_ETA_MAX = ("--scenario", "sc", "--tau", "0.9999999999999979", "--v", "1e-12")


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("evaluate", *_NEGATIVE_ETA_MAX, "--z", "0.9999999999"), id="evaluate"),
        pytest.param(("evaluate", *_NEGATIVE_ETA_MAX, "--z", "0.5", "--exact"), id="exact"),
        pytest.param(
            ("sweep", *_NEGATIVE_ETA_MAX, "--z-min", "0.5", "--z-max", "1", "--points", "3"),
            id="sweep",
        ),
    ],
)
def test_uncertified_eta_max_leaves_only_omega_empty(capsys, argv):
    # omega alone needs eta_max; the heats, work, eta and mode are still printed
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    if argv[0] == "evaluate":
        assert '"omega": null' in out
        rows = [json.loads(out, parse_constant=_reject_constant)]
    else:
        lines = out.splitlines()
        rows = [dict(zip(lines[1].split(","), line.split(","))) for line in lines[2:]]
        assert len(rows) == 3 and all(row["omega"] == "" for row in rows)
    for row in rows:
        for key in ("q_h", "q_c", "w_ext"):
            assert math.isfinite(float(row[key]))
        assert row["eta"] in (None, "") or math.isfinite(float(row["eta"]))
        assert row["mode"] in ("engine", "refrigerator", "heater", "accelerator", "boundary")


# -- sweep ---------------------------------------------------------------------


def test_sweep_grid_and_peak(capsys):
    code, out, _ = run(
        capsys, "sweep", "--scenario", "sc", "--tau", "0.5", "--v", "0.5",
        "--z-min", "0.05", "--z-max", "1.0", "--points", "96",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == SCHEMA
    assert len(lines) == 2 + 96
    first = lines[2].split(",")
    last = lines[-1].split(",")
    assert float(first[0]) == 0.05
    assert float(last[0]) == 1.0
    work_col = [float(line.split(",")[7]) for line in lines[2:]]
    z_col = [float(line.split(",")[0]) for line in lines[2:]]
    peak_z = z_col[work_col.index(max(work_col))]
    step = (1.0 - 0.05) / 95
    z_work = optimize(Objective.WORK, SUDDEN_COMPRESSION, 0.5, 0.5).z_star
    assert abs(peak_z - z_work) <= step


def test_sweep_single_point(capsys):
    # equal bounds give one row whatever --points says; --points 1 gives the row at z-min
    for z_min, z_max, points in (("0.7", "0.7", "50"), ("0.5", "0.6", "1")):
        code, out, _ = run(
            capsys, "sweep", "--scenario", "se", "--tau", "0.5", "--v", "0.5",
            "--z-min", z_min, "--z-max", z_max, "--points", points,
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert float(lines[2].split(",")[0]) == float(z_min)


def test_sweep_ends_exactly_at_z_max(capsys):
    # lo + step * (points - 1) rounds to 1.0000000000000002 here
    code, out, err = run(
        capsys, "sweep", "--scenario", "sc", "--tau", "0.5", "--v", "0.5",
        "--z-min", "0.307949627452", "--z-max", "1.0", "--points", "4882",
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 2 + 4882
    assert float(lines[-1].split(",")[0]) == 1.0


def test_sweep_grid_ends_at_its_bounds():
    rng = random.Random(20261019)
    for _ in range(2000):
        z_min = rng.uniform(1e-3, 1.0)
        z_max = rng.choice((1.0, rng.uniform(z_min, 1.0)))
        points = rng.randint(2, 10_000)
        grid = cli._linspace(z_min, z_max, points)
        assert len(grid) == points
        assert grid[0] == z_min and grid[-1] == z_max, (z_min, z_max, points)
        assert max(grid) == z_max


def test_sweep_validates_each_point_once(capsys, monkeypatch):
    # one ReducedParams per row, however many columns the row reads from it
    built = []
    new = ReducedParams.__new__

    def counted(cls, *fields):
        built.append(fields)
        return new(cls, *fields)

    monkeypatch.setattr(ReducedParams, "__new__", counted)
    code, _, err = run(capsys, *_SWEEP, "--points", "7")
    assert code == 0 and err == ""
    assert len(built) == 7


# -- the unit of energy ------------------------------------------------------------


def _main(*argv: str) -> tuple[int, str, str]:
    """cli.main with its streams captured, for tests that cannot take capsys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


_RATIO = st.floats(min_value=1e-3, max_value=0.999)


@settings(max_examples=300)
@given(
    scenario=st.sampled_from(("sc", "se")),
    z=st.floats(min_value=1e-3, max_value=1.0),
    tau=_RATIO,
    v=_RATIO,
    exponent=st.floats(min_value=-6.0, max_value=10.0),
)
def test_hot_limit_mode_and_eta_do_not_depend_on_beta_h(scenario, z, tau, v, exponent):
    point = ("evaluate", "--scenario", scenario, "--z", repr(z), "--tau", repr(tau), "--v", repr(v))
    code, unit, _ = _main(*point)
    scaled_code, scaled, _ = _main(*point, "--beta-h", repr(10.0**exponent))
    assert (code, scaled_code) == (0, 0)
    unit, scaled = json.loads(unit), json.loads(scaled)
    assert (scaled["mode"], scaled["eta"]) == (unit["mode"], unit["eta"])


@settings(max_examples=200)
@given(
    scenario=st.sampled_from(("sc", "se")),
    z=st.floats(min_value=0.05, max_value=1.0),
    tau=st.floats(min_value=0.05, max_value=0.95),
    v=st.floats(min_value=0.05, max_value=0.95),
    beta_h=st.floats(min_value=0.05, max_value=5.0),
    omega_h=st.floats(min_value=0.5, max_value=2.0),
    k=st.integers(min_value=-60, max_value=60),
)
def test_exact_mode_does_not_depend_on_the_unit_of_frequency(
    scenario, z, tau, v, beta_h, omega_h, k
):
    # (beta_h, omega_h) -> (beta_h 2**-k, omega_h 2**k) is the same cycle in
    # another unit; powers of two make the rescaling exact
    point = ("evaluate", "--exact", "--scenario", scenario, "--z", repr(z),
             "--tau", repr(tau), "--v", repr(v))
    code, unit, _ = _main(*point, "--beta-h", repr(beta_h), "--omega-h", repr(omega_h))
    scaled_code, scaled, _ = _main(*point, "--beta-h", repr(math.ldexp(beta_h, -k)),
                                   "--omega-h", repr(math.ldexp(omega_h, k)))
    assert (code, scaled_code) == (0, 0)
    assert json.loads(scaled)["mode"] == json.loads(unit)["mode"]


@pytest.mark.parametrize("k", [-1026, -60, -1, 1, 60, 1000])
def test_optimize_reports_the_unit_free_optimum(capsys, k):
    # beta_h = 2**k: the optimum and eta do not move, and the work and
    # trade-off values scale by exactly 2**-k (2**-1026 is subnormal)
    for objective in ("eta", "work", "omega"):
        for scenario in ("sc", "se"):
            for tau, v in (("0.5", "0.5"), ("0.3", "0.75")):
                argv = ("optimize", "--objective", objective, "--scenario", scenario,
                        "--tau", tau, "--v", v)
                want = json.loads(run(capsys, *argv)[1])
                code, out, err = run(capsys, *argv, "--beta-h", repr(math.ldexp(1.0, k)))
                assert code == 0 and err == ""
                got = json.loads(out)
                assert (got["z_star"], got["eta"]) == (want["z_star"], want["eta"])
                scale = 0 if objective == "eta" else -k
                assert got["value"] == math.ldexp(want["value"], scale), (objective, scenario)


# -- phase-map -------------------------------------------------------------------


def test_phase_map_writes_raster_and_summary(capsys, tmp_path):
    out_path = tmp_path / "map.csv"
    code, out, _ = run(
        capsys, "phase-map", "--scenario", "sc", "--v", "0.35",
        "--resolution", "25", "--output", str(out_path),
    )
    assert code == 0
    summary = json.loads(out)
    assert list(summary) == ["mode_fractions", "v", "scenario"]
    assert summary["v"] == 0.35 and summary["scenario"] == "sc"
    fractions = summary["mode_fractions"]
    assert sorted(fractions) == [
        "accelerator", "boundary", "engine", "heater", "refrigerator",
    ]
    assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-12)
    lines = out_path.read_text().splitlines()
    assert lines[0] == SCHEMA
    assert lines[1] == "z,tau,v,scenario,mode"
    assert len(lines) == 2 + 25 * 25


def test_phase_map_requires_output(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["phase-map", "--scenario", "sc", "--v", "0.35"])
    assert excinfo.value.code == 2
    capsys.readouterr()


# -- figure ----------------------------------------------------------------------


def test_figure_2_schema_and_axis(capsys):
    code, out, _ = run(capsys, "figure", "--id", "2", "--points", "5", "--v-list", "0.5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == SCHEMA
    assert lines[1] == "eta_c,v,scenario,eta_omega"
    assert len(lines) == 2 + 2 * 5
    first_axis = [float(line.split(",")[0]) for line in lines[2:7]]
    assert first_axis[0] == 0.01 and first_axis[-1] == 0.99


def test_figure_3_and_4_schemas(capsys):
    code, out, _ = run(
        capsys, "figure", "--id", "3", "--points", "8", "--v-list", "0.75"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "z,v,scenario,work"
    assert len(lines) == 2 + 2 * 8
    assert float(lines[2].split(",")[0]) == pytest.approx(1 / 8)
    assert float(lines[9].split(",")[0]) == 1.0

    code, out, _ = run(
        capsys, "figure", "--id", "4", "--points", "8", "--v-list", "0.75"
    )
    lines = out.splitlines()
    assert lines[1] == "z,v,scenario,eta,work"


def test_figure_4_gains_with_velocity(capsys):
    code, out, _ = run(
        capsys, "figure", "--id", "4", "--points", "150", "--v-list", "0.35,0.95"
    )
    assert code == 0
    best = {}
    for line in out.splitlines()[2:]:
        _, v, token, eta_cell, work_cell = line.split(",")
        key = (token, v)
        entry = best.setdefault(key, [0.0, 0.0])
        if eta_cell:
            entry[0] = max(entry[0], float(eta_cell))
        entry[1] = max(entry[1], float(work_cell))
    for token in ("sc", "se"):
        assert best[(token, "0.95")][0] > best[(token, "0.35")][0]
        assert best[(token, "0.95")][1] > best[(token, "0.35")][1]


def test_figure_phase_ids(capsys):
    code, out, _ = run(
        capsys, "figure", "--id", "5", "--resolution", "12", "--v-list", "0.35"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "z,tau,v,scenario,mode"
    assert len(lines) == 2 + 12 * 12
    assert all(line.split(",")[3] == "sc" for line in lines[2:])

    code, out, _ = run(
        capsys, "figure", "--id", "6", "--resolution", "12", "--v-list", "0.35"
    )
    assert all(line.split(",")[3] == "se" for line in out.splitlines()[2:])


# Frozen SHA-256 of small figure and sweep outputs.  Criterion 9 compares two
# runs of one tree; these pins catch a bit that moves across a refactor.
FROZEN_OUTPUTS = {
    ("figure", "--id", "2", "--points", "7", "--v-list", "0.35,0.75"):
        "326e4befb5c7338d517e6320f827157979087ec7e8210e0fed00ae8c1e76af9b",
    ("figure", "--id", "3", "--points", "7", "--v-list", "0.35,0.75"):
        "6bb89e0c0e023b86cce59ff22997f9c11402225a04d1b5b81b6240f4864383b7",
    ("figure", "--id", "4", "--points", "7", "--v-list", "0.35,0.75"):
        "55a4bbb643292a50d3c5ac5d9990448647d84f0f6a2b6dcc5f47c8dbfee7395c",
    ("figure", "--id", "5", "--resolution", "9", "--v-list", "0.35,0.75"):
        "e58e4e3954cf63298ba36d136b5f10ba3d42ca976159bf0fd7e237205b164b25",
    ("figure", "--id", "6", "--resolution", "9", "--v-list", "0.35,0.75"):
        "ce1220df346f8bcfc99a9ac773a13429e8eda5f0c74dfc5c456f26411420b805",
    ("sweep", "--scenario", "sc", "--tau", "0.5", "--v", "0.5",
     "--z-min", "0.05", "--z-max", "1", "--points", "25"):
        "d04fd02bfd3e306c6cd977a5a043e31e62de604a512925a13f2626fe6d16be21",
    ("sweep", "--scenario", "se", "--tau", "0.25", "--v", "0.75",
     "--z-min", "0.05", "--z-max", "1", "--points", "25"):
        "e5c890ead07d5721931f7df41266ac8dc4433f2b5133280ff363a3b197a3706a",
    # the unit flags: beta_h divides every hot-limit energy, omega_h sets the --exact mode unit
    ("sweep", "--scenario", "sc", "--tau", "0.5", "--v", "0.5",
     "--z-min", "0.05", "--z-max", "1", "--points", "25", "--beta-h", "2.5"):
        "6a91831bc782629d4795c00248ce7ab24bd5affdf5377128e0bea4ec72b6cf0b",
    ("sweep", "--scenario", "se", "--tau", "0.25", "--v", "0.75",
     "--z-min", "0.05", "--z-max", "1", "--points", "25", "--beta-h", "2.5"):
        "e28d6667c2abcd6df2c384cbee19ff2db56cc52d825565b77128216f1fc56b21",
    ("evaluate", "--scenario", "se", "--z", "0.9", "--tau", "0.5", "--v", "0.5",
     "--exact", "--omega-h", "3", "--format", "csv"):
        "647e2977b2a0ede78581f3bef74a35149526054731e839b98fa587587099d661",
    # phase-map: (CSV file, JSON summary on stdout)
    ("phase-map", "--scenario", "sc", "--v", "0.35", "--resolution", "9"): (
        "318d301690e8b9d5b455619d294b5590f6e75301c679a06752dcbd6d05df39e6",
        "a29707748e39d15e2218d2764daaedcf1558e45c528c6e96f8d7365b57d437cb",
    ),
    ("phase-map", "--scenario", "se", "--v", "0.35", "--resolution", "9"): (
        "3b3d32f11f2e7236f34ebf5618f8da05a7849ecd49ce159275b9063b2d954395",
        "7c375c4d78efbec88412dedd14f80b4c74e8059d13b544f8ab630bdfd6448416",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _frozen_id(argv):
    # subcommand and scenario or figure, then any unit flag the pin sets
    units = [f"{flag[2:]}={value}" for flag, value in zip(argv, argv[1:])
             if flag in ("--beta-h", "--omega-h")]
    return "-".join((argv[0], argv[2], *units))


@pytest.mark.parametrize("argv", list(FROZEN_OUTPUTS), ids=_frozen_id)
def test_outputs_match_frozen_digests(capsys, tmp_path, argv):
    if argv[0] == "phase-map":
        path = tmp_path / "map.csv"
        code, out, err = run(capsys, *argv, "--output", str(path))
        digest = (_sha256(path.read_bytes()), _sha256(out.encode("utf-8")))
    else:
        code, out, err = run(capsys, *argv)
        digest = _sha256(out.encode("utf-8"))
    assert code == 0 and err == ""
    assert digest == FROZEN_OUTPUTS[argv]


# Every pinned stdout output, and optimize in both formats.
_STDOUT_OUTPUTS = [argv for argv in FROZEN_OUTPUTS if argv[0] != "phase-map"] + [
    ("optimize", "--objective", "omega", "--scenario", "se", "--tau", "0.5", "--v", "0.5",
     "--format", fmt)
    for fmt in ("json", "csv")
]


@pytest.mark.parametrize(
    "argv",
    _STDOUT_OUTPUTS,
    ids=lambda argv: _frozen_id(argv) + "".join(
        f"-{fmt}" for flag, fmt in zip(argv, argv[1:]) if flag == "--format"
    ),
)
def test_output_file_holds_what_stdout_prints(capsys, tmp_path, argv):
    code, printed, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    path = tmp_path / "out"
    assert run(capsys, *argv, "--output", str(path)) == (0, "", "")
    assert path.read_bytes() == printed.encode("utf-8")


def test_phase_map_memory_is_not_proportional_to_output(capsys, tmp_path):
    # The raster is written row by row: the traced peak stays far below the
    # size of the CSV it writes, where building the whole text would exceed it.
    path = tmp_path / "map.csv"
    tracemalloc.start()
    try:
        code = cli.main([
            "phase-map", "--scenario", "se", "--v", "0.6",
            "--resolution", "300", "--output", str(path),
        ])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    size = path.stat().st_size
    assert size > 4_000_000
    assert peak < size / 2, f"traced peak {peak} B for a {size} B raster"


def _traced_phase_map_peak(tmp_path, scenario, v, resolution):
    path = tmp_path / f"map-{resolution}.csv"
    tracemalloc.start()
    try:
        code = cli.main([
            "phase-map", "--scenario", scenario, "--v", v,
            "--resolution", str(resolution), "--output", str(path),
        ])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    path.unlink()
    return peak


@pytest.mark.parametrize("scenario,v", [("sc", "1e-6"), ("se", "0.6")])
def test_phase_map_memory_grows_with_columns_not_cells(capsys, tmp_path, scenario, v):
    # The raster is held as a few runs per tau column and written with one
    # tail string per column, so the traced peak may grow linearly with the
    # resolution R (4x here, up to about 5x as the small map's runs come
    # from allocator free lists) but not with the R**2 cells: holding one
    # mode per cell gives about 14x.
    small = _traced_phase_map_peak(tmp_path, scenario, v, 300)
    large = _traced_phase_map_peak(tmp_path, scenario, v, 1200)
    capsys.readouterr()
    assert large < 2 * 4 * small, f"traced peak {large} B at 1200**2, {small} B at 300**2"


def test_figure_rejects_unknown_id(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["figure", "--id", "7"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_figure_points_stop_at_ten_thousand(capsys):
    # 10001 is refused (see REFUSALS)
    code, out, err = run(capsys, "figure", "--id", "3", "--points", "10000")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[1] == "z,v,scenario,work"
    assert len(lines) == 2 + 10_000 * 3 * 2
    assert lines[-1].startswith("1.0,0.95,se,")


# -- refusals --------------------------------------------------------------------

# Every refused input the tests check, one argv per row: its exit status, the
# start of its message and any needles.  Exit 2 is bad input, exit 3 no
# interior optimum or arithmetic that leaves the doubles.  A row without
# needles pins the whole line.  A row with needles pins the start and each
# needle, where the rest holds computed digits (libm's can differ across
# platforms) or the interpreter's wording.
_EVALUATE_SC = ("evaluate", "--scenario", "sc")
_AT_HALF = ("--z", "0.5", "--tau", "0.5", "--v", "0.5")
_WORK_SC = ("optimize", "--objective", "work", "--scenario", "sc")
_EXACT_SC = (*_EVALUATE_SC, "--exact", "--tau", "0.5", "--v", "0.5")
_EXACT_SE = ("evaluate", "--scenario", "se", "--tau", "0.5", "--v", "0.9", "--exact")
_EXACT_AT_ONE = ("evaluate", "--exact", "--tau", "0.5", "--z", "1", "--scenario")
_TINY_BETA = ("evaluate", "--scenario", "se", "--z", "0.5", "--tau", "0.5", "--v", "0.5",
              "--beta-h", "1e-310")
_SINH_UNDERFLOW = ("numeric failure: x*e^(-s) = beta_c*omega_c/2*e^(-artanh v) underflows "
                   "to 0 (beta_c=")
_SINH_GAP = ("numeric failure: 2x*sinh(s) = beta_c*omega_c*sinh(artanh v) is below the "
             "smallest normal double (beta_c=")
_OUTSIDE = ("stationary ratio ", " is outside the engine window (")

REFUSALS = {
    # each numeric flag of each subcommand, finiteness first, even where nothing reads it
    (*_EVALUATE_SC, "--z", "0.5", "--tau", "0.5", "--v", "1.5"):
        (2, "v must lie in (0,1), got 1.5"),
    (*_EVALUATE_SC, "--z", "0.0", "--tau", "0.5", "--v", "0.5"):
        (2, "z must lie in (0,1], got 0.0"),
    (*_EVALUATE_SC, "--z", "0.5", "--tau", "1.0", "--v", "0.5"):
        (2, "tau must lie in (0,1), got 1.0"),
    (*_EVALUATE_SC, *_AT_HALF, "--beta-h", "-1"): (2, "beta-h must be positive, got -1.0"),
    (*_EVALUATE_SC, *_AT_HALF, "--exact", "--omega-h", "0"):
        (2, "omega-h must be positive, got 0.0"),
    (*_EVALUATE_SC, *_AT_HALF, "--beta-h", "inf"): (2, "beta-h is not finite (inf)"),
    (*_EVALUATE_SC, *_AT_HALF, "--exact", "--omega-h", "inf"): (2, "omega-h is not finite (inf)"),
    (*_EVALUATE_SC, *_AT_HALF, "--omega-h", "-1"): (2, "omega-h must be positive, got -1.0"),
    (*_WORK_SC, "--tau", "1.2", "--v", "0.5"): (2, "tau must lie in (0,1), got 1.2"),
    (*_WORK_SC, "--tau", "0.5", "--v", "0"): (2, "v must lie in (0,1), got 0.0"),
    (*_WORK_SC, "--tau", "0.5", "--v", "0.5", "--beta-h", "inf"): (2, "beta-h is not finite (inf)"),
    ("sweep", *_POINT, "--z-min", "0.8", "--z-max", "0.2"):
        (2, "z-max 0.2 must not be below z-min 0.8"),
    (*_SWEEP, "--points", "20000"): (2, "points must lie in [1, 10000], got 20000"),
    (*_SWEEP, "--beta-h", "0"): (2, "beta-h must be positive, got 0.0"),
    ("sweep", "--scenario", "sc", "--tau", "1", "--v", "0.5", "--z-min", "0.1", "--z-max", "0.9"):
        (2, "tau must lie in (0,1), got 1.0"),
    ("sweep", "--scenario", "sc", "--tau", "0.5", "--v", "1", "--z-min", "0.1", "--z-max", "0.9"):
        (2, "v must lie in (0,1), got 1.0"),
    # both loads fail in the physics (a zero z, a zero load), so only the
    # order of the checks gives exit 2
    ("sweep", "--scenario", "sc", "--tau", "0.9999999999999979", "--v", "1e-12",
     "--z-min", "0", "--z-max", "1", "--points", "3"): (2, "z-min must lie in (0,1], got 0.0"),
    ("sweep", "--scenario", "sc", "--tau", "5e-324", "--v", "0.99",
     "--z-min", "0.1", "--z-max", "1.5", "--points", "3"): (2, "z-max must lie in (0,1], got 1.5"),
    # the test gives each phase-map row its --output
    ("phase-map", "--scenario", "sc", "--v", "0"): (2, "v must lie in (0,1), got 0.0"),
    ("phase-map", "--scenario", "sc", "--v", "0.35", "--resolution", "20000"):
        (2, "resolution must lie in [2, 10000], got 20000"),
    # figure 2 reads no --tau, yet a non-finite one is refused
    ("figure", "--id", "2", "--points", "2", "--v-list", "0.5", "--tau", "nan"):
        (2, "tau is not finite (nan)"),
    ("figure", "--id", "3", "--tau", "1.5"): (2, "tau must lie in (0,1), got 1.5"),
    ("figure", "--id", "3", "--points", "0"): (2, "points must lie in [1, 10000], got 0"),
    ("figure", "--id", "3", "--points", "-3"): (2, "points must lie in [1, 10000], got -3"),
    ("figure", "--id", "3", "--points", "10001"): (2, "points must lie in [1, 10000], got 10001"),
    ("figure", "--id", "5", "--resolution", "1", "--v-list", "0.35"):
        (2, "resolution must lie in [2, 10000], got 1"),
    ("figure", "--id", "5", "--resolution", "20000", "--v-list", "0.35"):
        (2, "resolution must lie in [2, 10000], got 20000"),
    ("figure", "--id", "2", "--v-list", "0.5,nope"): (2, "could not parse v-list '0.5,nope'"),
    ("figure", "--id", "2", "--v-list", ""): (2, "could not parse v-list ''"),
    ("figure", "--id", "2", "--v-list", ","): (2, "could not parse v-list ','"),
    ("figure", "--id", "2", "--v-list", "1.5"): (2, "v must lie in (0,1), got 1.5"),
    # no interior optimum: tau * f(v) underflows to zero
    (*_WORK_SC, "--tau", "5e-324", "--v", "0.99"): (3, "reduced load g = tau*f(v) is 0"),
    ("optimize", "--objective", "work", "--scenario", "se", "--tau", "5e-324", "--v", "0.99"):
        (3, "reduced load g = tau*f(v) is 0"),
    # an empty engine window: the load is tau = 1 - 2**-53 itself, the window's
    # floor rounds to it, so no double lies inside, and the cubic root rounds to 1
    ("optimize", "--objective", "eta", "--scenario", "sc",
     "--tau", "0.9999999999999999", "--v", "1.673740958757154e-16"): (3, *_OUTSIDE),
    # failed certificates: the cubic root leaves the engine window, so eta_max
    # would be negative, or lands just below a window 6.7e-10 wide
    ("optimize", "--objective", "omega", "--scenario", "sc",
     "--tau", "0.9999999819051079", "--v", "1e-190"): (3, *_OUTSIDE),
    ("optimize", "--objective", "eta", "--scenario", "sc", "--tau", "0.999999999", "--v", "1e-6"):
        (3, *_OUTSIDE),
    # 2z**2 underflows to zero inside the hot-bath heat
    (*_EVALUATE_SC, "--z", "1e-300", "--tau", "0.5", "--v", "0.5"):
        (3, "numeric failure: 2z^2 underflows to 0 at z=1e-300"),
    # 1/beta_h overflows, so the heats are infinite
    (*_TINY_BETA, "--format", "json"): (3, "numeric failure: q_h is not finite (inf)"),
    (*_TINY_BETA, "--format", "csv"): (3, "numeric failure: q_h is not finite (inf)"),
    ("sweep", "--scenario", "se", "--tau", "0.5", "--v", "0.5", "--z-min", "0.1",
     "--z-max", "0.9", "--points", "2", "--beta-h", "1e-310"):
        (3, "numeric failure: q_h is not finite (-inf)"),
    # --exact, every flag in its domain: x*e^(-s) = beta_c*omega_c/2*e^(-s) is 0
    (*_EXACT_SE, "--z", "1e-10", "--omega-h", "1e-14", "--beta-h", "1e-300"):
        (3, _SINH_UNDERFLOW, "omega_c=", "v=0.9)"),
    (*_EXACT_SE, "--z", "1e-3", "--omega-h", "1e-3", "--beta-h", "1e-318"):
        (3, _SINH_UNDERFLOW, "omega_c=", "v=0.9)"),
    # d = 2x*sinh(s) keeps too few bits (or none) to give h_a its digits
    (*_EXACT_AT_ONE, "se", "--v", "1e-320", "--beta-h", "1e20", "--omega-h", "1e-22"):
        (3, _SINH_GAP, "omega_c=", "v=1e-320)"),
    (*_EXACT_AT_ONE, "sc", "--v", "1e-30", "--beta-h", "1e-200", "--omega-h", "1e-100"):
        (3, _SINH_GAP, "omega_c=", "v=1e-30)"),
    # omega_c underflows to 0 or beta_c overflows; the omega_c underflow is named first
    (*_EXACT_SC, "--z", "1e-10", "--omega-h", "1e-320"):
        (3, "numeric failure: omega_c = z*omega_h underflows to 0 at omega-h=1e-320"),
    (*_EXACT_SC, "--z", "0.5", "--beta-h", "1e308", "--omega-h", "1e10"):
        (3, "numeric failure: beta_c = beta_h/tau overflows at beta-h=1e+308"),
    (*_EXACT_SC, "--z", "1e-300", "--omega-h", "1e-300", "--beta-h", "1e308", "--tau", "1e-10"):
        (3, "numeric failure: omega_c = z*omega_h underflows to 0 at omega-h=1e-300"),
    # a corner energy leaves the doubles: coth(beta_h*omega_h/2) overflows,
    # or (omega_h/omega_c)*lambda_AB does
    (*_EVALUATE_SC, "--exact", "--z", "0.5", "--tau", "1e-300", "--v", "0.5", "--beta-h", "1e-309"):
        (3, "numeric failure: <H>_C = inf leaves the doubles at CycleParams(v=0.5, beta_c=",
         "beta_h=1e-309, omega_c=0.5, omega_h=1.0)"),
    (*_EVALUATE_SC, "--exact", "--z", "1e-200", "--tau", "0.5", "--v", "0.5"):
        (3, "numeric failure: <H>_B = inf leaves the doubles at CycleParams(v=0.5, beta_c=",
         "beta_h=1.0, omega_c=1e-200, omega_h=1.0)"),
}


@pytest.mark.parametrize("argv", list(REFUSALS), ids=shlex.join)
def test_refused_input_prints_one_error_line_and_no_output(capsys, tmp_path, argv):
    status, message, *needles = REFUSALS[argv]
    if argv[0] == "phase-map":
        argv += ("--output", str(tmp_path / "map.csv"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (status, ""), err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    line, head = err[:-1], f"otto-rel: error: {message}"
    assert (line.startswith(head) if needles else line == head), err
    for needle in needles:
        assert needle in line, (needle, err)


def test_every_numeric_flag_has_a_refusal_row():
    # each (subcommand, flag with a domain) pair has an exit-2 row whose message names the flag
    named = {(argv[0], row[1].split()[0]) for argv, row in REFUSALS.items() if row[0] == 2}
    pairs = {
        (command, flag)
        for command, (_, _, flags) in cli._COMMANDS.items()
        for flag in flags.split()
        if flag.replace("-", "_") in cli._DOMAINS
    }
    assert sorted(pairs - named) == []


# -- contract over the argument space -------------------------------------------

# Mostly values in (0, 1), so that many draws are valid; one draw in six is
# an edge value: nan, +-inf, zero, negative, above 1, subnormal, huge.
_UNIT_FLOAT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
_EDGE_FLOAT = st.one_of(
    st.sampled_from(
        (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1.0, 1.5, 1e-300, 1e-310, 1e308)
    ),
    st.floats(),
)
_COUNT_FLAG = st.integers(min_value=-3, max_value=30)


@st.composite
def _cli_argv(draw):
    """A subcommand with each flag cli's flag table gives it, as --name=value so '-inf' parses."""

    def number():
        return draw(_EDGE_FLOAT if draw(st.integers(0, 5)) == 0 else _UNIT_FLOAT)

    command = draw(st.sampled_from(list(cli._COMMANDS)))
    argv = [command]
    for name in cli._COMMANDS[command][2].split():
        keywords = cli._FLAGS[name][1]
        if name == "output":  # the test gives phase-map its raster path
            continue
        if keywords.get("action") == "store_true":
            if draw(st.booleans()):
                argv.append(f"--{name}")
            continue
        if "choices" in keywords:
            value = draw(st.sampled_from(keywords["choices"]))
        elif keywords.get("type") is int:
            value = draw(_COUNT_FLAG)
        elif keywords.get("type") is float:
            value = number()
        elif name == "v-list":
            value = ",".join(repr(number()) for _ in range(draw(st.integers(1, 3))))
        else:
            raise AssertionError(f"no strategy for --{name}")
        argv.append(f"--{name}={value if isinstance(value, str) else repr(value)}")
    return argv


def _reject_constant(token):
    raise AssertionError(f"JSON constant {token} in output")


def _assert_finite_csv(text: str) -> None:
    lines = text.splitlines()
    assert lines[0] == SCHEMA
    for line in lines[2:]:
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), line


@settings(max_examples=200)
@given(argv=_cli_argv())
# Inputs that once printed a traceback or non-finite numbers with exit 0.
@example(argv=["evaluate", "--scenario=sc", "--v=0.5", "--tau=0.5", "--z=1e-300"])
@example(argv=["evaluate", "--scenario=se", "--v=0.5", "--tau=0.5", "--z=0.5",
               "--beta-h=1e-310"])
@example(argv=["evaluate", "--scenario=se", "--v=0.5", "--tau=0.5", "--z=0.5",
               "--beta-h=1e-320", "--exact"])
@example(argv=["sweep", "--scenario=se", "--v=0.5", "--tau=0.5", "--z-min=0.1",
               "--z-max=0.9", "--points=2", "--beta-h=1e-310"])
@example(argv=["optimize", "--scenario=se", "--v=0.5", "--tau=8.927268066483435e-155",
               "--beta-h=0.5", "--objective=eta", "--format=json"])
@example(argv=["evaluate", "--scenario=se", "--v=0.5", "--tau=1.709196365738078e-158",
               "--beta-h=0.5", "--z=1.0", "--format=json"])
def test_every_accepted_input_ends_in_output_or_one_line_error(tmp_path_factory, argv):
    raster = tmp_path_factory.getbasetemp() / "contract-map.csv"
    raster.unlink(missing_ok=True)
    if argv[0] == "phase-map":
        argv = argv + [f"--output={raster}"]
    code, out, err = _main(*argv)
    event(f"{argv[0]} exit {code}")
    if code == 0:
        assert err == ""
        if out.startswith(SCHEMA):
            _assert_finite_csv(out)
        else:
            json.loads(out, parse_constant=_reject_constant)
        if argv[0] == "phase-map":
            _assert_finite_csv(raster.read_text())
    else:
        assert code in (2, 3)
        assert out == ""
        assert err.startswith("otto-rel: error:") and err.count("\n") == 1, err


# -- declared entry point ----------------------------------------------------

# What the console-script wrapper that pip generates does for
# ``otto-rel = "otto_rel.cli:main"``.
ENTRY_POINT_WRAPPER = "import sys; from otto_rel.cli import main; sys.exit(main())"


def test_console_script_declaration():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"otto-rel": "otto_rel.cli:main"}
    entry = importlib.metadata.EntryPoint(
        name="otto-rel", value=scripts["otto-rel"], group="console_scripts"
    )
    assert entry.load() is cli.main


def _source_first_env() -> dict:
    """The environment with the source root of the package under test first on PYTHONPATH."""
    src_root = str(Path(otto_rel.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_root, env.get("PYTHONPATH")])
    )
    return env


def test_console_script_round_trip(tmp_path):
    # Run the entry point of the package under test as a fresh process; its
    # source root goes first on PYTHONPATH, and the child starts outside the
    # checkout, so neither an installed copy nor the working directory can
    # shadow it.
    env = _source_first_env()
    proc = subprocess.run(
        [
            sys.executable, "-c", ENTRY_POINT_WRAPPER,
            "evaluate", "--scenario", "se", "--z", "0.7349586766561972",
            "--tau", "0.5", "--v", "0.5",
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    data = json.loads(proc.stdout)
    want = REFERENCE["optima"]["tau=0.5,v=0.5"]["eta_max_se"]
    assert data["eta"] == pytest.approx(want, rel=1e-10, abs=0)


@pytest.fixture(scope="module")
def cli_import_modules(tmp_path_factory) -> set[str]:
    """The modules that import otto_rel.cli adds to a fresh interpreter."""
    cwd = tmp_path_factory.mktemp("imports")

    def loaded(statement: str) -> set[str]:
        proc = subprocess.run(
            [sys.executable, "-c", f"{statement}import sys; print(' '.join(sys.modules))"],
            capture_output=True,
            text=True,
            env=_source_first_env(),
            cwd=cwd,
            timeout=60,
            check=True,
        )
        return set(proc.stdout.split())

    return loaded("import otto_rel.cli; ") - loaded("")


def test_cli_import_loads_neither_dataclasses_nor_inspect(cli_import_modules):
    # dataclasses (which pulls in inspect) cost about a fifth of the CLI's
    # startup; a module set, unlike a wall-clock bound, cannot flake
    assert "otto_rel.cli" in cli_import_modules
    assert not cli_import_modules & {"dataclasses", "inspect"}


def test_cli_runtime_is_stdlib_only(cli_import_modules):
    # the package declares no runtime dependencies
    packages = {name.split(".")[0] for name in cli_import_modules}
    assert "otto_rel" in packages
    assert not packages - sys.stdlib_module_names - {"otto_rel"}


# The choice lists each help text shows, so a dropped or reordered choice fails
# here, and the help of --v, which every subcommand that takes it shows.
_V_HELP = "oscillator velocity in (0,1)"
_HELP_CHOICES = {
    (): ("{evaluate,optimize,sweep,phase-map,figure}",),
    ("evaluate",): ("{sc,se}", "{json,csv}", _V_HELP),
    ("optimize",): ("{eta,work,omega}", "{sc,se}", "{json,csv}", _V_HELP),
    ("sweep",): ("{sc,se}", _V_HELP),
    ("phase-map",): ("{sc,se}", _V_HELP),
    ("figure",): ("{2,3,4,5,6}",),
}


@pytest.mark.parametrize(
    "command", list(_HELP_CHOICES), ids=lambda command: command[0] if command else "otto-rel"
)
def test_help_renders(capsys, command):
    # argparse formats help only when asked, so a bad help string fails here
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*command, "--help"])
    out = capsys.readouterr().out
    assert excinfo.value.code == 0
    assert out.startswith("usage: otto-rel")
    for choices in _HELP_CHOICES[command]:
        assert choices in out, (choices, out)


def test_every_numeric_flag_has_a_domain():
    # a float or int flag without choices and without a domain would be
    # checked for finiteness only
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    numeric = set()
    for command, subparser in commands.choices.items():
        for action in subparser._actions:
            if action.type in (float, int) and action.choices is None:
                assert action.dest in cli._DOMAINS, (command, action.option_strings)
                numeric.add(action.dest)
    assert numeric == set(cli._DOMAINS)
