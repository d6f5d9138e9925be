"""Command-line interface: schemas, exit codes, reproducibility."""

import hashlib
import importlib.metadata
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import otto_rel
from otto_rel import (
    SUDDEN_COMPRESSION,
    NoEngineWindowError,
    ReducedParams,
    eta_max_sc,
    performance,
    z_star_work,
)
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
    rec = performance(ReducedParams(z=0.8, tau=0.5, v=0.5), SUDDEN_COMPRESSION)
    assert data["q_h"] == pytest.approx(rec.q_h, rel=1e-15)
    assert data["q_c"] == pytest.approx(rec.q_c, rel=1e-15)
    assert data["w_ext"] == pytest.approx(rec.w_ext, rel=1e-15)
    assert data["eta"] == pytest.approx(rec.eta, rel=1e-15)
    cap = eta_max_sc(0.5, 0.5)
    assert data["omega"] == pytest.approx(2 * rec.w_ext - cap * rec.q_h, rel=1e-12)
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
    assert data["q_h"] == pytest.approx(want["q_h"], rel=1e-12)
    assert data["q_c"] == pytest.approx(want["q_c"], rel=1e-12)
    assert data["w_ext"] == pytest.approx(want["w_ext"], rel=1e-12)
    assert data["eta"] == pytest.approx(want["eta"], rel=1e-12)


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


@pytest.mark.parametrize(
    "flags,needle",
    [
        (("--z", "0.5", "--tau", "0.5", "--v", "1.5"), "(0,1)"),
        (("--z", "0.0", "--tau", "0.5", "--v", "0.5"), "(0,1]"),
        (("--z", "0.5", "--tau", "1.0", "--v", "0.5"), "(0,1)"),
        (("--z", "0.5", "--tau", "0.5", "--v", "0.5", "--beta-h", "-1"), "positive"),
        (("--z", "0.5", "--tau", "0.5", "--v", "0.5", "--exact", "--omega-h", "0"), "positive"),
        (("--z", "0.5", "--tau", "0.5", "--v", "0.5", "--beta-h", "inf"), "beta-h is not finite"),
        (("--z", "0.5", "--tau", "0.5", "--v", "0.5", "--exact", "--omega-h", "inf"),
         "omega-h is not finite"),
    ],
)
def test_evaluate_rejects_out_of_domain(capsys, flags, needle):
    code, out, err = run(capsys, "evaluate", "--scenario", "sc", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("otto-rel: error:")
    assert needle in err


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
    assert data["z_star"] == pytest.approx(want["z_eta_se"], rel=1e-12)
    assert data["value"] == pytest.approx(want["eta_max_se"], rel=1e-12)
    assert data["eta"] == data["value"]

    code, out, _ = run(
        capsys, "optimize", "--objective", "work", "--scenario", "sc",
        "--tau", "0.5", "--v", "0.5",
    )
    data = json.loads(out)
    assert data["source"] == "closed-form"
    assert data["z_star"] == pytest.approx(want["z_work"], rel=1e-12)
    assert data["value"] == pytest.approx(want["work_max_sc"], rel=1e-12)


def test_optimize_trade_off_reports_closed_form(capsys):
    want = REFERENCE["optima"]["tau=0.5,v=0.5"]
    code, out, _ = run(
        capsys, "optimize", "--objective", "omega", "--scenario", "sc",
        "--tau", "0.5", "--v", "0.5",
    )
    assert code == 0
    data = json.loads(out)
    assert data["source"] == "closed-form"
    assert data["z_star"] == pytest.approx(want["z_omega_sc"], rel=1e-13)
    assert data["value"] == pytest.approx(want["omega_max_sc"], rel=1e-11)


def test_optimize_domain_error_exits_2(capsys):
    code, _, err = run(
        capsys, "optimize", "--objective", "work", "--scenario", "sc",
        "--tau", "1.2", "--v", "0.5",
    )
    assert code == 2 and "tau" in err
    code, out, err = run(
        capsys, "optimize", "--objective", "work", "--scenario", "sc",
        "--tau", "0.5", "--v", "0.5", "--beta-h", "inf",
    )
    assert code == 2 and out == "" and "beta-h is not finite" in err


def test_window_failures_exit_3(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise NoEngineWindowError("reduced load 1.2 >= 1 leaves no engine window")

    monkeypatch.setattr(cli, "optimize", explode)
    code, out, err = run(
        capsys, "optimize", "--objective", "work", "--scenario", "sc",
        "--tau", "0.5", "--v", "0.5",
    )
    assert code == 3
    assert out == ""
    assert "no engine window" in err


def test_arithmetic_failure_exits_3_without_traceback(capsys):
    # z**2 underflows to zero inside the hot-bath heat
    code, out, err = run(
        capsys, "evaluate", "--scenario", "sc", "--z", "1e-300", "--tau", "0.5", "--v", "0.5"
    )
    assert code == 3
    assert out == ""
    assert err.startswith("otto-rel: error:") and err.count("\n") == 1


_EVALUATE_TINY_BETA = (
    "evaluate", "--scenario", "se", "--z", "0.5", "--tau", "0.5", "--v", "0.5",
    "--beta-h", "1e-310",
)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(_EVALUATE_TINY_BETA + ("--format", "json"), id="json"),
        pytest.param(_EVALUATE_TINY_BETA + ("--format", "csv"), id="csv"),
        pytest.param(
            ("sweep", "--scenario", "se", "--tau", "0.5", "--v", "0.5", "--z-min", "0.1",
             "--z-max", "0.9", "--points", "2", "--beta-h", "1e-310"),
            id="sweep",
        ),
    ],
)
def test_non_finite_result_exits_3_with_no_output(capsys, argv):
    # 1/beta_h overflows, so the heats are infinite
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("otto-rel: error:") and err.count("\n") == 1
    assert "not finite" in err


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
    assert abs(peak_z - z_star_work(0.5, 0.5)) <= step


def test_sweep_single_point(capsys):
    code, out, _ = run(
        capsys, "sweep", "--scenario", "se", "--tau", "0.5", "--v", "0.5",
        "--z-min", "0.7", "--z-max", "0.7", "--points", "50",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert float(lines[2].split(",")[0]) == 0.7


def test_sweep_validation(capsys):
    code, _, err = run(
        capsys, "sweep", "--scenario", "sc", "--tau", "0.5", "--v", "0.5",
        "--z-min", "0.8", "--z-max", "0.2",
    )
    assert code == 2 and "z-max" in err
    code, _, err = run(
        capsys, "sweep", "--scenario", "sc", "--tau", "0.5", "--v", "0.5",
        "--z-min", "0.1", "--z-max", "0.9", "--points", "20000",
    )
    assert code == 2 and "points" in err


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


def test_phase_map_validation(capsys, tmp_path):
    code, _, err = run(
        capsys, "phase-map", "--scenario", "sc", "--v", "0.35",
        "--resolution", "20000", "--output", str(tmp_path / "m.csv"),
    )
    assert code == 2 and "resolution" in err


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


def test_figure_outputs_are_reproducible(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(
            capsys, "figure", "--id", "3", "--points", "64", "--output", str(path)
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


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
}


@pytest.mark.parametrize("argv", list(FROZEN_OUTPUTS), ids=lambda argv: f"{argv[0]}-{argv[2]}")
def test_outputs_match_frozen_digests(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FROZEN_OUTPUTS[argv]


def test_figure_rejects_unknown_id(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["figure", "--id", "7"])
    assert excinfo.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("points", ["0", "-3"])
def test_figure_rejects_empty_axis(capsys, points):
    code, out, err = run(capsys, "figure", "--id", "3", "--points", points)
    assert code == 2
    assert out == ""
    assert "points" in err


@pytest.mark.parametrize("resolution", ["1", "20000"])
def test_figure_rejects_resolution_out_of_range(capsys, resolution):
    code, out, err = run(
        capsys, "figure", "--id", "5", "--resolution", resolution, "--v-list", "0.35"
    )
    assert code == 2
    assert out == ""
    assert "resolution" in err


def test_figure_rejects_bad_v_list(capsys):
    code, _, err = run(capsys, "figure", "--id", "2", "--v-list", "0.5,nope")
    assert code == 2 and "v-list" in err
    code, _, err = run(capsys, "figure", "--id", "2", "--v-list", "1.5")
    assert code == 2


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


def test_console_script_round_trip(tmp_path):
    # Run the entry point of the package under test as a fresh process; its
    # source root goes first on PYTHONPATH, and the child starts outside the
    # checkout, so neither an installed copy nor the working directory can
    # shadow it.
    src_root = str(Path(otto_rel.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_root, env.get("PYTHONPATH")])
    )
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
    assert data["eta"] == pytest.approx(want, rel=1e-10)
