"""Tests of the benchmark itself: run with `python -m pytest -q perfbench`."""

from __future__ import annotations

import json
import re
import sys

import pytest

import checks
import run
import workloads
from tracer import Tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def cli():
    sys.path.insert(0, str(run.SRC))
    import otto_rel.cli

    return otto_rel.cli


@pytest.fixture(scope="module")
def reference():
    return checks.load_reference(run.ROOT)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    generate = workloads.WORKLOADS[name]
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)
    sizes = [[c.ops for c in generate(seed)] for seed in (7, 8)]
    assert sorted(sizes[0]) == sorted(sizes[1])


def test_metric_names_are_well_formed_and_produced():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    traced = set(Tracer().metrics()) | {"cli.output_bytes", "trace.overhead_ratio"}
    traced |= {f"import.otto_rel.{m}.self_s" for m in run.MODULES}
    assert {m["name"] for m in SPEC["per_layer"]} <= traced
    assert [w["name"] for w in SPEC["workloads"]] == sorted(workloads.WORKLOADS)


def _fake_runner(cli, corrupt):
    """A fresh-process stand-in that runs in process and may corrupt output."""
    def execute(command, work, env):
        _, (outcome,), _ = run.in_process(cli, [command], work)
        if corrupt:
            outcome.stdout = re.sub(r"-?\d+\.\d+e?-?\d*", "NaN", outcome.stdout, count=1)
        return outcome, 0.01, 1024
    return execute


@pytest.mark.parametrize("corrupt", [False, True])
def test_injected_bad_output_raises_fail_ratio(cli, reference, tmp_path, monkeypatch, capsys,
                                               corrupt):
    monkeypatch.setattr(run, "setup_sample", lambda env: 0.1)
    commands = [c for c in workloads.cli_requests(3) if c.argv[0] == "evaluate" and c.status == 0][:4]
    tally = run.Tally()
    metrics, summary = run.end_to_end(commands, 0.0, tmp_path, {}, reference, 1e-6, tally,
                                      run=_fake_runner(cli, corrupt))
    assert tally.attempted == 8  # two rounds of four
    assert tally.failed == (8 if corrupt else 0)
    assert metrics["ops_per_s"] == (0.0 if corrupt else 100.0)
    assert run.report(summary, metrics, tally, trace=False) == (1 if corrupt else 0)
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (not corrupt, tally.failed)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_outputs_that_change_between_rounds_fail(cli, reference, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "setup_sample", lambda env: 0.1)
    command = next(c for c in workloads.cli_requests(3) if c.argv[0] == "evaluate" and c.status == 0)
    calls = []

    def execute(command, work, env):
        _, (outcome,), _ = run.in_process(cli, [command], work)
        calls.append(command)
        outcome.stdout += " " * (len(calls) - 1)
        return outcome, 0.01, 1024

    tally = run.Tally()
    run.end_to_end([command], 0.0, tmp_path, {}, reference, 1e-6, tally, run=execute)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "differs from the first round" in tally.problems[0]


def test_checks_accept_every_command_of_a_round(cli, reference, tmp_path):
    commands = workloads.cli_requests(11)
    _, outcomes, _ = run.in_process(cli, commands, tmp_path)
    for command, outcome in zip(commands, outcomes):
        assert checks.check(command, outcome, reference, 1e-6) == [], command.argv


def test_checks_reject_a_reference_mismatch(cli, reference, tmp_path):
    command = workloads.Command(("optimize", "--objective", "work", "--scenario", "sc",
                                 "--tau", "0.5", "--v", "0.5"))
    _, (outcome,), _ = run.in_process(cli, [command], tmp_path)
    assert checks.check(command, outcome, reference, 1e-6) == []
    point = reference["optima"]["tau=0.5,v=0.5"]
    shifted = {**reference, "optima": {"tau=0.5,v=0.5": {**point, "z_work": point["z_work"] + 1e-5}}}
    assert checks.check(command, outcome, shifted, 1e-6)


def test_tracer_counts_layers_and_restores_globals(cli, tmp_path):
    import otto_rel.high_temperature as ht
    import otto_rel.phase_diagram as pd

    original = pd.relativistic_factor
    tracer = Tracer()
    tracer.install()
    try:
        assert pd.relativistic_factor is not original
        assert ht.relativistic_factor is pd.relativistic_factor
        sweep = workloads.Command(("sweep", "--scenario", "sc", "--tau", "0.5", "--v", "0.5",
                                   "--z-min", "0.1", "--z-max", "0.9", "--points", "7"))
        run.in_process(cli, [sweep], tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert pd.relativistic_factor is original
    metrics = tracer.metrics()
    assert metrics["high_temperature.performance.calls"] == 7 * 11
    assert metrics["cli.main.calls"] == 1
    assert tracer.absent == []
    assert [s["name"] for s in tracer.spans] == ["main"]


def test_tracer_reports_missing_functions_as_absent(cli, monkeypatch):
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "otto_rel" and hasattr(module, "eta_omega_se"):
            monkeypatch.delattr(module, "eta_omega_se")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["optima.eta_omega_se"]
    assert tracer.metrics()["optima.eta_omega.calls"] == 0
