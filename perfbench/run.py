"""Benchmark of the otto-rel CLI in the checkout that contains this file.

Usage, from the checkout root:

    python3 perfbench/run.py --workload cli-requests --seed 1 --seconds 30 --trace 0

With ``--trace 0`` every command of the workload runs as a fresh
``python -m otto_rel.cli`` process, one at a time (one client, closed loop),
in whole rounds (at least two) until the commands have taken ``--seconds``
of wall time, and the end-to-end metrics of BENCHMARK.json are reported.
With ``--trace 1`` one round runs in this process through
``otto_rel.cli.main``, untraced and then traced, and the per-layer metrics
are reported.  Every output is checked outside the timed regions.  The last
line of stdout is one JSON object; the exit status is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import checks
from checks import Outcome
from tracer import Tracer
from workloads import WORKLOADS, Command

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"
MODULES = ("core", "high_temperature", "cubic", "oracle", "optima", "phase_diagram", "cli")

#: Set-up samples taken before the first command, and the number of equal
#: slices of --seconds after each of which one more sample is taken.
SETUP_FIRST = 5
SETUP_SPREAD = 25
IMPORTTIME_REPEATS = 5
COMMAND_TIMEOUT_S = 120
#: Tolerance for the reference points when the package no longer exports
#: ORACLE_AGREEMENT_TOL (its value at the time the benchmark was written).
DEFAULT_AGREEMENT_TOL = 1e-6

_PROBE = (
    "import otto_rel, otto_rel.cli, otto_rel.optima as o; "
    "print(otto_rel.__file__); print(getattr(o, 'ORACLE_AGREEMENT_TOL', ''))"
)


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (missing sources, wrong package)."""


def child_env(work: Path) -> dict[str, str]:
    """Environment for commands: the checkout's sources, bytecode cached in work."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def argv_for(command: Command, work: Path) -> list[str]:
    argv = list(command.argv)
    if command.output is not None:
        argv += ["--output", str(work / command.output)]
    return argv


def digest(outcome: Outcome) -> str:
    h = hashlib.sha256()
    for part in (str(outcome.status), outcome.stdout, outcome.stderr, outcome.output or ""):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def probe(env: dict[str, str]) -> float:
    """Check that children import otto_rel from this checkout; return its tolerance."""
    done = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True,
                          text=True, timeout=COMMAND_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise SetupError(f"cannot import otto_rel from {SRC}: {done.stderr.strip()[-300:]}")
    location, tol = done.stdout.splitlines()
    if not Path(location).resolve().is_relative_to(ROOT):
        raise SetupError(f"otto_rel imported from {location}, outside {ROOT}")
    return float(tol) if tol else DEFAULT_AGREEMENT_TOL


def context(workload: str, seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "otto_rel").rglob("*.py")))
    return {"workload": workload, "seed": seed, "commit": commit,
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "src_lines": src_lines}


# -- fresh-process end-to-end run -------------------------------------------


def spawn(argv: list[str], env: dict[str, str], out, err, cwd=None):
    """Run a fresh process to its exit: status, wall seconds, resource usage."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
    watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def execute(command: Command, work: Path, env: dict[str, str]) -> tuple[Outcome, float, int]:
    """Run one command as a fresh process: outcome, wall seconds, ru_maxrss (KiB)."""
    argv = [sys.executable, "-m", "otto_rel.cli", *argv_for(command, work)]
    with open(work / "stdout", "w+b") as out, open(work / "stderr", "w+b") as err:
        status, wall, usage = spawn(argv, env, out, err, cwd=work)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    written = None
    if command.output is not None and (work / command.output).exists():
        written = (work / command.output).read_text(encoding="utf-8")
    return Outcome(status, stdout, stderr, written), wall, usage.ru_maxrss


def setup_sample(env: dict[str, str]) -> float:
    """Wall time of one fresh `python -c "import otto_rel.cli"`."""
    argv = [sys.executable, "-c", "import otto_rel.cli"]
    return spawn(argv, env, subprocess.DEVNULL, subprocess.DEVNULL)[1]


class Tally:
    """Attempted and failed commands, with the first few problems kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, command: Command, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{' '.join(command.argv)}: {'; '.join(problems)}")
        return not problems


def end_to_end(commands, seconds: float, work: Path, env, reference, tol, tally: Tally,
               run=execute) -> tuple[dict[str, float], dict]:
    """Whole rounds of fresh-process commands until `seconds` of wall time.

    At least two rounds run, so every run checks that the outputs repeat.

    Set-up samples are taken before the first command and then spread over
    the run, so their median sees the same machine as the commands do.
    """
    setup_sample(env)  # warm-up: fills the bytecode cache
    setup = [setup_sample(env) for _ in range(SETUP_FIRST)]
    walls, rss, ops, measured, rounds, next_setup = [], [], 0, 0.0, 0, 0.0
    first: list[tuple[str, list[str]]] = []  # digest and problems of round one
    while rounds < 2 or measured < seconds:
        for i, command in enumerate(commands):
            outcome, wall, maxrss = run(command, work, env)
            measured += wall
            walls.append(wall)
            rss.append(maxrss)
            if rounds == 0:
                first.append((digest(outcome), checks.check(command, outcome, reference, tol)))
                problems = first[i][1]
            elif digest(outcome) == first[i][0]:
                problems = first[i][1]
            else:
                problems = ["output differs from the first round"]
            if tally.add(command, problems):
                ops += command.ops
            if measured >= next_setup:
                setup.append(setup_sample(env))
                next_setup = measured + seconds / SETUP_SPREAD
        rounds += 1
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_p50_s": statistics.median(walls),
        "latency_p90_s": statistics.quantiles(walls, n=10)[-1],
        "ops_per_s": ops / measured,
        "peak_rss_mb": max(rss) / 1024.0,
    }
    summary = {"rounds": rounds, "commands": len(walls), "measured_s": measured,
               "setup_samples": len(setup),
               "outputs_sha256": hashlib.sha256("".join(d for d, _ in first).encode()).hexdigest()}
    return metrics, summary


# -- in-process traced run ----------------------------------------------------


class Sink(io.StringIO):
    """Stdout/stderr stand-in that also counts the bytes written."""

    def __init__(self) -> None:
        super().__init__()
        self.bytes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text.encode())
        return super().write(text)


def in_process(cli, commands, work: Path, tracer=None) -> tuple[float, list[Outcome], int]:
    """One round through cli.main: wall seconds, outcomes, bytes emitted."""
    wall, outcomes, emitted = 0.0, [], 0
    for i, command in enumerate(commands):
        out, err = Sink(), Sink()
        if tracer is not None:
            tracer.request = i
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                status = cli.main(argv_for(command, work))
            except SystemExit as exc:
                status = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # as a fresh process would: traceback, exit 1
                traceback.print_exc()
                status = 1
            wall += time.perf_counter() - start
        written = None
        if command.output is not None and (work / command.output).exists():
            written = (work / command.output).read_text(encoding="utf-8")
        outcomes.append(Outcome(status, out.getvalue(), err.getvalue(), written))
        emitted += out.bytes + len((written or "").encode())
    return wall, outcomes, emitted


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*\d+\s*\|\s*(\S+)")


def import_seconds(env: dict[str, str]) -> dict[str, float]:
    """Median self time per otto_rel module from `python -X importtime`."""
    samples = {m: [] for m in MODULES}
    argv = [sys.executable, "-X", "importtime", "-c", "import otto_rel.cli"]
    for _ in range(IMPORTTIME_REPEATS):
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True,
                              timeout=COMMAND_TIMEOUT_S)
        seen = {name: int(us) for us, name in _IMPORTTIME.findall(done.stderr)}
        for m in MODULES:
            samples[m].append(seen.get(f"otto_rel.{m}", 0) / 1e6)
    return {f"import.otto_rel.{m}.self_s": statistics.median(v) for m, v in samples.items()}


def traced(commands, work: Path, env, reference, tol, tally: Tally, spans_path: Path):
    """Per-layer metrics from one untraced and one traced in-process round."""
    sys.path.insert(0, str(SRC))
    import otto_rel.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT):
        raise SetupError(f"otto_rel imported from {cli.__file__}, outside {ROOT}")
    plain_wall, plain, _ = in_process(cli, commands, work)
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, outcomes, emitted = in_process(cli, commands, work, tracer)
    finally:
        tracer.uninstall()
    for command, reference_outcome, outcome in zip(commands, plain, outcomes):
        problems = checks.check(command, reference_outcome, reference, tol)
        if digest(outcome) != digest(reference_outcome):
            problems.append("traced output differs from the untraced output")
        tally.add(command, problems)
    spans_path.write_text(json.dumps({"absent": tracer.absent, "spans": tracer.spans}))
    metrics = tracer.metrics()
    metrics["cli.output_bytes"] = emitted
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    metrics.update(import_seconds(env))
    summary = {"untraced_s": plain_wall, "traced_s": traced_wall,
               "spans": len(tracer.spans), "absent": tracer.absent}
    return metrics, summary


# -- entry point ----------------------------------------------------------------


def declared(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def report(run_context: dict, values: dict[str, float], tally: Tally, trace: bool) -> int:
    """Print the run context, each declared metric and the result line; exit status."""
    print(json.dumps({"context": run_context}))
    for problem in tally.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    metrics = {}
    for spec in declared(trace):
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']:48s} {value!r} {spec['unit']}")
    print(f"{'fail_ratio':48s} {tally.failed / tally.attempted!r} "
          f"({tally.failed} of {tally.attempted} commands)")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "otto_rel" / "__init__.py").is_file():
        print(f"perfbench: no otto_rel sources under {SRC}", file=sys.stderr)
        return 2
    work = RUN_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = child_env(work)
        tol = probe(env)
        reference = checks.load_reference(ROOT)
        commands = WORKLOADS[args.workload](args.seed)
        tally = Tally()
        info = context(args.workload, args.seed)
        if args.trace:
            spans_path = RUN_DIR / f"spans-{args.workload}-{args.seed}.json"
            values, summary = traced(commands, work, env, reference, tol, tally, spans_path)
        else:
            values, summary = end_to_end(commands, args.seconds, work, env, reference, tol, tally)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    return report({**info, **summary}, values, tally, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
