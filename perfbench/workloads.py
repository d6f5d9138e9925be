"""Seeded command lists ("rounds") for the three benchmark workloads.

A seed changes the values in a round (tau, v, z, beta_h, formats, order)
but never its size: every seed gives the same commands per kind, the same
sweep lengths, figure points and raster resolution, so the work in a run
does not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

#: Reference points of tests/_reference.py, checked on every round of
#: cli-requests: all three objectives in both scenarios at each point.
REFERENCE_POINTS = ((0.5, 0.5), (0.3, 0.75))

#: Sweep lengths of cli-requests, spread evenly over 101..2000 points.
SWEEP_POINTS = tuple(round(101 + i * (2000 - 101) / 18) for i in range(19))

FIGURE_POINTS = 20
RASTER_RESOLUTION = 400
RASTER_SWEEP_POINTS = 10_000


@dataclass(frozen=True)
class Command:
    """One otto-rel invocation: arguments after the program name.

    ``output`` names a file the command writes through ``--output``; the
    runner places it in its work directory.  ``ops`` is the number of
    operations the command completes (requests, optimum rows, cells or
    sweep rows), and ``status`` the exit status its input must give.
    """

    argv: tuple[str, ...]
    ops: int = 1
    status: int = 0
    output: Optional[str] = None


def _num(rng: random.Random, lo: float, hi: float) -> str:
    # Twelve significant digits keep values readable and round-trip exact.
    return repr(float(f"{rng.uniform(lo, hi):.12g}"))


def cli_requests(seed: int) -> list[Command]:
    """100 short requests: evaluate, optimize, sweep, reference points, bad input."""
    rng = random.Random(f"cli-requests:{seed}")
    commands = []
    for tau, v in REFERENCE_POINTS:
        for objective in ("eta", "work", "omega"):
            for scenario in ("sc", "se"):
                commands.append(Command((
                    "optimize", "--objective", objective, "--scenario", scenario,
                    "--tau", repr(tau), "--v", repr(v),
                )))
    for i in range(40):
        argv = [
            "evaluate", "--scenario", ("sc", "se")[i % 2],
            "--z", _num(rng, 0.05, 1.0), "--tau", _num(rng, 0.05, 0.95),
            "--v", _num(rng, 0.05, 0.95), "--beta-h", _num(rng, 0.2, 5.0),
            "--format", ("json", "csv")[(i // 2) % 2],
        ]
        if i % 4 >= 2:
            argv += ["--exact", "--omega-h", _num(rng, 0.5, 2.0)]
        commands.append(Command(tuple(argv)))
    for i in range(24):
        commands.append(Command((
            "optimize", "--objective", ("eta", "work", "omega")[i % 3],
            "--scenario", ("sc", "se")[(i // 3) % 2],
            "--tau", _num(rng, 0.05, 0.95), "--v", _num(rng, 0.05, 0.95),
            "--beta-h", _num(rng, 0.2, 5.0), "--format", ("json", "csv")[(i // 6) % 2],
        )))
    for i, points in enumerate(SWEEP_POINTS):
        z_min = rng.uniform(0.01, 0.5)
        commands.append(Command((
            "sweep", "--scenario", ("sc", "se")[i % 2],
            "--tau", _num(rng, 0.05, 0.95), "--v", _num(rng, 0.05, 0.95),
            "--z-min", repr(float(f"{z_min:.12g}")),
            "--z-max", _num(rng, z_min + 0.1, 1.0), "--points", str(points),
        )))
    # Out-of-domain requests: documented outcome is exit 2 with a diagnostic.
    commands += [
        Command(("evaluate", "--scenario", "sc", "--z", "0.5",
                 "--tau", _num(rng, 1.05, 2.0), "--v", "0.5"), status=2),
        Command(("evaluate", "--scenario", "se", "--z", _num(rng, 1.05, 2.0),
                 "--tau", "0.5", "--v", "0.5"), status=2),
        Command(("evaluate", "--scenario", "sc", "--z", "0.5", "--tau", "0.5",
                 "--v", "0.5", "--exact", "--omega-h", _num(rng, -2.0, -0.1)), status=2),
        Command(("optimize", "--objective", "omega", "--scenario", "se",
                 "--tau", "0.5", "--v", _num(rng, 1.05, 2.0)), status=2),
        Command(("sweep", "--scenario", "sc", "--tau", "0.5", "--v", "0.5",
                 "--z-min", "0.1", "--z-max", "0.9",
                 "--points", str(rng.randint(10_001, 20_000))), status=2),
    ]
    rng.shuffle(commands)
    return commands


def optima_figure(seed: int) -> list[Command]:
    """Figure 2 data for three seeded velocities at a fixed number of points."""
    rng = random.Random(f"optima-figure:{seed}")
    v_list = ",".join(_num(rng, 0.05, 0.95) for _ in range(3))
    return [Command(
        ("figure", "--id", "2", "--v-list", v_list, "--points", str(FIGURE_POINTS)),
        ops=2 * 3 * FIGURE_POINTS,
    )]


def phase_raster(seed: int) -> list[Command]:
    """Phase maps for both scenarios, then one long sweep, at seeded values."""
    rng = random.Random(f"phase-raster:{seed}")
    cells = RASTER_RESOLUTION * RASTER_RESOLUTION
    commands = [
        Command(("phase-map", "--scenario", scenario, "--v", _num(rng, 0.05, 0.95),
                 "--resolution", str(RASTER_RESOLUTION)),
                ops=cells, output=f"phase-{scenario}.csv")
        for scenario in ("sc", "se")
    ]
    commands.append(Command((
        "sweep", "--scenario", rng.choice(("sc", "se")),
        "--tau", _num(rng, 0.05, 0.95), "--v", _num(rng, 0.05, 0.95),
        "--z-min", "0.01", "--z-max", "1.0", "--points", str(RASTER_SWEEP_POINTS),
    ), ops=RASTER_SWEEP_POINTS))
    return commands


WORKLOADS = {
    "cli-requests": cli_requests,
    "optima-figure": optima_figure,
    "phase-raster": phase_raster,
}
