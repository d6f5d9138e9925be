"""Independent references the tests compare the package against.

None of these is needed to compute a result, so they live here rather than
in otto_rel:

* BOTH_ADIABATIC / BOTH_SUDDEN -- the two symmetric scenarios: references
  for the asymmetric ones on the exact path, and inputs the hot-limit
  layers must refuse;
* classify_by_table -- the operational mode read from the closed-form
  mode edges in z, against which the sign classifier is checked;
* derivative_check / DerivativeReport -- a Richardson-extrapolated central
  difference for stationarity checks of the closed-form optima;
* cells -- a PhaseMap's runs expanded to one mode per cell.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

from otto_rel import phase_diagram
from otto_rel.core import Scenario, StrokeProtocol
from otto_rel.high_temperature import ReducedParams, scenario_forms
from otto_rel.phase_diagram import OperationalMode, PhaseMap

#: Fully quasistatic cycle.
BOTH_ADIABATIC = Scenario(StrokeProtocol.ADIABATIC, StrokeProtocol.ADIABATIC)
#: Both strokes quenched.
BOTH_SUDDEN = Scenario(StrokeProtocol.SUDDEN, StrokeProtocol.SUDDEN)


def classify_by_table(r: ReducedParams, scenario: Scenario) -> OperationalMode:
    """Classify one reduced point by the closed-form interval edges in z.

    Points within phase_diagram.BOUNDARY_EPS (in z, read on every call) of
    any edge, or of the zero-work line z = 1, report Boundary so ties stay
    deterministic.
    """
    forms = scenario_forms(scenario)
    fridge_top, heater_top = forms.fridge_top(r.g), forms.heater_top(r.g)
    engine_bottom = forms.engine_lower_z(r.g)
    z = r.z
    edges = [heater_top, engine_bottom, 1.0]
    if fridge_top is not None:
        edges.append(fridge_top)
    if any(abs(z - edge) <= phase_diagram.BOUNDARY_EPS for edge in edges):
        return OperationalMode.BOUNDARY
    if fridge_top is not None and z < fridge_top:
        return OperationalMode.REFRIGERATOR
    if z < heater_top:
        return OperationalMode.HEATER
    if z < engine_bottom:
        return OperationalMode.THERMAL_ACCELERATOR
    return OperationalMode.ENGINE


def cells(phase_map: PhaseMap) -> tuple[tuple[OperationalMode, ...], ...]:
    """cells[i][j] is the mode at (z, tau) = (axis[i], axis[j]), expanded from the runs."""
    size = len(phase_map.axis)
    columns = []
    for column in phase_map.runs:
        ends = [start for start, _ in column[1:]] + [size]
        expanded: list[OperationalMode] = []
        for (start, mode), end in zip(column, ends):
            expanded += [mode] * (end - start)
        columns.append(expanded)
    return tuple(zip(*columns))


class DerivativeReport(NamedTuple):
    """Result of a finite-difference derivative check.

    value is the Richardson extrapolation of the two finest central
    differences; order estimates the observed convergence rate (about 2
    for a smooth integrand); converged is False when the samples neither
    follow a power law nor sit at rounding level, in which case value
    should be treated with suspicion.
    """

    value: float
    order: float
    samples: tuple[float, ...]
    converged: bool


def derivative_check(
    f: Callable[[float], float],
    x: float,
    h_schedule: Sequence[float] = (1e-4, 1e-5, 1e-6),
) -> DerivativeReport:
    """Central-difference derivative of f at x with Richardson extrapolation.

    h_schedule must list at least two strictly decreasing positive steps.
    """
    steps = tuple(h_schedule)
    if len(steps) < 2:
        raise ValueError("h_schedule needs at least two step sizes")
    if any(h <= 0.0 for h in steps) or any(
        steps[i] <= steps[i + 1] for i in range(len(steps) - 1)
    ):
        raise ValueError(f"h_schedule must be strictly decreasing and positive: {steps}")

    samples = tuple((f(x + h) - f(x - h)) / (2.0 * h) for h in steps)

    h1, h2 = steps[-2], steps[-1]
    d1, d2 = samples[-2], samples[-1]
    weight = (h2 * h2) / (h1 * h1 - h2 * h2)
    value = d2 + (d2 - d1) * weight

    scale = max(1.0, abs(value))
    gaps = [abs(samples[i] - samples[i + 1]) for i in range(len(samples) - 1)]
    if gaps[-1] <= 1e-12 * scale:
        # Finest differences at rounding level: already converged, order moot.
        return DerivativeReport(value=value, order=math.inf, samples=samples, converged=True)
    order = 0.0
    converged = False
    if len(gaps) >= 2 and gaps[-2] > 0.0 and gaps[-1] > 0.0:
        # Error ~ C h^p gives gap(h_i, h_{i+1}) ~ C h_i^p, so the gap
        # ratio recovers p against the matching step ratio.
        order = math.log(gaps[-2] / gaps[-1]) / math.log(steps[-3] / steps[-2])
        converged = 0.5 <= order <= 4.0
    return DerivativeReport(value=value, order=order, samples=samples, converged=converged)
