"""Independent references the tests compare the package against.

None of these is needed to compute a result, so they live here rather than
in otto_rel:

* SCENARIOS / each_scenario -- per asymmetric scenario, keyed by its CLI
  token, everything in which its checks differ from the other's;
* POINTS -- the operating points (tau, v) of the 60-digit optimum
  fixtures, keyed as REFERENCE["optima"] is;
* BOTH_ADIABATIC / BOTH_SUDDEN -- the two symmetric scenarios: references
  for the asymmetric ones on the exact path, and inputs the hot-limit
  layers must refuse;
* classify_by_table -- the operational mode read from the closed-form
  mode edges in z, against which the sign classifier is checked;
* decimal_newton -- an 80-digit Newton root, the judge of the cubic roots;
* cells -- a PhaseMap's runs expanded to one mode per cell.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from typing import Callable, NamedTuple

import pytest

from otto_rel import SUDDEN_COMPRESSION, SUDDEN_EXPANSION, phase_diagram
from otto_rel.core import Scenario, StrokeProtocol
from otto_rel.high_temperature import ReducedParams, scenario_forms
from otto_rel.optima import eta_max_sc, eta_max_se, eta_omega_sc, eta_omega_se
from otto_rel.phase_diagram import OperationalMode, PhaseMap

#: The operating points (tau, v) of the 60-digit optimum fixtures.
POINTS = {
    "tau=0.5,v=0.5": (0.5, 0.5),
    "tau=0.3,v=0.75": (0.3, 0.75),
}

#: Fully quasistatic cycle.
BOTH_ADIABATIC = Scenario(StrokeProtocol.ADIABATIC, StrokeProtocol.ADIABATIC)
#: Both strokes quenched.
BOTH_SUDDEN = Scenario(StrokeProtocol.SUDDEN, StrokeProtocol.SUDDEN)


class ScenarioCase(NamedTuple):
    """The tests' own transcription of one asymmetric scenario.

    token is its CLI token and the suffix of its fixture keys (z_eta_sc).
    The Decimal forms take Decimal z and g in the caller's context:
    efficiency_cubic(z, g) is (p, dp/dz) of the cubic whose largest root,
    reached by Newton from newton_start(g), maximizes eta(z, g) = W/Q_h;
    at that root eta = eta_ceiling - peak_eta_gap(z, g), the gap formed
    without cancelling.  max_work(c) is the maximum work at c = g**(1/3);
    mode_areas(F) each mode's area on the (z, tau) unit square at f(v) = F.
    """

    token: str
    scenario: Scenario
    eta_max: Callable[[float, float], float]
    eta_omega: Callable[[float, float], float]
    efficiency_cubic: Callable[[Decimal, Decimal], tuple[Decimal, Decimal]]
    newton_start: Callable[[Decimal], Decimal]
    eta: Callable[[Decimal, Decimal], Decimal]
    eta_ceiling: Decimal
    peak_eta_gap: Callable[[Decimal, Decimal], Decimal]
    engine_floor: Callable[[Decimal], Decimal]
    max_work: Callable[[float], float]
    mode_areas: Callable[[float], dict[str, float]]


# The loads g = tau * F fill (0, F); a mode's area is the mean over them of
# its length in z, between the edges of scenario_forms.
def _areas(engine: float, fridge: float, heater: float) -> dict[str, float]:
    accelerator = 1.0 - engine - fridge - heater
    return dict(engine=engine, refrigerator=fridge, heater=heater,
                accelerator=accelerator, boundary=0.0)


def _compression_areas(top: float) -> dict[str, float]:
    fridge = top / 2.0
    heater = (2.0 * math.asin(math.sqrt(top / 2.0)) - math.sqrt(top * (2.0 - top))) / top
    # the engine floor (g + sqrt(g**2 + 8g))/4, integrated with u = g + 4
    u = top + 4.0
    root = math.sqrt(u * u - 16.0)
    integral = u * root / 2.0 - 8.0 * math.log(u + root) + 8.0 * math.log(4.0)
    return _areas(1.0 - (top * top / 8.0 + integral / 4.0) / top, fridge, heater - fridge)


def _expansion_areas(top: float) -> dict[str, float]:
    fridge = (2.0 * top - 1.0) ** 1.5 / (3.0 * top) if top > 0.5 else 0.0
    engine = 1.0 - (((1.0 + 8.0 * top) ** 1.5 - 1.0) / 24.0 - top / 2.0) / top
    return _areas(engine, fridge, top / 2.0 - fridge)


_CASES = (
    # Quenched A->B stroke: the cubic (2 - g) z^3 - 3 g z + 2 g^2, its root
    # near sqrt(3g/2); eta = (2 + g - 3z)/(2 - g) tends to 1 as g -> 0.
    ScenarioCase(
        "sc", SUDDEN_COMPRESSION, eta_max_sc, eta_omega_sc,
        efficiency_cubic=lambda z, g: (
            (2 - g) * z**3 - 3 * g * z + 2 * g * g, 3 * (2 - g) * z * z - 3 * g
        ),
        newton_start=lambda g: (3 * g / 2).sqrt(),
        eta=lambda z, g: (1 - z) * (2 * z * z - g * (1 + z)) / (2 * z * z - g * (z * z + 1)),
        eta_ceiling=Decimal(1),
        peak_eta_gap=lambda z, g: (3 * z - 2 * g) / (2 - g),
        engine_floor=lambda g: (g + (g * (g + 8)).sqrt()) / 4,
        max_work=lambda c: (1.0 - c) ** 2 * (2.0 + c) / 2.0,
        mode_areas=_compression_areas,
    ),
    # Quenched C->D stroke: the cubic z^3 - (3/2) g z^2 - g (1 - 2g)/2, its
    # root near (g/2)^(1/3); above g = 1/2 the cubic is positive, rising and
    # convex from 3g/2 on, so Newton from there falls to the largest root,
    # not the middle one.  eta = 1/2 + g - (3/2) z^2, below 1/2 exactly when
    # z^2 > 2g/3.  The textbook floor (sqrt(1 + 8g) - 1)/2 cancels about
    # -log10(g) digits.
    ScenarioCase(
        "se", SUDDEN_EXPANSION, eta_max_se, eta_omega_se,
        efficiency_cubic=lambda z, g: (
            z**3 - Decimal("1.5") * g * z * z - g * (1 - 2 * g) / 2, 3 * z * z - 3 * g * z
        ),
        newton_start=lambda g: max((g / 2) ** (Decimal(1) / 3), Decimal("1.5") * g),
        eta=lambda z, g: (1 - z) * (z * (1 + z) - 2 * g) / (2 * (z - g)),
        eta_ceiling=Decimal("0.5"),
        peak_eta_gap=lambda z, g: Decimal("1.5") * z * z - g,
        engine_floor=lambda g: ((1 + 8 * g).sqrt() - 1) / 2,
        max_work=lambda c: (1.0 - c) ** 2 * (1.0 + 2.0 * c) / 2.0,
        mode_areas=_expansion_areas,
    ),
)

#: One entry per asymmetric scenario, keyed by its CLI token.
SCENARIOS = {case.token: case for case in _CASES}
#: Parametrizes a test over SCENARIOS as its argument case, with ids sc and se.
each_scenario = pytest.mark.parametrize("case", _CASES, ids=tuple(SCENARIOS))


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


def decimal_newton(
    f_df: Callable[[Decimal], tuple[Decimal, Decimal]], start: Decimal | float
) -> Decimal:
    """The root of f that Newton's method reaches from start, at 80 digits.

    f_df(z) is (f(z), f'(z)), evaluated in the 80-digit context.  Newton
    stops once a step is at most 1e-75 of the iterate, and raises if that
    takes more than 100 steps.
    """
    with localcontext() as ctx:
        ctx.prec = 80
        z = Decimal(start)
        for _ in range(100):
            f, df = f_df(z)
            step = f / df
            z -= step
            if abs(step) <= abs(z) * Decimal("1e-75"):
                return z
    raise AssertionError(f"Newton from {start} did not converge in 100 steps")
