"""Hot-limit closed forms for the two asymmetric driving scenarios.

When both thermal occupations are large (beta_h omega_h << 1 at fixed
ratios) beta_h times every cycle energy is a function of two variables:

    z      = omega_c / omega_h   frequency ratio, 0 < z <= 1,
    g      = tau * f(v)          reduced load, 0 <= g < 1,

where tau = beta_h / beta_c in (0, 1) is the inverse-temperature ratio
and f the velocity reduction factor of v in [0, 1).  tau and v enter
every closed form only through the load g, which reduced_load forms and
checks once per request.  The forms are unit-free (beta_h times each
energy), so no mode, efficiency or optimum depends on the unit of energy.
Each scenario's three energies come from one call of its
ScenarioForms.energies, which performance wraps as a record:

    sudden compression (quenched A->B stroke):
        beta_h q_h  = [2 z^2 - g (z^2 + 1)] / (2 z^2)
        beta_h q_c  = g - z
        beta_h work = (1 - z) [2 z^2 - g (1 + z)] / (2 z^2)

    sudden expansion (quenched C->D stroke):
        beta_h q_h  = (z - g) / z
        beta_h q_c  = g - (1 + z^2)/2
        beta_h work = (1 - z) [z (1 + z) - 2 g] / (2 z)

Efficiency is work / q_h wherever q_h > 0; cycles with q_h <= 0 are not
engines and the efficiency functions return None for them (a typed
outcome, not an exception, so phase-diagram callers can consume every
sign combination).

The engine lower bounds are the positive roots of the work expressions:
z = [g + sqrt(g (g + 8))] / 4 for sudden compression and
z = [sqrt(1 + 8 g) - 1] / 2 = 4 g / [sqrt(1 + 8 g) + 1] for sudden expansion.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable, NamedTuple, Optional

from .core import (
    SUDDEN_COMPRESSION,
    SUDDEN_EXPANSION,
    PerformanceRecord,
    Scenario,
    _Validated,
    relativistic_factor,
)
from .cubic import MonicCubic


def reduced_load(tau: float, v: float) -> float:
    """Reduced load g = tau * f(v) for tau in (0, 1) and v in f's domain [0, 1)."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"temperature ratio tau must lie in (0, 1), got {tau}")
    return tau * relativistic_factor(v)


class ReducedParams(_Validated, namedtuple("ReducedParams", "z g")):
    """Reduced operating point of the hot-limit cycle: ratio z and load g."""

    __slots__ = ()

    def __new__(cls, z: float, g: float) -> ReducedParams:
        if not 0.0 < z <= 1.0:
            raise ValueError(f"frequency ratio z must lie in (0, 1], got {z}")
        if not 0.0 <= g < 1.0:
            raise ValueError(f"reduced load g must lie in [0, 1), got {g}")
        return tuple.__new__(cls, (z, g))


# -- one record per scenario ------------------------------------------------


class ScenarioForms(NamedTuple):
    """Every closed form that tells one asymmetric scenario from the other.

    energies(z, g) takes the fields of a ReducedParams, with g = tau * f(v)
    the reduced load, and returns beta_h times (q_h, q_c, w_ext), the
    fields of a PerformanceRecord in order; the other forms take g alone.

    efficiency_cubic(g, s) gives the MonicCubic in w = s z (s a power of
    two, 1 by default) whose largest real root maximizes the efficiency
    (d(eta)/dz = 0 with its denominators cleared).  The mode edges in z
    are fridge_top (refrigerator/heater, None where the refrigerator
    region is absent), heater_top (heater/accelerator) and engine_lower_z
    (accelerator/engine).
    """

    energies: Callable[[float, float], tuple[float, float, float]]
    engine_lower_z: Callable[[float], float]
    efficiency_cubic: Callable[..., MonicCubic]
    fridge_top: Callable[[float], Optional[float]]
    heater_top: Callable[[float], float]


def _sc_energies(z: float, g: float) -> tuple[float, float, float]:
    two_zz = 2.0 * z * z
    if two_zz == 0.0:
        raise FloatingPointError(f"2z^2 underflows to 0 at z={z}")
    q_h = (two_zz - g * (z * z + 1.0)) / two_zz
    return q_h, g - z, (1.0 - z) * (two_zz - g * (1.0 + z)) / two_zz


_FORMS = {
    # Quenched A->B stroke.
    SUDDEN_COMPRESSION: ScenarioForms(
        energies=_sc_energies,
        engine_lower_z=lambda g: 0.25 * (g + math.sqrt(g * (g + 8.0))),
        efficiency_cubic=lambda g, s=1.0: MonicCubic(
            0.0, -3.0 * (g * s * s) / (2.0 - g), 2.0 * (g * s) * (g * s * s) / (2.0 - g)
        ),
        fridge_top=lambda g: g,
        heater_top=lambda g: math.sqrt(g / (2.0 - g)),
    ),
    # Quenched C->D stroke.  The efficiency is bounded above by 1/2
    # everywhere: the quenched expansion stroke wastes at least half of the
    # extractable work at any operating point.  The refrigerator edge
    # z**2 = 2g - 1 has no real solution when g <= 1/2.
    SUDDEN_EXPANSION: ScenarioForms(
        energies=lambda z, g: (
            (z - g) / z,
            g - 0.5 * (1.0 + z * z),
            (1.0 - z) * (z * (1.0 + z) - 2.0 * g) / (2.0 * z),
        ),
        # not (sqrt(1 + 8g) - 1)/2, whose subtraction cancels at small g
        engine_lower_z=lambda g: 4.0 * g / (math.sqrt(1.0 + 8.0 * g) + 1.0),
        efficiency_cubic=lambda g, s=1.0: MonicCubic(
            -1.5 * (g * s), 0.0, -0.5 * (g * s * s * s) * (1.0 - 2.0 * g)
        ),
        fridge_top=lambda g: math.sqrt(2.0 * g - 1.0) if 2.0 * g > 1.0 else None,
        heater_top=lambda g: g,
    ),
}


def scenario_forms(scenario: Scenario) -> ScenarioForms:
    """The closed-form record of one of the two asymmetric scenarios."""
    try:
        return _FORMS[scenario]
    except KeyError:
        raise ValueError(
            "hot-limit closed forms cover only the two asymmetric scenarios "
            f"(one sudden stroke, one adiabatic), got {scenario}"
        ) from None


# -- either scenario at one reduced point -----------------------------------


# perfbench/tracer.py traces qh, work and eta by name; they leave src/ with ROADMAP.md item 4
def qh(r: ReducedParams, scenario: Scenario) -> float:
    """Hot-bath heat (times beta_h) for either asymmetric scenario."""
    return performance(r, scenario).q_h


def work(r: ReducedParams, scenario: Scenario) -> float:
    """Net extracted work (times beta_h) for either asymmetric scenario."""
    return performance(r, scenario).w_ext


def eta(r: ReducedParams, scenario: Scenario) -> Optional[float]:
    """Efficiency work/q_h for either asymmetric scenario, None when q_h <= 0."""
    return performance(r, scenario).eta


def performance(r: ReducedParams, scenario: Scenario) -> PerformanceRecord:
    """The hot-limit performance record at one point, each energy times beta_h."""
    # tuple.__new__ skips the namedtuple's Python-level constructor; the fields need no check
    return tuple.__new__(PerformanceRecord, scenario_forms(scenario).energies(*r))
