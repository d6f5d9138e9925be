"""Hot-limit closed forms for the two asymmetric driving scenarios.

When both thermal occupations are large (beta_h omega_h << 1 at fixed
ratios) every cycle quantity collapses onto four reduced variables:

    z      = omega_c / omega_h   frequency ratio, 0 < z <= 1,
    tau    = beta_h / beta_c     inverse-temperature ratio, 0 < tau < 1,
    v                            oscillator velocity, 0 < v < 1,
    beta_h                       kept explicit as the energy scale.

Writing g = tau * f(v) with f the velocity reduction factor (tau and v
enter every closed form only through this product, which each function
below forms once per call), the per-cycle quantities are

    sudden compression (quenched A->B stroke):
        q_h  = [2 z^2 - g (z^2 + 1)] / (2 z^2 beta_h)
        q_c  = (g - z) / beta_h
        work = (1 - z) [2 z^2 - g (1 + z)] / (2 z^2 beta_h)

    sudden expansion (quenched C->D stroke):
        q_h  = (z - g) / (z beta_h)
        q_c  = [g - (1 + z^2)/2] / beta_h
        work = (1 - z) [z (1 + z) - 2 g] / (2 z beta_h)

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
    _efficiency,
    _Validated,
    relativistic_factor,
)

__all__ = [
    "ReducedParams",
    "ScenarioForms",
    "scenario_forms",
    "qh",
    "work",
    "eta",
    "performance",
    "engine_lower_z_sc",
    "engine_lower_z_se",
]


class ReducedParams(_Validated, namedtuple("ReducedParams", "z tau v beta_h")):
    """Reduced operating point of the hot-limit cycle."""

    __slots__ = ()

    def __new__(cls, z: float, tau: float, v: float, beta_h: float = 1.0) -> ReducedParams:
        if not 0.0 < z <= 1.0:
            raise ValueError(f"frequency ratio z must lie in (0, 1], got {z}")
        if not 0.0 < tau < 1.0:
            raise ValueError(f"temperature ratio tau must lie in (0, 1), got {tau}")
        if not 0.0 < v < 1.0:
            raise ValueError(f"velocity v must lie in (0, 1), got {v}")
        if not beta_h > 0.0:
            raise ValueError(f"beta_h must be positive, got {beta_h}")
        return tuple.__new__(cls, (z, tau, v, beta_h))


# -- engine windows ---------------------------------------------------------


def engine_lower_z_sc(g: float) -> float:
    """Smallest frequency ratio with nonnegative work, sudden compression.

    Positive root of 2 z^2 - g (1 + z) = 0; equals 1 when g = 1, so the
    engine window closes as tau * f(v) -> 1.
    """
    if not 0.0 < g <= 1.0:
        raise ValueError(f"reduced coupling must lie in (0, 1], got {g}")
    return 0.25 * (g + math.sqrt(g * (g + 8.0)))


def engine_lower_z_se(g: float) -> float:
    """Smallest frequency ratio with nonnegative work, sudden expansion.

    Positive root of z (1 + z) - 2 g = 0; equals 1 when g = 1.  Written
    as 4g / (sqrt(1 + 8g) + 1), not (sqrt(1 + 8g) - 1) / 2, whose
    subtraction cancels at small g (0.11 relative error at g = 1e-16, and
    0 below about 1.4e-17).
    """
    if not 0.0 < g <= 1.0:
        raise ValueError(f"reduced coupling must lie in (0, 1], got {g}")
    return 4.0 * g / (math.sqrt(1.0 + 8.0 * g) + 1.0)


# -- one record per scenario ------------------------------------------------


class ScenarioForms(NamedTuple):
    """Every closed form that tells one asymmetric scenario from the other.

    The heats and the work take (z, g, beta_h) with g = tau * f(v); the
    other forms take g alone.

    efficiency_cubic gives the coefficients (a2, a1, a0) of the monic
    cubic whose largest real root maximizes the efficiency.  The mode
    edges in z are fridge_top (refrigerator/heater, None where the
    refrigerator region is absent), heater_top (heater/accelerator) and
    engine_lower_z (accelerator/engine).
    """

    qh: Callable[[float, float, float], float]
    qc: Callable[[float, float, float], float]
    work: Callable[[float, float, float], float]
    engine_lower_z: Callable[[float], float]
    efficiency_cubic: Callable[[float], tuple[float, float, float]]
    fridge_top: Callable[[float], Optional[float]]
    heater_top: Callable[[float], float]


_FORMS = {
    # Quenched A->B stroke.
    SUDDEN_COMPRESSION: ScenarioForms(
        qh=lambda z, g, beta_h: (2.0 * z * z - g * (z * z + 1.0)) / (2.0 * z * z * beta_h),
        qc=lambda z, g, beta_h: (g - z) / beta_h,
        work=lambda z, g, beta_h: (1.0 - z) * (2.0 * z * z - g * (1.0 + z)) / (2.0 * z * z * beta_h),
        engine_lower_z=engine_lower_z_sc,
        efficiency_cubic=lambda g: (0.0, -3.0 * g / (2.0 - g), 2.0 * g * g / (2.0 - g)),
        fridge_top=lambda g: g,
        heater_top=lambda g: math.sqrt(g / (2.0 - g)),
    ),
    # Quenched C->D stroke.  The efficiency is bounded above by 1/2
    # everywhere: the quenched expansion stroke wastes at least half of the
    # extractable work at any operating point.  The refrigerator edge
    # z**2 = 2g - 1 has no real solution when g <= 1/2.
    SUDDEN_EXPANSION: ScenarioForms(
        qh=lambda z, g, beta_h: (z - g) / (z * beta_h),
        qc=lambda z, g, beta_h: (g - 0.5 * (1.0 + z * z)) / beta_h,
        work=lambda z, g, beta_h: (1.0 - z) * (z * (1.0 + z) - 2.0 * g) / (2.0 * z * beta_h),
        engine_lower_z=engine_lower_z_se,
        efficiency_cubic=lambda g: (-1.5 * g, 0.0, -0.5 * g * (1.0 - 2.0 * g)),
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


def qh(r: ReducedParams, scenario: Scenario) -> float:
    """Hot-bath heat for either asymmetric scenario."""
    z, tau, v, beta_h = r
    return scenario_forms(scenario).qh(z, tau * relativistic_factor(v), beta_h)


def work(r: ReducedParams, scenario: Scenario) -> float:
    """Net extracted work for either asymmetric scenario."""
    z, tau, v, beta_h = r
    return scenario_forms(scenario).work(z, tau * relativistic_factor(v), beta_h)


def eta(r: ReducedParams, scenario: Scenario) -> Optional[float]:
    """Efficiency work/q_h for either asymmetric scenario, None when q_h <= 0."""
    forms = scenario_forms(scenario)
    z, tau, v, beta_h = r
    g = tau * relativistic_factor(v)
    return _efficiency(forms.work(z, g, beta_h), forms.qh(z, g, beta_h))


def performance(r: ReducedParams, scenario: Scenario) -> PerformanceRecord:
    """Assemble the full hot-limit performance record at one point."""
    forms = scenario_forms(scenario)
    z, tau, v, beta_h = r
    g = tau * relativistic_factor(v)
    return PerformanceRecord(
        forms.qh(z, g, beta_h), forms.qc(z, g, beta_h), forms.work(z, g, beta_h)
    )
