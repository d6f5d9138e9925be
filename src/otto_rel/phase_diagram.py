"""Operational-mode classification and phase-map rasterization.

A cycle point either runs as an engine (W >= 0, Q_h >= 0, Q_c <= 0), a
refrigerator (W <= 0, Q_h <= 0, Q_c >= 0), a heater (W <= 0, Q_h <= 0,
Q_c <= 0), or a thermal accelerator (W <= 0, Q_h >= 0, Q_c <= 0).  Two
independent classifiers are provided: one reads the computed signs, the
other the closed-form interval edges in z, and tests require them to
agree away from the boundaries.  Quantities within BOUNDARY_EPS of zero
(with beta_h = 1) are deliberately left unclassified as Boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .core import Scenario, relativistic_factor
from .high_temperature import ReducedParams, performance, scenario_forms

__all__ = [
    "BOUNDARY_EPS",
    "OperationalMode",
    "PhaseMap",
    "classify_signs",
    "classify_by_signs",
    "classify_by_table",
    "boundary_curves",
    "rasterize",
    "mode_fractions",
]

BOUNDARY_EPS = 1e-9


class OperationalMode(str, Enum):
    ENGINE = "engine"
    REFRIGERATOR = "refrigerator"
    HEATER = "heater"
    THERMAL_ACCELERATOR = "accelerator"
    BOUNDARY = "boundary"


_SIGN_TABLE = {
    (1, 1, -1): OperationalMode.ENGINE,
    (-1, -1, 1): OperationalMode.REFRIGERATOR,
    (-1, -1, -1): OperationalMode.HEATER,
    (-1, 1, -1): OperationalMode.THERMAL_ACCELERATOR,
}


def _sign(x: float, eps: float) -> int:
    if abs(x) <= eps:
        return 0
    return 1 if x > 0.0 else -1


def classify_signs(
    w_ext: float, q_h: float, q_c: float, eps: float = BOUNDARY_EPS
) -> OperationalMode:
    """Map a (W, Q_h, Q_c) sign triple to its operational mode.

    Any quantity within eps of zero sends the point to Boundary.  Sign
    patterns outside the four-mode table (for example W > 0 with both
    heats positive) cannot occur while the hot bath is hotter than the
    cold one; they indicate corrupted inputs and raise instead of
    guessing.
    """
    triple = (_sign(w_ext, eps), _sign(q_h, eps), _sign(q_c, eps))
    if 0 in triple:
        return OperationalMode.BOUNDARY
    mode = _SIGN_TABLE.get(triple)
    if mode is None:
        raise ValueError(
            f"sign pattern (W, Q_h, Q_c) = {triple} is inconsistent with a "
            "hot bath hotter than the cold bath"
        )
    return mode


def classify_by_signs(
    r: ReducedParams, scenario: Scenario, eps: float = BOUNDARY_EPS
) -> OperationalMode:
    """Classify one reduced point by evaluating the heats and work."""
    rec = performance(r, scenario)
    return classify_signs(rec.w_ext, rec.q_h, rec.q_c, eps)


def _edges(g: float, scenario: Scenario) -> tuple[Optional[float], float, float]:
    """Ascending mode edges (refrigerator top, heater top, engine bottom).

    The refrigerator edge is None for the expansion quench when
    tau*f(v) <= 1/2: the required z**2 = 2*tau*f(v) - 1 has no real
    solution and the refrigerator region is absent.
    """
    forms = scenario_forms(scenario)
    return forms.fridge_top(g), forms.heater_top(g), forms.engine_lower_z(g)


def classify_by_table(
    r: ReducedParams, scenario: Scenario, eps: float = BOUNDARY_EPS
) -> OperationalMode:
    """Classify one reduced point by the closed-form interval edges in z.

    Points within eps (in z) of any edge, or of the zero-work line z = 1,
    report Boundary so ties stay deterministic.
    """
    g = r.tau * relativistic_factor(r.v)
    fridge_top, heater_top, engine_bottom = _edges(g, scenario)
    z = r.z
    edges = [heater_top, engine_bottom, 1.0]
    if fridge_top is not None:
        edges.append(fridge_top)
    if any(abs(z - edge) <= eps for edge in edges):
        return OperationalMode.BOUNDARY
    if fridge_top is not None and z < fridge_top:
        return OperationalMode.REFRIGERATOR
    if z < heater_top:
        return OperationalMode.HEATER
    if z < engine_bottom:
        return OperationalMode.THERMAL_ACCELERATOR
    return OperationalMode.ENGINE


def boundary_curves(
    scenario: Scenario, v: float
) -> dict[str, Callable[[float], float]]:
    """Closed-form mode edges as functions tau -> z at fixed velocity.

    Keys: "qc_zero" (refrigerator/heater edge), "qh_zero"
    (heater/accelerator edge), "engine_min" (accelerator/engine edge).
    Curves return nan where the edge does not exist (the expansion-quench
    qc_zero below tau*f(v) = 1/2).
    """
    forms = scenario_forms(scenario)
    if not 0.0 < v < 1.0:
        raise ValueError(f"v must lie in (0, 1), got {v}")
    factor = relativistic_factor(v)

    def curve(edge: Callable[[float], Optional[float]]) -> Callable[[float], float]:
        def z_at(tau: float) -> float:
            z = edge(tau * factor)
            return math.nan if z is None else z

        return z_at

    return {
        "qc_zero": curve(forms.fridge_top),
        "qh_zero": curve(forms.heater_top),
        "engine_min": curve(forms.engine_lower_z),
    }


@dataclass(frozen=True)
class PhaseMap:
    """Immutable mode raster over the open unit square of (z, tau).

    cells[i][j] is the mode at (z_axis[i], tau_axis[j]).
    """

    v: float
    z_axis: tuple[float, ...]
    tau_axis: tuple[float, ...]
    cells: tuple[tuple[OperationalMode, ...], ...]
    scenario: Scenario

    def __post_init__(self) -> None:
        if len(self.cells) != len(self.z_axis):
            raise ValueError("cells row count must match z_axis length")
        if any(len(row) != len(self.tau_axis) for row in self.cells):
            raise ValueError("cells column count must match tau_axis length")


def rasterize(scenario: Scenario, v: float, resolution: int = 200) -> PhaseMap:
    """Classify cell centers of a resolution x resolution grid on (0,1)^2.

    Centers sit at (i + 0.5)/resolution, so the degenerate edges z = 0,
    tau = 0, and tau = 1 are never sampled.  Deterministic: same inputs,
    same map.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    if not 0.0 < v < 1.0:
        raise ValueError(f"velocity v must lie in (0, 1), got {v}")
    forms = scenario_forms(scenario)
    axis = tuple((i + 0.5) / resolution for i in range(resolution))
    # Every cell sits inside the reduced domain, so the forms are read
    # directly with g = tau * f(v) computed once per tau column.
    factor = relativistic_factor(v)
    loads = [tau * factor for tau in axis]
    qh, qc, work = forms.qh, forms.qc, forms.work
    rows = []
    for z in axis:
        row = tuple(
            classify_signs(work(z, g, 1.0), qh(z, g, 1.0), qc(z, g, 1.0)) for g in loads
        )
        rows.append(row)
    return PhaseMap(v=v, z_axis=axis, tau_axis=axis, cells=tuple(rows), scenario=scenario)


def mode_fractions(phase_map: PhaseMap) -> dict[str, float]:
    """Fraction of cells per mode, keyed by mode token, all keys present."""
    counts = {mode.value: 0 for mode in OperationalMode}
    total = 0
    for row in phase_map.cells:
        for mode in row:
            counts[mode.value] += 1
            total += 1
    return {token: count / total for token, count in counts.items()}
