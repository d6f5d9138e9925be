"""Operational-mode classification and phase-map rasterization.

A cycle point either runs as an engine (W >= 0, Q_h >= 0, Q_c <= 0), a
refrigerator (W <= 0, Q_h <= 0, Q_c >= 0), a heater (W <= 0, Q_h <= 0,
Q_c <= 0), or a thermal accelerator (W <= 0, Q_h >= 0, Q_c <= 0).  The
mode is read from the computed signs; the closed-form mode edges in z
only tell rasterize where to look.  The tests check the sign route against
an independent classifier that reads the edges.  Quantities within
BOUNDARY_EPS of zero are deliberately left unclassified as Boundary.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from enum import Enum
from typing import Optional

from .core import Scenario, _Validated, relativistic_factor
from .high_temperature import ReducedParams, performance, scenario_forms

__all__ = [
    "BOUNDARY_EPS",
    "OperationalMode",
    "PhaseMap",
    "classify_signs",
    "classify_by_signs",
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


#: A run of equal mode along z: its first z index and its mode.
_Run = tuple[int, OperationalMode]

# Keyed by which of (W, Q_h, Q_c) exceed BOUNDARY_EPS.  For a quantity more
# than BOUNDARY_EPS from zero, not exceeding it means lying below -BOUNDARY_EPS.
_SIGN_TABLE = {
    (True, True, False): OperationalMode.ENGINE,
    (False, False, True): OperationalMode.REFRIGERATOR,
    (False, False, False): OperationalMode.HEATER,
    (False, True, False): OperationalMode.THERMAL_ACCELERATOR,
}


def classify_signs(w_ext: float, q_h: float, q_c: float) -> OperationalMode:
    """Map a (W, Q_h, Q_c) sign triple to its operational mode.

    Any quantity within BOUNDARY_EPS of zero (read on every call) sends
    the point to Boundary.  Sign patterns outside the four-mode table
    (for example W > 0 with both heats positive) cannot occur while the
    hot bath is hotter than the cold one; they indicate corrupted inputs
    and raise instead of guessing.  A nan quantity has no sign and raises
    FloatingPointError.
    """
    eps = BOUNDARY_EPS
    if abs(w_ext) > eps and abs(q_h) > eps and abs(q_c) > eps:
        mode = _SIGN_TABLE.get((w_ext > eps, q_h > eps, q_c > eps))
        if mode is None:
            signs = tuple(1 if x > eps else -1 for x in (w_ext, q_h, q_c))
            raise ValueError(
                f"sign pattern (W, Q_h, Q_c) = {signs} is inconsistent with a "
                "hot bath hotter than the cold bath"
            )
        return mode
    for x in (w_ext, q_h, q_c):
        if x != x:
            raise FloatingPointError(f"cannot classify a quantity that is not finite ({x!r})")
    return OperationalMode.BOUNDARY


# perfbench/tracer.py traces classify_by_signs by name; it leaves src/ with ROADMAP.md item 4
def classify_by_signs(r: ReducedParams, scenario: Scenario) -> OperationalMode:
    """Classify one reduced point by the signs of its heats and work (classify_signs)."""
    rec = performance(r, scenario)
    return classify_signs(rec.w_ext, rec.q_h, rec.q_c)


def _edges(g: float, scenario: Scenario) -> tuple[Optional[float], float, float]:
    """Ascending mode edges (refrigerator top, heater top, engine bottom).

    The refrigerator edge is None for the expansion quench when
    tau*f(v) <= 1/2: the required z**2 = 2*tau*f(v) - 1 has no real
    solution and the refrigerator region is absent.
    """
    forms = scenario_forms(scenario)
    return forms.fridge_top(g), forms.heater_top(g), forms.engine_lower_z(g)


class PhaseMap(_Validated, namedtuple("PhaseMap", "v z_axis tau_axis runs scenario")):
    """Immutable mode raster over the open unit square of (z, tau).

    runs[j] holds tau column j as runs of equal mode along z: (start, mode)
    pairs with rising starts, the first at 0, each run ending where the
    next starts (the last at the end of z_axis).  Adjacent runs differ in
    mode, so equal rasters have equal runs.
    """

    __slots__ = ()

    def __new__(
        cls,
        v: float,
        z_axis: tuple[float, ...],
        tau_axis: tuple[float, ...],
        runs: tuple[tuple[_Run, ...], ...],
        scenario: Scenario,
    ) -> PhaseMap:
        if len(runs) != len(tau_axis):
            raise ValueError("runs column count must match tau_axis length")
        size = len(z_axis)
        for column in runs:
            if not column or column[0][0] != 0 or column[-1][0] >= size:
                raise ValueError("each column's runs must start at 0 and inside z_axis")
            for (start, mode), (after, next_mode) in zip(column, column[1:]):
                if after <= start or next_mode is mode:
                    raise ValueError("run starts must rise and adjacent modes differ")
        return tuple.__new__(cls, (v, z_axis, tau_axis, runs, scenario))


def _merge(classified: list[_Run]) -> Optional[list[_Run]]:
    """Runs from (index, mode) pairs in ascending index, the first at 0.

    None when the mode changes across unclassified cells, where its edge
    is unknown.
    """
    runs = [classified[0]]
    for (before, _), (i, mode) in zip(classified, classified[1:]):
        if mode is not runs[-1][1]:
            if i != before + 1:
                return None
            runs.append((i, mode))
    return runs


def _column_runs(scenario: Scenario, axis: tuple[float, ...], g: float) -> tuple[_Run, ...]:
    """Runs of one tau column at load g, certified cell by cell at each edge.

    Q_h and Q_c are monotone in z, and W rises up to the maximum-work
    ratio g**(1/3) and falls after it to 0 at z = 1, so each comes near
    zero only at its one sign change (and W also near z = 1): the
    closed-form edges predict every run end.  The cells on both sides of each predicted edge and the first and
    last cells are classified exactly from the forms, widening outward
    while they are Boundary.  No predicted edge lies between two
    neighbouring classified cells, so their modes must agree; where they
    do not, the whole column is classified cell by cell instead.
    """
    forms = scenario_forms(scenario)

    def mode_at(i: int) -> OperationalMode:
        z = axis[i]
        return classify_signs(forms.work(z, g), forms.qh(z, g), forms.qc(z, g))

    last = len(axis) - 1
    pending = [0, last]
    for edge in _edges(g, scenario):
        if edge is not None:
            i = bisect_left(axis, edge)
            pending += [i - 1, i]
    known: dict[int, OperationalMode] = {}
    while pending:
        i = pending.pop()
        if 0 <= i <= last and i not in known:
            known[i] = mode_at(i)
            if known[i] is OperationalMode.BOUNDARY:
                pending += [i - 1, i + 1]
    runs = _merge(sorted(known.items()))
    if runs is None:
        runs = _merge([(i, mode_at(i)) for i in range(len(axis))])
    return tuple(runs)


def rasterize(scenario: Scenario, v: float, resolution: int = 200) -> PhaseMap:
    """Classify cell centers of a resolution x resolution grid on (0,1)^2.

    Centers sit at (i + 0.5)/resolution, so the degenerate edges z = 0,
    tau = 0, and tau = 1 are never sampled.  Each tau column is found as
    a few runs along z (see _column_runs) equal to the per-cell
    classification, at O(resolution) classifications per map.
    Deterministic: same inputs, same map.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    if not 0.0 < v < 1.0:
        raise ValueError(f"velocity v must lie in (0, 1), got {v}")
    axis = tuple((i + 0.5) / resolution for i in range(resolution))
    # Every cell sits inside the reduced domain, so the forms are read
    # directly with g = tau * f(v) computed once per tau column.
    factor = relativistic_factor(v)
    runs = tuple(_column_runs(scenario, axis, tau * factor) for tau in axis)
    return PhaseMap(v=v, z_axis=axis, tau_axis=axis, runs=runs, scenario=scenario)


def mode_fractions(phase_map: PhaseMap) -> dict[str, float]:
    """Fraction of cells per mode, keyed by mode token, all keys present."""
    counts = dict.fromkeys(OperationalMode, 0)
    size = len(phase_map.z_axis)
    for column in phase_map.runs:
        end = size
        for start, mode in reversed(column):
            counts[mode] += end - start
            end = start
    total = sum(counts.values())
    return {mode.value: count / total for mode, count in counts.items()}
