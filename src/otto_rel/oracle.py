"""Derivative-free numeric checks used to verify the closed forms.

Every analytic optimum in this package is cross-checked against this
module: a deterministic coarse grid scan followed by golden-section
refinement of the best bracket (maximize), and a Richardson-extrapolated
central difference for stationarity checks (derivative_check).  All
routines are pure functions of their inputs so repeated runs produce
bit-identical results.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

__all__ = [
    "OracleFailure",
    "DerivativeReport",
    "maximize",
    "derivative_check",
]

#: Samples of the coarse scan, placed uniformly on [lo, hi] with both ends.
GRID_POINTS = 2048
#: Bracket width at which the golden-section refinement stops.
REFINE_TOL = 1e-10

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


class OracleFailure(RuntimeError):
    """Raised when a scan produces no finite sample to refine."""


def _safe(f: Callable[[float], float], x: float) -> float:
    y = f(x)
    if y is None or not math.isfinite(y):
        return -math.inf
    return y


def maximize(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Locate the maximum of f on the window [lo, hi].

    GRID_POINTS samples are placed uniformly on [lo, hi] including the
    endpoints; the winning sample's bracket (one grid cell to each side)
    is refined by golden section until its width drops below REFINE_TOL.
    Returns (argmax, f(argmax)).  Non-finite samples are skipped during
    the scan and treated as -inf during refinement; the refinement never
    evaluates f outside [lo, hi].

    Raises
    ------
    ValueError
        If the window is not finite or is empty (lo >= hi).
    OracleFailure
        If every grid sample is non-finite.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("scan window must be finite")
    if not lo < hi:
        raise ValueError(f"scan window is empty: [{lo}, {hi}]")
    n = GRID_POINTS
    step = (hi - lo) / (n - 1)
    best_i = -1
    best_y = -math.inf
    for i in range(n):
        x = lo + step * i
        y = _safe(f, x)
        if y > best_y:
            best_i, best_y = i, y
    if best_i < 0:
        raise OracleFailure(f"no finite samples on [{lo}, {hi}] with {n} grid points")

    a = lo + step * max(best_i - 1, 0)
    b = lo + step * min(best_i + 1, n - 1)

    # Golden-section refinement of the winning bracket.
    width = b - a
    x1 = a + _INV_PHI2 * width
    x2 = a + _INV_PHI * width
    f1 = _safe(f, x1)
    f2 = _safe(f, x2)
    while width > REFINE_TOL:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            width = b - a
            x1 = a + _INV_PHI2 * width
            f1 = _safe(f, x1)
        else:
            a, x1, f1 = x1, x2, f2
            width = b - a
            x2 = a + _INV_PHI * width
            f2 = _safe(f, x2)
    x_star = 0.5 * (a + b)
    return x_star, _safe(f, x_star)


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
