"""Derivative-free grid maximizer used to verify the closed forms.

The tests cross-check every analytic optimum of this package against
maximize: a deterministic coarse grid scan followed by golden-section
refinement of the best bracket.  It is a pure function of its inputs, so
repeated runs produce bit-identical results.  No src/ code calls it.
"""

from __future__ import annotations

import math
from typing import Callable

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


# perfbench/tracer.py traces maximize by name; it leaves src/ with ROADMAP.md item 4
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
