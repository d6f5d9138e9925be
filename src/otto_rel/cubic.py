"""Real-root solver for monic cubics via the trigonometric method.

For y^3 + A y^2 + B y + C with A^2 - 3B > 0, substituting
y = t - A/3 gives a depressed cubic whose roots are

    t_k = (2/3) sqrt(A^2 - 3B) cos[(theta - 2 pi k) / 3],   k = 0, 1, 2,
    theta = arccos(x),   x = -(2 A^3 - 9 A B + 27 C) / [2 (A^2 - 3B)^{3/2}].

When |x| <= 1 all three roots are real and k = 0 yields the largest one
(the principal branch).  When |x| > 1 only one real root exists and the
same formula continues analytically with

    cos(arccos(x) / 3)  ->  sign(x) cosh(arccosh(|x|) / 3),

which this module applies once |x| exceeds 1 by more than a clamp
tolerance of 1e-12 (arguments inside the tolerance band are clamped onto
[-1, 1], covering double roots computed in floating point).  Where |x|
overflows (A^2 - 3B is tiny, as for a load near 1e-155), cosh(arccosh(|x|) / 3)
is taken as (2|x|)^{1/3} / 2, which it equals to double precision there.  If
A^2 - 3B <= 0 (the cubic is monotone, or the spread underflowed to 0, as for
an expansion-quench load below about 1.5e-162), the root is bracketed by the
Cauchy bound and bisected until the midpoint rounds onto an endpoint.

Every returned root is validated by back-substitution: the residual must
not exceed RESIDUAL_TOL * max(1, |A|, |B|, |C|), failing which
CubicSolveError is raised rather than returning a silently wrong value.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .core import _Validated

#: Half-width of the band around |x| = 1 inside which the arccos argument
#: is clamped instead of switching to the hyperbolic branch.
CLAMP_EPS = 1e-12

#: Relative residual tolerance for root validation, read on every call.
RESIDUAL_TOL = 1e-9


class CubicSolveError(ArithmeticError):
    """Raised when a computed root fails the residual validation."""


class MonicCubic(_Validated, namedtuple("MonicCubic", "a2 a1 a0")):
    """Monic cubic polynomial y^3 + a2 y^2 + a1 y + a0."""

    __slots__ = ()

    def __new__(cls, a2: float, a1: float, a0: float) -> MonicCubic:
        coefficients = (a2, a1, a0)
        for name, value in zip(cls._fields, coefficients):
            if not math.isfinite(value):
                raise ValueError(f"coefficient {name} must be finite, got {value}")
        return tuple.__new__(cls, coefficients)

    def __call__(self, y: float) -> float:
        return ((y + self.a2) * y + self.a1) * y + self.a0

    def coefficient_scale(self) -> float:
        return max(1.0, abs(self.a2), abs(self.a1), abs(self.a0))


def _bisect_monotone(cubic: MonicCubic) -> float:
    # A^2 - 3B <= 0 makes the cubic monotone (or its spread underflowed, which
    # leaves |x| > 1): one real root, strictly inside the Cauchy bound; at
    # either bound |cubic| >= 1 (or inf), so neither end is a root.
    bound = 1.0 + max(abs(cubic.a2), abs(cubic.a1), abs(cubic.a0))
    lo, hi = -bound, bound
    f_lo, f_hi = cubic(lo), cubic(hi)
    # no fixed cap: a root far below the bound (1e-67, say) needs hundreds of halvings
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # adjacent doubles: keep the smaller residual
            return lo if abs(f_lo) <= abs(f_hi) else hi
        f_mid = cubic(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid


def principal_trig_root(cubic: MonicCubic) -> float:
    """Principal real root of the cubic (largest root when three are real).

    Uses the trigonometric form with the hyperbolic continuation described
    in the module docstring, falling back to bisection for monotone cubics.

    Raises
    ------
    CubicSolveError
        If the back-substituted residual exceeds
        RESIDUAL_TOL * max(1, |a2|, |a1|, |a0|).
    """
    a2, a1, a0 = cubic.a2, cubic.a1, cubic.a0
    spread = a2 * a2 - 3.0 * a1
    if spread <= 0.0:
        root = _bisect_monotone(cubic)
    else:
        half = math.sqrt(spread)
        numerator = 2.0 * a2 * a2 * a2 - 9.0 * a2 * a1 + 27.0 * a0
        scale = 2.0 * spread * half
        if scale < sys.float_info.min:
            # A subnormal load makes the product underflow (to 0 at worst);
            # dividing in two steps keeps the ratio, which is O(1).
            x = -(numerator / spread) / (2.0 * half)
        else:
            x = -numerator / scale
        if abs(x) <= 1.0:
            factor = math.cos(math.acos(x) / 3.0)
        elif abs(x) <= 1.0 + CLAMP_EPS:
            # Grazing a double root: the exact argument is +-1 up to rounding.
            factor = math.cos(math.acos(math.copysign(1.0, x)) / 3.0)
        elif math.isinf(x):
            # |x| beyond the largest double: cosh(arccosh|x| / 3) = (2|x|)**(1/3) / 2
            # = cbrt|numerator| / (2 half) to double precision.
            factor = math.copysign(abs(numerator) ** (1.0 / 3.0), x) / (2.0 * half)
        else:
            factor = math.copysign(math.cosh(math.acosh(abs(x)) / 3.0), x)
        root = -a2 / 3.0 + (2.0 / 3.0) * half * factor

    residual = abs(cubic(root))
    allowed = RESIDUAL_TOL * cubic.coefficient_scale()
    if not residual <= allowed:
        raise CubicSolveError(
            f"root {root} of y^3 + {a2} y^2 + {a1} y + {a0} has residual "
            f"{residual:.3e} above tolerance {allowed:.3e}"
        )
    return root
