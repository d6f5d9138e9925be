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
[-1, 1], covering double roots computed in floating point).  The cubic is
first rescaled by y = 2**k w, exact in binary, so that its coefficients are
near 1.  Where x is still not a double (A^2 - 3B <= 0, the cubic is
monotone, or |x| overflows, as for an expansion-quench load below about
1e-154), the one real root is Cardano's, followed by one Newton step.

Every returned root is validated by back-substitution: the residual must
not exceed RESIDUAL_TOL * max(1, |A|, |B|, |C|), failing which
CubicSolveError is raised rather than returning a silently wrong value.
"""

from __future__ import annotations

import math
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


def principal_trig_root(cubic: MonicCubic) -> float:
    """Principal real root of the cubic (largest root when three are real).

    Uses the trigonometric form with the hyperbolic continuation described
    in the module docstring, and Cardano's root where its argument x is not
    a double.

    Raises
    ------
    CubicSolveError
        If the back-substituted residual exceeds
        RESIDUAL_TOL * max(1, |a2|, |a1|, |a0|).
    """
    # y = 2**k w, exact in binary, leaves the coefficients of the cubic in w near 1
    c2, c1, c0 = cubic
    k = math.frexp(max(abs(c2), math.sqrt(abs(c1)), abs(c0) ** (1.0 / 3.0)))[1]
    a2, a1, a0 = math.ldexp(c2, -k), math.ldexp(c1, -2 * k), math.ldexp(c0, -3 * k)
    spread = a2 * a2 - 3.0 * a1
    numerator = 2.0 * a2 * a2 * a2 - 9.0 * a2 * a1 + 27.0 * a0
    half = math.sqrt(spread) if spread > 0.0 else 0.0
    scale = 2.0 * spread * half
    x = -numerator / scale if scale > 0.0 else math.inf
    if math.isinf(x):
        # x is not a double: Cardano's one real root, whose two terms in t add
        disc = numerator * numerator - 4.0 * spread * spread * spread
        t = 0.5 * (numerator + math.copysign(math.sqrt(disc), numerator))
        c = math.copysign(abs(t) ** (1.0 / 3.0), t)
        w = -(a2 + c + spread / c) / 3.0 if c else -a2 / 3.0  # c = 0: a triple root
        value = ((w + a2) * w + a1) * w + a0
        slope = (3.0 * w + 2.0 * a2) * w + a1
        if slope:
            # one Newton step, kept where it lowers the residual: near a triple
            # root the slope is rounding noise and the step would leap away
            polished = w - value / slope
            if abs(((polished + a2) * polished + a1) * polished + a0) <= abs(value):
                w = polished
    else:
        if abs(x) <= 1.0:
            factor = math.cos(math.acos(x) / 3.0)
        elif abs(x) <= 1.0 + CLAMP_EPS:
            # Grazing a double root: the exact argument is +-1 up to rounding.
            factor = math.cos(math.acos(math.copysign(1.0, x)) / 3.0)
        else:
            factor = math.copysign(math.cosh(math.acosh(abs(x)) / 3.0), x)
        w = -a2 / 3.0 + (2.0 / 3.0) * half * factor
    root = math.ldexp(w, k)

    residual = abs(cubic(root))
    allowed = RESIDUAL_TOL * cubic.coefficient_scale()
    if not residual <= allowed:
        raise CubicSolveError(
            f"root {root} of y^3 + {c2} y^2 + {c1} y + {c0} has residual "
            f"{residual:.3e} above tolerance {allowed:.3e}"
        )
    return root
