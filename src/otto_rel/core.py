"""Exact four-stroke energetics of a relativistic quantum Otto cycle.

The working medium is a quantum harmonic oscillator translating at constant
velocity v (units of the speed of light) with respect to the cold bath, and
undergoing uniform acceleration during the hot stroke so that it thermalises
with an effective (Unruh) bath.  The cycle corners are A -> B -> C -> D:

    A -> B  compression work stroke: frequency raised omega_c -> omega_h,
    B -> C  hot isochore: heat exchange at fixed omega_h,
    C -> D  expansion work stroke: frequency lowered omega_h -> omega_c,
    D -> A  cold isochore: heat exchange at fixed omega_c.

Each work stroke is driven either quasistatically (adiabatic) or as an
instantaneous quench (sudden).  Nonadiabatic excitation enters through the
stroke factor lambda, equal to 1 for adiabatic driving and to
(omega_c^2 + omega_h^2) / (2 omega_c omega_h) >= 1 for a sudden quench.

With hbar = k_B = 1, the mean corner energies are

    <H>_A = sqrt(1 - v^2) / (2 beta_c v) * ln[sinh(x_plus) / sinh(x_minus)],
    <H>_B = (omega_h / omega_c) * lambda_AB * <H>_A,
    <H>_C = (omega_h / 2) * coth(beta_h omega_h / 2),
    <H>_D = (omega_c / 2) * lambda_CD * coth(beta_h omega_h / 2),

where x_plus/minus = (beta_c omega_c / 2) * sqrt((1 +- v) / (1 -+ v)).  Heat
absorbed by the oscillator counts positive:

    Q_h = <H>_C - <H>_B,   Q_c = <H>_A - <H>_D,   W_ext = Q_h + Q_c.

With x = beta_c omega_c / 2 and r = sqrt((1 - v)(1 + v)), the two sinh
arguments are b = x (1 - v) / r = x_minus and b + d with d = 2 x v / r, and
the log-sinh ratio is evaluated as L = d + log1p(e^(-2b) expm1(-2d) / expm1(-2b)).
No exponent in it is positive, so corner energies stay finite deep in the
cold regime (beta_c omega_c of several hundred), and no difference of
nearly equal numbers is formed, so every digit survives as v -> 0 and v -> 1.
Since r d / (2 beta_c v) = omega_c / 2, the A corner is formed as
<H>_A = (omega_c / 2) * (L / d): L/d, not L, is what gets scaled, and no
prefactor 1/(beta_c v) can overflow.  A d below the smallest normal double
has lost its digits and raises FloatingPointError.
"""

from __future__ import annotations

import enum
import math
import sys
from collections import namedtuple
from typing import NamedTuple, Optional


class _Validated:
    """Base of a validating namedtuple: _make, and so _replace, call __new__."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class StrokeProtocol(enum.Enum):
    """Driving protocol of a frequency work stroke."""

    ADIABATIC = "adiabatic"
    SUDDEN = "sudden"

    # Members are singletons that compare by identity, so they may hash by
    # identity too: a Scenario key then hashes without running
    # Enum.__hash__, which is Python code, once per stroke.
    __hash__ = object.__hash__


class Scenario(NamedTuple):
    """Protocol assignment for the two work strokes of the cycle."""

    compression: StrokeProtocol
    expansion: StrokeProtocol


#: Sudden compression stroke, adiabatic expansion stroke.
SUDDEN_COMPRESSION = Scenario(StrokeProtocol.SUDDEN, StrokeProtocol.ADIABATIC)
#: Adiabatic compression stroke, sudden expansion stroke.
SUDDEN_EXPANSION = Scenario(StrokeProtocol.ADIABATIC, StrokeProtocol.SUDDEN)


class CycleParams(_Validated, namedtuple("CycleParams", "v beta_c beta_h omega_c omega_h")):
    """Physical parameters of one cycle.

    Attributes
    ----------
    v:
        Oscillator velocity relative to the cold bath, 0 < v < 1.
    beta_c, beta_h:
        Inverse temperatures of the cold bath and of the effective hot
        bath, both positive and finite.
    omega_c, omega_h:
        Oscillator frequencies on the cold and hot isochores, with
        0 < omega_c <= omega_h < inf and a ratio omega_c/omega_h that
        does not underflow to 0.
    """

    __slots__ = ()

    def __new__(
        cls, v: float, beta_c: float, beta_h: float, omega_c: float, omega_h: float
    ) -> CycleParams:
        if not 0.0 < v < 1.0:
            raise ValueError(f"velocity must lie in (0, 1), got {v}")
        if not beta_c > 0.0:
            raise ValueError(f"beta_c must be positive, got {beta_c}")
        if not beta_h > 0.0:
            raise ValueError(f"beta_h must be positive, got {beta_h}")
        if not omega_c > 0.0:
            raise ValueError(f"omega_c must be positive, got {omega_c}")
        if not omega_h >= omega_c:
            raise ValueError(
                f"frequencies must satisfy omega_c <= omega_h, got "
                f"omega_c={omega_c}, omega_h={omega_h}"
            )
        fields = (v, beta_c, beta_h, omega_c, omega_h)
        # only +inf passes the checks above, and the exact path has no form for it
        for name, value in zip(cls._fields, fields):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        # the stroke factors need z = omega_c/omega_h > 0, which positive fields do not assure
        if omega_c / omega_h == 0.0:
            raise ValueError(
                f"frequency ratio omega_c/omega_h underflows to 0, got "
                f"omega_c={omega_c}, omega_h={omega_h}"
            )
        return tuple.__new__(cls, fields)

    @property
    def z(self) -> float:
        """Frequency ratio omega_c / omega_h, in (0, 1]."""
        return self.omega_c / self.omega_h


class EnergyBook(NamedTuple):
    """Mean oscillator energies at the four cycle corners."""

    h_a: float
    h_b: float
    h_c: float
    h_d: float


class PerformanceRecord(NamedTuple):
    """Per-cycle heats, net extracted work, and derived figures of merit."""

    q_h: float
    q_c: float
    w_ext: float

    @property
    def eta(self) -> Optional[float]:
        """Efficiency w_ext / q_h, or None when q_h <= 0 (not an engine)."""
        return _efficiency(self.w_ext, self.q_h)


def _efficiency(w_ext: float, q_h: float) -> Optional[float]:
    # the one place the engine efficiency is formed
    return w_ext / q_h if q_h > 0.0 else None


def relativistic_factor(v: float) -> float:
    """Velocity reduction factor f(v) = sqrt(1-v^2) ln[(1+v)/(1-v)] / (2v).

    Strictly decreasing on (0, 1) with f(0+) = 1 and f(v) -> 0 as v -> 1;
    v = 0 returns the limit 1 exactly, and no v returns more than 1, so
    tau*f(v) <= tau for every tau.  Both factors are formed without
    cancellation, so f stays within a few ulps on all of (0, 1):
    sqrt((1-v)(1+v)) in place of sqrt(1 - v*v), which loses the digits
    of 1 - v^2 as v -> 1, and below v = 1/3 the log as
    log1p(2v / (1-v)), since (1+v)/(1-v) rounds to a number near 1 whose
    log keeps only the digits of that rounding as v -> 0.  From 1/3 up
    the quotient is at least 2 and the plain log is as good; it is kept
    there because log1p(2.0) and log(3.0) differ by one ulp, which would
    move f(0.5) from 0.02 to 1.98 ulps off its correctly rounded value.

    Raises
    ------
    ValueError
        If v is outside [0, 1).
    """
    if not 0.0 <= v < 1.0:
        raise ValueError(f"velocity must satisfy 0 <= v < 1, got {v}")
    if v == 0.0:
        return 1.0
    r = math.sqrt((1.0 - v) * (1.0 + v))
    if v >= 1.0 / 3.0:
        log_ratio = math.log((1.0 + v) / (1.0 - v))
    else:
        log_ratio = math.log1p(2.0 * v / (1.0 - v))
    f = r * log_ratio / (2.0 * v)
    # f < 1 for v > 0, but at tiny v the rounded factors can land an ulp above it
    return f if f < 1.0 else 1.0


def adiabaticity(protocol: StrokeProtocol, z: float) -> float:
    """Excitation factor lambda of one work stroke.

    Quasistatic driving preserves occupations (lambda = 1); a sudden quench
    between frequencies with ratio z yields lambda = (z^2 + 1)/(2z) >= 1,
    symmetric under z -> 1/z.

    Raises
    ------
    ValueError
        If z <= 0.
    """
    if z <= 0.0:
        raise ValueError(f"frequency ratio must be positive, got {z}")
    if protocol is StrokeProtocol.ADIABATIC:
        return 1.0
    return (z * z + 1.0) / (2.0 * z)


def _log_sinh_ratio(b: float, d: float) -> float:
    """L = ln[sinh(b + d) / sinh(b)] for b > 0 and d >= 0, with no branch.

    sinh(b + d) / sinh(b) = e^d (1 - e^(-2b) e^(-2d)) / (1 - e^(-2b)), so
    the log is d plus log1p of e^(-2b) expm1(-2d) / expm1(-2b) >= 0.
    expm1 keeps d's digits when d << b (v -> 0) and b's when b -> 0
    (v -> 1).  The caller scales L/d, which lies between 1 and coth(b),
    rather than L, which shrinks with d.
    """
    return d + math.log1p(math.exp(-2.0 * b) * math.expm1(-2.0 * d) / math.expm1(-2.0 * b))


def corner_energies(params: CycleParams, scenario: Scenario) -> EnergyBook:
    """Mean energies <H>_A..<H>_D for one traversal of the cycle.

    The A-corner energy is the velocity-dressed thermal energy of the
    oscillator in the cold bath; B picks up the compression-stroke factor,
    C is the plain thermal energy in the effective hot bath, and D picks up
    the expansion-stroke factor.  <H>_A = (omega_c / 2) * (L / d) with
    d = 2x sinh(s) and L the log-sinh ratio; a d below the smallest
    normal double raises FloatingPointError, as does an x e^(-s) that
    underflows to 0.
    """
    lam_ab = adiabaticity(scenario.compression, params.z)
    lam_cd = adiabaticity(scenario.expansion, params.z)
    v, beta_c, omega_c = params.v, params.beta_c, params.omega_c
    x = 0.5 * beta_c * omega_c
    r = math.sqrt((1.0 - v) * (1.0 + v))
    b = x * (1.0 - v) / r  # x e^(-s), the smaller sinh argument
    if b == 0.0:
        raise FloatingPointError(
            f"x*e^(-s) = beta_c*omega_c/2*e^(-artanh v) underflows to 0 "
            f"(beta_c={beta_c!r}, omega_c={omega_c!r}, v={v!r})"
        )
    d = 2.0 * x * v / r  # 2x sinh(s), the gap between the sinh arguments
    if d < sys.float_info.min:
        raise FloatingPointError(
            f"2x*sinh(s) = beta_c*omega_c*sinh(artanh v) is below the smallest "
            f"normal double (beta_c={beta_c!r}, omega_c={omega_c!r}, v={v!r})"
        )
    # r d / (2 beta_c v) = x / beta_c = omega_c / 2; the parentheses form
    # L/d first, so omega_c * L cannot underflow on the way.
    h_a = 0.5 * omega_c * (_log_sinh_ratio(b, d) / d)
    h_b = (params.omega_h / params.omega_c) * lam_ab * h_a
    coth_hot = 1.0 / math.tanh(0.5 * params.beta_h * params.omega_h)
    h_c = 0.5 * params.omega_h * coth_hot
    h_d = 0.5 * params.omega_c * lam_cd * coth_hot
    return EnergyBook(h_a=h_a, h_b=h_b, h_c=h_c, h_d=h_d)


def heats_and_work(params: CycleParams, scenario: Scenario) -> PerformanceRecord:
    """Per-cycle heats and net work from the exact corner energies.

    Returns a record with q_h, q_c, w_ext = q_h + q_c and, when q_h > 0,
    the engine efficiency w_ext / q_h.
    """
    book = corner_energies(params, scenario)
    q_h = book.h_c - book.h_b
    q_c = book.h_a - book.h_d
    return PerformanceRecord(q_h=q_h, q_c=q_c, w_ext=q_h + q_c)


def omega_function(record: PerformanceRecord, eta_max: float) -> float:
    """Trade-off objective Omega = 2 w_ext - eta_max * q_h.

    Balances work output against the efficiency shortfall relative to the
    target eta_max; maximising it selects a compromise operating point
    between maximum work and maximum efficiency.

    Raises
    ------
    ValueError
        If eta_max is outside (0, 1].
    """
    if not 0.0 < eta_max <= 1.0:
        raise ValueError(f"eta_max must lie in (0, 1], got {eta_max}")
    return 2.0 * record.w_ext - eta_max * record.q_h
