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

The log-sinh ratio is evaluated through ln sinh(x) = x - ln 2 + ln(1 - e^(-2x))
so that corner energies stay finite deep in the cold regime (beta_c omega_c of
several hundred) and at velocities close to 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "StrokeProtocol",
    "Scenario",
    "SUDDEN_COMPRESSION",
    "SUDDEN_EXPANSION",
    "BOTH_ADIABATIC",
    "BOTH_SUDDEN",
    "CycleParams",
    "EnergyBook",
    "PerformanceRecord",
    "relativistic_factor",
    "adiabaticity",
    "corner_energies",
    "heats_and_work",
    "efficiency",
    "omega_function",
]

_LN2 = math.log(2.0)

# Closed form of the velocity factor is 0/0 at v = 0; below this threshold a
# fourth-order Taylor value is exact to double precision.
_FACTOR_SERIES_V = 1e-4

# Below this velocity the two log-sinh arguments are so close that direct
# subtraction loses digits; an odd-order expansion in artanh(v) takes over.
_RATIO_SERIES_V = 1e-5


class StrokeProtocol(enum.Enum):
    """Driving protocol of a frequency work stroke."""

    ADIABATIC = "adiabatic"
    SUDDEN = "sudden"


@dataclass(frozen=True)
class Scenario:
    """Protocol assignment for the two work strokes of the cycle."""

    compression: StrokeProtocol
    expansion: StrokeProtocol


#: Sudden compression stroke, adiabatic expansion stroke.
SUDDEN_COMPRESSION = Scenario(StrokeProtocol.SUDDEN, StrokeProtocol.ADIABATIC)
#: Adiabatic compression stroke, sudden expansion stroke.
SUDDEN_EXPANSION = Scenario(StrokeProtocol.ADIABATIC, StrokeProtocol.SUDDEN)
#: Fully quasistatic cycle.
BOTH_ADIABATIC = Scenario(StrokeProtocol.ADIABATIC, StrokeProtocol.ADIABATIC)
#: Both strokes quenched.
BOTH_SUDDEN = Scenario(StrokeProtocol.SUDDEN, StrokeProtocol.SUDDEN)


@dataclass(frozen=True)
class CycleParams:
    """Physical parameters of one cycle.

    Attributes
    ----------
    v:
        Oscillator velocity relative to the cold bath, 0 < v < 1.
    beta_c, beta_h:
        Inverse temperatures of the cold bath and of the effective hot
        bath, both positive.
    omega_c, omega_h:
        Oscillator frequencies on the cold and hot isochores, with
        0 < omega_c <= omega_h.
    """

    v: float
    beta_c: float
    beta_h: float
    omega_c: float
    omega_h: float

    def __post_init__(self) -> None:
        if not 0.0 < self.v < 1.0:
            raise ValueError(f"velocity must lie in (0, 1), got {self.v}")
        if not self.beta_c > 0.0:
            raise ValueError(f"beta_c must be positive, got {self.beta_c}")
        if not self.beta_h > 0.0:
            raise ValueError(f"beta_h must be positive, got {self.beta_h}")
        if not self.omega_c > 0.0:
            raise ValueError(f"omega_c must be positive, got {self.omega_c}")
        if not self.omega_h >= self.omega_c:
            raise ValueError(
                f"frequencies must satisfy omega_c <= omega_h, got "
                f"omega_c={self.omega_c}, omega_h={self.omega_h}"
            )

    @property
    def z(self) -> float:
        """Frequency ratio omega_c / omega_h, in (0, 1]."""
        return self.omega_c / self.omega_h

    @property
    def tau(self) -> float:
        """Inverse-temperature ratio beta_h / beta_c."""
        return self.beta_h / self.beta_c


@dataclass(frozen=True)
class EnergyBook:
    """Mean oscillator energies at the four cycle corners."""

    h_a: float
    h_b: float
    h_c: float
    h_d: float


@dataclass(frozen=True)
class PerformanceRecord:
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

    Strictly decreasing on (0, 1) with f(0+) = 1 and f(v) -> 0 as v -> 1.
    Below v = 1e-4 the closed form is an ill-conditioned 0/0 ratio and the
    Taylor value 1 - v^2/6 - 11 v^4/120 (obtained by dividing the series of
    sqrt(1-v^2) * artanh(v) by v) is used instead; the omitted v^6 term is
    below 1e-25 there.

    Raises
    ------
    ValueError
        If v is outside [0, 1).
    """
    if v < 0.0 or v >= 1.0:
        raise ValueError(f"velocity must satisfy 0 <= v < 1, got {v}")
    if v < _FACTOR_SERIES_V:
        v2 = v * v
        return 1.0 - v2 / 6.0 - 11.0 * v2 * v2 / 120.0
    return math.sqrt(1.0 - v * v) * math.log((1.0 + v) / (1.0 - v)) / (2.0 * v)


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


def _ln_sinh(x: float) -> float:
    # ln sinh(x) = x - ln 2 + ln(1 - e^(-2x)); never exponentiates a
    # positive argument, so x of several thousand is safe.
    return x - _LN2 + math.log(-math.expm1(-2.0 * x))


def _log_sinh_ratio(half_bw: float, v: float) -> float:
    """ln[sinh(half_bw e^s) / sinh(half_bw e^-s)] with s = artanh(v).

    The two arguments collapse onto each other as v -> 0, so below
    _RATIO_SERIES_V the odd expansion 2 s x coth(x) + O(s^3) replaces the
    explicit difference (relative truncation error about s^2/6).
    """
    if v < _RATIO_SERIES_V:
        s = math.atanh(v)
        return 2.0 * s * half_bw / math.tanh(half_bw)
    doppler = math.sqrt((1.0 + v) / (1.0 - v))
    return _ln_sinh(half_bw * doppler) - _ln_sinh(half_bw / doppler)


def corner_energies(params: CycleParams, scenario: Scenario) -> EnergyBook:
    """Mean energies <H>_A..<H>_D for one traversal of the cycle.

    The A-corner energy is the velocity-dressed thermal energy of the
    oscillator in the cold bath; B picks up the compression-stroke factor,
    C is the plain thermal energy in the effective hot bath, and D picks up
    the expansion-stroke factor.
    """
    lam_ab = adiabaticity(scenario.compression, params.z)
    lam_cd = adiabaticity(scenario.expansion, params.z)
    ratio = _log_sinh_ratio(0.5 * params.beta_c * params.omega_c, params.v)
    h_a = math.sqrt(1.0 - params.v * params.v) / (2.0 * params.beta_c * params.v) * ratio
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


def efficiency(record: PerformanceRecord) -> Optional[float]:
    """Engine efficiency w_ext / q_h, or None when q_h <= 0.

    A cycle that does not draw heat from the hot bath is not an engine;
    that outcome is signalled by the None return rather than an exception
    so sweeps can consume every sign combination.
    """
    return record.eta


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
