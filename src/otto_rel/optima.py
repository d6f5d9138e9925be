"""Optimal frequency ratios for three objectives, certified locally.

For each asymmetric scenario the package optimizes the reduced cycle over
the compression ratio z at fixed (tau, v), with g = tau*f(v):

* maximum efficiency    -- the stationarity condition is a cubic in z,
  solved exactly by the trigonometric method (see cubic module);
* maximum work          -- z = g**(1/3), shared by both scenarios because
  the work expressions differ only by a z-independent reparametrization
  of the stationarity condition;
* maximum trade-off     -- the objective 2*W - eta_max*Q_h of Hernandez
  et al., Phys. Rev. E 63, 037102 (2001).  Both scenarios reduce its
  stationarity condition to z**3 = g (1 - eta_max/2), so the maximizer is
  (g (1 - eta_max/2))**(1/3).

Every closed-form candidate passes a cheap certificate before it is
labeled closed-form: it must be finite, lie strictly inside the engine
window, and beat its two neighbours at a relative step of 1e-6.  A
candidate that fails is replaced by the grid oracle's argmax and labeled
oracle-fallback, so a corrupt closed form stays visible instead of fatal.
The oracle verifies the closed forms in the tests, within
ORACLE_AGREEMENT_TOL, and is not run when the certificate passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import (
    SUDDEN_COMPRESSION,
    SUDDEN_EXPANSION,
    Scenario,
    omega_function,
    relativistic_factor,
)
from .cubic import MonicCubic, principal_trig_root
from .high_temperature import ReducedParams, eta, performance, scenario_forms, work
from .oracle import ScanSpec, maximize

__all__ = [
    "ORACLE_AGREEMENT_TOL",
    "Objective",
    "OptimumSource",
    "OptimizationTarget",
    "OptimumReport",
    "NoEngineWindowError",
    "NoInteriorOptimumError",
    "efficiency_cubic",
    "z_star_eta_sc",
    "z_star_eta_se",
    "eta_max_sc",
    "eta_max_se",
    "peak_efficiency",
    "z_star_work",
    "eta_mw_sc",
    "eta_mw_se",
    "omega_value",
    "engine_window",
    "z_star_omega_sc",
    "z_star_omega_se",
    "eta_omega_sc",
    "eta_omega_se",
    "work_crossing_z",
    "optimize",
]

#: Largest gap in z allowed between a closed form and the grid oracle.
ORACLE_AGREEMENT_TOL = 1e-6

#: Relative step of the two probes of the closed-form certificate.
CERTIFICATE_STEP = 1e-6


class NoEngineWindowError(ValueError):
    """The work expression is nonpositive on all of (0, 1)."""


class NoInteriorOptimumError(ValueError):
    """The stationary point fell outside the open interval (0, 1)."""


class Objective(str, Enum):
    EFFICIENCY = "eta"
    WORK = "work"
    OMEGA = "omega"


class OptimumSource(str, Enum):
    CLOSED_FORM = "closed-form"
    ORACLE_FALLBACK = "oracle-fallback"


@dataclass(frozen=True)
class OptimizationTarget:
    """An objective paired with one of the two asymmetric scenarios."""

    objective: Objective
    scenario: Scenario

    def __post_init__(self) -> None:
        scenario_forms(self.scenario)


@dataclass(frozen=True)
class OptimumReport:
    """Optimal ratio plus the objective value and efficiency reached there.

    source is closed-form when the analytic value passed the local
    certificate and oracle-fallback when the grid oracle supplied z_star.
    """

    z_star: float
    value_at_opt: float
    eta_at_opt: float
    source: OptimumSource

    def __post_init__(self) -> None:
        if not 0.0 < self.z_star < 1.0:
            raise ValueError(f"z_star must lie in (0, 1), got {self.z_star}")


def _validate_tau_v(tau: float, v: float, *, allow_zero_tau: bool = False) -> None:
    lo_ok = tau >= 0.0 if allow_zero_tau else tau > 0.0
    if not (lo_ok and tau < 1.0):
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    if not 0.0 <= v < 1.0:
        raise ValueError(f"v must lie in [0, 1), got {v}")


def _load(tau: float, v: float) -> float:
    """Reduced cold-bath load g = tau * f(v)."""
    return tau * relativistic_factor(v)


def _engine_load(tau: float, v: float) -> float:
    """The load g = tau * f(v), after checking that it leaves an engine window."""
    g = _load(tau, v)
    if g >= 1.0:
        raise NoEngineWindowError(
            f"reduced load tau*f(v) = {g} >= 1 leaves no engine window"
        )
    return g


def efficiency_cubic(g: float, scenario: Scenario) -> MonicCubic:
    """Monic cubic whose largest real root is the efficiency-optimal ratio.

    g is the reduced load tau*f(v).  Compression-quench scenario:
    z**3 - (3g/(2-g)) z + 2g**2/(2-g) = 0.  Expansion-quench scenario:
    z**3 - (3g/2) z**2 - g(1-2g)/2 = 0.  Both come from clearing
    denominators in d(eta)/dz = 0.
    """
    if not 0.0 <= g < 1.0:
        raise ValueError(f"reduced load must lie in [0, 1), got {g}")
    a2, a1, a0 = scenario_forms(scenario).efficiency_cubic(g)
    return MonicCubic(a2=a2, a1=a1, a0=a0)


def _interior(z: float) -> float:
    if not 0.0 < z < 1.0 or not math.isfinite(z):
        raise NoInteriorOptimumError(
            f"stationary ratio {z} is not interior to (0, 1)"
        )
    return z


def _z_star_eta(tau: float, v: float, scenario: Scenario) -> float:
    _validate_tau_v(tau, v, allow_zero_tau=True)
    return _interior(principal_trig_root(efficiency_cubic(_load(tau, v), scenario)))


def z_star_eta_sc(tau: float, v: float) -> float:
    """Efficiency-maximizing ratio, compression quench."""
    return _z_star_eta(tau, v, SUDDEN_COMPRESSION)


def z_star_eta_se(tau: float, v: float) -> float:
    """Efficiency-maximizing ratio, expansion quench.

    The cubic's trigonometric argument exceeds 1 when tau*f(v) < 1/2 and
    the solver continues through the hyperbolic branch automatically.
    """
    return _z_star_eta(tau, v, SUDDEN_EXPANSION)


def _eta_at(z: float, tau: float, v: float, scenario: Scenario) -> float:
    value = eta(ReducedParams(z=z, tau=tau, v=v), scenario)
    if value is None:
        raise NoInteriorOptimumError(
            f"ratio {z} fell outside the engine window at tau={tau}, v={v}"
        )
    return value


def _carnot_tau(eta_c: float) -> float:
    """Temperature ratio tau = 1 - eta_c of a Carnot efficiency eta_c."""
    if not 0.0 < eta_c < 1.0:
        raise ValueError(f"Carnot efficiency must lie in (0, 1), got {eta_c}")
    return 1.0 - eta_c


def peak_efficiency(tau: float, v: float, scenario: Scenario) -> float:
    """Maximum efficiency over z at (tau, v): eta_max at eta_c = 1 - tau."""
    return _eta_at(_z_star_eta(tau, v, scenario), tau, v, scenario)


def eta_max_sc(eta_c: float, v: float) -> float:
    """Maximum efficiency against Carnot efficiency, compression quench."""
    return peak_efficiency(_carnot_tau(eta_c), v, SUDDEN_COMPRESSION)


def eta_max_se(eta_c: float, v: float) -> float:
    """Maximum efficiency against Carnot efficiency, expansion quench."""
    return peak_efficiency(_carnot_tau(eta_c), v, SUDDEN_EXPANSION)


def z_star_work(tau: float, v: float) -> float:
    """Work-maximizing ratio (tau*f(v))**(1/3), valid for both scenarios.

    Differentiating either work expression gives the same stationarity
    condition z**3 = tau*f(v), so the maximizer is shared.

    Raises
    ------
    NoEngineWindowError
        When tau*f(v) >= 1 and no ratio in (0, 1) extracts work.  This
        needs tau >= 1, so the physical domain never triggers it; the
        guard exists for out-of-domain probing.
    """
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    if not 0.0 <= v < 1.0:
        raise ValueError(f"v must lie in [0, 1), got {v}")
    return _engine_load(tau, v) ** (1.0 / 3.0)


def _eta_mw(eta_c: float, v: float, scenario: Scenario) -> float:
    z = z_star_work(_carnot_tau(eta_c), v)
    return scenario_forms(scenario).eta_at_max_work(z)


def eta_mw_sc(eta_c: float, v: float) -> float:
    """Efficiency at maximum work, compression quench.

    Substituting z**3 = tau*f(v) into the efficiency ratio collapses it
    to (1-z)**2 (2+z) / (2 - z - z**3); the v-dependence enters only
    through z.
    """
    return _eta_mw(eta_c, v, SUDDEN_COMPRESSION)


def eta_mw_se(eta_c: float, v: float) -> float:
    """Efficiency at maximum work, expansion quench.

    Same substitution as eta_mw_sc; here the ratio collapses to
    (1-z)(1+2z) / (2(1+z)).
    """
    return _eta_mw(eta_c, v, SUDDEN_EXPANSION)


def omega_value(r: ReducedParams, scenario: Scenario) -> float:
    """Trade-off objective 2*W - eta_max*Q_h at one reduced point.

    eta_max is the scenario's maximum efficiency at (tau, v), recomputed
    per call; use a local closure when sweeping z at fixed (tau, v).
    """
    return omega_function(performance(r, scenario), peak_efficiency(r.tau, r.v, scenario))


def engine_window(tau: float, v: float, scenario: Scenario) -> tuple[float, float]:
    """The interval of ratios with nonnegative work output, (z_low, 1)."""
    _validate_tau_v(tau, v)
    return scenario_forms(scenario).engine_lower_z(_engine_load(tau, v)), 1.0


def _certified(
    candidate: float, tau: float, v: float, scenario: Scenario, objective
) -> tuple[float, OptimumSource]:
    """Accept a closed-form maximizer after a local check, else ask the oracle.

    The candidate is kept when it is finite, it and its two probes
    z* -/+ delta (delta = CERTIFICATE_STEP * z*) lie strictly inside the
    engine window, and the objective there is no lower than at either
    probe.  Otherwise the grid oracle's argmax on the window is returned.
    """
    lo, hi = engine_window(tau, v, scenario)
    delta = CERTIFICATE_STEP * candidate
    if math.isfinite(candidate) and lo < candidate - delta and candidate + delta < hi:
        peak = objective(candidate)
        if peak >= objective(candidate - delta) and peak >= objective(candidate + delta):
            return candidate, OptimumSource.CLOSED_FORM
    z_star, _ = maximize(objective, ScanSpec(lo=lo, hi=hi))
    return z_star, OptimumSource.ORACLE_FALLBACK


def _omega_problem(tau: float, v: float, scenario: Scenario, beta_h: float = 1.0):
    """Closed-form trade-off maximizer and the objective it maximizes.

    Both stationarity conditions reduce to z**3 = g (1 - eta_max/2) with
    g = tau*f(v); eta_max is computed once and shared with the objective.
    """
    cap = peak_efficiency(tau, v, scenario)

    def objective(z: float) -> float:
        r = ReducedParams(z=z, tau=tau, v=v, beta_h=beta_h)
        return omega_function(performance(r, scenario), cap)

    return (_load(tau, v) * (1.0 - 0.5 * cap)) ** (1.0 / 3.0), objective


def _z_star_omega(tau: float, v: float, scenario: Scenario) -> float:
    candidate, objective = _omega_problem(tau, v, scenario)
    return _certified(candidate, tau, v, scenario, objective)[0]


def z_star_omega_sc(tau: float, v: float) -> float:
    """Trade-off-maximizing ratio, compression quench: (g (1 - eta_max/2))**(1/3)."""
    return _z_star_omega(tau, v, SUDDEN_COMPRESSION)


def z_star_omega_se(tau: float, v: float) -> float:
    """Trade-off-maximizing ratio, expansion quench: (g (1 - eta_max/2))**(1/3)."""
    return _z_star_omega(tau, v, SUDDEN_EXPANSION)


def _eta_omega(eta_c: float, v: float, scenario: Scenario) -> float:
    tau = _carnot_tau(eta_c)
    return _eta_at(_z_star_omega(tau, v, scenario), tau, v, scenario)


def eta_omega_sc(eta_c: float, v: float) -> float:
    """Efficiency at the trade-off optimum, compression quench."""
    return _eta_omega(eta_c, v, SUDDEN_COMPRESSION)


def eta_omega_se(eta_c: float, v: float) -> float:
    """Efficiency at the trade-off optimum, expansion quench.

    Bounded by 1/2 for every (eta_c, v): the expansion quench wastes at
    least half the absorbed heat on parasitic excitation at this
    operating point.
    """
    return _eta_omega(eta_c, v, SUDDEN_EXPANSION)


def work_crossing_z(tau: float, v: float) -> float:
    """Ratio where the two scenarios extract equal work: sqrt(tau*f(v)).

    Below the crossing the expansion quench wins, above it the
    compression quench does.
    """
    _validate_tau_v(tau, v)
    return math.sqrt(_load(tau, v))


def optimize(
    target: OptimizationTarget, tau: float, v: float, beta_h: float = 1.0
) -> OptimumReport:
    """Run one objective end to end and report the certified optimum.

    The closed-form candidate is returned when it passes the local
    certificate; otherwise the grid oracle's argmax on the engine window
    is returned, and the report's source says which one it is.
    """
    _validate_tau_v(tau, v)
    if not beta_h > 0.0:
        raise ValueError(f"beta_h must be positive, got {beta_h}")
    scenario = target.scenario

    if target.objective == Objective.EFFICIENCY:
        candidate = _z_star_eta(tau, v, scenario)
        objective = lambda z: _eta_or_nan(z, tau, v, scenario)
    elif target.objective == Objective.WORK:
        candidate = z_star_work(tau, v)
        objective = lambda z: work(
            ReducedParams(z=z, tau=tau, v=v, beta_h=beta_h), scenario
        )
    elif target.objective == Objective.OMEGA:
        candidate, objective = _omega_problem(tau, v, scenario, beta_h)
    else:
        raise ValueError(f"unknown objective {target.objective}")

    z_star, source = _certified(candidate, tau, v, scenario, objective)
    return OptimumReport(
        z_star=z_star,
        value_at_opt=objective(z_star),
        eta_at_opt=_eta_at(z_star, tau, v, scenario),
        source=source,
    )


def _eta_or_nan(z: float, tau: float, v: float, scenario: Scenario) -> float:
    value = eta(ReducedParams(z=z, tau=tau, v=v), scenario)
    return math.nan if value is None else value
