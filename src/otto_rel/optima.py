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
  stationarity condition to z**3 = g (1 - eta_max/2), so the optimum is
  (g (1 - eta_max/2))**(1/3).

Every closed-form candidate, the efficiency root behind eta_max included,
passes a cheap certificate before it is returned: it must lie strictly
inside the engine window, and the objective there must be no lower than
at z* -/+ ORACLE_AGREEMENT_TOL (each probe checked when it lies inside the
window).  For a unimodal objective this puts the true argmax within
ORACLE_AGREEMENT_TOL of z*, the bound to which the tests verify the closed
forms against the grid oracle.  A candidate that fails raises
NoInteriorOptimumError; no numeric search stands in for it.

Each call builds the load g and the engine window once; every candidate,
probe and efficiency reads them, and the trade-off optimum shares its
window with the eta_max it needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import (
    SUDDEN_COMPRESSION,
    SUDDEN_EXPANSION,
    PerformanceRecord,
    Scenario,
    _efficiency,
    omega_function,
    relativistic_factor,
)
from .cubic import MonicCubic, principal_trig_root
from .high_temperature import ReducedParams, performance, scenario_forms

__all__ = [
    "ORACLE_AGREEMENT_TOL",
    "Objective",
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

#: Largest gap in z allowed between a closed form and the true argmax;
#: also the step of the two probes of the closed-form certificate.
ORACLE_AGREEMENT_TOL = 1e-6


class NoEngineWindowError(ValueError):
    """The work expression is nonpositive on all of (0, 1)."""


class NoInteriorOptimumError(ValueError):
    """The stationary point fell outside the open interval (0, 1)."""


class Objective(str, Enum):
    EFFICIENCY = "eta"
    WORK = "work"
    OMEGA = "omega"


@dataclass(frozen=True)
class OptimizationTarget:
    """An objective paired with one of the two asymmetric scenarios."""

    objective: Objective
    scenario: Scenario

    def __post_init__(self) -> None:
        scenario_forms(self.scenario)


@dataclass(frozen=True)
class OptimumReport:
    """Certified optimal ratio plus the objective value and efficiency there."""

    z_star: float
    value_at_opt: float
    eta_at_opt: float

    def __post_init__(self) -> None:
        if not 0.0 < self.z_star < 1.0:
            raise ValueError(f"z_star must lie in (0, 1), got {self.z_star}")


def _validate_tau_v(tau: float, v: float) -> None:
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    if not 0.0 <= v < 1.0:
        raise ValueError(f"v must lie in [0, 1), got {v}")


def _engine_load(tau: float, v: float) -> float:
    """The load g = tau * f(v), after checking that it leaves an engine window."""
    g = tau * relativistic_factor(v)
    if g >= 1.0:
        raise NoEngineWindowError(
            f"reduced load tau*f(v) = {g} >= 1 leaves no engine window"
        )
    if g == 0.0:
        raise NoInteriorOptimumError(
            f"reduced load tau*f(v) underflows to 0 at tau={tau}, v={v}"
        )
    return g


class _Window:
    """Load g, closed forms and engine window (lo, 1) of a validated (tau, v)."""

    def __init__(self, tau: float, v: float, scenario: Scenario) -> None:
        self.tau, self.v = tau, v
        self.forms = scenario_forms(scenario)
        self.g = _engine_load(tau, v)
        self.lo = self.forms.engine_lower_z(self.g)

    def eta(self, z: float) -> float:
        """Efficiency at z, with beta_h = 1 (it cancels)."""
        value = _efficiency(self.forms.work(z, self.g, 1.0), self.forms.qh(z, self.g, 1.0))
        # q_h > 0 is not implied by lo < z: the expansion quench's lo rounds to 0 for g < 1.4e-17
        if value is None:
            raise NoInteriorOptimumError(
                f"ratio {z} fell outside the engine window at tau={self.tau}, v={self.v}"
            )
        return value

    def certified(self, candidate: float, objective) -> tuple[float, float]:
        """A closed-form optimal ratio and its objective value, once certified.

        The candidate must lie strictly inside the engine window, and the
        objective there must be no lower than at z* -/+ ORACLE_AGREEMENT_TOL
        (a probe outside the window is not checked; NaN fails).  Either
        failure raises NoInteriorOptimumError.
        """
        lo, hi = self.lo, 1.0
        if not lo < candidate < hi:
            raise NoInteriorOptimumError(
                f"stationary ratio {candidate} is outside the engine window ({lo}, {hi})"
            )
        peak = objective(candidate)
        for probe in (candidate - ORACLE_AGREEMENT_TOL, candidate + ORACLE_AGREEMENT_TOL):
            if lo < probe < hi and not objective(probe) <= peak:
                raise NoInteriorOptimumError(
                    f"stationary ratio {candidate} is not a local maximum "
                    f"at tau={self.tau}, v={self.v}"
                )
        return candidate, peak


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


def _z_star_eta(tau: float, v: float, scenario: Scenario) -> float:
    """The largest root of the efficiency cubic, once it is interior to (0, 1)."""
    # checked before (tau, v): tau = 0 puts the root at 0, so it has no interior optimum
    z = principal_trig_root(efficiency_cubic(tau * relativistic_factor(v), scenario))
    if not 0.0 < z < 1.0:
        raise NoInteriorOptimumError(f"stationary ratio {z} is not interior to (0, 1)")
    _validate_tau_v(tau, v)
    return z


def z_star_eta_sc(tau: float, v: float) -> float:
    """Efficiency-maximizing ratio, compression quench."""
    return _z_star_eta(tau, v, SUDDEN_COMPRESSION)


def z_star_eta_se(tau: float, v: float) -> float:
    """Efficiency-maximizing ratio, expansion quench.

    The cubic's trigonometric argument exceeds 1 when tau*f(v) < 1/2 and
    the solver continues through the hyperbolic branch automatically.
    """
    return _z_star_eta(tau, v, SUDDEN_EXPANSION)


def _carnot_tau(eta_c: float) -> float:
    """Temperature ratio tau = 1 - eta_c of a Carnot efficiency eta_c."""
    if not 0.0 < eta_c < 1.0:
        raise ValueError(f"Carnot efficiency must lie in (0, 1), got {eta_c}")
    return 1.0 - eta_c


def _peak(tau: float, v: float, scenario: Scenario) -> tuple[_Window, float, float]:
    """The window, the certified efficiency root and eta_max there."""
    z_eta = _z_star_eta(tau, v, scenario)
    w = _Window(tau, v, scenario)
    return (w, *w.certified(z_eta, w.eta))


def peak_efficiency(tau: float, v: float, scenario: Scenario) -> float:
    """Maximum efficiency over z at (tau, v), eta_c = 1 - tau, at the certified cubic root."""
    return _peak(tau, v, scenario)[2]


def eta_max_sc(eta_c: float, v: float) -> float:
    """Maximum efficiency against Carnot efficiency, compression quench."""
    return peak_efficiency(_carnot_tau(eta_c), v, SUDDEN_COMPRESSION)


def eta_max_se(eta_c: float, v: float) -> float:
    """Maximum efficiency against Carnot efficiency, expansion quench."""
    return peak_efficiency(_carnot_tau(eta_c), v, SUDDEN_EXPANSION)


def z_star_work(tau: float, v: float) -> float:
    """Work-maximizing ratio (tau*f(v))**(1/3), valid for both scenarios.

    Differentiating either work expression gives the same stationarity
    condition z**3 = tau*f(v), so the optimum is shared.

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
    return _Window(tau, v, scenario).lo, 1.0


def _omega_optimum(
    tau: float, v: float, scenario: Scenario, beta_h: float
) -> tuple[_Window, float, float]:
    """The window, the certified trade-off optimum and the objective there.

    Both stationarity conditions reduce to z**3 = g (1 - eta_max/2) with
    g = tau*f(v); eta_max is certified on the same window.
    """
    w, _, cap = _peak(tau, v, scenario)
    forms, g = w.forms, w.g

    def objective(z: float) -> float:
        record = PerformanceRecord(
            q_h=forms.qh(z, g, beta_h), q_c=forms.qc(z, g, beta_h), w_ext=forms.work(z, g, beta_h)
        )
        return omega_function(record, cap)

    return (w, *w.certified((g * (1.0 - 0.5 * cap)) ** (1.0 / 3.0), objective))


def z_star_omega_sc(tau: float, v: float) -> float:
    """Trade-off-maximizing ratio, compression quench: (g (1 - eta_max/2))**(1/3)."""
    return _omega_optimum(tau, v, SUDDEN_COMPRESSION, 1.0)[1]


def z_star_omega_se(tau: float, v: float) -> float:
    """Trade-off-maximizing ratio, expansion quench: (g (1 - eta_max/2))**(1/3)."""
    return _omega_optimum(tau, v, SUDDEN_EXPANSION, 1.0)[1]


def _eta_omega(eta_c: float, v: float, scenario: Scenario) -> float:
    w, z_star, _ = _omega_optimum(_carnot_tau(eta_c), v, scenario, 1.0)
    return w.eta(z_star)


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
    return math.sqrt(tau * relativistic_factor(v))


def optimize(
    target: OptimizationTarget, tau: float, v: float, beta_h: float = 1.0
) -> OptimumReport:
    """Run one objective end to end and report the certified optimum.

    Raises NoInteriorOptimumError when the closed form fails its certificate.
    """
    _validate_tau_v(tau, v)
    if not beta_h > 0.0:
        raise ValueError(f"beta_h must be positive, got {beta_h}")
    scenario = target.scenario

    if target.objective == Objective.EFFICIENCY:
        w, z_star, value = _peak(tau, v, scenario)
    elif target.objective == Objective.WORK:
        candidate = z_star_work(tau, v)
        w = _Window(tau, v, scenario)
        z_star, value = w.certified(candidate, lambda z: w.forms.work(z, w.g, beta_h))
    elif target.objective == Objective.OMEGA:
        w, z_star, value = _omega_optimum(tau, v, scenario, beta_h)
    else:
        raise ValueError(f"unknown objective {target.objective}")

    return OptimumReport(z_star=z_star, value_at_opt=value, eta_at_opt=w.eta(z_star))
