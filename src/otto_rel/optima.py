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

optimize(objective, scenario, tau, v) is the one path that computes an
optimum; the efficiency root is the largest real root of the scenario
table's efficiency cubic (high_temperature.ScenarioForms).  The functions of
the Carnot efficiency eta_c = 1 - tau read optimize: eta_omega_* is the
efficiency it reports at the trade-off optimum, and eta_max_* is
peak_efficiency(g, scenario), the efficiency at the certified cubic root
that optimize(EFFICIENCY) reports.
Every closed-form candidate, the efficiency root behind eta_max and the work
optimum included, passes a cheap certificate before it is returned: it must
lie strictly inside the engine window, and the objective there must be no
lower than at z* -/+ ORACLE_AGREEMENT_TOL (each probe checked when it lies
inside the window).  For a unimodal objective this puts the true argmax
within ORACLE_AGREEMENT_TOL of z*, the bound to which the tests verify the
closed forms against the grid oracle.  A candidate that fails raises
NoInteriorOptimumError; no numeric search stands in for it.

Each entry point that takes (tau, v) forms the load g = tau*f(v) once with
reduced_load, which refuses a tau outside (0, 1) with ValueError.  Below
that everything takes g: each optimum builds one engine window from it, the
efficiency root, every candidate and probe read it, and the trade-off
optimum shares its window with its eta_max.  The window refuses a zero load
(a tau*f(v) that underflows, or peak_efficiency(0.0, ...)) with
NoInteriorOptimumError: it puts the efficiency root at z = 0, which is no
interior optimum rather than bad input.  A negative or non-finite load is
bad input and raises ValueError.  Since f(v) <= 1, the load is at
most tau < 1, so the window is never inverted; where its floor rounds to 1
it is empty, and every candidate is refused.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from enum import Enum

from .core import (
    SUDDEN_COMPRESSION,
    SUDDEN_EXPANSION,
    PerformanceRecord,
    Scenario,
    _efficiency,
    _Validated,
    omega_function,
)
from .cubic import principal_trig_root
from .high_temperature import reduced_load, scenario_forms

#: Largest gap in z allowed between a closed form and the true argmax;
#: also the step of the two probes of the closed-form certificate.
ORACLE_AGREEMENT_TOL = 1e-6


class NoInteriorOptimumError(ValueError):
    """No certified optimum lies inside the open engine window (lo, 1).

    The closed-form ratio fell outside the window or failed its
    certificate, the load g = tau*f(v) is 0, or the window is empty because
    its floor lo rounds to 1 as tau*f(v) -> 1.
    """


class Objective(str, Enum):
    EFFICIENCY = "eta"
    WORK = "work"
    OMEGA = "omega"


class OptimumReport(_Validated, namedtuple("OptimumReport", "z_star value_at_opt eta_at_opt")):
    """Certified optimal ratio plus the objective value and efficiency there."""

    __slots__ = ()

    def __new__(cls, z_star: float, value_at_opt: float, eta_at_opt: float) -> OptimumReport:
        if not 0.0 < z_star < 1.0:
            raise ValueError(f"z_star must lie in (0, 1), got {z_star}")
        return tuple.__new__(cls, (z_star, value_at_opt, eta_at_opt))


class _Window:
    """Closed forms and engine window (lo, 1) of one optimum at load g."""

    def __init__(self, g: float, scenario: Scenario) -> None:
        if not 0.0 <= g < math.inf:
            raise ValueError(f"reduced load g must be finite and non-negative, got {g}")
        self.g = g
        self.forms = scenario_forms(scenario)
        # a zero load puts the efficiency root at z = 0
        if g == 0.0:
            raise NoInteriorOptimumError("reduced load g = tau*f(v) is 0")
        self.lo = self.forms.engine_lower_z(g)

    def eta(self, z: float) -> float:
        """Efficiency at z, a ratio of the unit-free forms."""
        q_h, _, w_ext = self.forms.energies(z, self.g)
        value = _efficiency(w_ext, q_h)
        # lo < z implies q_h > 0 in exact arithmetic (the engine floor lies above
        # the heater edge), but the two edges can round together as g -> 1
        if value is None:
            raise NoInteriorOptimumError(
                f"ratio {z} fell outside the engine window at g={self.g}"
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
                    f"stationary ratio {candidate} is not a local maximum at g={self.g}"
                )
        return candidate, peak

    def peak(self) -> tuple[float, float]:
        """The certified root of the efficiency cubic and eta_max there."""
        # Below 2**-1021 the load's coefficients would be subnormal and lose
        # bits; in w = 2**64 z they are normal, and the root unscales exactly.
        k = 64 if self.g < 2.0 * sys.float_info.min else 0
        cubic = self.forms.efficiency_cubic(self.g, math.ldexp(1.0, k))
        return self.certified(math.ldexp(principal_trig_root(cubic), -k), self.eta)


def peak_efficiency(g: float, scenario: Scenario) -> float:
    """Maximum efficiency over z at the load g, at the certified cubic root."""
    return _Window(g, scenario).peak()[1]


# perfbench/tracer.py traces eta_max_* and eta_omega_* by name; figure 2 plots eta_omega_*,
# and eta_max_*, which no src/ code calls, leaves src/ with ROADMAP.md item 4
def eta_max_sc(eta_c: float, v: float) -> float:
    """Maximum efficiency against Carnot efficiency, compression quench."""
    return peak_efficiency(reduced_load(1.0 - eta_c, v), SUDDEN_COMPRESSION)


def eta_max_se(eta_c: float, v: float) -> float:
    """Maximum efficiency against Carnot efficiency, expansion quench."""
    return peak_efficiency(reduced_load(1.0 - eta_c, v), SUDDEN_EXPANSION)


def eta_omega_sc(eta_c: float, v: float) -> float:
    """Efficiency at the trade-off optimum, compression quench."""
    return optimize(Objective.OMEGA, SUDDEN_COMPRESSION, 1.0 - eta_c, v).eta_at_opt


def eta_omega_se(eta_c: float, v: float) -> float:
    """Efficiency at the trade-off optimum, expansion quench.

    Bounded by 1/2 for every (eta_c, v): the expansion quench wastes at
    least half the absorbed heat on parasitic excitation at this
    operating point.
    """
    return optimize(Objective.OMEGA, SUDDEN_EXPANSION, 1.0 - eta_c, v).eta_at_opt


def optimize(objective: Objective, scenario: Scenario, tau: float, v: float) -> OptimumReport:
    """Run one objective end to end and report the certified optimum.

    The work and trade-off values are unit-free: beta_h times the energy.
    Raises NoInteriorOptimumError when the closed form fails its certificate.
    """
    g = reduced_load(tau, v)
    w = _Window(g, scenario)
    forms = w.forms

    if objective == Objective.EFFICIENCY:
        z_star, value = w.peak()
    elif objective == Objective.WORK:
        z_star, value = w.certified(g ** (1.0 / 3.0), lambda z: forms.energies(z, g)[2])
    elif objective == Objective.OMEGA:
        # eta_max is certified on the same window
        _, cap = w.peak()
        z_star, value = w.certified(
            (g * (1.0 - 0.5 * cap)) ** (1.0 / 3.0),
            lambda z: omega_function(PerformanceRecord(*forms.energies(z, g)), cap),
        )
    else:
        raise ValueError(f"unknown objective {objective}")

    return OptimumReport(z_star=z_star, value_at_opt=value, eta_at_opt=w.eta(z_star))
