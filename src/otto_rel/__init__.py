"""Asymmetric relativistic quantum Otto cycle: energetics, optima, phases.

The package computes exact and high-temperature cycle energetics for a
relativistically boosted harmonic working medium whose two work strokes
may be quenched asymmetrically, locates the efficiency / work /
trade-off optima in closed form with independent numeric verification,
classifies operational modes, and ships a CLI (`otto-rel`) that emits
reproducible CSV/JSON.

``__all__`` below is the package's whole surface: the paper's quantities
and the records, errors and enums they take, return or raise.  The
machinery behind them is imported from its module, for example
``from otto_rel.cubic import principal_trig_root``.
"""

# perfbench/tracer.py finds oracle.maximize only once otto_rel.oracle is imported
from . import oracle  # noqa: F401
from .core import (
    SUDDEN_COMPRESSION, SUDDEN_EXPANSION, CycleParams, PerformanceRecord,
    heats_and_work, omega_function, relativistic_factor,
)
from .cubic import CubicSolveError
from .high_temperature import ReducedParams, performance, reduced_load
from .optima import (
    NoInteriorOptimumError, Objective, OptimumReport, eta_omega_sc, eta_omega_se,
    optimize, peak_efficiency,
)
from .phase_diagram import OperationalMode, PhaseMap, mode_fractions, rasterize

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # otto_rel.core
    "SUDDEN_COMPRESSION", "SUDDEN_EXPANSION", "CycleParams", "PerformanceRecord",
    "heats_and_work", "omega_function", "relativistic_factor",
    # otto_rel.cubic
    "CubicSolveError",
    # otto_rel.high_temperature
    "ReducedParams", "performance", "reduced_load",
    # otto_rel.optima
    "NoInteriorOptimumError", "Objective", "OptimumReport", "eta_omega_sc", "eta_omega_se",
    "optimize", "peak_efficiency",
    # otto_rel.phase_diagram
    "OperationalMode", "PhaseMap", "mode_fractions", "rasterize",
]
