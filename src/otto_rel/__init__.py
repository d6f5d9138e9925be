"""Asymmetric relativistic quantum Otto cycle: energetics, optima, phases.

The package computes exact and high-temperature cycle energetics for a
relativistically boosted harmonic working medium whose two work strokes
may be quenched asymmetrically, locates the efficiency / work /
trade-off optima in closed form with independent numeric verification,
classifies operational modes, and ships a CLI (`otto-rel`) that emits
reproducible CSV/JSON.
"""

from .core import (
    BOTH_ADIABATIC,
    BOTH_SUDDEN,
    SUDDEN_COMPRESSION,
    SUDDEN_EXPANSION,
    CycleParams,
    EnergyBook,
    PerformanceRecord,
    Scenario,
    StrokeProtocol,
    adiabaticity,
    corner_energies,
    efficiency,
    heats_and_work,
    omega_function,
    relativistic_factor,
)
from .cubic import CubicSolveError, MonicCubic, discriminant, principal_trig_root
from .high_temperature import (
    ReducedParams,
    engine_lower_z_sc,
    engine_lower_z_se,
    eta,
    performance,
    qc,
    qh,
    work,
)
from .optima import (
    ORACLE_AGREEMENT_TOL,
    NoEngineWindowError,
    NoInteriorOptimumError,
    Objective,
    OptimizationTarget,
    OptimumReport,
    OptimumSource,
    efficiency_cubic,
    engine_window,
    eta_max_sc,
    eta_max_se,
    eta_mw_sc,
    eta_mw_se,
    eta_omega_sc,
    eta_omega_se,
    omega_value,
    optimize,
    work_crossing_z,
    z_star_eta_sc,
    z_star_eta_se,
    z_star_omega_sc,
    z_star_omega_se,
    z_star_work,
)
from .oracle import (
    DerivativeReport,
    OracleFailure,
    ScanSpec,
    derivative_check,
    find_root,
    maximize,
)
from .phase_diagram import (
    BOUNDARY_EPS,
    OperationalMode,
    PhaseMap,
    boundary_curves,
    classify_by_signs,
    classify_by_table,
    classify_signs,
    mode_fractions,
    rasterize,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
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
    # high temperature
    "ReducedParams",
    "qh",
    "qc",
    "work",
    "eta",
    "performance",
    "engine_lower_z_sc",
    "engine_lower_z_se",
    # cubic
    "MonicCubic",
    "CubicSolveError",
    "discriminant",
    "principal_trig_root",
    # oracle
    "ScanSpec",
    "OracleFailure",
    "DerivativeReport",
    "maximize",
    "find_root",
    "derivative_check",
    # optima
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
    # phase diagram
    "BOUNDARY_EPS",
    "OperationalMode",
    "PhaseMap",
    "classify_signs",
    "classify_by_signs",
    "classify_by_table",
    "boundary_curves",
    "rasterize",
    "mode_fractions",
]
