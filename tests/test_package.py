"""The package's exported surface: what the CLI and the paper's quantities need."""

import otto_rel

# Every name otto_rel.__all__ re-exports.  The tests' own references
# (tests/_scaffold.py) stay out of it; adding a name here is a decision.
EXPORTED = {
    "__version__",
    # otto_rel.core
    "BOTH_ADIABATIC", "BOTH_SUDDEN", "SUDDEN_COMPRESSION", "SUDDEN_EXPANSION",
    "CycleParams", "EnergyBook", "PerformanceRecord", "Scenario", "StrokeProtocol",
    "adiabaticity", "corner_energies", "heats_and_work", "omega_function",
    "relativistic_factor",
    # otto_rel.high_temperature
    "ReducedParams", "ScenarioForms", "eta", "performance", "qh", "reduced_load",
    "scenario_forms", "work",
    # otto_rel.cubic
    "CubicSolveError", "MonicCubic", "principal_trig_root",
    # otto_rel.oracle
    "OracleFailure", "maximize",
    # otto_rel.optima
    "NoInteriorOptimumError", "ORACLE_AGREEMENT_TOL", "Objective",
    "OptimumReport", "eta_max_sc", "eta_max_se", "eta_omega_sc", "eta_omega_se",
    "optimize", "peak_efficiency",
    # otto_rel.phase_diagram
    "BOUNDARY_EPS", "OperationalMode", "PhaseMap", "classify_by_signs", "classify_signs",
    "mode_fractions", "rasterize",
}


def test_exported_surface_is_exactly_the_listed_names():
    assert len(otto_rel.__all__) == len(set(otto_rel.__all__)) == len(EXPORTED) == 45
    assert set(otto_rel.__all__) == EXPORTED
    # a raster expands to cells only in the tests (tests/_scaffold.py)
    assert not hasattr(otto_rel.PhaseMap, "cells")
    assert otto_rel.PhaseMap._fields == ("v", "axis", "runs")
    assert not hasattr(otto_rel.CycleParams, "tau")
