"""The package's exported surface: what the CLI and the paper's quantities need.

Also a convention of the tests themselves: a relative tolerance is enforced.
"""

import ast
import pathlib
import types

import otto_rel

# Every name otto_rel.__all__ exports.  The machinery behind them stays in
# its module (otto_rel.cubic.principal_trig_root, ...) and the tests' own
# references in tests/_scaffold.py; adding a name here is a decision.
EXPORTED = {
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
}


def test_exported_surface_is_exactly_the_listed_names():
    assert len(otto_rel.__all__) == len(set(otto_rel.__all__)) == len(EXPORTED) == 23
    assert set(otto_rel.__all__) == EXPORTED
    # a raster expands to cells only in the tests (tests/_scaffold.py)
    assert not hasattr(otto_rel.PhaseMap, "cells")
    assert otto_rel.PhaseMap._fields == ("v", "axis", "runs")
    assert not hasattr(otto_rel.CycleParams, "tau")


def test_namespace_holds_only_the_exports_and_submodules():
    # a name imported into __init__ but left out of __all__ is a stray re-export
    public = {name for name in vars(otto_rel) if not name.startswith("_")}
    submodules = {
        name
        for name in public
        if isinstance(getattr(otto_rel, name), types.ModuleType)
        and getattr(otto_rel, name).__name__ == f"otto_rel.{name}"
    }
    assert public - submodules == EXPORTED - {"__version__"}


def test_every_relative_approx_states_its_absolute_floor():
    # pytest.approx(x, rel=r) alone checks max(r*|x|, 1e-12): vacuous for tiny
    # x and thousands of ulps for x near 1, so a relative bound says abs= too
    offenders = []
    for path in sorted(pathlib.Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            keywords = {keyword.arg for keyword in node.keywords}
            if name == "approx" and "rel" in keywords and "abs" not in keywords:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
