"""Grid-plus-golden-section maximizer."""

import math

import pytest

from otto_rel import (
    ReducedParams,
    omega_function,
    peak_efficiency,
    performance,
    reduced_load,
    relativistic_factor,
)
from otto_rel.high_temperature import eta, scenario_forms, work
from otto_rel.oracle import OracleFailure, maximize
from _reference import REFERENCE
from _scaffold import POINTS, each_scenario


def test_parabola_argmax():
    x, y = maximize(lambda z: -(z - 0.37) ** 2, 0.0, 1.0)
    assert x == pytest.approx(0.37, abs=1e-9)
    assert y == pytest.approx(0.0, abs=1e-17)


@pytest.mark.parametrize(
    "objective, key",
    [
        pytest.param(eta, "z_eta_{}", id="eta"),
        pytest.param(work, "z_work", id="work"),
        pytest.param(
            lambda r, scenario: omega_function(
                performance(r, scenario), peak_efficiency(r.g, scenario)
            ),
            "z_omega_{}",
            id="omega",
        ),
    ],
)
@pytest.mark.parametrize("point", sorted(POINTS))
@each_scenario
def test_argmax_matches_reference(case, point, objective, key):
    # the oracle's argmax of the package's own objective over the engine
    # window is the 60-digit stationary point: the closed-form optima are
    # maxima of what the package computes, with no derivative taken
    g = reduced_load(*POINTS[point])
    lo = scenario_forms(case.scenario).engine_lower_z(g)
    x, _ = maximize(lambda z: objective(ReducedParams(z=z, g=g), case.scenario), lo, 1.0)
    assert x == pytest.approx(REFERENCE["optima"][point][key.format(case.token)], abs=1e-8)


def test_none_and_nan_samples_are_skipped():
    def f(z):
        if z < 0.3:
            return None
        if z < 0.4:
            return math.nan
        return -(z - 0.6) ** 2

    x, _ = maximize(f, 0.0, 1.0)
    assert x == pytest.approx(0.6, abs=1e-9)


def test_all_nonfinite_raises():
    with pytest.raises(OracleFailure):
        maximize(lambda z: math.nan, 0.0, 1.0)


def test_refinement_respects_window():
    calls = []

    def f(z):
        calls.append(z)
        return z  # maximum sits on the upper endpoint

    lo, hi = 0.25, 0.75
    x, _ = maximize(f, lo, hi)
    assert x == pytest.approx(hi, abs=1e-9)
    assert all(lo <= z <= hi for z in calls)


def test_maximize_is_deterministic():
    g = 0.5 * relativistic_factor(0.5)
    f = lambda z: (1.0 - z) * (2 * z * z - g * (1 + z)) / (2 * z * z)
    assert maximize(f, 0.01, 0.999) == maximize(f, 0.01, 0.999)


def test_maximize_window_validation():
    for lo, hi, message in (
        (math.inf, 1.0, "scan window must be finite"),
        (-math.inf, 1.0, "scan window must be finite"),
        (0.8, 0.2, "scan window is empty: [0.8, 0.2]"),
        (0.0, 0.0, "scan window is empty: [0.0, 0.0]"),
    ):
        calls = []
        with pytest.raises(ValueError) as caught:
            maximize(calls.append, lo, hi)
        assert str(caught.value) == message
        assert calls == []
