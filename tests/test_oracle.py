"""Grid-plus-golden-section maximizer and derivative probe."""

import math

import pytest

from otto_rel import (
    SUDDEN_COMPRESSION,
    SUDDEN_EXPANSION,
    OracleFailure,
    ReducedParams,
    eta,
    maximize,
    omega_function,
    peak_efficiency,
    performance,
    reduced_load,
    relativistic_factor,
)
from _reference import REFERENCE
from _scaffold import derivative_check

OPT = REFERENCE["optima"]["tau=0.5,v=0.5"]


def reference_golden(f, lo, hi, tol=1e-10):
    """Plain golden-section maximizer, no grid stage, for cross-checking."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    inv_phi2 = (3.0 - math.sqrt(5.0)) / 2.0
    a, b = lo, hi
    width = b - a
    x1, x2 = a + inv_phi2 * width, a + inv_phi * width
    f1, f2 = f(x1), f(x2)
    while width > tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            width = b - a
            x1 = a + inv_phi2 * width
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            width = b - a
            x2 = a + inv_phi * width
            f2 = f(x2)
    return 0.5 * (a + b)


def test_parabola_argmax():
    x, y = maximize(lambda z: -(z - 0.37) ** 2, 0.0, 1.0)
    assert x == pytest.approx(0.37, abs=1e-9)
    assert y == pytest.approx(0.0, abs=1e-17)


def test_agrees_with_plain_golden_section():
    f = lambda z: -(z - 0.37) ** 2
    ours, _ = maximize(f, 0.0, 1.0)
    theirs = reference_golden(f, 0.0, 1.0)
    assert abs(ours - theirs) <= 1e-9


def test_efficiency_argmax_matches_reference():
    r = lambda z: ReducedParams(z=z, g=reduced_load(0.5, 0.5))
    for scenario, key in ((SUDDEN_COMPRESSION, "z_eta_sc"), (SUDDEN_EXPANSION, "z_eta_se")):
        f = lambda z, s=scenario: eta(r(z), s)
        x, _ = maximize(f, 0.01, 0.999)
        assert x == pytest.approx(OPT[key], abs=1e-8)


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


# -- derivative probe -----------------------------------------------------------


def test_derivative_of_smooth_function():
    report = derivative_check(math.sin, 0.7, h_schedule=(1e-2, 1e-3, 1e-4))
    assert report.value == pytest.approx(math.cos(0.7), abs=1e-11)
    assert report.converged
    assert len(report.samples) == 3
    # the default schedule reaches the same answer inside its noise floor
    default = derivative_check(math.sin, 0.7)
    assert default.value == pytest.approx(math.cos(0.7), abs=1e-9)


def test_exact_central_difference_short_circuits():
    # central differences of a quadratic are exact, so the gaps sit at
    # rounding level and the probe reports immediate convergence
    report = derivative_check(lambda z: z * z, 1.0)
    assert report.value == pytest.approx(2.0, abs=1e-10)
    assert report.converged
    assert report.order == math.inf


def test_observed_order_is_quadratic():
    report = derivative_check(math.exp, 0.3, h_schedule=(1e-2, 1e-3, 1e-4))
    assert report.converged
    assert report.order == pytest.approx(2.0, abs=0.1)


def test_stationarity_of_trade_off_maximum():
    g = reduced_load(0.5, 0.5)
    cap = peak_efficiency(g, SUDDEN_COMPRESSION)
    f = lambda z: omega_function(performance(ReducedParams(z, g), SUDDEN_COMPRESSION), cap)
    report = derivative_check(f, OPT["z_omega_sc"])
    assert abs(report.value) <= 1e-6


def test_h_schedule_validation():
    with pytest.raises(ValueError):
        derivative_check(math.sin, 0.0, h_schedule=(1e-4,))
    with pytest.raises(ValueError):
        derivative_check(math.sin, 0.0, h_schedule=(1e-4, 1e-4))
    with pytest.raises(ValueError):
        derivative_check(math.sin, 0.0, h_schedule=(1e-4, -1e-5))
