"""Exact cycle energetics: corner energies, heats, work, basic figures."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otto_rel import (
    BOTH_ADIABATIC,
    BOTH_SUDDEN,
    SUDDEN_COMPRESSION,
    SUDDEN_EXPANSION,
    CycleParams,
    PerformanceRecord,
    StrokeProtocol,
    adiabaticity,
    corner_energies,
    efficiency,
    heats_and_work,
    omega_function,
    relativistic_factor,
)
from _reference import REFERENCE

ALL_SCENARIOS = (SUDDEN_COMPRESSION, SUDDEN_EXPANSION, BOTH_ADIABATIC, BOTH_SUDDEN)

P0 = CycleParams(v=0.5, beta_c=1.0, beta_h=0.5, omega_c=1.0, omega_h=2.0)

_SCENARIO_KEY = {
    SUDDEN_COMPRESSION: "sc",
    SUDDEN_EXPANSION: "se",
    BOTH_ADIABATIC: "adiabatic",
    BOTH_SUDDEN: "sudden",
}


# -- velocity reduction factor ------------------------------------------------


def test_factor_frozen_values():
    table = REFERENCE["factor"]
    for key, want in table.items():
        got = relativistic_factor(float(key))
        assert got == pytest.approx(want, rel=1e-14), key


def test_factor_series_branch_is_continuous():
    # the closed form takes over at v = 1e-4; both branches must agree there
    lo = relativistic_factor(1e-4 * (1.0 - 1e-9))
    hi = relativistic_factor(1e-4)
    assert abs(lo - hi) < 1e-11


def test_factor_limits_and_monotonicity():
    assert relativistic_factor(0.0) == 1.0
    assert relativistic_factor(1e-8) == pytest.approx(1.0, abs=1e-15)
    grid = [i / 200 for i in range(1, 200)]
    vals = [relativistic_factor(v) for v in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert 0.0 < relativistic_factor(0.999999) < 0.02


def test_factor_domain_errors():
    with pytest.raises(ValueError):
        relativistic_factor(-0.1)
    with pytest.raises(ValueError):
        relativistic_factor(1.0)


# -- stroke excitation factor -------------------------------------------------


def test_adiabaticity_values():
    assert adiabaticity(StrokeProtocol.ADIABATIC, 0.37) == 1.0
    assert adiabaticity(StrokeProtocol.SUDDEN, 1.0) == 1.0
    assert adiabaticity(StrokeProtocol.SUDDEN, 0.5) == pytest.approx(1.25)
    with pytest.raises(ValueError):
        adiabaticity(StrokeProtocol.SUDDEN, 0.0)


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_sudden_factor_bounds_and_symmetry(z):
    lam = adiabaticity(StrokeProtocol.SUDDEN, z)
    assert lam >= 1.0
    assert lam == pytest.approx(adiabaticity(StrokeProtocol.SUDDEN, 1.0 / z), rel=1e-12)


# -- frozen exact records at the reference point ------------------------------


@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=lambda s: _SCENARIO_KEY[s])
def test_exact_records_match_reference(scenario):
    want = REFERENCE["exact_p0"][_SCENARIO_KEY[scenario]]
    book = corner_energies(P0, scenario)
    assert book.h_a == pytest.approx(want["h_a"], rel=1e-13)
    assert book.h_b == pytest.approx(want["h_b"], rel=1e-13)
    assert book.h_c == pytest.approx(want["h_c"], rel=1e-13)
    assert book.h_d == pytest.approx(want["h_d"], rel=1e-13)
    rec = heats_and_work(P0, scenario)
    assert rec.q_h == pytest.approx(want["q_h"], rel=1e-13)
    assert rec.q_c == pytest.approx(want["q_c"], rel=1e-13)
    assert rec.w_ext == pytest.approx(want["w_ext"], rel=1e-13)
    if want["eta"] is None:
        assert rec.eta is None
    else:
        assert rec.eta == pytest.approx(want["eta"], rel=1e-13)


def test_adiabatic_efficiency_is_one_minus_z():
    rec = heats_and_work(P0, BOTH_ADIABATIC)
    assert rec.eta == pytest.approx(1.0 - P0.z, rel=1e-14)


def test_sudden_strokes_cost_work():
    # extra excitation on both strokes can only reduce the net output
    base = heats_and_work(P0, BOTH_ADIABATIC).w_ext
    for scenario in (SUDDEN_COMPRESSION, SUDDEN_EXPANSION, BOTH_SUDDEN):
        assert heats_and_work(P0, scenario).w_ext < base


# -- first law and ordering properties ----------------------------------------

_params_strategy = st.builds(
    CycleParams,
    v=st.floats(min_value=1e-3, max_value=0.999),
    beta_c=st.floats(min_value=0.05, max_value=20.0),
    beta_h=st.floats(min_value=0.05, max_value=20.0),
    omega_c=st.floats(min_value=0.05, max_value=10.0),
    omega_h=st.floats(min_value=10.0, max_value=50.0),
)


@settings(max_examples=200, deadline=None)
@given(params=_params_strategy, idx=st.integers(min_value=0, max_value=3))
def test_first_law_closes_exactly(params, idx):
    scenario = ALL_SCENARIOS[idx]
    rec = heats_and_work(params, scenario)
    scale = max(1.0, abs(rec.q_h), abs(rec.q_c))
    assert abs(rec.w_ext - (rec.q_h + rec.q_c)) <= 1e-12 * scale


@settings(max_examples=200, deadline=None)
@given(params=_params_strategy, idx=st.integers(min_value=0, max_value=3))
def test_corner_energies_respect_ground_state(params, idx):
    book = corner_energies(params, ALL_SCENARIOS[idx])
    assert book.h_a >= params.omega_c / 2.0 * (1.0 - 1e-12)
    assert book.h_c >= params.omega_h / 2.0 * (1.0 - 1e-12)
    # sudden strokes only raise the post-stroke energy
    assert book.h_b >= params.omega_h / params.omega_c * book.h_a * (1.0 - 1e-12)
    assert book.h_d >= params.omega_c / params.omega_h * book.h_c * (1.0 - 1e-12)


def test_large_arguments_do_not_overflow():
    params = CycleParams(v=0.9, beta_c=500.0, beta_h=400.0, omega_c=800.0, omega_h=900.0)
    for scenario in ALL_SCENARIOS:
        rec = heats_and_work(params, scenario)
        for value in (rec.q_h, rec.q_c, rec.w_ext):
            assert math.isfinite(value)
    book = corner_energies(params, BOTH_ADIABATIC)
    # deep quantum regime: corners sit at their ground-state energies
    assert book.h_a == pytest.approx(params.omega_c / 2.0, rel=1e-9)
    assert book.h_c == pytest.approx(params.omega_h / 2.0, rel=1e-12)


def test_tiny_velocity_branch_is_continuous():
    # the moving-bath energy switches to a series below v = 1e-5
    base = dict(beta_c=1.0, beta_h=0.5, omega_c=1.0, omega_h=2.0)
    below = corner_energies(CycleParams(v=0.999e-5, **base), BOTH_ADIABATIC).h_a
    above = corner_energies(CycleParams(v=1.001e-5, **base), BOTH_ADIABATIC).h_a
    assert below == pytest.approx(above, rel=1e-9)


def test_params_validation():
    with pytest.raises(ValueError):
        CycleParams(v=1.0, beta_c=1.0, beta_h=1.0, omega_c=1.0, omega_h=2.0)
    with pytest.raises(ValueError):
        CycleParams(v=0.5, beta_c=-1.0, beta_h=1.0, omega_c=1.0, omega_h=2.0)
    with pytest.raises(ValueError):
        CycleParams(v=0.5, beta_c=1.0, beta_h=0.0, omega_c=1.0, omega_h=2.0)
    with pytest.raises(ValueError):
        CycleParams(v=0.5, beta_c=1.0, beta_h=1.0, omega_c=3.0, omega_h=2.0)
    p = CycleParams(v=0.5, beta_c=2.0, beta_h=1.0, omega_c=1.0, omega_h=4.0)
    assert p.z == 0.25 and p.tau == 0.5


# -- derived figures -----------------------------------------------------------


def test_efficiency_none_without_heat_uptake():
    rec = PerformanceRecord(q_h=-0.2, q_c=0.1, w_ext=-0.1)
    assert efficiency(rec) is None and rec.eta is None
    rec = PerformanceRecord(q_h=0.0, q_c=0.1, w_ext=0.1)
    assert efficiency(rec) is None and rec.eta is None
    rec = PerformanceRecord(q_h=0.5, q_c=-0.4, w_ext=0.1)
    assert efficiency(rec) == pytest.approx(0.2)
    # a hand-built record carries the same ratio as efficiency()
    assert rec.eta == efficiency(rec)


def test_efficiency_can_be_negative():
    # heat in, work in: accelerator-like bookkeeping keeps the ratio defined
    rec = PerformanceRecord(q_h=0.5, q_c=-0.7, w_ext=-0.2)
    assert efficiency(rec) == pytest.approx(-0.4)
    assert rec.eta == efficiency(rec)


def test_omega_function_arithmetic_and_domain():
    rec = PerformanceRecord(q_h=2.0, q_c=-1.5, w_ext=0.5)
    assert omega_function(rec, 0.25) == pytest.approx(2 * 0.5 - 0.25 * 2.0)
    with pytest.raises(ValueError):
        omega_function(rec, 0.0)
    with pytest.raises(ValueError):
        omega_function(rec, 1.5)
