"""Exact cycle energetics: corner energies, heats, work, basic figures."""

import math
import random
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otto_rel import (
    SUDDEN_COMPRESSION,
    SUDDEN_EXPANSION,
    CycleParams,
    PerformanceRecord,
    heats_and_work,
    omega_function,
    relativistic_factor,
)
from otto_rel.core import StrokeProtocol, adiabaticity, corner_energies
from _reference import REFERENCE
from _scaffold import BOTH_ADIABATIC, BOTH_SUDDEN

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
        assert got == pytest.approx(want, rel=1e-14, abs=0), key


def test_factor_series_branch_is_continuous():
    # f must be smooth in v; a series branch once switched in at v = 1e-4
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


def test_factor_never_exceeds_one():
    # f(v) < 1 for v > 0, but at tiny v the rounded factors can land an ulp
    # above 1, where tau*f(v) then rounds to 1 at tau = 1 - 2**-53
    rng = random.Random(20261019)
    draws = [10.0 ** rng.uniform(-20.0, -0.5) for _ in range(200_000)]
    for v in (1.673740958757154e-16, *draws):
        assert relativistic_factor(v) <= 1.0, v


def test_factor_edges_match_reference():
    # keys are the exact reprs of v, the doubles the package sees
    for v_key, want in REFERENCE["factor_edges"].items():
        got = relativistic_factor(float(v_key))
        assert abs(got - want) <= 8 * math.ulp(want), (v_key, got, want)


def _decimal_factor(v: float) -> Decimal:
    """f(v) from its definition, with every digit of v kept."""
    with localcontext() as ctx:
        ctx.prec = 40 + max(0, -math.floor(math.log10(v)))
        d_v, one = Decimal(v), Decimal(1)
        return ((one - d_v) * (one + d_v)).sqrt() * ((one + d_v) / (one - d_v)).ln() / (2 * d_v)


@settings(max_examples=300, deadline=None)
@given(
    v=st.one_of(
        st.floats(min_value=1.0, max_value=320.0).map(lambda k: 10.0**-k),
        st.floats(min_value=1.0, max_value=15.9).map(lambda k: 1.0 - 10.0**-k),
        st.integers(min_value=1, max_value=2**53 - 1).map(lambda n: n / 2**53),
        # the two log forms meet at v = 1/3
        st.floats(min_value=0.3, max_value=0.37),
    )
)
def test_factor_keeps_its_digits(v):
    got = relativistic_factor(v)
    want = _decimal_factor(v)
    assert abs(Decimal(got) - want) <= 8 * Decimal(math.ulp(got)), (v, got, want)


def test_factor_domain_errors():
    with pytest.raises(ValueError):
        relativistic_factor(-0.1)
    with pytest.raises(ValueError):
        relativistic_factor(1.0)
    # nan fails every comparison, so a check written as v < 0 or v >= 1 let it
    # through, and the final clamp then returned 1.0
    with pytest.raises(ValueError):
        relativistic_factor(math.nan)


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
    assert lam == pytest.approx(adiabaticity(StrokeProtocol.SUDDEN, 1.0 / z), rel=1e-12, abs=0)


# -- frozen exact records at the reference point ------------------------------


@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=lambda s: _SCENARIO_KEY[s])
def test_exact_records_match_reference(scenario):
    want = REFERENCE["exact_p0"][_SCENARIO_KEY[scenario]]
    book = corner_energies(P0, scenario)
    assert book.h_a == pytest.approx(want["h_a"], rel=1e-13, abs=0)
    assert book.h_b == pytest.approx(want["h_b"], rel=1e-13, abs=0)
    assert book.h_c == pytest.approx(want["h_c"], rel=1e-13, abs=0)
    assert book.h_d == pytest.approx(want["h_d"], rel=1e-13, abs=0)
    rec = heats_and_work(P0, scenario)
    assert rec.q_h == pytest.approx(want["q_h"], rel=1e-13, abs=0)
    assert rec.q_c == pytest.approx(want["q_c"], rel=1e-13, abs=0)
    assert rec.w_ext == pytest.approx(want["w_ext"], rel=1e-13, abs=0)
    if want["eta"] is None:
        assert rec.eta is None
    else:
        assert rec.eta == pytest.approx(want["eta"], rel=1e-13, abs=0)


def test_adiabatic_efficiency_is_one_minus_z():
    rec = heats_and_work(P0, BOTH_ADIABATIC)
    assert rec.eta == pytest.approx(1.0 - P0.z, rel=1e-14, abs=0)


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
    assert book.h_a == pytest.approx(params.omega_c / 2.0, rel=1e-9, abs=0)
    assert book.h_c == pytest.approx(params.omega_h / 2.0, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "params, corner",
    [
        # coth(beta_h*omega_h/2) overflows
        pytest.param(CycleParams(0.5, 1.0, 1e-320, 0.5, 1.0), "<H>_C", id="coth-overflow"),
        # beta_h*omega_h/2 rounds to 0, so tanh of it is 0
        pytest.param(CycleParams(0.5, 1.0, 5e-324, 0.5, 1.0), "<H>_C", id="coth-pole"),
        # (omega_h/omega_c) * lambda_AB overflows
        pytest.param(CycleParams(0.5, 1.0, 1.0, 1e-300, 1.0), "<H>_B", id="h_b-overflow"),
    ],
)
def test_corner_energy_that_leaves_the_doubles_raises_naming_it(params, corner):
    with pytest.raises(FloatingPointError, match=f"^{corner} = inf leaves the doubles"):
        corner_energies(params, SUDDEN_COMPRESSION)
    with pytest.raises(FloatingPointError, match=f"^{corner} "):
        heats_and_work(params, SUDDEN_COMPRESSION)


def test_tiny_velocity_branch_is_continuous():
    # h_a must be smooth in v; a series branch once switched in at v = 1e-5
    base = dict(beta_c=1.0, beta_h=0.5, omega_c=1.0, omega_h=2.0)
    below = corner_energies(CycleParams(v=0.999e-5, **base), BOTH_ADIABATIC).h_a
    above = corner_energies(CycleParams(v=1.001e-5, **base), BOTH_ADIABATIC).h_a
    assert below == pytest.approx(above, rel=1e-9, abs=0)


def test_exact_edges_match_reference():
    # beta_c = 1, so omega_c = 2x; keys are the exact reprs of v and x
    for v_key, row in REFERENCE["exact_edges"].items():
        for x_key, want in row.items():
            v, x = float(v_key), float(x_key)
            params = CycleParams(v=v, beta_c=1.0, beta_h=1.0, omega_c=2 * x, omega_h=2 * x)
            got = corner_energies(params, BOTH_ADIABATIC).h_a
            assert abs(got - want) <= 1e-15 * want, (v_key, x_key, got, want)


def _decimal_h_a(v: float, x: float) -> Decimal:
    """<H>_A at beta_c = 1 from its definition, with every digit of v kept."""
    with localcontext() as ctx:
        ctx.prec = 40 + max(0, -math.floor(math.log10(v)))
        d_v, d_x, one = Decimal(v), Decimal(x), Decimal(1)
        doppler = ((one + d_v) / (one - d_v)).sqrt()  # e^s with s = artanh(v)

        def ln_sinh(a: Decimal) -> Decimal:
            return a - Decimal(2).ln() + (one - (-2 * a).exp()).ln()

        ratio = ln_sinh(d_x * doppler) - ln_sinh(d_x / doppler)
        return ((one - d_v) * (one + d_v)).sqrt() / (2 * d_v) * ratio


_velocities = st.one_of(
    st.floats(min_value=1.0, max_value=300.0).map(lambda k: 10.0**-k),
    st.floats(min_value=1.0, max_value=15.9).map(lambda k: 1.0 - 10.0**-k),
    st.integers(min_value=1, max_value=2**53 - 1).map(lambda n: n / 2**53),
)


_cold_betas = st.one_of(
    st.just(1.0), st.integers(min_value=-300, max_value=300).map(lambda k: 10.0**k)
)


@settings(max_examples=300, deadline=None)
@given(v=_velocities, x=st.floats(min_value=5e-4, max_value=300.0), beta_c=_cold_betas)
def test_cold_corner_energy_keeps_its_digits(v, x, beta_c):
    # h_a scales as 1/beta_c at fixed x; 2*beta_c*v may leave the normal range
    omega_c = 2 * x / beta_c
    params = CycleParams(v=v, beta_c=beta_c, beta_h=1.0, omega_c=omega_c, omega_h=omega_c)
    got = corner_energies(params, BOTH_ADIABATIC).h_a
    want = _decimal_h_a(v, x) / Decimal(beta_c)
    assert abs(Decimal(got) - want) <= Decimal("1e-15") * want, (v, x, beta_c, got, want)


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
    assert p.z == 0.25


# -- derived figures -----------------------------------------------------------


def test_efficiency_none_without_heat_uptake():
    rec = PerformanceRecord(q_h=-0.2, q_c=0.1, w_ext=-0.1)
    assert rec.eta is None
    rec = PerformanceRecord(q_h=0.0, q_c=0.1, w_ext=0.1)
    assert rec.eta is None
    rec = PerformanceRecord(q_h=0.5, q_c=-0.4, w_ext=0.1)
    assert rec.eta == pytest.approx(0.2)
    # a hand-built record carries the ratio of its own fields
    assert rec.eta == rec.w_ext / rec.q_h


def test_efficiency_can_be_negative():
    # heat in, work in: accelerator-like bookkeeping keeps the ratio defined
    rec = PerformanceRecord(q_h=0.5, q_c=-0.7, w_ext=-0.2)
    assert rec.eta == pytest.approx(-0.4)
    assert rec.eta == rec.w_ext / rec.q_h


def test_omega_function_arithmetic_and_domain():
    rec = PerformanceRecord(q_h=2.0, q_c=-1.5, w_ext=0.5)
    assert omega_function(rec, 0.25) == pytest.approx(2 * 0.5 - 0.25 * 2.0)
    with pytest.raises(ValueError):
        omega_function(rec, 0.0)
    with pytest.raises(ValueError):
        omega_function(rec, 1.5)
