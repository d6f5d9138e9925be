"""Leading-order hot-limit formulas for the two asymmetric cycles."""

import contextlib
import io
import json
import math
import pickle
import sys
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otto_rel import (
    SUDDEN_COMPRESSION,
    SUDDEN_EXPANSION,
    CycleParams,
    ReducedParams,
    heats_and_work,
    performance,
    reduced_load,
    relativistic_factor,
)
from otto_rel.core import Scenario
from otto_rel.high_temperature import _FORMS, eta, qh, scenario_forms, work
from otto_rel import cli
from _reference import REFERENCE
from _scaffold import BOTH_ADIABATIC, BOTH_SUDDEN, SCENARIOS, each_scenario

SPOT = ReducedParams(z=0.7, g=reduced_load(0.5, 0.5))


def test_scenario_table_is_the_packages():
    # the tests' table covers the package's scenarios, each under its CLI token
    assert {case.scenario for case in SCENARIOS.values()} == set(_FORMS)
    assert {token: case.scenario for token, case in SCENARIOS.items()} == cli._SCENARIOS


@each_scenario
def test_frozen_spot_values(case):
    want = REFERENCE["ht_spot"][case.token]
    rec = performance(SPOT, case.scenario)
    assert rec.q_h == pytest.approx(want["q_h"], rel=1e-14, abs=0)
    assert rec.q_c == pytest.approx(want["q_c"], rel=1e-14, abs=0)
    assert rec.w_ext == pytest.approx(want["w_ext"], rel=1e-14, abs=0)
    assert rec.eta == pytest.approx(want["w_ext"] / want["q_h"], rel=1e-13, abs=0)


_Z = st.floats(min_value=1e-3, max_value=1.0)
_RATIO = st.floats(min_value=1e-3, max_value=0.999)
_reduced_strategy = st.builds(
    lambda z, tau, v: ReducedParams(z, reduced_load(tau, v)), z=_Z, tau=_RATIO, v=_RATIO
)


@settings(max_examples=300)
@given(r=_reduced_strategy, scenario=st.sampled_from([c.scenario for c in SCENARIOS.values()]))
def test_first_law_from_independent_formulas(r, scenario):
    w = work(r, scenario)
    total = qh(r, scenario) + performance(r, scenario).q_c
    scale = max(1.0, abs(w), abs(total))
    assert abs(w - total) <= 1e-12 * scale


def _evaluate(*argv: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["evaluate", *argv]) == 0
    return json.loads(out.getvalue())


@settings(max_examples=200)
@given(
    z=_Z, tau=_RATIO, v=_RATIO,
    beta_h=st.floats(min_value=0.01, max_value=100.0),
    scenario=st.sampled_from(tuple(SCENARIOS)),
)
def test_all_quantities_scale_as_temperature(z, tau, v, beta_h, scenario):
    # the library is unit-free; the CLI prints energies in units of 1/beta_h
    point = ("--scenario", scenario, "--z", repr(z), "--tau", repr(tau), "--v", repr(v))
    full = _evaluate(*point, "--beta-h", repr(beta_h))
    half = _evaluate(*point, "--beta-h", repr(2.0 * beta_h))
    for key in ("q_h", "q_c", "w_ext", "omega"):
        if full[key] is None:
            assert half[key] is None
        else:
            assert half[key] == pytest.approx(full[key] / 2.0, rel=1e-12, abs=0)
    # efficiency and mode are pure ratios and must not depend on the temperature scale
    assert (half["eta"], half["mode"]) == (full["eta"], full["mode"])


def test_sudden_expansion_efficiency_never_exceeds_half():
    n = 40
    worst = 0.0
    for i in range(1, n):
        for j in range(1, n):
            for k in range(1, n):
                r = ReducedParams(z=i / n, g=reduced_load(j / n, k / n))
                e = eta(r, SUDDEN_EXPANSION)
                if e is not None:
                    worst = max(worst, e)
    assert worst <= 0.5
    # and the bound is approached: deep window, fast oscillator
    e = eta(ReducedParams(z=0.05, g=reduced_load(0.01, 0.99)), SUDDEN_EXPANSION)
    assert e is not None and e > 0.45


def test_eta_none_when_no_heat_uptake():
    # below the hot-heat sign change the ratio is undefined
    r = ReducedParams(z=0.3, g=reduced_load(0.5, 0.5))
    assert qh(r, SUDDEN_COMPRESSION) < 0.0
    assert eta(r, SUDDEN_COMPRESSION) is None


@each_scenario
def test_unit_ratio_gives_zero_work(case):
    r = ReducedParams(z=1.0, g=reduced_load(0.5, 0.5))
    assert work(r, case.scenario) == pytest.approx(0.0, abs=1e-15)


@each_scenario
def test_engine_floors_keep_their_digits(case):
    floor = scenario_forms(case.scenario).engine_lower_z
    for k in range(321):
        g = float(f"1e-{k}")
        with localcontext() as ctx:
            # the textbook root formula with every digit of g kept; the se
            # form cancels about -log10(g) digits
            ctx.prec = 40 + max(0, -math.floor(math.log10(g)))
            want = case.engine_floor(Decimal(g))
        got = floor(g)
        assert abs(Decimal(got) - want) <= 4 * Decimal(math.ulp(got)), (g, got, want)


@each_scenario
def test_work_changes_sign_at_window_edge(case):
    floor = scenario_forms(case.scenario).engine_lower_z
    # the window collapses at full coupling
    assert floor(1.0) == pytest.approx(1.0)
    for tau, v in ((0.5, 0.5), (0.3, 0.75), (0.8, 0.2)):
        g = reduced_load(tau, v)
        z_edge = floor(g)
        below = ReducedParams(z=z_edge - 1e-4, g=g)
        above = ReducedParams(z=z_edge + 1e-4, g=g)
        assert work(below, case.scenario) < 0.0 < work(above, case.scenario)


def test_symmetric_scenarios_are_rejected():
    for scenario in (BOTH_ADIABATIC, BOTH_SUDDEN):
        for call in (scenario_forms, lambda s: qh(SPOT, s), lambda s: performance(SPOT, s)):
            with pytest.raises(ValueError, match="asymmetric scenarios"):
                call(scenario)


@each_scenario
def test_rebuilt_and_unpickled_scenarios_find_their_forms(case):
    scenario = case.scenario
    for copy in (Scenario(*scenario), pickle.loads(pickle.dumps(scenario))):
        assert copy == scenario
        assert scenario_forms(copy) is scenario_forms(scenario)
        assert performance(SPOT, copy) == performance(SPOT, scenario)
        assert eta(SPOT, copy) == eta(SPOT, scenario)


def test_hot_limit_forms_run_no_enum_code():
    # The scenario lookup hashes the StrokeProtocol members; Enum.__hash__
    # is Python code in enum.py, identity hashing is not.
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__") == "enum":
            entered.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        performance(SPOT, SUDDEN_COMPRESSION)
        eta(SPOT, SUDDEN_EXPANSION)
    finally:
        sys.setprofile(previous)
    assert entered == []


def test_reduced_params_validation():
    g = reduced_load(0.5, 0.5)
    with pytest.raises(ValueError):
        ReducedParams(z=0.0, g=g)
    with pytest.raises(ValueError):
        ReducedParams(z=1.2, g=g)
    for bad in (1.0, 1.5, -0.1, math.nan):
        with pytest.raises(ValueError, match="reduced load g must lie in"):
            ReducedParams(z=0.5, g=bad)
    # g = 0 (a load that underflows) is a valid point: sc gives the Otto 1 - z
    assert eta(ReducedParams(z=0.5, g=0.0), SUDDEN_COMPRESSION) == 0.5


@pytest.mark.parametrize("tau", [0.0, 1.0, -0.5, 1.5, math.nan])
def test_reduced_load_rejects_tau_outside_unit_interval(tau):
    with pytest.raises(ValueError, match="temperature ratio tau must lie in"):
        reduced_load(tau, 0.5)


def test_reduced_load_is_tau_times_factor():
    for tau, v in ((0.5, 0.5), (0.3, 0.75), (1e-300, 0.999), (0.9999999999999999, 1e-12)):
        assert reduced_load(tau, v) == tau * relativistic_factor(v)
    # v keeps the factor's own domain [0, 1): v = 0 is the unboosted limit
    assert reduced_load(0.5, 0.0) == 0.5
    for v in (-0.1, 1.0, math.nan):
        with pytest.raises(ValueError, match="velocity must satisfy"):
            reduced_load(0.5, v)


@each_scenario
def test_agrees_with_exact_cycle_when_hot(case):
    # beta_h * omega_h = 1e-3 sits deep in the hot regime; leading order
    # should match the full cycle to a few parts in 1e6
    beta_h, omega_h, z, tau, v = 1e-3, 1.0, 0.7, 0.5, 0.5
    params = CycleParams(v=v, beta_c=beta_h / tau, beta_h=beta_h,
                         omega_c=z * omega_h, omega_h=omega_h)
    r = ReducedParams(z=z, g=reduced_load(tau, v))
    exact = heats_and_work(params, case.scenario)
    # the forms are unit-free: beta_h times each energy
    hot = performance(r, case.scenario)
    assert beta_h * exact.q_h == pytest.approx(hot.q_h, rel=1e-5, abs=0)
    assert beta_h * exact.w_ext == pytest.approx(hot.w_ext, rel=1e-5, abs=0)
