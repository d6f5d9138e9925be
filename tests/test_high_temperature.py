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
from otto_rel.core import Scenario, StrokeProtocol
from otto_rel.high_temperature import eta, qh, scenario_forms, work
from otto_rel import cli
from _reference import REFERENCE
from _scaffold import BOTH_ADIABATIC, BOTH_SUDDEN

SPOT = ReducedParams(z=0.7, g=reduced_load(0.5, 0.5))


@pytest.mark.parametrize("scenario,key", [(SUDDEN_COMPRESSION, "sc"), (SUDDEN_EXPANSION, "se")])
def test_frozen_spot_values(scenario, key):
    want = REFERENCE["ht_spot"][key]
    rec = performance(SPOT, scenario)
    assert rec.q_h == pytest.approx(want["q_h"], rel=1e-14, abs=0)
    assert rec.q_c == pytest.approx(want["q_c"], rel=1e-14, abs=0)
    assert rec.w_ext == pytest.approx(want["w_ext"], rel=1e-14, abs=0)
    assert rec.eta == pytest.approx(want["w_ext"] / want["q_h"], rel=1e-13, abs=0)


_Z = st.floats(min_value=1e-3, max_value=1.0)
_RATIO = st.floats(min_value=1e-3, max_value=0.999)
_reduced_strategy = st.builds(
    lambda z, tau, v: ReducedParams(z, reduced_load(tau, v)), z=_Z, tau=_RATIO, v=_RATIO
)


@settings(max_examples=300, deadline=None)
@given(r=_reduced_strategy, sudden_compression=st.booleans())
def test_first_law_from_independent_formulas(r, sudden_compression):
    scenario = SUDDEN_COMPRESSION if sudden_compression else SUDDEN_EXPANSION
    w = work(r, scenario)
    total = qh(r, scenario) + performance(r, scenario).q_c
    scale = max(1.0, abs(w), abs(total))
    assert abs(w - total) <= 1e-12 * scale


def _evaluate(*argv: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["evaluate", *argv]) == 0
    return json.loads(out.getvalue())


@settings(max_examples=200, deadline=None)
@given(
    z=_Z, tau=_RATIO, v=_RATIO,
    beta_h=st.floats(min_value=0.01, max_value=100.0),
    scenario=st.sampled_from(("sc", "se")),
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


def test_unit_ratio_gives_zero_work():
    r = ReducedParams(z=1.0, g=reduced_load(0.5, 0.5))
    for scenario in (SUDDEN_COMPRESSION, SUDDEN_EXPANSION):
        assert work(r, scenario) == pytest.approx(0.0, abs=1e-15)


_FLOOR_SC = scenario_forms(SUDDEN_COMPRESSION).engine_lower_z
_FLOOR_SE = scenario_forms(SUDDEN_EXPANSION).engine_lower_z


def test_engine_window_lower_edges():
    opt = REFERENCE["optima"]["tau=0.5,v=0.5"]
    g = 0.5 * relativistic_factor(0.5)
    assert _FLOOR_SC(g) == pytest.approx(opt["engine_lb_sc"], rel=1e-15, abs=0)
    assert _FLOOR_SE(g) == pytest.approx(opt["engine_lb_se"], rel=1e-15, abs=0)
    # the window collapses at full coupling
    assert _FLOOR_SC(1.0) == pytest.approx(1.0)
    assert _FLOOR_SE(1.0) == pytest.approx(1.0)


def _decimal_floors(g: float) -> tuple[Decimal, Decimal]:
    """Both engine floors from the textbook root formulas, with every digit of g kept."""
    with localcontext() as ctx:
        # (sqrt(1 + 8g) - 1)/2 cancels about -log10(g) digits
        ctx.prec = 40 + max(0, -math.floor(math.log10(g)))
        d_g, one = Decimal(g), Decimal(1)
        sc = (d_g + (d_g * (d_g + 8)).sqrt()) / 4
        se = ((one + 8 * d_g).sqrt() - one) / 2
        return sc, se


def test_engine_floors_keep_their_digits():
    for k in range(321):
        g = float(f"1e-{k}")
        want_sc, want_se = _decimal_floors(g)
        for got, want in ((_FLOOR_SC(g), want_sc), (_FLOOR_SE(g), want_se)):
            assert abs(Decimal(got) - want) <= 4 * Decimal(math.ulp(got)), (g, got, want)


@pytest.mark.parametrize(
    "edge_fn,scenario",
    [(_FLOOR_SC, SUDDEN_COMPRESSION), (_FLOOR_SE, SUDDEN_EXPANSION)],
    ids=["engine_lower_z_sc-scenario0", "engine_lower_z_se-scenario1"],
)
def test_work_changes_sign_at_window_edge(edge_fn, scenario):
    for tau, v in ((0.5, 0.5), (0.3, 0.75), (0.8, 0.2)):
        g = reduced_load(tau, v)
        z_edge = edge_fn(g)
        below = ReducedParams(z=z_edge - 1e-4, g=g)
        above = ReducedParams(z=z_edge + 1e-4, g=g)
        assert work(below, scenario) < 0.0 < work(above, scenario)


def test_symmetric_scenarios_are_rejected():
    for scenario in (BOTH_ADIABATIC, BOTH_SUDDEN):
        for call in (scenario_forms, lambda s: qh(SPOT, s), lambda s: performance(SPOT, s)):
            with pytest.raises(ValueError, match="asymmetric scenarios"):
                call(scenario)


def test_rebuilt_and_unpickled_scenarios_find_their_forms():
    rebuilt = Scenario(StrokeProtocol.SUDDEN, StrokeProtocol.ADIABATIC)
    assert scenario_forms(rebuilt) is scenario_forms(SUDDEN_COMPRESSION)
    assert performance(SPOT, rebuilt) == performance(SPOT, SUDDEN_COMPRESSION)
    restored = pickle.loads(pickle.dumps(SUDDEN_EXPANSION))
    assert restored == SUDDEN_EXPANSION
    assert scenario_forms(restored) is scenario_forms(SUDDEN_EXPANSION)
    assert eta(SPOT, restored) == eta(SPOT, SUDDEN_EXPANSION)


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


def test_agrees_with_exact_cycle_when_hot():
    # beta_h * omega_h = 1e-3 sits deep in the hot regime; leading order
    # should match the full cycle to a few parts in 1e6
    beta_h, omega_h, z, tau, v = 1e-3, 1.0, 0.7, 0.5, 0.5
    params = CycleParams(v=v, beta_c=beta_h / tau, beta_h=beta_h,
                         omega_c=z * omega_h, omega_h=omega_h)
    r = ReducedParams(z=z, g=reduced_load(tau, v))
    for scenario in (SUDDEN_COMPRESSION, SUDDEN_EXPANSION):
        exact = heats_and_work(params, scenario)
        # the forms are unit-free: beta_h times each energy
        hot = performance(r, scenario)
        assert beta_h * exact.q_h == pytest.approx(hot.q_h, rel=1e-5, abs=0)
        assert beta_h * exact.w_ext == pytest.approx(hot.w_ext, rel=1e-5, abs=0)
