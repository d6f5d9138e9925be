"""Leading-order hot-limit formulas for the two asymmetric cycles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otto_rel import (
    BOTH_ADIABATIC,
    BOTH_SUDDEN,
    SUDDEN_COMPRESSION,
    SUDDEN_EXPANSION,
    CycleParams,
    ReducedParams,
    engine_lower_z_sc,
    engine_lower_z_se,
    eta,
    heats_and_work,
    performance,
    qc,
    qh,
    relativistic_factor,
    scenario_forms,
    work,
)
from _reference import REFERENCE

SPOT = ReducedParams(z=0.7, tau=0.5, v=0.5)


@pytest.mark.parametrize("scenario,key", [(SUDDEN_COMPRESSION, "sc"), (SUDDEN_EXPANSION, "se")])
def test_frozen_spot_values(scenario, key):
    want = REFERENCE["ht_spot"][key]
    rec = performance(SPOT, scenario)
    assert rec.q_h == pytest.approx(want["q_h"], rel=1e-14)
    assert rec.q_c == pytest.approx(want["q_c"], rel=1e-14)
    assert rec.w_ext == pytest.approx(want["w_ext"], rel=1e-14)
    assert rec.eta == pytest.approx(want["w_ext"] / want["q_h"], rel=1e-13)


_reduced_strategy = st.builds(
    ReducedParams,
    z=st.floats(min_value=1e-3, max_value=1.0),
    tau=st.floats(min_value=1e-3, max_value=0.999),
    v=st.floats(min_value=1e-3, max_value=0.999),
    beta_h=st.floats(min_value=0.01, max_value=100.0),
)


@settings(max_examples=300, deadline=None)
@given(r=_reduced_strategy, sudden_compression=st.booleans())
def test_first_law_from_independent_formulas(r, sudden_compression):
    scenario = SUDDEN_COMPRESSION if sudden_compression else SUDDEN_EXPANSION
    w = work(r, scenario)
    total = qh(r, scenario) + qc(r, scenario)
    scale = max(1.0, abs(w), abs(total))
    assert abs(w - total) <= 1e-12 * scale


@settings(max_examples=200, deadline=None)
@given(r=_reduced_strategy, sudden_compression=st.booleans())
def test_all_quantities_scale_as_temperature(r, sudden_compression):
    scenario = SUDDEN_COMPRESSION if sudden_compression else SUDDEN_EXPANSION
    half = ReducedParams(z=r.z, tau=r.tau, v=r.v, beta_h=2.0 * r.beta_h)
    for fn in (qh, qc, work):
        assert fn(half, scenario) == pytest.approx(fn(r, scenario) / 2.0, rel=1e-12)
    # efficiency is a pure ratio and must not depend on the temperature scale
    e_full, e_half = eta(r, scenario), eta(half, scenario)
    if e_full is None:
        assert e_half is None
    else:
        assert e_half == pytest.approx(e_full, rel=1e-12)


def test_sudden_expansion_efficiency_never_exceeds_half():
    n = 40
    worst = 0.0
    for i in range(1, n):
        for j in range(1, n):
            for k in range(1, n):
                r = ReducedParams(z=i / n, tau=j / n, v=k / n)
                e = eta(r, SUDDEN_EXPANSION)
                if e is not None:
                    worst = max(worst, e)
    assert worst <= 0.5
    # and the bound is approached: deep window, fast oscillator
    e = eta(ReducedParams(z=0.05, tau=0.01, v=0.99), SUDDEN_EXPANSION)
    assert e is not None and e > 0.45


def test_eta_none_when_no_heat_uptake():
    # below the hot-heat sign change the ratio is undefined
    r = ReducedParams(z=0.3, tau=0.5, v=0.5)
    assert qh(r, SUDDEN_COMPRESSION) < 0.0
    assert eta(r, SUDDEN_COMPRESSION) is None


def test_unit_ratio_gives_zero_work():
    r = ReducedParams(z=1.0, tau=0.5, v=0.5)
    for scenario in (SUDDEN_COMPRESSION, SUDDEN_EXPANSION):
        assert work(r, scenario) == pytest.approx(0.0, abs=1e-15)


def test_engine_window_lower_edges():
    opt = REFERENCE["optima"]["tau=0.5,v=0.5"]
    g = 0.5 * relativistic_factor(0.5)
    assert engine_lower_z_sc(g) == pytest.approx(opt["engine_lb_sc"], rel=1e-15)
    assert engine_lower_z_se(g) == pytest.approx(opt["engine_lb_se"], rel=1e-15)
    # the window collapses at full coupling
    assert engine_lower_z_sc(1.0) == pytest.approx(1.0)
    assert engine_lower_z_se(1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        engine_lower_z_sc(0.0)
    with pytest.raises(ValueError):
        engine_lower_z_se(1.5)


@pytest.mark.parametrize(
    "edge_fn,scenario",
    [(engine_lower_z_sc, SUDDEN_COMPRESSION), (engine_lower_z_se, SUDDEN_EXPANSION)],
)
def test_work_changes_sign_at_window_edge(edge_fn, scenario):
    for tau, v in ((0.5, 0.5), (0.3, 0.75), (0.8, 0.2)):
        g = tau * relativistic_factor(v)
        z_edge = edge_fn(g)
        below = ReducedParams(z=z_edge - 1e-4, tau=tau, v=v)
        above = ReducedParams(z=z_edge + 1e-4, tau=tau, v=v)
        assert work(below, scenario) < 0.0 < work(above, scenario)


def test_symmetric_scenarios_are_rejected():
    for scenario in (BOTH_ADIABATIC, BOTH_SUDDEN):
        for call in (scenario_forms, lambda s: qh(SPOT, s), lambda s: performance(SPOT, s)):
            with pytest.raises(ValueError, match="asymmetric scenarios"):
                call(scenario)


def test_reduced_params_validation():
    with pytest.raises(ValueError):
        ReducedParams(z=0.0, tau=0.5, v=0.5)
    with pytest.raises(ValueError):
        ReducedParams(z=1.2, tau=0.5, v=0.5)
    with pytest.raises(ValueError):
        ReducedParams(z=0.5, tau=1.0, v=0.5)
    with pytest.raises(ValueError):
        ReducedParams(z=0.5, tau=0.5, v=0.0)
    with pytest.raises(ValueError):
        ReducedParams(z=0.5, tau=0.5, v=0.5, beta_h=0.0)


def test_agrees_with_exact_cycle_when_hot():
    # beta_h * omega_h = 1e-3 sits deep in the hot regime; leading order
    # should match the full cycle to a few parts in 1e6
    beta_h, omega_h, z, tau, v = 1e-3, 1.0, 0.7, 0.5, 0.5
    params = CycleParams(v=v, beta_c=beta_h / tau, beta_h=beta_h,
                         omega_c=z * omega_h, omega_h=omega_h)
    r = ReducedParams(z=z, tau=tau, v=v, beta_h=beta_h)
    for scenario in (SUDDEN_COMPRESSION, SUDDEN_EXPANSION):
        exact = heats_and_work(params, scenario)
        hot = performance(r, scenario)
        assert exact.q_h == pytest.approx(hot.q_h, rel=1e-5)
        assert exact.w_ext == pytest.approx(hot.w_ext, rel=1e-5)
