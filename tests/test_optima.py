"""Closed-form optima against the frozen references and the grid oracle."""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otto_rel import (
    BOTH_SUDDEN,
    ORACLE_AGREEMENT_TOL,
    SUDDEN_COMPRESSION,
    SUDDEN_EXPANSION,
    NoEngineWindowError,
    NoInteriorOptimumError,
    Objective,
    OptimizationTarget,
    OptimumReport,
    ReducedParams,
    ScanSpec,
    derivative_check,
    efficiency_cubic,
    engine_window,
    eta,
    eta_max_sc,
    eta_max_se,
    eta_mw_sc,
    eta_mw_se,
    eta_omega_sc,
    eta_omega_se,
    maximize,
    omega_value,
    optimize,
    peak_efficiency,
    qh,
    relativistic_factor,
    work,
    work_crossing_z,
    z_star_eta_sc,
    z_star_eta_se,
    z_star_omega_sc,
    z_star_omega_se,
    z_star_work,
)
from otto_rel import optima
from _printed_forms import printed_omega_maximizer_sc, printed_omega_maximizer_se
from _reference import REFERENCE

POINTS = {
    "tau=0.5,v=0.5": (0.5, 0.5),
    "tau=0.3,v=0.75": (0.3, 0.75),
}


@pytest.mark.parametrize("key", sorted(POINTS))
def test_frozen_closed_form_optima(key):
    tau, v = POINTS[key]
    want = REFERENCE["optima"][key]
    eta_c = 1.0 - tau

    assert z_star_eta_sc(tau, v) == pytest.approx(want["z_eta_sc"], rel=1e-13)
    assert z_star_eta_se(tau, v) == pytest.approx(want["z_eta_se"], rel=1e-13)
    assert eta_max_sc(eta_c, v) == pytest.approx(want["eta_max_sc"], rel=1e-13)
    assert eta_max_se(eta_c, v) == pytest.approx(want["eta_max_se"], rel=1e-13)
    for scenario, name in ((SUDDEN_COMPRESSION, "eta_max_sc"), (SUDDEN_EXPANSION, "eta_max_se")):
        assert peak_efficiency(tau, v, scenario) == pytest.approx(want[name], rel=1e-13)

    assert z_star_work(tau, v) == pytest.approx(want["z_work"], rel=1e-15)
    assert eta_mw_sc(eta_c, v) == pytest.approx(want["eta_mw_sc"], rel=1e-13)
    assert eta_mw_se(eta_c, v) == pytest.approx(want["eta_mw_se"], rel=1e-13)

    assert work_crossing_z(tau, v) == pytest.approx(want["crossing_z"], rel=1e-15)
    assert engine_window(tau, v, SUDDEN_COMPRESSION)[0] == pytest.approx(
        want["engine_lb_sc"], rel=1e-15
    )
    assert engine_window(tau, v, SUDDEN_EXPANSION)[0] == pytest.approx(
        want["engine_lb_se"], rel=1e-15
    )

    r = lambda z: ReducedParams(z=z, tau=tau, v=v)
    assert work(r(want["z_work"]), SUDDEN_COMPRESSION) == pytest.approx(
        want["work_max_sc"], rel=1e-13
    )
    assert work(r(want["z_work"]), SUDDEN_EXPANSION) == pytest.approx(
        want["work_max_se"], rel=1e-13
    )


@pytest.mark.parametrize("key", sorted(POINTS))
def test_frozen_trade_off_optima(key):
    tau, v = POINTS[key]
    want = REFERENCE["optima"][key]
    eta_c = 1.0 - tau

    assert z_star_omega_sc(tau, v) == pytest.approx(want["z_omega_sc"], rel=1e-13)
    assert z_star_omega_se(tau, v) == pytest.approx(want["z_omega_se"], rel=1e-13)
    assert eta_omega_sc(eta_c, v) == pytest.approx(want["eta_omega_sc"], rel=1e-13)
    assert eta_omega_se(eta_c, v) == pytest.approx(want["eta_omega_se"], rel=1e-13)

    r = lambda z: ReducedParams(z=z, tau=tau, v=v)
    assert omega_value(r(z_star_omega_sc(tau, v)), SUDDEN_COMPRESSION) == pytest.approx(
        want["omega_max_sc"], rel=1e-12
    )
    assert omega_value(r(z_star_omega_se(tau, v)), SUDDEN_EXPANSION) == pytest.approx(
        want["omega_max_se"], rel=1e-12
    )


def test_frozen_trade_off_efficiency_spots():
    spots = REFERENCE["trade_off_efficiency"]
    assert eta_omega_sc(0.99, 0.95) == pytest.approx(spots["sc_eta_c=0.99,v=0.95"], rel=1e-13)
    assert eta_omega_sc(0.999, 0.95) == pytest.approx(spots["sc_eta_c=0.999,v=0.95"], rel=1e-13)
    assert eta_omega_se(0.99, 0.95) == pytest.approx(spots["se_eta_c=0.99,v=0.95"], rel=1e-13)
    # the compression quench escapes the 1/2 ceiling, the expansion one cannot
    assert eta_omega_sc(0.999, 0.95) > 0.9
    assert eta_omega_se(0.99, 0.95) <= 0.5


# -- internal consistency -------------------------------------------------------


@pytest.mark.parametrize("tau,v", [(0.5, 0.5), (0.3, 0.75), (0.7, 0.2), (0.15, 0.9)])
def test_peak_efficiency_equals_efficiency_at_peak(tau, v):
    eta_c = 1.0 - tau
    r = lambda z: ReducedParams(z=z, tau=tau, v=v)
    assert eta(r(z_star_eta_sc(tau, v)), SUDDEN_COMPRESSION) == pytest.approx(
        eta_max_sc(eta_c, v), rel=1e-12
    )
    assert eta(r(z_star_eta_se(tau, v)), SUDDEN_EXPANSION) == pytest.approx(
        eta_max_se(eta_c, v), rel=1e-12
    )
    assert eta(r(z_star_work(tau, v)), SUDDEN_COMPRESSION) == pytest.approx(
        eta_mw_sc(eta_c, v), rel=1e-12
    )
    assert eta(r(z_star_work(tau, v)), SUDDEN_EXPANSION) == pytest.approx(
        eta_mw_se(eta_c, v), rel=1e-12
    )


@pytest.mark.parametrize("tau,v", [(0.5, 0.5), (0.3, 0.75), (0.6, 0.9)])
def test_trade_off_maximizer_satisfies_stationarity_identity(tau, v):
    # differentiating the trade-off objective gives z**3 = g (2 - eta_max)/2
    # for both scenarios
    g = tau * relativistic_factor(v)
    for z_fn, cap_fn in (
        (z_star_omega_sc, eta_max_sc),
        (z_star_omega_se, eta_max_se),
    ):
        z = z_fn(tau, v)
        cap = cap_fn(1.0 - tau, v)
        assert z**3 == pytest.approx(g * (2.0 - cap) / 2.0, rel=1e-13)


def test_figure_of_merit_ordering():
    for eta_c in (0.3, 0.5, 0.7):
        for v in (0.2, 0.5, 0.9):
            for cap_fn, mid_fn, low_fn in (
                (eta_max_sc, eta_omega_sc, eta_mw_sc),
                (eta_max_se, eta_omega_se, eta_mw_se),
            ):
                top = cap_fn(eta_c, v)
                mid = mid_fn(eta_c, v)
                low = low_fn(eta_c, v)
                assert top > mid > low


def test_expansion_trade_off_efficiency_bounded_by_half():
    for eta_c in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        for v in (0.05, 0.35, 0.75, 0.95):
            assert eta_omega_se(eta_c, v) <= 0.5 + 1e-9


def test_trade_off_efficiency_monotone_in_carnot_limit():
    for fn in (eta_omega_sc, eta_omega_se):
        vals = [fn(0.05 + 0.9 * i / 9, 0.75) for i in range(10)]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


@settings(max_examples=100, deadline=None)
@given(
    tau=st.floats(min_value=0.02, max_value=0.98),
    v=st.floats(min_value=0.0, max_value=0.98),
)
def test_closed_form_maximizers_stay_inside_window(tau, v):
    for scenario, z_fn in (
        (SUDDEN_COMPRESSION, z_star_eta_sc),
        (SUDDEN_EXPANSION, z_star_eta_se),
    ):
        lo, hi = engine_window(tau, v, scenario)
        assert lo < z_fn(tau, v) < hi
        assert lo < z_star_work(tau, v) < hi


@pytest.mark.parametrize("tau,v", [(0.5, 0.5), (0.3, 0.75)])
def test_optima_are_stationary_and_concave(tau, v):
    r = lambda z: ReducedParams(z=z, tau=tau, v=v)
    probes = [
        (z_star_eta_sc(tau, v), lambda z: eta(r(z), SUDDEN_COMPRESSION)),
        (z_star_eta_se(tau, v), lambda z: eta(r(z), SUDDEN_EXPANSION)),
        (z_star_work(tau, v), lambda z: work(r(z), SUDDEN_COMPRESSION)),
        (z_star_work(tau, v), lambda z: work(r(z), SUDDEN_EXPANSION)),
    ]
    for z_star, f in probes:
        report = derivative_check(f, z_star)
        assert abs(report.value) <= 1e-6
        h = 1e-4
        assert f(z_star - h) + f(z_star + h) - 2.0 * f(z_star) < 0.0


# -- printed trade-off maximizers -----------------------------------------------


def test_printed_trade_off_forms_disagree_with_oracle():
    # the package maximizers are checked against the oracle in
    # test_trade_off_closed_form_agrees_with_oracle
    tau, v = 0.5, 0.5
    z_sc = z_star_omega_sc(tau, v)
    z_se = z_star_omega_se(tau, v)
    # neither reading of the compression-side form lands in the unit interval
    for variant in ("zero", "rapidity"):
        cand = printed_omega_maximizer_sc(tau, v, log_variant=variant)
        assert not 0.0 < cand < 1.0 or abs(cand - z_sc) > 1e-3
    # the expansion-side form produces a ratio, but not the right one
    cand = printed_omega_maximizer_se(tau, v)
    assert abs(cand - z_se) > 1e-2


def test_printed_form_guards():
    with pytest.raises(ValueError):
        printed_omega_maximizer_sc(0.5, 0.5, log_variant="bogus")
    with pytest.raises(ValueError):
        printed_omega_maximizer_sc(0.5, 0.0)
    with pytest.raises(ValueError):
        printed_omega_maximizer_se(0.5, 0.0)


# -- optimize() dispatch ----------------------------------------------------------


def test_optimize_efficiency_report():
    want = REFERENCE["optima"]["tau=0.5,v=0.5"]
    report = optimize(OptimizationTarget(Objective.EFFICIENCY, SUDDEN_COMPRESSION), 0.5, 0.5)
    assert isinstance(report, OptimumReport)
    assert report.z_star == pytest.approx(want["z_eta_sc"], rel=1e-13)
    assert report.value_at_opt == report.eta_at_opt
    assert report.eta_at_opt == pytest.approx(want["eta_max_sc"], rel=1e-12)


def test_optimize_work_report_scales_with_temperature():
    want = REFERENCE["optima"]["tau=0.3,v=0.75"]
    target = OptimizationTarget(Objective.WORK, SUDDEN_EXPANSION)
    base = optimize(target, 0.3, 0.75)
    assert base.z_star == pytest.approx(want["z_work"], rel=1e-13)
    assert base.value_at_opt == pytest.approx(want["work_max_se"], rel=1e-12)
    colder = optimize(target, 0.3, 0.75, beta_h=2.0)
    assert colder.value_at_opt == pytest.approx(base.value_at_opt / 2.0, rel=1e-12)
    assert colder.z_star == base.z_star


def test_optimize_trade_off_uses_closed_form():
    want = REFERENCE["optima"]["tau=0.5,v=0.5"]
    for scenario, z_key, w_key in (
        (SUDDEN_COMPRESSION, "z_omega_sc", "omega_max_sc"),
        (SUDDEN_EXPANSION, "z_omega_se", "omega_max_se"),
    ):
        report = optimize(OptimizationTarget(Objective.OMEGA, scenario), 0.5, 0.5)
        assert report.z_star == pytest.approx(want[z_key], rel=1e-13)
        assert report.value_at_opt == pytest.approx(want[w_key], rel=1e-12)


GRID_10 = [0.05 + 0.9 * i / 9 for i in range(10)]


@pytest.mark.parametrize(
    "scenario,z_fn,cap_fn",
    [
        (SUDDEN_COMPRESSION, z_star_omega_sc, eta_max_sc),
        (SUDDEN_EXPANSION, z_star_omega_se, eta_max_se),
    ],
)
def test_trade_off_closed_form_agrees_with_oracle(scenario, z_fn, cap_fn):
    # the grid oracle verifies the closed form; it does not compute it
    for tau in GRID_10:
        for v in GRID_10:
            cap = cap_fn(1.0 - tau, v)

            def omega(z):
                r = ReducedParams(z=z, tau=tau, v=v)
                return 2.0 * work(r, scenario) - cap * qh(r, scenario)

            lo, hi = engine_window(tau, v, scenario)
            z_oracle, _ = maximize(omega, ScanSpec(lo=lo, hi=hi))
            assert abs(z_fn(tau, v) - z_oracle) <= ORACLE_AGREEMENT_TOL, (tau, v)


# A closed form that fails its certificate raises; the CLI turns that into
# exit 3.


def test_optimize_falls_back_when_candidate_is_not_a_maximum(monkeypatch):
    want = REFERENCE["optima"]["tau=0.5,v=0.5"]
    lo, _ = engine_window(0.5, 0.5, SUDDEN_COMPRESSION)
    # inside the window, but on the rising flank below the true maximizer
    monkeypatch.setattr(optima, "z_star_work", lambda tau, v: 0.5 * (lo + want["z_work"]))
    with pytest.raises(NoInteriorOptimumError, match="not a local maximum"):
        optimize(OptimizationTarget(Objective.WORK, SUDDEN_COMPRESSION), 0.5, 0.5)


@pytest.mark.parametrize("bad", ["below-window", 1.5, math.nan, math.inf])
def test_optimize_falls_back_when_candidate_leaves_window(monkeypatch, bad):
    lo, _ = engine_window(0.5, 0.5, SUDDEN_EXPANSION)
    candidate = 0.5 * lo if bad == "below-window" else bad
    monkeypatch.setattr(optima, "z_star_work", lambda tau, v: candidate)
    with pytest.raises(NoInteriorOptimumError, match="is outside the engine window"):
        optimize(OptimizationTarget(Objective.WORK, SUDDEN_EXPANSION), 0.5, 0.5)


def test_peak_efficiency_refuses_uncertified_root(monkeypatch):
    # eta_max feeds every trade-off value, so its cubic root is certified too
    z_eta = z_star_eta_sc(0.5, 0.5)
    monkeypatch.setattr(optima, "_z_star_eta", lambda tau, v, scenario: 0.9 * z_eta)
    with pytest.raises(NoInteriorOptimumError):
        peak_efficiency(0.5, 0.5, SUDDEN_COMPRESSION)
    with pytest.raises(NoInteriorOptimumError):
        z_star_omega_sc(0.5, 0.5)
    # below the load the expansion quench draws no heat; at g < 1.4e-17 its
    # window floor rounds to 0, so only the q_h > 0 check refuses this root
    g = 1e-20 * relativistic_factor(0.5)
    monkeypatch.setattr(optima, "_z_star_eta", lambda tau, v, scenario: 0.5 * g)
    with pytest.raises(NoInteriorOptimumError, match="fell outside the engine window"):
        peak_efficiency(1e-20, 0.5, SUDDEN_EXPANSION)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(
            lambda: optimize(OptimizationTarget(Objective.OMEGA, SUDDEN_COMPRESSION), 0.5, 0.5),
            id="optimize-omega",
        ),
        pytest.param(lambda: eta_omega_sc(0.5, 0.5), id="eta_omega_sc"),
    ],
)
def test_trade_off_optimum_builds_its_load_once(monkeypatch, call):
    # one f(v) for the shared load and engine window, one inside the
    # efficiency root behind eta_max; no per-probe ReducedParams
    real = relativistic_factor
    calls = []

    def counted(v):
        calls.append(v)
        return real(v)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "otto_rel" and vars(module).get("relativistic_factor") is real:
            monkeypatch.setattr(module, "relativistic_factor", counted)

    def refuse(self):
        raise AssertionError("ReducedParams built")

    monkeypatch.setattr(ReducedParams, "__post_init__", refuse)
    call()
    assert 1 <= len(calls) <= 2


EDGE_AXIS = [1e-6] + [k / 65 for k in range(1, 65)] + [0.999999]


@pytest.mark.parametrize("tau", [1e-6, 0.999999])
def test_optimize_returns_the_closed_form_on_edge_rows(tau):
    # at tau = 1e-6 the se objectives are flat to rounding; at tau = 0.999999
    # the engine window can be narrower than the pair of certificate probes
    z_eta_fns = {SUDDEN_COMPRESSION: z_star_eta_sc, SUDDEN_EXPANSION: z_star_eta_se}
    for v in EDGE_AXIS:
        g = tau * relativistic_factor(v)
        for scenario, z_eta_fn in z_eta_fns.items():
            cap = peak_efficiency(tau, v, scenario)
            want = {
                Objective.EFFICIENCY: z_eta_fn(tau, v),
                Objective.WORK: z_star_work(tau, v),
                Objective.OMEGA: (g * (1.0 - 0.5 * cap)) ** (1.0 / 3.0),
            }
            for objective, z_want in want.items():
                report = optimize(OptimizationTarget(objective, scenario), tau, v)
                assert report.z_star == z_want, (tau, v, scenario, objective)


def test_target_rejects_symmetric_scenarios():
    with pytest.raises(ValueError):
        OptimizationTarget(Objective.WORK, BOTH_SUDDEN)


def test_report_validates_ratio():
    with pytest.raises(ValueError):
        OptimumReport(z_star=1.2, value_at_opt=0.1, eta_at_opt=0.1)


# -- domain guards -----------------------------------------------------------------


def test_no_engine_window_when_load_saturates():
    with pytest.raises(NoEngineWindowError):
        z_star_work(2.0, 0.1)
    # inside the physical domain the window always exists
    lo, hi = engine_window(0.999, 0.001, SUDDEN_COMPRESSION)
    assert 0.0 < lo < hi == 1.0


def test_no_interior_optimum_at_zero_load():
    with pytest.raises(NoInteriorOptimumError):
        z_star_eta_sc(0.0, 0.5)
    with pytest.raises(NoInteriorOptimumError):
        z_star_eta_se(0.0, 0.5)


_SC, _SE = SUDDEN_COMPRESSION, SUDDEN_EXPANSION


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: z_star_eta_sc(0.0, 0.5), NoInteriorOptimumError, id="z_star_eta_sc"),
        pytest.param(lambda: z_star_eta_se(0.0, 0.5), NoInteriorOptimumError, id="z_star_eta_se"),
        pytest.param(lambda: peak_efficiency(0.0, 0.5, _SC), NoInteriorOptimumError, id="peak-sc"),
        pytest.param(lambda: peak_efficiency(0.0, 0.5, _SE), NoInteriorOptimumError, id="peak-se"),
        pytest.param(lambda: z_star_omega_sc(0.0, 0.5), NoInteriorOptimumError, id="z_star_omega_sc"),
        pytest.param(lambda: z_star_omega_se(0.0, 0.5), NoInteriorOptimumError, id="z_star_omega_se"),
        pytest.param(lambda: engine_window(0.0, 0.5, _SC), ValueError, id="engine_window-sc"),
        pytest.param(lambda: engine_window(0.0, 0.5, _SE), ValueError, id="engine_window-se"),
        *(
            pytest.param(
                lambda objective=objective: optimize(OptimizationTarget(objective, _SC), 0.0, 0.5),
                ValueError,
                id=f"optimize-{objective.value}",
            )
            for objective in Objective
        ),
        pytest.param(lambda: z_star_work(0.0, 0.5), ValueError, id="z_star_work"),
        pytest.param(lambda: work_crossing_z(0.0, 0.5), ValueError, id="work_crossing_z"),
    ],
)
def test_zero_tau_exception_classes(call, error):
    # tau = 0 is a zero load: the efficiency root sits at z = 0, so the
    # entry points built on it find no interior optimum; the others refuse
    # tau outside (0, 1) as bad input
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is error


def test_domain_validation_errors():
    with pytest.raises(ValueError):
        eta_max_sc(1.0, 0.5)
    with pytest.raises(ValueError):
        eta_mw_se(0.0, 0.5)
    with pytest.raises(ValueError):
        eta_omega_sc(-0.1, 0.5)
    with pytest.raises(ValueError):  # tau > 1 with a load below 1
        z_star_eta_sc(1.2, 0.9)
    with pytest.raises(ValueError):
        work_crossing_z(1.2, 0.5)
    with pytest.raises(ValueError):
        z_star_work(0.5, 1.0)
    with pytest.raises(ValueError):
        efficiency_cubic(1.0, SUDDEN_COMPRESSION)
    with pytest.raises(ValueError):
        efficiency_cubic(0.5, BOTH_SUDDEN)


def test_stationary_velocity_limit():
    # v = 0 collapses the factor to 1: plain temperature-ratio load
    assert z_star_work(0.5, 0.0) == pytest.approx(0.5 ** (1.0 / 3.0), rel=1e-15)
    assert work_crossing_z(0.5, 0.0) == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert eta_mw_sc(0.5, 0.0) > 0.0
    # every optimum accepts the v = 0 limit that its domain [0, 1) admits
    for scenario in (SUDDEN_COMPRESSION, SUDDEN_EXPANSION):
        assert peak_efficiency(0.5, 0.0, scenario) == peak_efficiency(0.5, 1e-12, scenario)
        target = OptimizationTarget(Objective.OMEGA, scenario)
        assert optimize(target, 0.5, 0.0).z_star == optimize(target, 0.5, 1e-12).z_star
    assert eta_omega_sc(0.5, 0.0) == eta_omega_sc(0.5, 1e-12)


def test_work_dominance_swaps_at_crossing():
    tau, v = 0.5, 0.5
    z_cross = work_crossing_z(tau, v)
    r = lambda z: ReducedParams(z=z, tau=tau, v=v)
    for z in (z_cross - 0.05, z_cross - 0.01):
        assert work(r(z), SUDDEN_EXPANSION) > work(r(z), SUDDEN_COMPRESSION)
    for z in (z_cross + 0.01, z_cross + 0.05):
        assert work(r(z), SUDDEN_COMPRESSION) > work(r(z), SUDDEN_EXPANSION)
