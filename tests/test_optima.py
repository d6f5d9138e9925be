"""Closed-form optima against the frozen references and the grid oracle."""

import json
import math
import random
import re
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otto_rel import (
    SUDDEN_COMPRESSION,
    SUDDEN_EXPANSION,
    NoInteriorOptimumError,
    Objective,
    OptimumReport,
    ReducedParams,
    eta_omega_sc,
    eta_omega_se,
    omega_function,
    optimize,
    peak_efficiency,
    performance,
    reduced_load,
    relativistic_factor,
)
from otto_rel.cubic import principal_trig_root
from otto_rel.high_temperature import eta, qh, scenario_forms, work
from otto_rel.optima import ORACLE_AGREEMENT_TOL, eta_max_sc, eta_max_se
from otto_rel.oracle import maximize
from otto_rel import cli, optima
from _printed_forms import printed_omega_maximizer_sc, printed_omega_maximizer_se
from _reference import REFERENCE
from _scaffold import BOTH_SUDDEN, derivative_check

POINTS = {
    "tau=0.5,v=0.5": (0.5, 0.5),
    "tau=0.3,v=0.75": (0.3, 0.75),
}
_SC, _SE = SUDDEN_COMPRESSION, SUDDEN_EXPANSION


def z_eta(tau, v, scenario):
    """The certified efficiency-maximizing ratio."""
    return optimize(Objective.EFFICIENCY, scenario, tau, v).z_star


def z_work(tau, v, scenario):
    """The certified work-maximizing ratio."""
    return optimize(Objective.WORK, scenario, tau, v).z_star


def z_omega(tau, v, scenario):
    """The certified trade-off-maximizing ratio."""
    return optimize(Objective.OMEGA, scenario, tau, v).z_star


def eta_mw(tau, v, scenario):
    """The efficiency at the certified work-maximizing ratio."""
    return optimize(Objective.WORK, scenario, tau, v).eta_at_opt


def engine_floor(tau, v, scenario):
    """The lower edge of the engine window (z_low, 1)."""
    return scenario_forms(scenario).engine_lower_z(reduced_load(tau, v))


@pytest.mark.parametrize("key", sorted(POINTS))
def test_frozen_closed_form_optima(key):
    tau, v = POINTS[key]
    want = REFERENCE["optima"][key]
    eta_c = 1.0 - tau

    assert z_eta(tau, v, _SC) == pytest.approx(want["z_eta_sc"], rel=1e-13, abs=0)
    assert z_eta(tau, v, _SE) == pytest.approx(want["z_eta_se"], rel=1e-13, abs=0)
    assert eta_max_sc(eta_c, v) == pytest.approx(want["eta_max_sc"], rel=1e-13, abs=0)
    assert eta_max_se(eta_c, v) == pytest.approx(want["eta_max_se"], rel=1e-13, abs=0)
    for scenario, name in ((SUDDEN_COMPRESSION, "eta_max_sc"), (SUDDEN_EXPANSION, "eta_max_se")):
        cap = peak_efficiency(reduced_load(tau, v), scenario)
        assert cap == pytest.approx(want[name], rel=1e-13, abs=0)

    assert z_work(tau, v, _SC) == pytest.approx(want["z_work"], rel=1e-15, abs=0)
    assert z_work(tau, v, _SE) == pytest.approx(want["z_work"], rel=1e-15, abs=0)
    assert eta_mw(tau, v, _SC) == pytest.approx(want["eta_mw_sc"], rel=1e-13, abs=0)
    assert eta_mw(tau, v, _SE) == pytest.approx(want["eta_mw_se"], rel=1e-13, abs=0)

    assert math.sqrt(reduced_load(tau, v)) == pytest.approx(want["crossing_z"], rel=1e-15, abs=0)
    assert engine_floor(tau, v, _SC) == pytest.approx(want["engine_lb_sc"], rel=1e-15, abs=0)
    assert engine_floor(tau, v, _SE) == pytest.approx(want["engine_lb_se"], rel=1e-15, abs=0)

    r = lambda z: ReducedParams(z=z, g=reduced_load(tau, v))
    assert work(r(want["z_work"]), SUDDEN_COMPRESSION) == pytest.approx(
        want["work_max_sc"], rel=1e-13, abs=0
    )
    assert work(r(want["z_work"]), SUDDEN_EXPANSION) == pytest.approx(
        want["work_max_se"], rel=1e-13, abs=0
    )


@pytest.mark.parametrize("key", sorted(POINTS))
def test_frozen_trade_off_optima(key):
    tau, v = POINTS[key]
    want = REFERENCE["optima"][key]
    eta_c = 1.0 - tau

    assert z_omega(tau, v, _SC) == pytest.approx(want["z_omega_sc"], rel=1e-13, abs=0)
    assert z_omega(tau, v, _SE) == pytest.approx(want["z_omega_se"], rel=1e-13, abs=0)
    assert eta_omega_sc(eta_c, v) == pytest.approx(want["eta_omega_sc"], rel=1e-13, abs=0)
    assert eta_omega_se(eta_c, v) == pytest.approx(want["eta_omega_se"], rel=1e-13, abs=0)

    def omega_at(z, scenario):
        record = performance(ReducedParams(z=z, g=reduced_load(tau, v)), scenario)
        return omega_function(record, peak_efficiency(reduced_load(tau, v), scenario))

    assert omega_at(z_omega(tau, v, _SC), SUDDEN_COMPRESSION) == pytest.approx(
        want["omega_max_sc"], rel=1e-12, abs=0
    )
    assert omega_at(z_omega(tau, v, _SE), SUDDEN_EXPANSION) == pytest.approx(
        want["omega_max_se"], rel=1e-12, abs=0
    )


def test_frozen_trade_off_efficiency_spots():
    spots = REFERENCE["trade_off_efficiency"]
    assert eta_omega_sc(0.99, 0.95) == pytest.approx(
        spots["sc_eta_c=0.99,v=0.95"], rel=1e-13, abs=0
    )
    assert eta_omega_sc(0.999, 0.95) == pytest.approx(
        spots["sc_eta_c=0.999,v=0.95"], rel=1e-13, abs=0
    )
    assert eta_omega_se(0.99, 0.95) == pytest.approx(
        spots["se_eta_c=0.99,v=0.95"], rel=1e-13, abs=0
    )
    # the compression quench escapes the 1/2 ceiling, the expansion one cannot
    assert eta_omega_sc(0.999, 0.95) > 0.9
    assert eta_omega_se(0.99, 0.95) <= 0.5


# -- internal consistency -------------------------------------------------------


@pytest.mark.parametrize("tau,v", [(0.5, 0.5), (0.3, 0.75), (0.7, 0.2), (0.15, 0.9)])
def test_peak_efficiency_equals_efficiency_at_peak(tau, v):
    eta_c = 1.0 - tau
    r = lambda z: ReducedParams(z=z, g=reduced_load(tau, v))
    assert eta(r(z_eta(tau, v, _SC)), SUDDEN_COMPRESSION) == pytest.approx(
        eta_max_sc(eta_c, v), rel=1e-12, abs=0
    )
    assert eta(r(z_eta(tau, v, _SE)), SUDDEN_EXPANSION) == pytest.approx(
        eta_max_se(eta_c, v), rel=1e-12, abs=0
    )
    assert eta(r(z_work(tau, v, _SC)), SUDDEN_COMPRESSION) == pytest.approx(
        eta_mw(tau, v, _SC), rel=1e-12, abs=0
    )
    assert eta(r(z_work(tau, v, _SE)), SUDDEN_EXPANSION) == pytest.approx(
        eta_mw(tau, v, _SE), rel=1e-12, abs=0
    )


@pytest.mark.parametrize("tau,v", [(0.5, 0.5), (0.3, 0.75), (0.6, 0.9)])
def test_trade_off_maximizer_satisfies_stationarity_identity(tau, v):
    # differentiating the trade-off objective gives z**3 = g (2 - eta_max)/2
    # for both scenarios
    g = tau * relativistic_factor(v)
    for scenario, cap_fn in ((_SC, eta_max_sc), (_SE, eta_max_se)):
        z = z_omega(tau, v, scenario)
        cap = cap_fn(1.0 - tau, v)
        assert z**3 == pytest.approx(g * (2.0 - cap) / 2.0, rel=1e-13, abs=0)


def test_figure_of_merit_ordering():
    for eta_c in (0.3, 0.5, 0.7):
        for v in (0.2, 0.5, 0.9):
            for scenario, cap_fn, mid_fn in (
                (_SC, eta_max_sc, eta_omega_sc),
                (_SE, eta_max_se, eta_omega_se),
            ):
                top = cap_fn(eta_c, v)
                mid = mid_fn(eta_c, v)
                low = eta_mw(1.0 - eta_c, v, scenario)
                assert top > mid > low


CARNOT_VIEWS = {
    _SC: {Objective.EFFICIENCY: eta_max_sc, Objective.OMEGA: eta_omega_sc},
    _SE: {Objective.EFFICIENCY: eta_max_se, Objective.OMEGA: eta_omega_se},
}


def test_carnot_views_are_optimize():
    # each function of eta_c is optimize's efficiency at tau = 1 - eta_c, bit for bit
    rng = random.Random(20261019)
    for _ in range(1000):
        eta_c, v = rng.uniform(1e-3, 0.999), rng.uniform(0.0, 0.999)
        for scenario, views in CARNOT_VIEWS.items():
            for objective, view in views.items():
                report = optimize(objective, scenario, 1.0 - eta_c, v)
                assert view(eta_c, v) == report.eta_at_opt, (eta_c, v, view.__name__)


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
    for scenario in (SUDDEN_COMPRESSION, SUDDEN_EXPANSION):
        lo, hi = engine_floor(tau, v, scenario), 1.0
        assert lo < z_eta(tau, v, scenario) < hi
        assert lo < z_work(tau, v, scenario) < hi


@pytest.mark.parametrize("tau,v", [(0.5, 0.5), (0.3, 0.75)])
def test_optima_are_stationary_and_concave(tau, v):
    r = lambda z: ReducedParams(z=z, g=reduced_load(tau, v))
    probes = [
        (z_eta(tau, v, _SC), lambda z: eta(r(z), SUDDEN_COMPRESSION)),
        (z_eta(tau, v, _SE), lambda z: eta(r(z), SUDDEN_EXPANSION)),
        (z_work(tau, v, _SC), lambda z: work(r(z), SUDDEN_COMPRESSION)),
        (z_work(tau, v, _SE), lambda z: work(r(z), SUDDEN_EXPANSION)),
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
    z_sc = z_omega(tau, v, _SC)
    z_se = z_omega(tau, v, _SE)
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
    report = optimize(Objective.EFFICIENCY, SUDDEN_COMPRESSION, 0.5, 0.5)
    assert isinstance(report, OptimumReport)
    assert report.z_star == pytest.approx(want["z_eta_sc"], rel=1e-13, abs=0)
    assert report.value_at_opt == report.eta_at_opt
    assert report.eta_at_opt == pytest.approx(want["eta_max_sc"], rel=1e-12, abs=0)


def test_optimize_work_report_scales_with_temperature(capsys):
    want = REFERENCE["optima"]["tau=0.3,v=0.75"]
    base = optimize(Objective.WORK, SUDDEN_EXPANSION, 0.3, 0.75)
    assert base.z_star == pytest.approx(want["z_work"], rel=1e-13, abs=0)
    assert base.value_at_opt == pytest.approx(want["work_max_se"], rel=1e-12, abs=0)
    # optimize is unit-free; the CLI prints the work in units of 1/beta_h
    assert cli.main(["optimize", "--objective", "work", "--scenario", "se",
                     "--tau", "0.3", "--v", "0.75", "--beta-h", "2.0"]) == 0
    colder = json.loads(capsys.readouterr().out)
    assert colder["value"] == pytest.approx(base.value_at_opt / 2.0, rel=1e-12, abs=0)
    assert colder["z_star"] == base.z_star


def test_optimize_trade_off_uses_closed_form():
    want = REFERENCE["optima"]["tau=0.5,v=0.5"]
    for scenario, z_key, w_key in (
        (SUDDEN_COMPRESSION, "z_omega_sc", "omega_max_sc"),
        (SUDDEN_EXPANSION, "z_omega_se", "omega_max_se"),
    ):
        report = optimize(Objective.OMEGA, scenario, 0.5, 0.5)
        assert report.z_star == pytest.approx(want[z_key], rel=1e-13, abs=0)
        assert report.value_at_opt == pytest.approx(want[w_key], rel=1e-12, abs=0)


GRID_10 = [0.05 + 0.9 * i / 9 for i in range(10)]


@pytest.mark.parametrize(
    "scenario,cap_fn",
    [
        pytest.param(_SC, eta_max_sc, id="scenario0-z_star_omega_sc-eta_max_sc"),
        pytest.param(_SE, eta_max_se, id="scenario1-z_star_omega_se-eta_max_se"),
    ],
)
def test_trade_off_closed_form_agrees_with_oracle(scenario, cap_fn):
    # the grid oracle verifies the closed form; it does not compute it
    for tau in GRID_10:
        for v in GRID_10:
            cap = cap_fn(1.0 - tau, v)

            def omega(z):
                r = ReducedParams(z=z, g=reduced_load(tau, v))
                return 2.0 * work(r, scenario) - cap * qh(r, scenario)

            lo, hi = engine_floor(tau, v, scenario), 1.0
            z_oracle, _ = maximize(omega, lo, hi)
            assert abs(z_omega(tau, v, scenario) - z_oracle) <= ORACLE_AGREEMENT_TOL, (tau, v)


# A closed form that fails its certificate raises; the CLI turns that into
# exit 3.


def inject_work_candidate(monkeypatch, candidate):
    # optimize forms the work candidate inline from its window's load, so the
    # bad candidate replaces it where the window certifies it
    class Injected(optima._Window):
        def certified(self, _, objective):
            return super().certified(candidate, objective)

    monkeypatch.setattr(optima, "_Window", Injected)


def test_optimize_refuses_a_candidate_that_is_not_a_maximum(monkeypatch):
    want = REFERENCE["optima"]["tau=0.5,v=0.5"]
    lo = engine_floor(0.5, 0.5, _SC)
    # inside the window, but on the rising flank below the true maximizer
    inject_work_candidate(monkeypatch, 0.5 * (lo + want["z_work"]))
    with pytest.raises(NoInteriorOptimumError, match="not a local maximum"):
        optimize(Objective.WORK, SUDDEN_COMPRESSION, 0.5, 0.5)


@pytest.mark.parametrize("bad", ["below-window", 1.5, math.nan, math.inf])
def test_optimize_refuses_a_candidate_outside_the_window(monkeypatch, bad):
    lo = engine_floor(0.5, 0.5, _SE)
    candidate = 0.5 * lo if bad == "below-window" else bad
    inject_work_candidate(monkeypatch, candidate)
    with pytest.raises(NoInteriorOptimumError, match="is outside the engine window"):
        optimize(Objective.WORK, SUDDEN_EXPANSION, 0.5, 0.5)


def test_optimize_names_an_unknown_objective():
    with pytest.raises(ValueError, match="unknown objective bogus"):
        optimize("bogus", SUDDEN_COMPRESSION, 0.5, 0.5)
    # Objective is a str enum, so its plain value selects the same optimum
    for objective in Objective:
        for scenario in (_SC, _SE):
            plain = optimize(objective.value, scenario, 0.5, 0.5)
            assert plain == optimize(objective, scenario, 0.5, 0.5), (objective, scenario)


def test_peak_efficiency_refuses_uncertified_root(monkeypatch):
    # eta_max feeds every trade-off value, so its cubic root is certified too
    root = z_eta(0.5, 0.5, _SC)
    monkeypatch.setattr(optima, "principal_trig_root", lambda cubic: 0.9 * root)
    with pytest.raises(NoInteriorOptimumError):
        peak_efficiency(reduced_load(0.5, 0.5), SUDDEN_COMPRESSION)
    with pytest.raises(NoInteriorOptimumError):
        z_omega(0.5, 0.5, _SC)
    # below the load the expansion quench draws no heat; its window floor,
    # about 2g at small g, refuses this root before an efficiency is formed
    g = reduced_load(1e-20, 0.5)
    monkeypatch.setattr(optima, "principal_trig_root", lambda cubic: 0.5 * g)
    with pytest.raises(NoInteriorOptimumError, match="is outside the engine window"):
        peak_efficiency(g, SUDDEN_EXPANSION)
    # the efficiency itself refuses a ratio at or below the load, where q_h <= 0
    for scenario in (SUDDEN_COMPRESSION, SUDDEN_EXPANSION):
        window = optima._Window(g, scenario)
        for z in (0.5 * g, g):
            with pytest.raises(NoInteriorOptimumError, match="fell outside the engine window"):
                window.eta(z)


@pytest.mark.parametrize(
    "call",
    [
        *(
            pytest.param(
                lambda objective=objective, scenario=scenario: optimize(
                    objective, scenario, 0.5, 0.5
                ),
                id=f"optimize-{objective.value}{suffix}",
            )
            for scenario, suffix in ((_SC, ""), (_SE, "-se"))
            for objective in Objective
        ),
        pytest.param(lambda: peak_efficiency(reduced_load(0.5, 0.5), _SC), id="peak-sc"),
        pytest.param(lambda: peak_efficiency(reduced_load(0.5, 0.5), _SE), id="peak-se"),
        *(
            pytest.param(lambda fn=fn: fn(0.5, 0.5), id=fn.__name__)
            for fn in (eta_max_sc, eta_max_se, eta_omega_sc, eta_omega_se)
        ),
    ],
)
def test_trade_off_optimum_builds_its_load_once(monkeypatch, factor_calls, call):
    # one f(v) per optimum: the window's load feeds the efficiency root, the
    # candidate, every probe and eta_max; no per-probe ReducedParams
    def refuse(cls, *args, **kwargs):
        raise AssertionError("ReducedParams built")

    monkeypatch.setattr(ReducedParams, "__new__", refuse)
    call()
    assert len(factor_calls) == 1


EDGE_AXIS = [1e-6] + [k / 65 for k in range(1, 65)] + [0.999999]


@pytest.mark.parametrize("tau", [1e-6, 0.999999])
def test_optimize_returns_the_closed_form_on_edge_rows(tau):
    # at tau = 1e-6 the se objectives are flat to rounding; at tau = 0.999999
    # the engine window can be narrower than the pair of certificate probes
    for v in EDGE_AXIS:
        g = reduced_load(tau, v)
        for scenario in (SUDDEN_COMPRESSION, SUDDEN_EXPANSION):
            cap = peak_efficiency(g, scenario)
            want = {
                Objective.EFFICIENCY: principal_trig_root(scenario_forms(scenario).efficiency_cubic(g)),
                Objective.WORK: g ** (1.0 / 3.0),
                Objective.OMEGA: (g * (1.0 - 0.5 * cap)) ** (1.0 / 3.0),
            }
            for objective, z_want in want.items():
                report = optimize(objective, scenario, tau, v)
                assert report.z_star == z_want, (tau, v, scenario, objective)


def test_target_rejects_symmetric_scenarios():
    with pytest.raises(ValueError):
        optimize(Objective.WORK, BOTH_SUDDEN, 0.5, 0.5)


def test_report_validates_ratio():
    with pytest.raises(ValueError):
        OptimumReport(z_star=1.2, value_at_opt=0.1, eta_at_opt=0.1)


# -- domain guards -----------------------------------------------------------------


def test_no_engine_window_when_load_saturates():
    assert 0.0 < engine_floor(0.999, 0.001, _SC) < 1.0
    # f(v) <= 1, so the load is at most tau < 1; at tau = 1 - 2**-53 and a
    # tiny v it is tau itself, the window's floor is tau too, and every
    # closed form rounds to 1, outside the window
    tau, v = 0.9999999999999999, 1.673740958757154e-16
    assert relativistic_factor(v) == 1.0 and reduced_load(tau, v) == tau
    for scenario in (_SC, _SE):
        assert engine_floor(tau, v, scenario) == tau
        calls = [lambda: peak_efficiency(reduced_load(tau, v), scenario)]
        calls += [
            lambda objective=objective: optimize(objective, scenario, tau, v)
            for objective in Objective
        ]
        for call in calls:
            with pytest.raises(NoInteriorOptimumError, match="outside the engine window"):
                call()


def test_no_interior_optimum_at_zero_load():
    with pytest.raises(NoInteriorOptimumError):
        peak_efficiency(0.0, SUDDEN_COMPRESSION)
    with pytest.raises(NoInteriorOptimumError):
        peak_efficiency(0.0, SUDDEN_EXPANSION)


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: peak_efficiency(0.0, _SC), NoInteriorOptimumError, id="peak-sc"),
        pytest.param(lambda: peak_efficiency(0.0, _SE), NoInteriorOptimumError, id="peak-se"),
        pytest.param(lambda: reduced_load(0.0, 0.5), ValueError, id="reduced_load"),
        *(
            pytest.param(
                lambda objective=objective: optimize(objective, _SC, 0.0, 0.5),
                ValueError,
                id=f"optimize-{objective.value}",
            )
            for objective in Objective
        ),
    ],
)
def test_zero_tau_exception_classes(call, error):
    # a zero load g puts the efficiency root at z = 0, so peak_efficiency
    # finds no interior optimum; every entry point that takes (tau, v) forms
    # g with reduced_load, which refuses tau = 0 as bad input
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is error


def test_domain_validation_errors():
    with pytest.raises(ValueError):
        eta_max_sc(1.0, 0.5)
    with pytest.raises(ValueError):
        eta_mw(1.0, 0.5, _SE)
    with pytest.raises(ValueError):
        eta_omega_sc(-0.1, 0.5)
    with pytest.raises(ValueError):  # tau > 1 with a load below 1
        peak_efficiency(reduced_load(1.2, 0.9), SUDDEN_COMPRESSION)
    with pytest.raises(ValueError):
        peak_efficiency(1.0, SUDDEN_COMPRESSION)
    with pytest.raises(ValueError):
        peak_efficiency(0.5, BOTH_SUDDEN)


def _decimal_efficiency_root(g: float, scenario) -> Decimal:
    """Largest root of the efficiency cubic at the double g, by Newton in 80 digits."""
    with localcontext() as ctx:
        ctx.prec = 80
        d_g = Decimal(g)
        if scenario == SUDDEN_COMPRESSION:
            # (2 - g) z^3 - 3 g z + 2 g^2, the root near sqrt(3g/2)
            def f(z):
                return (2 - d_g) * z**3 - 3 * d_g * z + 2 * d_g * d_g

            def df(z):
                return 3 * (2 - d_g) * z * z - 3 * d_g

            z = (3 * d_g / 2).sqrt()
        else:
            # z^3 - (3/2) g z^2 - g (1 - 2g)/2, the root near (g/2)^(1/3); above
            # g = 1/2 the cubic is positive, rising and convex from 3g/2 on, so
            # Newton from there falls to the largest root, not the middle one
            def f(z):
                return z**3 - Decimal("1.5") * d_g * z * z - d_g * (1 - 2 * d_g) / 2

            def df(z):
                return 3 * z * z - 3 * d_g * z

            z = max((d_g / 2) ** (Decimal(1) / 3), Decimal("1.5") * d_g)
        for _ in range(100):
            step = f(z) / df(z)
            z -= step
            if abs(step) <= z.copy_abs() * Decimal("1e-75"):
                return z
        raise AssertionError(f"Newton did not converge at g={g}")


@pytest.mark.parametrize("scenario", [SUDDEN_COMPRESSION, SUDDEN_EXPANSION], ids=["sc", "se"])
def test_subnormal_load_efficiency_root_is_within_4_ulps(scenario):
    # a subnormal load would make the cubic's load coefficients subnormal too;
    # v = 0 makes the load tau itself
    for g in (5e-324, 1e-322, 1e-320, 1e-315, 1e-310):
        z_star = optimize(Objective.EFFICIENCY, scenario, g, 0.0).z_star
        want = _decimal_efficiency_root(g, scenario)
        assert abs(Decimal(z_star) - want) <= 4 * Decimal(math.ulp(z_star)), (g, z_star, want)


@pytest.mark.parametrize("scenario", [SUDDEN_COMPRESSION, SUDDEN_EXPANSION], ids=["sc", "se"])
def test_peak_efficiency_closed_forms(scenario):
    # At the stationary ratio z* the cubic turns eta into 1 - z*^3/g in both
    # scenarios: (2 + g - 3 z*)/(2 - g) in sc, which tends to 1 as g -> 0, and
    # 1/2 + g - (3/2) z*^2 in se, which is below 1/2 exactly when z*^2 > 2g/3.
    sc = scenario == SUDDEN_COMPRESSION
    for g in (1e-300, 1e-100, 1e-12, 1e-3, 0.1, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9):
        z = _decimal_efficiency_root(g, scenario)
        # the maximizing root, not another root of the cubic
        z_star = optimize(Objective.EFFICIENCY, scenario, g, 0.0).z_star
        assert float(z) == pytest.approx(z_star, rel=1e-12, abs=0), g
        with localcontext() as ctx:
            ctx.prec = 80
            d_g = Decimal(g)
            if sc:
                eta_z = (1 - z) * (2 * z * z - d_g * (1 + z)) / (2 * z * z - d_g * (z * z + 1))
                form = (2 + d_g - 3 * z) / (2 - d_g)
            else:
                eta_z = (1 - z) * (z * (1 + z) - 2 * d_g) / (2 * (z - d_g))
                form = Decimal("0.5") + d_g - Decimal("1.5") * z * z
                assert z * z > 2 * d_g / 3, g
            for closed in (1 - z**3 / d_g, form):
                assert abs(eta_z - closed) <= Decimal("1e-70") * eta_z, (g, eta_z, closed)
    # the double optimum obeys the same identity across the whole load range
    rng = random.Random(20261021)
    for _ in range(4000):
        g = 10.0 ** rng.uniform(-300.0, math.log10(0.9))
        z_star = optimize(Objective.EFFICIENCY, scenario, g, 0.0).z_star
        want = 1.0 - z_star**3 / g
        assert peak_efficiency(g, scenario) == pytest.approx(want, rel=1e-12, abs=0), g


@pytest.mark.parametrize("scenario", [SUDDEN_COMPRESSION, SUDDEN_EXPANSION], ids=["sc", "se"])
def test_window_refuses_every_bad_load(scenario):
    # the engine floors of the scenario table take any load unguarded; the
    # window built on them still refuses a load outside [0, 1), a bad one by name
    with pytest.raises(NoInteriorOptimumError):
        peak_efficiency(1.5, scenario)
    for g in (-0.5, math.nan, math.inf):
        message = f"reduced load g must be finite and non-negative, got {g}"
        with pytest.raises(ValueError, match=re.escape(message)) as caught:
            peak_efficiency(g, scenario)
        assert type(caught.value) is ValueError


def test_stationary_velocity_limit():
    # v = 0 collapses the factor to 1: plain temperature-ratio load
    for scenario in (SUDDEN_COMPRESSION, SUDDEN_EXPANSION):
        assert z_work(0.5, 0.0, scenario) == pytest.approx(0.5 ** (1.0 / 3.0), rel=1e-15, abs=0)
    assert math.sqrt(reduced_load(0.5, 0.0)) == pytest.approx(math.sqrt(0.5), rel=1e-15, abs=0)
    assert eta_mw(0.5, 0.0, _SC) > 0.0
    # every optimum accepts the v = 0 limit that its domain [0, 1) admits
    for scenario in (SUDDEN_COMPRESSION, SUDDEN_EXPANSION):
        at_rest = peak_efficiency(reduced_load(0.5, 0.0), scenario)
        assert at_rest == peak_efficiency(reduced_load(0.5, 1e-12), scenario)
        at_rest = optimize(Objective.OMEGA, scenario, 0.5, 0.0)
        assert at_rest.z_star == optimize(Objective.OMEGA, scenario, 0.5, 1e-12).z_star
    assert eta_omega_sc(0.5, 0.0) == eta_omega_sc(0.5, 1e-12)


def test_maximum_work_is_its_closed_form_and_compression_wins():
    # at z* = c = g**(1/3) the work is (1 - c)**2 (2 + c)/2 (sc) and
    # (1 - c)**2 (1 + 2c)/2 (se); their difference (1 - c)**3/2 is positive
    rng = random.Random(20261020)
    for _ in range(2000):
        tau, v = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        c = reduced_load(tau, v) ** (1.0 / 3.0)
        sc = optimize(Objective.WORK, _SC, tau, v).value_at_opt
        se = optimize(Objective.WORK, _SE, tau, v).value_at_opt
        assert sc == pytest.approx((1.0 - c) ** 2 * (2.0 + c) / 2.0, rel=2e-14, abs=0), (tau, v)
        assert se == pytest.approx(
            (1.0 - c) ** 2 * (1.0 + 2.0 * c) / 2.0, rel=2e-14, abs=0
        ), (tau, v)
        assert sc > se, (tau, v)
        assert abs((sc - se) - (1.0 - c) ** 3 / 2.0) <= 2e-14 * (sc + se), (tau, v)
    # c falls as v rises, so the maximum work rises with v
    for scenario in (_SC, _SE):
        for tau in (0.2, 0.5, 0.8):
            values = [
                optimize(Objective.WORK, scenario, tau, k / 20).value_at_opt for k in range(20)
            ]
            assert all(b > a for a, b in zip(values, values[1:])), (scenario, tau)


def test_peak_efficiency_tends_to_one_sc_and_to_half_se():
    # as g = tau f(v) -> 0 (eta_c -> 1 or v -> 1), 1 - eta_max shrinks like
    # sqrt(27 g / 8) in sudden compression, while eta_max stays below 1/2 in
    # sudden expansion and closes on it like g**(2/3)
    sc_before = se_before = 0.0
    for k in range(1, 16):
        g = 10.0**-k
        sc, se = peak_efficiency(g, _SC), peak_efficiency(g, _SE)
        assert sc_before < sc and 1.0 - sc <= 2.0 * math.sqrt(g), g
        assert se_before < se <= 0.5 and 0.5 - se <= g ** (2.0 / 3.0), g
        sc_before, se_before = sc, se


def test_work_dominance_swaps_at_crossing():
    tau, v = 0.5, 0.5
    z_cross = math.sqrt(reduced_load(tau, v))
    r = lambda z: ReducedParams(z=z, g=reduced_load(tau, v))
    for z in (z_cross - 0.05, z_cross - 0.01):
        assert work(r(z), SUDDEN_EXPANSION) > work(r(z), SUDDEN_COMPRESSION)
    for z in (z_cross + 0.01, z_cross + 0.05):
        assert work(r(z), SUDDEN_COMPRESSION) > work(r(z), SUDDEN_EXPANSION)
