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
    omega_function,
    optimize,
    peak_efficiency,
    performance,
    reduced_load,
    relativistic_factor,
)
from otto_rel.cubic import principal_trig_root
from otto_rel.high_temperature import eta, qh, scenario_forms, work
from otto_rel.optima import ORACLE_AGREEMENT_TOL
from otto_rel.oracle import maximize
from otto_rel import cli, optima
from _printed_forms import printed_omega_maximizer_sc, printed_omega_maximizer_se
from _reference import REFERENCE
from _scaffold import BOTH_SUDDEN, POINTS, SCENARIOS, decimal_newton, each_scenario


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
@each_scenario
def test_frozen_closed_form_optima(case, key):
    tau, v = POINTS[key]
    want = REFERENCE["optima"][key]
    s, scenario = case.token, case.scenario

    assert z_eta(tau, v, scenario) == pytest.approx(want[f"z_eta_{s}"], rel=1e-13, abs=0)
    assert case.eta_max(1.0 - tau, v) == pytest.approx(want[f"eta_max_{s}"], rel=1e-13, abs=0)
    cap = peak_efficiency(reduced_load(tau, v), scenario)
    assert cap == pytest.approx(want[f"eta_max_{s}"], rel=1e-13, abs=0)

    assert z_work(tau, v, scenario) == pytest.approx(want["z_work"], rel=1e-15, abs=0)
    assert eta_mw(tau, v, scenario) == pytest.approx(want[f"eta_mw_{s}"], rel=1e-13, abs=0)
    assert engine_floor(tau, v, scenario) == pytest.approx(
        want[f"engine_lb_{s}"], rel=1e-15, abs=0
    )

    r = ReducedParams(z=want["z_work"], g=reduced_load(tau, v))
    assert work(r, scenario) == pytest.approx(want[f"work_max_{s}"], rel=1e-13, abs=0)


@pytest.mark.parametrize("key", sorted(POINTS))
@each_scenario
def test_frozen_trade_off_optima(case, key):
    tau, v = POINTS[key]
    want = REFERENCE["optima"][key]
    s, scenario = case.token, case.scenario

    report = optimize(Objective.OMEGA, scenario, tau, v)
    assert report.z_star == pytest.approx(want[f"z_omega_{s}"], rel=1e-13, abs=0)
    assert case.eta_omega(1.0 - tau, v) == pytest.approx(
        want[f"eta_omega_{s}"], rel=1e-13, abs=0
    )
    record = performance(ReducedParams(z=report.z_star, g=reduced_load(tau, v)), scenario)
    omega = omega_function(record, peak_efficiency(reduced_load(tau, v), scenario))
    for value in (omega, report.value_at_opt):
        assert value == pytest.approx(want[f"omega_max_{s}"], rel=1e-12, abs=0)


def test_frozen_trade_off_efficiency_spots():
    spots = REFERENCE["trade_off_efficiency"]
    for token, eta_c in (("sc", 0.99), ("sc", 0.999), ("se", 0.99)):
        want = spots[f"{token}_eta_c={eta_c},v=0.95"]
        assert SCENARIOS[token].eta_omega(eta_c, 0.95) == pytest.approx(want, rel=1e-13, abs=0)
    # the compression quench escapes the 1/2 ceiling, the expansion one cannot
    assert SCENARIOS["sc"].eta_omega(0.999, 0.95) > 0.9
    assert SCENARIOS["se"].eta_omega(0.99, 0.95) <= 0.5


# -- internal consistency -------------------------------------------------------


@pytest.mark.parametrize("tau,v", [(0.5, 0.5), (0.3, 0.75), (0.7, 0.2), (0.15, 0.9)])
@each_scenario
def test_peak_efficiency_equals_efficiency_at_peak(case, tau, v):
    scenario = case.scenario
    r = lambda z: ReducedParams(z=z, g=reduced_load(tau, v))
    assert eta(r(z_eta(tau, v, scenario)), scenario) == pytest.approx(
        case.eta_max(1.0 - tau, v), rel=1e-12, abs=0
    )
    assert eta(r(z_work(tau, v, scenario)), scenario) == pytest.approx(
        eta_mw(tau, v, scenario), rel=1e-12, abs=0
    )


@pytest.mark.parametrize("tau,v", [(0.5, 0.5), (0.3, 0.75), (0.6, 0.9)])
@each_scenario
def test_trade_off_maximizer_satisfies_stationarity_identity(case, tau, v):
    # differentiating the trade-off objective gives z**3 = g (2 - eta_max)/2
    # for both scenarios
    g = tau * relativistic_factor(v)
    z = z_omega(tau, v, case.scenario)
    cap = case.eta_max(1.0 - tau, v)
    assert z**3 == pytest.approx(g * (2.0 - cap) / 2.0, rel=1e-13, abs=0)


@each_scenario
def test_figure_of_merit_ordering(case):
    for eta_c in (0.3, 0.5, 0.7):
        for v in (0.2, 0.5, 0.9):
            top = case.eta_max(eta_c, v)
            mid = case.eta_omega(eta_c, v)
            low = eta_mw(1.0 - eta_c, v, case.scenario)
            assert top > mid > low


@each_scenario
def test_carnot_views_are_optimize(case):
    # each function of eta_c is optimize's efficiency at tau = 1 - eta_c, bit for bit
    rng = random.Random(20261019)
    views = {Objective.EFFICIENCY: case.eta_max, Objective.OMEGA: case.eta_omega}
    for _ in range(1000):
        eta_c, v = rng.uniform(1e-3, 0.999), rng.uniform(0.0, 0.999)
        for objective, view in views.items():
            report = optimize(objective, case.scenario, 1.0 - eta_c, v)
            assert view(eta_c, v) == report.eta_at_opt, (eta_c, v, view.__name__)


def test_expansion_trade_off_efficiency_bounded_by_half():
    for eta_c in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        for v in (0.05, 0.35, 0.75, 0.95):
            assert SCENARIOS["se"].eta_omega(eta_c, v) <= 0.5 + 1e-9


@each_scenario
def test_trade_off_efficiency_monotone_in_carnot_limit(case):
    vals = [case.eta_omega(0.05 + 0.9 * i / 9, 0.75) for i in range(10)]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


@settings(max_examples=100)
@given(
    tau=st.floats(min_value=0.02, max_value=0.98),
    v=st.floats(min_value=0.0, max_value=0.98),
)
@each_scenario
def test_closed_form_maximizers_stay_inside_window(case, tau, v):
    lo, hi = engine_floor(tau, v, case.scenario), 1.0
    assert lo < z_eta(tau, v, case.scenario) < hi
    assert lo < z_work(tau, v, case.scenario) < hi


# -- printed trade-off maximizers -----------------------------------------------


def test_printed_trade_off_forms_disagree_with_oracle():
    # the package maximizers are checked against the oracle in
    # test_trade_off_closed_form_agrees_with_oracle
    tau, v = 0.5, 0.5
    z_sc = z_omega(tau, v, SUDDEN_COMPRESSION)
    z_se = z_omega(tau, v, SUDDEN_EXPANSION)
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


GRID_10 = [0.05 + 0.9 * i / 9 for i in range(10)]


@each_scenario
def test_trade_off_closed_form_agrees_with_oracle(case):
    # the grid oracle verifies the closed form; it does not compute it
    scenario = case.scenario
    for tau in GRID_10:
        for v in GRID_10:
            cap = case.eta_max(1.0 - tau, v)

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
    lo = engine_floor(0.5, 0.5, SUDDEN_COMPRESSION)
    # inside the window, but on the rising flank below the true maximizer
    inject_work_candidate(monkeypatch, 0.5 * (lo + want["z_work"]))
    with pytest.raises(NoInteriorOptimumError, match="not a local maximum"):
        optimize(Objective.WORK, SUDDEN_COMPRESSION, 0.5, 0.5)


@pytest.mark.parametrize("bad", ["below-window", 1.5, math.nan, math.inf])
def test_optimize_refuses_a_candidate_outside_the_window(monkeypatch, bad):
    lo = engine_floor(0.5, 0.5, SUDDEN_EXPANSION)
    candidate = 0.5 * lo if bad == "below-window" else bad
    inject_work_candidate(monkeypatch, candidate)
    with pytest.raises(NoInteriorOptimumError, match="is outside the engine window"):
        optimize(Objective.WORK, SUDDEN_EXPANSION, 0.5, 0.5)


def test_optimize_names_an_unknown_objective():
    with pytest.raises(ValueError, match="unknown objective bogus"):
        optimize("bogus", SUDDEN_COMPRESSION, 0.5, 0.5)
    # Objective is a str enum, so its plain value selects the same optimum
    for objective in Objective:
        for case in SCENARIOS.values():
            plain = optimize(objective.value, case.scenario, 0.5, 0.5)
            assert plain == optimize(objective, case.scenario, 0.5, 0.5), (objective, case.token)


def test_peak_efficiency_refuses_uncertified_root(monkeypatch):
    # eta_max feeds every trade-off value, so its cubic root is certified too
    root = z_eta(0.5, 0.5, SUDDEN_COMPRESSION)
    monkeypatch.setattr(optima, "principal_trig_root", lambda cubic: 0.9 * root)
    with pytest.raises(NoInteriorOptimumError):
        peak_efficiency(reduced_load(0.5, 0.5), SUDDEN_COMPRESSION)
    with pytest.raises(NoInteriorOptimumError):
        z_omega(0.5, 0.5, SUDDEN_COMPRESSION)
    # below the load the expansion quench draws no heat; its window floor,
    # about 2g at small g, refuses this root before an efficiency is formed
    g = reduced_load(1e-20, 0.5)
    monkeypatch.setattr(optima, "principal_trig_root", lambda cubic: 0.5 * g)
    with pytest.raises(NoInteriorOptimumError, match="is outside the engine window"):
        peak_efficiency(g, SUDDEN_EXPANSION)
    # the efficiency itself refuses a ratio at or below the load, where q_h <= 0
    for case in SCENARIOS.values():
        window = optima._Window(g, case.scenario)
        for z in (0.5 * g, g):
            with pytest.raises(NoInteriorOptimumError, match="fell outside the engine window"):
                window.eta(z)


@pytest.mark.parametrize(
    "call",
    [
        *(
            pytest.param(
                lambda case, objective=objective: optimize(objective, case.scenario, 0.5, 0.5),
                id=f"optimize-{objective.value}",
            )
            for objective in Objective
        ),
        pytest.param(
            lambda case: peak_efficiency(reduced_load(0.5, 0.5), case.scenario), id="peak"
        ),
        pytest.param(lambda case: case.eta_max(0.5, 0.5), id="eta_max"),
        pytest.param(lambda case: case.eta_omega(0.5, 0.5), id="eta_omega"),
    ],
)
@each_scenario
def test_trade_off_optimum_builds_its_load_once(monkeypatch, factor_calls, case, call):
    # one f(v) per optimum: the window's load feeds the efficiency root, the
    # candidate, every probe and eta_max; no per-probe ReducedParams
    def refuse(cls, *args, **kwargs):
        raise AssertionError("ReducedParams built")

    monkeypatch.setattr(ReducedParams, "__new__", refuse)
    call(case)
    assert len(factor_calls) == 1


EDGE_AXIS = [1e-6] + [k / 65 for k in range(1, 65)] + [0.999999]


@pytest.mark.parametrize("tau", [1e-6, 0.999999])
@each_scenario
def test_optimize_returns_the_closed_form_on_edge_rows(case, tau):
    # at tau = 1e-6 the se objectives are flat to rounding; at tau = 0.999999
    # the engine window can be narrower than the pair of certificate probes
    scenario = case.scenario
    for v in EDGE_AXIS:
        g = reduced_load(tau, v)
        cap = peak_efficiency(g, scenario)
        want = {
            Objective.EFFICIENCY: principal_trig_root(scenario_forms(scenario).efficiency_cubic(g)),
            Objective.WORK: g ** (1.0 / 3.0),
            Objective.OMEGA: (g * (1.0 - 0.5 * cap)) ** (1.0 / 3.0),
        }
        for objective, z_want in want.items():
            report = optimize(objective, scenario, tau, v)
            assert report.z_star == z_want, (tau, v, objective)


def test_target_rejects_symmetric_scenarios():
    with pytest.raises(ValueError):
        optimize(Objective.WORK, BOTH_SUDDEN, 0.5, 0.5)


def test_report_validates_ratio():
    with pytest.raises(ValueError):
        OptimumReport(z_star=1.2, value_at_opt=0.1, eta_at_opt=0.1)


# -- domain guards -----------------------------------------------------------------


@each_scenario
def test_no_engine_window_when_load_saturates(case):
    scenario = case.scenario
    assert 0.0 < engine_floor(0.999, 0.001, scenario) < 1.0
    # f(v) <= 1, so the load is at most tau < 1; at tau = 1 - 2**-53 and a
    # tiny v it is tau itself, the window's floor is tau too, and every
    # closed form rounds to 1, outside the window
    tau, v = 0.9999999999999999, 1.673740958757154e-16
    assert relativistic_factor(v) == 1.0 and reduced_load(tau, v) == tau
    assert engine_floor(tau, v, scenario) == tau
    calls = [lambda: peak_efficiency(reduced_load(tau, v), scenario)]
    calls += [
        lambda objective=objective: optimize(objective, scenario, tau, v)
        for objective in Objective
    ]
    for call in calls:
        with pytest.raises(NoInteriorOptimumError, match="outside the engine window"):
            call()


@pytest.mark.parametrize(
    "call, error",
    [
        *(
            pytest.param(
                lambda scenario=case.scenario: peak_efficiency(0.0, scenario),
                NoInteriorOptimumError,
                id=f"peak-{token}",
            )
            for token, case in SCENARIOS.items()
        ),
        pytest.param(lambda: reduced_load(0.0, 0.5), ValueError, id="reduced_load"),
        *(
            pytest.param(
                lambda objective=objective: optimize(objective, SUDDEN_COMPRESSION, 0.0, 0.5),
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
        SCENARIOS["sc"].eta_max(1.0, 0.5)
    with pytest.raises(ValueError):
        eta_mw(1.0, 0.5, SUDDEN_EXPANSION)
    with pytest.raises(ValueError):
        SCENARIOS["sc"].eta_omega(-0.1, 0.5)
    with pytest.raises(ValueError):  # tau > 1 with a load below 1
        peak_efficiency(reduced_load(1.2, 0.9), SUDDEN_COMPRESSION)
    with pytest.raises(ValueError):
        peak_efficiency(1.0, SUDDEN_COMPRESSION)
    with pytest.raises(ValueError):
        peak_efficiency(0.5, BOTH_SUDDEN)


def _decimal_efficiency_root(g: float, case) -> Decimal:
    """Largest root of the efficiency cubic at the double g, by Newton in 80 digits."""
    d_g = Decimal(g)
    return decimal_newton(lambda z: case.efficiency_cubic(z, d_g), case.newton_start(d_g))


@each_scenario
def test_subnormal_load_efficiency_root_is_within_4_ulps(case):
    # a subnormal load would make the cubic's load coefficients subnormal too;
    # v = 0 makes the load tau itself
    for g in (5e-324, 1e-322, 1e-320, 1e-315, 1e-310):
        z_star = optimize(Objective.EFFICIENCY, case.scenario, g, 0.0).z_star
        want = _decimal_efficiency_root(g, case)
        assert abs(Decimal(z_star) - want) <= 4 * Decimal(math.ulp(z_star)), (g, z_star, want)


@each_scenario
def test_peak_efficiency_closed_forms(case):
    # At the stationary ratio z* the cubic turns eta into 1 - z*^3/g in both
    # scenarios, and into the scenario's ceiling (1 in sc, 1/2 in se) less a
    # positive gap: (2 + g - 3 z*)/(2 - g) in sc, which tends to 1 as g -> 0,
    # and 1/2 + g - (3/2) z*^2 in se, which is below 1/2 exactly when z*^2 > 2g/3.
    scenario = case.scenario
    for g in (1e-300, 1e-100, 1e-12, 1e-3, 0.1, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9):
        z = _decimal_efficiency_root(g, case)
        # the maximizing root, not another root of the cubic
        z_star = optimize(Objective.EFFICIENCY, scenario, g, 0.0).z_star
        assert float(z) == pytest.approx(z_star, rel=1e-12, abs=0), g
        with localcontext() as ctx:
            ctx.prec = 80
            d_g = Decimal(g)
            eta_z, gap = case.eta(z, d_g), case.peak_eta_gap(z, d_g)
            assert gap > 0, g
            for closed in (1 - z**3 / d_g, case.eta_ceiling - gap):
                assert abs(eta_z - closed) <= Decimal("1e-70") * eta_z, (g, eta_z, closed)
    # the double optimum obeys the same identity across the whole load range
    rng = random.Random(20261021)
    for _ in range(4000):
        g = 10.0 ** rng.uniform(-300.0, math.log10(0.9))
        z_star = optimize(Objective.EFFICIENCY, scenario, g, 0.0).z_star
        want = 1.0 - z_star**3 / g
        assert peak_efficiency(g, scenario) == pytest.approx(want, rel=1e-12, abs=0), g


@each_scenario
def test_window_refuses_every_bad_load(case):
    # the engine floors of the scenario table take any load unguarded; the
    # window built on them still refuses a load outside [0, 1), a bad one by name
    with pytest.raises(NoInteriorOptimumError):
        peak_efficiency(1.5, case.scenario)
    for g in (-0.5, math.nan, math.inf):
        message = f"reduced load g must be finite and non-negative, got {g}"
        with pytest.raises(ValueError, match=re.escape(message)) as caught:
            peak_efficiency(g, case.scenario)
        assert type(caught.value) is ValueError


@each_scenario
def test_stationary_velocity_limit(case):
    # v = 0 collapses the factor to 1: plain temperature-ratio load
    scenario = case.scenario
    assert z_work(0.5, 0.0, scenario) == pytest.approx(0.5 ** (1.0 / 3.0), rel=1e-15, abs=0)
    assert eta_mw(0.5, 0.0, scenario) > 0.0
    # every optimum accepts the v = 0 limit that its domain [0, 1) admits
    at_rest = peak_efficiency(reduced_load(0.5, 0.0), scenario)
    assert at_rest == peak_efficiency(reduced_load(0.5, 1e-12), scenario)
    at_rest = optimize(Objective.OMEGA, scenario, 0.5, 0.0)
    assert at_rest.z_star == optimize(Objective.OMEGA, scenario, 0.5, 1e-12).z_star
    assert case.eta_omega(0.5, 0.0) == case.eta_omega(0.5, 1e-12)


def test_maximum_work_is_its_closed_form_and_compression_wins():
    # at z* = c = g**(1/3) the work is each scenario's max_work(c):
    # (1 - c)**2 (2 + c)/2 (sc) and (1 - c)**2 (1 + 2c)/2 (se); their
    # difference (1 - c)**3/2 is positive
    rng = random.Random(20261020)
    for _ in range(2000):
        tau, v = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        c = reduced_load(tau, v) ** (1.0 / 3.0)
        best = {}
        for token, case in SCENARIOS.items():
            best[token] = optimize(Objective.WORK, case.scenario, tau, v).value_at_opt
            assert best[token] == pytest.approx(case.max_work(c), rel=2e-14, abs=0), (tau, v)
        sc, se = best["sc"], best["se"]
        assert sc > se, (tau, v)
        assert abs((sc - se) - (1.0 - c) ** 3 / 2.0) <= 2e-14 * (sc + se), (tau, v)
    # c falls as v rises, so the maximum work rises with v
    for token, case in SCENARIOS.items():
        for tau in (0.2, 0.5, 0.8):
            values = [
                optimize(Objective.WORK, case.scenario, tau, k / 20).value_at_opt
                for k in range(20)
            ]
            assert all(b > a for a, b in zip(values, values[1:])), (token, tau)


def test_peak_efficiency_tends_to_one_sc_and_to_half_se():
    # as g = tau f(v) -> 0 (eta_c -> 1 or v -> 1), 1 - eta_max shrinks like
    # sqrt(27 g / 8) in sudden compression, while eta_max stays below 1/2 in
    # sudden expansion and closes on it like g**(2/3)
    compression, expansion = SCENARIOS["sc"].scenario, SCENARIOS["se"].scenario
    sc_before = se_before = 0.0
    for k in range(1, 16):
        g = 10.0**-k
        sc, se = peak_efficiency(g, compression), peak_efficiency(g, expansion)
        assert sc_before < sc and 1.0 - sc <= 2.0 * math.sqrt(g), g
        assert se_before < se <= 0.5 and 0.5 - se <= g ** (2.0 / 3.0), g
        sc_before, se_before = sc, se


@pytest.mark.parametrize("key", sorted(POINTS))
def test_work_dominance_swaps_at_crossing(key):
    # W_sc - W_se = (1 - z)**2 (z**2 - g)/(2 z**2): the curves cross at z = sqrt(g)
    tau, v = POINTS[key]
    z_cross = math.sqrt(reduced_load(tau, v))
    assert z_cross == pytest.approx(REFERENCE["optima"][key]["crossing_z"], rel=1e-15, abs=0)
    compression, expansion = SCENARIOS["sc"].scenario, SCENARIOS["se"].scenario
    r = lambda z: ReducedParams(z=z, g=reduced_load(tau, v))
    for z in (z_cross - 0.05, z_cross - 0.01):
        assert work(r(z), expansion) > work(r(z), compression)
    for z in (z_cross + 0.01, z_cross + 0.05):
        assert work(r(z), compression) > work(r(z), expansion)
