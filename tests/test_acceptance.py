"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with -rP (the default addopts) or -s to see the lines for passing
criteria; a failing criterion prints its FAIL line and the assertion.
Tolerances and runtime budgets are stated inline and are not negotiable.
"""

import math
import random
import time
from contextlib import contextmanager

from otto_rel import (
    BOTH_ADIABATIC,
    BOTH_SUDDEN,
    SUDDEN_COMPRESSION,
    SUDDEN_EXPANSION,
    CycleParams,
    MonicCubic,
    Objective,
    OptimizationTarget,
    PerformanceRecord,
    ReducedParams,
    classify_by_signs,
    eta,
    eta_omega_sc,
    eta_omega_se,
    heats_and_work,
    maximize,
    optimize,
    performance,
    principal_trig_root,
    reduced_load,
    relativistic_factor,
    scenario_forms,
    work,
)
from otto_rel import cli
from otto_rel.phase_diagram import OperationalMode
from _printed_forms import printed_omega_maximizer_sc, printed_omega_maximizer_se
from _reference import REFERENCE
from _scaffold import classify_by_table

ASYMMETRIC = (SUDDEN_COMPRESSION, SUDDEN_EXPANSION)
ALL_SCENARIOS = ASYMMETRIC + (BOTH_ADIABATIC, BOTH_SUDDEN)

GRID_20 = [0.05 + 0.9 * i / 19 for i in range(20)]


def z_star(objective, scenario, tau, v):
    """The certified optimal ratio of one objective."""
    return optimize(OptimizationTarget(objective, scenario), tau, v).z_star


def in_units_of_temperature(record, beta_h):
    """A unit-free hot-limit record (beta_h times each energy) divided by beta_h."""
    return PerformanceRecord(*(energy / beta_h for energy in record))


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"FAIL: criterion {number} - {summary}")
        raise
    print(f"PASS: criterion {number} - {summary}")


def test_criterion_1_first_law():
    with criterion(1, "first law |W-(Qh+Qc)| <= 1e-12*scale on 1e4 draws, both paths, < 1 s"):
        rng = random.Random(20260815)
        start = time.perf_counter()
        for _ in range(10_000):
            scenario = ALL_SCENARIOS[rng.randrange(4)]
            omega_h = rng.uniform(0.1, 10.0)
            params = CycleParams(
                v=rng.uniform(1e-3, 0.999),
                beta_c=rng.uniform(0.05, 5.0),
                beta_h=rng.uniform(0.05, 5.0),
                omega_c=omega_h * rng.uniform(0.01, 1.0),
                omega_h=omega_h,
            )
            rec = heats_and_work(params, scenario)
            scale = max(1.0, abs(rec.q_h), abs(rec.q_c))
            assert abs(rec.w_ext - (rec.q_h + rec.q_c)) <= 1e-12 * scale

            r = ReducedParams(
                z=rng.uniform(0.01, 1.0),
                g=reduced_load(rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)),
            )
            beta_h = rng.uniform(0.05, 5.0)
            hot = in_units_of_temperature(performance(r, ASYMMETRIC[rng.randrange(2)]), beta_h)
            scale = max(1.0, abs(hot.q_h), abs(hot.q_c))
            assert abs(hot.w_ext - (hot.q_h + hot.q_c)) <= 1e-12 * scale
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_2_hot_limit_convergence():
    with criterion(2, "exact->hot-limit relative gaps shrink monotonically, < 1 s"):
        start = time.perf_counter()
        z, tau, v, omega_h = 0.7, 0.5, 0.5, 1.0
        g = reduced_load(tau, v)
        for scenario in ASYMMETRIC:
            gaps_qh, gaps_w = [], []
            for beta_h in (1e-2, 1e-3, 1e-4):
                params = CycleParams(
                    v=v, beta_c=beta_h / tau, beta_h=beta_h,
                    omega_c=z * omega_h, omega_h=omega_h,
                )
                exact = heats_and_work(params, scenario)
                hot = in_units_of_temperature(
                    performance(ReducedParams(z=z, g=g), scenario), beta_h
                )
                gaps_qh.append(abs(exact.q_h - hot.q_h) / abs(hot.q_h))
                gaps_w.append(abs(exact.w_ext - hot.w_ext) / abs(hot.w_ext))
            assert gaps_qh[0] > gaps_qh[1] > gaps_qh[2], gaps_qh
            assert gaps_w[0] > gaps_w[1] > gaps_w[2], gaps_w
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_3_peak_efficiency_vs_oracle():
    with criterion(3, "peak-efficiency ratio matches grid oracle to 1e-6 on 20x20, spots to 1e-3, < 10 s"):
        start = time.perf_counter()
        for scenario in ASYMMETRIC:
            for tau in GRID_20:
                for v in GRID_20:
                    g = reduced_load(tau, v)
                    lo, hi = scenario_forms(scenario).engine_lower_z(g), 1.0
                    probe = lambda z: eta(ReducedParams(z, g), scenario)
                    z_oracle, _ = maximize(probe, lo, hi)
                    closed = z_star(Objective.EFFICIENCY, scenario, tau, v)
                    assert abs(closed - z_oracle) <= 1e-6, (scenario, tau, v)
        assert abs(z_star(Objective.EFFICIENCY, SUDDEN_COMPRESSION, 0.5, 0.5) - 0.726) <= 1e-3
        assert abs(z_star(Objective.EFFICIENCY, SUDDEN_EXPANSION, 0.5, 0.5) - 0.7349) <= 1e-3
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_criterion_4_maximum_work_point():
    with criterion(4, "work argmax equals (tau*f)**(1/3) to 1e-6; efficiency forms match to 1e-9"):
        for scenario in ASYMMETRIC:
            for tau in GRID_20:
                for v in GRID_20:
                    g = reduced_load(tau, v)
                    lo, hi = scenario_forms(scenario).engine_lower_z(g), 1.0
                    probe = lambda z: work(ReducedParams(z, g), scenario)
                    z_oracle, _ = maximize(probe, lo, hi)
                    closed = z_star(Objective.WORK, scenario, tau, v)
                    assert abs(closed - z_oracle) <= 1e-6, (scenario, tau, v)
        for tau in GRID_20:
            for v in GRID_20:
                g = reduced_load(tau, v)
                for scenario in ASYMMETRIC:
                    report = optimize(OptimizationTarget(Objective.WORK, scenario), tau, v)
                    r = ReducedParams(report.z_star, g)
                    assert abs(report.eta_at_opt - eta(r, scenario)) <= 1e-9


def test_criterion_5_trade_off_optima():
    with criterion(5, "trade-off optima in window; SE curve <= 0.5; SC exceeds 0.5; curves monotone; closed-form status recorded"):
        grid = [0.1 + 0.8 * i / 19 for i in range(20)]
        for scenario in ASYMMETRIC:
            for tau in grid:
                for v in grid:
                    lo, hi = scenario_forms(scenario).engine_lower_z(reduced_load(tau, v)), 1.0
                    assert lo < z_star(Objective.OMEGA, scenario, tau, v) < hi, (scenario, tau, v)

        axis = [0.01 + 0.98 * i / 99 for i in range(100)]
        se_peak = 0.0
        for v in (0.35, 0.75, 0.95):
            for fn in (eta_omega_sc, eta_omega_se):
                curve = [fn(eta_c, v) for eta_c in axis]
                assert all(b >= a - 1e-9 for a, b in zip(curve, curve[1:])), (fn.__name__, v)
                if fn is eta_omega_se:
                    se_peak = max(se_peak, max(curve))
        assert se_peak <= 0.5 + 1e-9
        assert eta_omega_sc(0.99, 0.95) > 0.5

        # status of the printed maximizer candidates, measured as their gap
        # to the package's closed form
        for tau, v in ((0.5, 0.5), (0.3, 0.75)):
            z_sc = z_star(Objective.OMEGA, SUDDEN_COMPRESSION, tau, v)
            z_se = z_star(Objective.OMEGA, SUDDEN_EXPANSION, tau, v)
            for variant in ("zero", "rapidity"):
                cand = printed_omega_maximizer_sc(tau, v, log_variant=variant)
                gap = abs(cand - z_sc)
                agrees = math.isfinite(cand) and gap <= 1e-6
                print(
                    f"  status: sc printed form ({variant} log) at tau={tau}, v={v}: "
                    f"candidate={cand:.6f}, closed form={z_sc:.6f}, gap={gap:.3g}"
                )
                assert not agrees
            cand = printed_omega_maximizer_se(tau, v)
            gap = abs(cand - z_se)
            agrees = gap <= 1e-6
            print(
                f"  status: se printed form at tau={tau}, v={v}: "
                f"candidate={cand:.6f}, closed form={z_se:.6f}, gap={gap:.3g}"
            )
            assert not agrees
        want = REFERENCE["optima"]["tau=0.5,v=0.5"]
        for label, scenario in (("sc", SUDDEN_COMPRESSION), ("se", SUDDEN_EXPANSION)):
            # optimize returns the closed form only once it is certified
            report = optimize(OptimizationTarget(Objective.OMEGA, scenario), 0.5, 0.5)
            print(f"  status: certified trade-off optimum ({label}): z*={report.z_star!r}")
            assert abs(report.z_star - want[f"z_omega_{label}"]) <= 1e-13 * want[f"z_omega_{label}"]


def test_criterion_6_work_crossing_and_dominance():
    with criterion(6, "work curves cross at sqrt(tau*f) to 1e-13 with the stated dominance on each side"):
        tau = 0.5
        for v in (0.35, 0.75, 0.95):
            g = reduced_load(tau, v)
            z_cross = math.sqrt(g)
            r = lambda z: ReducedParams(z, g)
            w_sc = lambda z: work(r(z), SUDDEN_COMPRESSION)
            w_se = lambda z: work(r(z), SUDDEN_EXPANSION)
            assert abs(w_sc(z_cross) - w_se(z_cross)) <= 1e-13

            lower = (math.sqrt(1.0 + 8.0 * g) - 1.0) / 2.0
            for i in range(1, 101):
                z = lower + (z_cross - lower) * i / 101
                assert w_se(z) > w_sc(z), (v, z)
            for i in range(1, 101):
                z = z_cross + (1.0 - z_cross) * i / 101
                assert w_sc(z) > w_se(z), (v, z)


def test_criterion_7_phase_diagram_classifiers():
    with criterion(7, "200x200 rasters: classifiers agree outside 1e-9 band; engine share rises, refrigerator falls with v, < 30 s"):
        start = time.perf_counter()
        n = 200
        centers = [(i + 0.5) / n for i in range(n)]
        for scenario in ASYMMETRIC:
            engine_shares, fridge_shares = [], []
            for v in (0.35, 0.75, 0.95):
                counts = {mode: 0 for mode in OperationalMode}
                for z in centers:
                    for tau in centers:
                        r = ReducedParams(z=z, g=reduced_load(tau, v))
                        by_signs = classify_by_signs(r, scenario)
                        by_table = classify_by_table(r, scenario)
                        if (
                            by_signs is not OperationalMode.BOUNDARY
                            and by_table is not OperationalMode.BOUNDARY
                        ):
                            assert by_signs is by_table, (scenario, z, tau, v)
                        counts[by_signs] += 1
                total = n * n
                engine_shares.append(counts[OperationalMode.ENGINE] / total)
                fridge_shares.append(counts[OperationalMode.REFRIGERATOR] / total)
            assert engine_shares[0] < engine_shares[1] < engine_shares[2], engine_shares
            assert fridge_shares[0] > fridge_shares[1] > fridge_shares[2], fridge_shares
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f} s"


def test_criterion_8_cubic_solver():
    with criterion(8, "residual <= 1e-9*scale on 1e5 random cubics; hyperbolic branch validated"):
        rng = random.Random(971)
        accepted = 0
        while accepted < 100_000:
            a2 = rng.uniform(-10.0, 10.0)
            a1 = rng.uniform(-10.0, 10.0)
            a0 = rng.uniform(-10.0, 10.0)
            if a2 * a2 - 3.0 * a1 <= 0.0:
                continue
            cubic = MonicCubic(a2=a2, a1=a1, a0=a0)
            root = principal_trig_root(cubic)
            assert abs(cubic(root)) <= 1e-9 * cubic.coefficient_scale()
            accepted += 1

        # the expansion-quench efficiency cubic at (0.5, 0.5) has its
        # arccos argument above 1 and must come out of the cosh branch
        from otto_rel.optima import efficiency_cubic

        g = 0.5 * relativistic_factor(0.5)
        cubic = efficiency_cubic(g, SUDDEN_EXPANSION)
        spread = cubic.a2**2 - 3.0 * cubic.a1
        x = -(2 * cubic.a2**3 - 9 * cubic.a2 * cubic.a1 + 27 * cubic.a0) / (
            2.0 * spread * math.sqrt(spread)
        )
        assert x > 1.0
        root = principal_trig_root(cubic)
        want = REFERENCE["optima"]["tau=0.5,v=0.5"]["z_eta_se"]
        assert abs(root - want) <= 1e-12
        assert 0.0 < root < 1.0


_FIGURE_SCHEMAS = {
    2: ("eta_c,v,scenario,eta_omega", 2 + 2 * 3 * 100),
    3: ("z,v,scenario,work", 2 + 2 * 3 * 200),
    4: ("z,v,scenario,eta,work", 2 + 2 * 3 * 200),
    5: ("z,tau,v,scenario,mode", 2 + 3 * 200 * 200),
    6: ("z,tau,v,scenario,mode", 2 + 3 * 200 * 200),
}


def test_criterion_9_cli_reproducibility(tmp_path):
    with criterion(9, "figure outputs byte-identical across runs with exact schemas"):
        for figure_id, (header, n_lines) in _FIGURE_SCHEMAS.items():
            paths = (tmp_path / f"fig{figure_id}_a.csv", tmp_path / f"fig{figure_id}_b.csv")
            for path in paths:
                code = cli.main(["figure", "--id", str(figure_id), "--output", str(path)])
                assert code == 0
            first, second = (p.read_bytes() for p in paths)
            assert first == second, f"figure {figure_id} not reproducible"
            lines = first.decode().splitlines()
            assert lines[0] == "# otto-rel schema v1"
            assert lines[1] == header
            assert len(lines) == n_lines, (figure_id, len(lines))
