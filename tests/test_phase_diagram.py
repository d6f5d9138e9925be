"""Mode classification: sign route vs interval route, rasters, curves."""

import math

import pytest

from otto_rel import (
    SUDDEN_COMPRESSION,
    SUDDEN_EXPANSION,
    BOTH_SUDDEN,
    OperationalMode,
    PhaseMap,
    ReducedParams,
    boundary_curves,
    classify_by_signs,
    classify_by_table,
    classify_signs,
    mode_fractions,
    qc,
    qh,
    rasterize,
    relativistic_factor,
)

E = OperationalMode.ENGINE
R = OperationalMode.REFRIGERATOR
H = OperationalMode.HEATER
T = OperationalMode.THERMAL_ACCELERATOR
B = OperationalMode.BOUNDARY


def test_sign_table():
    assert classify_signs(1.0, 2.0, -1.0) is E
    assert classify_signs(-1.0, -2.0, 1.0) is R
    assert classify_signs(-1.0, -2.0, -1.0) is H
    assert classify_signs(-1.0, 2.0, -3.0) is T


def test_near_zero_is_boundary():
    assert classify_signs(0.0, 1.0, -1.0) is B
    assert classify_signs(5e-10, 1.0, -1.0) is B
    assert classify_signs(1.0, 1e-12, -1.0) is B
    # a looser eps widens the band
    assert classify_signs(1e-4, 1.0, -1.0, eps=1e-3) is B


def test_impossible_sign_patterns_raise():
    # both heats flowing out of the baths while work is extracted would
    # build a perpetuum mobile; the classifier refuses
    with pytest.raises(ValueError):
        classify_signs(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        classify_signs(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        classify_signs(-1.0, 1.0, 1.0)


def test_known_mode_points_compression():
    # tau=0.5, v=0.5 puts the edges near 0.476, 0.559, 0.621
    pts = {0.3: R, 0.5: H, 0.59: T, 0.8: E, 0.9: E}
    for z, want in pts.items():
        r = ReducedParams(z=z, tau=0.5, v=0.5)
        assert classify_by_signs(r, SUDDEN_COMPRESSION) is want
        assert classify_by_table(r, SUDDEN_COMPRESSION) is want


def test_known_mode_points_expansion():
    # same loading: no refrigerator interval, edges near 0.476 and 0.596
    pts = {0.2: H, 0.3: H, 0.5: T, 0.7: E}
    for z, want in pts.items():
        r = ReducedParams(z=z, tau=0.5, v=0.5)
        assert classify_by_signs(r, SUDDEN_EXPANSION) is want
        assert classify_by_table(r, SUDDEN_EXPANSION) is want


def test_engine_example_point():
    r = ReducedParams(z=0.9, tau=0.3, v=0.5)
    assert classify_by_signs(r, SUDDEN_COMPRESSION) is E


def test_unit_ratio_is_boundary():
    r = ReducedParams(z=1.0, tau=0.5, v=0.5)
    assert classify_by_signs(r, SUDDEN_COMPRESSION) is B
    assert classify_by_table(r, SUDDEN_COMPRESSION) is B


@pytest.mark.parametrize("scenario", [SUDDEN_COMPRESSION, SUDDEN_EXPANSION])
@pytest.mark.parametrize("v", [0.35, 0.75])
def test_classifiers_agree_away_from_edges(scenario, v):
    n = 60
    disagreements = 0
    for i in range(n):
        for j in range(n):
            r = ReducedParams(z=(i + 0.5) / n, tau=(j + 0.5) / n, v=v)
            by_signs = classify_by_signs(r, scenario)
            by_table = classify_by_table(r, scenario)
            if B in (by_signs, by_table):
                continue
            if by_signs is not by_table:
                disagreements += 1
    assert disagreements == 0


def test_stage_progression_is_monotone_in_z():
    # sweeping z upward must walk R -> H -> T -> E without backtracking
    rank = {R: 0, H: 1, T: 2, E: 3}
    for scenario in (SUDDEN_COMPRESSION, SUDDEN_EXPANSION):
        for tau in (0.2, 0.5, 0.8):
            seen = -1
            for i in range(1, 199):
                r = ReducedParams(z=i / 200, tau=tau, v=0.5)
                mode = classify_by_signs(r, scenario)
                if mode is B:
                    continue
                assert rank[mode] >= seen
                seen = rank[mode]
            assert seen == 3


def test_tightening_eps_only_reclassifies_boundary_cells():
    curves = boundary_curves(SUDDEN_COMPRESSION, 0.5)
    probes = []
    for tau in (0.3, 0.5, 0.7):
        for name in ("qc_zero", "qh_zero", "engine_min"):
            edge = curves[name](tau)
            for delta in (1e-10, 5e-10, 3e-9, 1e-4):
                probes.append(ReducedParams(z=edge + delta, tau=tau, v=0.5))
                probes.append(ReducedParams(z=edge - delta, tau=tau, v=0.5))
    for r in probes:
        wide = classify_by_signs(r, SUDDEN_COMPRESSION, eps=1e-9)
        narrow = classify_by_signs(r, SUDDEN_COMPRESSION, eps=5e-10)
        if wide is not narrow:
            assert wide is B
        w2 = classify_by_table(r, SUDDEN_COMPRESSION, eps=1e-9)
        n2 = classify_by_table(r, SUDDEN_COMPRESSION, eps=5e-10)
        if w2 is not n2:
            assert w2 is B


def test_boundary_curves_match_sign_changes():
    for scenario in (SUDDEN_COMPRESSION, SUDDEN_EXPANSION):
        curves = boundary_curves(scenario, 0.6)
        for tau in (0.4, 0.7):
            z_qh = curves["qh_zero"](tau)
            assert qh(ReducedParams(z=z_qh - 1e-6, tau=tau, v=0.6), scenario) < 0
            assert qh(ReducedParams(z=z_qh + 1e-6, tau=tau, v=0.6), scenario) > 0
            z_qc = curves["qc_zero"](tau)
            if not math.isnan(z_qc):
                assert qc(ReducedParams(z=z_qc - 1e-6, tau=tau, v=0.6), scenario) > 0
                assert qc(ReducedParams(z=z_qc + 1e-6, tau=tau, v=0.6), scenario) < 0


def test_expansion_refrigerator_vanishes_at_low_load():
    # 2 tau f(v) < 1: no ratio refrigerates under the expansion quench
    tau, v = 0.4, 0.5
    assert 2.0 * tau * relativistic_factor(v) < 1.0
    curves = boundary_curves(SUDDEN_EXPANSION, v)
    assert math.isnan(curves["qc_zero"](tau))
    for i in range(1, 100):
        r = ReducedParams(z=i / 100, tau=tau, v=v)
        assert classify_by_signs(r, SUDDEN_EXPANSION) is not R
    # and it reappears once the load is high enough
    assert not math.isnan(curves["qc_zero"](0.9))


def test_boundary_curve_guards():
    with pytest.raises(ValueError):
        boundary_curves(BOTH_SUDDEN, 0.5)
    with pytest.raises(ValueError):
        boundary_curves(SUDDEN_COMPRESSION, 0.0)


def test_rasterize_layout_and_determinism():
    pm = rasterize(SUDDEN_COMPRESSION, 0.5, resolution=24)
    assert pm.z_axis[0] == pytest.approx(0.5 / 24)
    assert pm.z_axis[-1] == pytest.approx(23.5 / 24)
    assert len(pm.cells) == 24 and len(pm.cells[0]) == 24
    r = ReducedParams(z=pm.z_axis[3], tau=pm.tau_axis[17], v=0.5)
    assert pm.cells[3][17] is classify_by_signs(r, SUDDEN_COMPRESSION)
    assert rasterize(SUDDEN_COMPRESSION, 0.5, resolution=24) == pm
    with pytest.raises(ValueError):
        rasterize(SUDDEN_COMPRESSION, 0.5, resolution=1)
    with pytest.raises(ValueError):
        rasterize(SUDDEN_COMPRESSION, 1.0, resolution=24)
    with pytest.raises(ValueError):
        rasterize(BOTH_SUDDEN, 0.5, resolution=24)


@pytest.mark.parametrize("scenario", [SUDDEN_COMPRESSION, SUDDEN_EXPANSION])
@pytest.mark.parametrize("v", [0.35, 0.95])
def test_rasterize_matches_per_point_classifier(scenario, v):
    pm = rasterize(scenario, v, resolution=40)
    for z, row in zip(pm.z_axis, pm.cells):
        for tau, mode in zip(pm.tau_axis, row):
            assert mode is classify_by_signs(ReducedParams(z=z, tau=tau, v=v), scenario)


def test_phase_map_shape_validation():
    with pytest.raises(ValueError):
        PhaseMap(
            v=0.5,
            z_axis=(0.25, 0.75),
            tau_axis=(0.25, 0.75),
            cells=((E,),),
            scenario=SUDDEN_COMPRESSION,
        )


def test_mode_fractions_complete_and_normalized():
    pm = rasterize(SUDDEN_EXPANSION, 0.75, resolution=40)
    fractions = mode_fractions(pm)
    assert sorted(fractions) == sorted(m.value for m in OperationalMode)
    assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-12)
    assert fractions["engine"] > 0.0
    assert fractions["boundary"] <= 0.01


def test_engine_share_grows_with_velocity():
    for scenario in (SUDDEN_COMPRESSION, SUDDEN_EXPANSION):
        engine_share = []
        fridge_share = []
        for k in range(1, 10):
            fractions = mode_fractions(rasterize(scenario, k / 10, resolution=50))
            engine_share.append(fractions["engine"])
            fridge_share.append(fractions["refrigerator"])
        assert all(b >= a for a, b in zip(engine_share, engine_share[1:]))
        assert all(b <= a for a, b in zip(fridge_share, fridge_share[1:]))
