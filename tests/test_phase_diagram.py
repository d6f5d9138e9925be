"""Mode classification: sign route vs interval route, rasters, mode edges."""

import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import otto_rel.high_temperature as high_temperature
import otto_rel.phase_diagram as phase_diagram
from otto_rel import (
    SUDDEN_COMPRESSION,
    SUDDEN_EXPANSION,
    OperationalMode,
    PhaseMap,
    ReducedParams,
    mode_fractions,
    performance,
    rasterize,
    reduced_load,
    relativistic_factor,
)
from otto_rel.high_temperature import qh, scenario_forms
from otto_rel.phase_diagram import classify_by_signs, classify_signs
from _scaffold import BOTH_SUDDEN, SCENARIOS, cells, classify_by_table, each_scenario

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


def test_near_zero_is_boundary(monkeypatch):
    assert classify_signs(0.0, 1.0, -1.0) is B
    assert classify_signs(5e-10, 1.0, -1.0) is B
    assert classify_signs(1.0, 1e-12, -1.0) is B
    # a looser BOUNDARY_EPS widens the band
    monkeypatch.setattr(phase_diagram, "BOUNDARY_EPS", 1e-3)
    assert classify_signs(1e-4, 1.0, -1.0) is B


def test_impossible_sign_patterns_raise():
    # both heats flowing out of the baths while work is extracted would
    # build a perpetuum mobile; the classifier refuses
    with pytest.raises(ValueError):
        classify_signs(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        classify_signs(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        classify_signs(-1.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "triple", [(math.nan, math.nan, math.nan), (math.nan, 1.0, -1.0), (1.0, 1.0, math.nan)]
)
def test_nan_is_refused_not_classified(triple):
    # nan has no sign; FloatingPointError is an ArithmeticError (CLI exit 3)
    with pytest.raises(FloatingPointError, match="not finite"):
        classify_signs(*triple)


def test_infinite_quantities_keep_their_sign():
    inf = math.inf
    assert classify_signs(inf, inf, -inf) is E
    assert classify_signs(-inf, -inf, inf) is R
    assert classify_signs(-inf, -1.0, -inf) is H
    assert classify_signs(-1.0, inf, -1.0) is T
    assert classify_signs(0.0, inf, -inf) is B
    with pytest.raises(ValueError):
        classify_signs(inf, inf, inf)


# classify_signs as it was before its strict-mode table lookup: the sign of
# each quantity first, then the four-mode table.  The lookup must agree with
# it on every input, exceptions and their messages included.
_REFERENCE_SIGN_TABLE = {
    (1, 1, -1): E,
    (-1, -1, 1): R,
    (-1, -1, -1): H,
    (-1, 1, -1): T,
}


def _reference_sign(x, eps):
    if x > eps:
        return 1
    if x < -eps:
        return -1
    if x == x:
        return 0
    raise FloatingPointError(f"cannot classify a quantity that is not finite ({x!r})")


def _reference_classify_signs(w_ext, q_h, q_c, eps):
    triple = (_reference_sign(w_ext, eps), _reference_sign(q_h, eps), _reference_sign(q_c, eps))
    if 0 in triple:
        return B
    mode = _REFERENCE_SIGN_TABLE.get(triple)
    if mode is None:
        raise ValueError(
            f"sign pattern (W, Q_h, Q_c) = {triple} is inconsistent with a "
            "hot bath hotter than the cold bath"
        )
    return mode


def _outcome(classify, *args):
    try:
        return classify(*args)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


_SPECIAL_FLOATS = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308
)


@st.composite
def _sign_inputs(draw):
    """A (W, Q_h, Q_c) triple and a band eps >= 0, each quantity often at or next to +-eps."""
    eps = draw(
        st.one_of(
            st.just(phase_diagram.BOUNDARY_EPS),
            st.sampled_from([x for x in _SPECIAL_FLOATS if x >= 0.0]),
            st.floats(min_value=0.0),
        )
    )
    near_eps = (eps, -eps) + tuple(
        math.nextafter(edge, toward)
        for edge in (eps, -eps)
        for toward in (math.inf, -math.inf)
    )
    quantity = st.one_of(
        st.sampled_from(_SPECIAL_FLOATS + near_eps),
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(),
    )
    return draw(quantity), draw(quantity), draw(quantity), eps


@settings(max_examples=500)
@given(inputs=_sign_inputs())
@example(inputs=(1.0, 2.0, -1.0, 1e-9))
@example(inputs=(-1.0, -2.0, math.nan, 1e-9))
@example(inputs=(0.0, -2.0, math.nan, 1e-9))
@example(inputs=(-math.inf, -math.inf, math.inf, math.inf))
@example(inputs=(1e-9, 1.0, -1.0, 1e-9))
def test_classify_signs_agrees_with_sign_by_sign(inputs):
    *quantities, eps = inputs
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(phase_diagram, "BOUNDARY_EPS", eps)
        got = _outcome(classify_signs, *quantities)
    assert got == _outcome(_reference_classify_signs, *inputs)


KNOWN_MODES = {
    # tau=0.5, v=0.5 puts the edges near 0.476, 0.559, 0.621
    "sc": {0.3: R, 0.5: H, 0.59: T, 0.8: E, 0.9: E},
    # same loading: no refrigerator interval, edges near 0.476 and 0.596
    "se": {0.2: H, 0.3: H, 0.5: T, 0.7: E},
}


@each_scenario
def test_known_mode_points(case):
    for z, want in KNOWN_MODES[case.token].items():
        r = ReducedParams(z=z, g=reduced_load(0.5, 0.5))
        assert classify_by_signs(r, case.scenario) is want
        assert classify_by_table(r, case.scenario) is want


def test_engine_example_point():
    r = ReducedParams(z=0.9, g=reduced_load(0.3, 0.5))
    assert classify_by_signs(r, SUDDEN_COMPRESSION) is E


def test_unit_ratio_is_boundary():
    r = ReducedParams(z=1.0, g=reduced_load(0.5, 0.5))
    assert classify_by_signs(r, SUDDEN_COMPRESSION) is B
    assert classify_by_table(r, SUDDEN_COMPRESSION) is B


@pytest.mark.parametrize("v", [0.35, 0.75])
@each_scenario
def test_classifiers_agree_away_from_edges(case, v):
    scenario = case.scenario
    n = 60
    disagreements = 0
    for i in range(n):
        for j in range(n):
            r = ReducedParams(z=(i + 0.5) / n, g=reduced_load((j + 0.5) / n, v))
            by_signs = classify_by_signs(r, scenario)
            by_table = classify_by_table(r, scenario)
            if B in (by_signs, by_table):
                continue
            if by_signs is not by_table:
                disagreements += 1
    assert disagreements == 0


@each_scenario
def test_stage_progression_is_monotone_in_z(case):
    # sweeping z upward must walk R -> H -> T -> E without backtracking
    rank = {R: 0, H: 1, T: 2, E: 3}
    for tau in (0.2, 0.5, 0.8):
        seen = -1
        for i in range(1, 199):
            r = ReducedParams(z=i / 200, g=reduced_load(tau, 0.5))
            mode = classify_by_signs(r, case.scenario)
            if mode is B:
                continue
            assert rank[mode] >= seen
            seen = rank[mode]
        assert seen == 3


def test_tightening_eps_only_reclassifies_boundary_cells(monkeypatch):
    forms = scenario_forms(SUDDEN_COMPRESSION)
    probes = []
    for tau in (0.3, 0.5, 0.7):
        g = reduced_load(tau, 0.5)
        for edge in (forms.fridge_top(g), forms.heater_top(g), forms.engine_lower_z(g)):
            for delta in (1e-10, 5e-10, 3e-9, 1e-4):
                probes.append(ReducedParams(z=edge + delta, g=g))
                probes.append(ReducedParams(z=edge - delta, g=g))

    def classify_at(eps):
        monkeypatch.setattr(phase_diagram, "BOUNDARY_EPS", eps)
        return [
            (classify_by_signs(r, SUDDEN_COMPRESSION), classify_by_table(r, SUDDEN_COMPRESSION))
            for r in probes
        ]

    wide_modes, narrow_modes = classify_at(1e-9), classify_at(5e-10)
    for (wide, w2), (narrow, n2) in zip(wide_modes, narrow_modes):
        if wide is not narrow:
            assert wide is B
        if w2 is not n2:
            assert w2 is B


@each_scenario
def test_boundary_curves_match_sign_changes(case):
    scenario = case.scenario
    forms = scenario_forms(scenario)
    for tau in (0.4, 0.7):
        g = reduced_load(tau, 0.6)
        z_qh = forms.heater_top(g)
        assert qh(ReducedParams(z=z_qh - 1e-6, g=g), scenario) < 0
        assert qh(ReducedParams(z=z_qh + 1e-6, g=g), scenario) > 0
        z_qc = forms.fridge_top(g)
        if z_qc is not None:
            assert performance(ReducedParams(z=z_qc - 1e-6, g=g), scenario).q_c > 0
            assert performance(ReducedParams(z=z_qc + 1e-6, g=g), scenario).q_c < 0


def test_expansion_refrigerator_vanishes_at_low_load():
    # 2 tau f(v) < 1: no ratio refrigerates under the expansion quench
    tau, v = 0.4, 0.5
    assert 2.0 * tau * relativistic_factor(v) < 1.0
    fridge_top = scenario_forms(SUDDEN_EXPANSION).fridge_top
    assert fridge_top(reduced_load(tau, v)) is None
    for i in range(1, 100):
        r = ReducedParams(z=i / 100, g=reduced_load(tau, v))
        assert classify_by_signs(r, SUDDEN_EXPANSION) is not R
    # and it reappears once the load is high enough
    assert fridge_top(reduced_load(0.9, v)) is not None


def test_rasterize_layout_and_determinism():
    pm = rasterize(SUDDEN_COMPRESSION, 0.5, resolution=24)
    assert pm.axis[0] == pytest.approx(0.5 / 24)
    assert pm.axis[-1] == pytest.approx(23.5 / 24)
    assert len(cells(pm)) == 24 and len(cells(pm)[0]) == 24
    r = ReducedParams(z=pm.axis[3], g=reduced_load(pm.axis[17], 0.5))
    assert cells(pm)[3][17] is classify_by_signs(r, SUDDEN_COMPRESSION)
    assert rasterize(SUDDEN_COMPRESSION, 0.5, resolution=24) == pm
    with pytest.raises(ValueError):
        rasterize(SUDDEN_COMPRESSION, 0.5, resolution=1)
    with pytest.raises(ValueError):
        rasterize(SUDDEN_COMPRESSION, 1.0, resolution=24)
    with pytest.raises(ValueError):
        rasterize(BOTH_SUDDEN, 0.5, resolution=24)


@pytest.mark.parametrize("v", [0.35, 0.95])
@each_scenario
def test_rasterize_matches_per_point_classifier(case, v):
    pm = rasterize(case.scenario, v, resolution=40)
    for z, row in zip(pm.axis, cells(pm)):
        for tau, mode in zip(pm.axis, row):
            r = ReducedParams(z=z, g=reduced_load(tau, v))
            assert mode is classify_by_signs(r, case.scenario)


def test_phase_map_shape_validation():
    mismatched = {
        "too few columns": (((0, E),),),
        "start past the axis": (((0, E),), ((0, R), (2, E))),
        "first start not 0": (((0, E),), ((1, E),)),
        "empty column": (((0, E),), ()),
        "starts not rising": (((0, R), (1, E)), ((0, R), (0, E))),
        "equal adjacent modes": (((0, R), (1, E)), ((0, E), (1, E))),
    }
    for runs in mismatched.values():
        with pytest.raises(ValueError):
            PhaseMap(v=0.5, axis=(0.25, 0.75), runs=runs)
    # empty axis: a map with no cell, whose mode fractions would divide by zero
    with pytest.raises(ValueError, match="axis must hold at least one cell"):
        PhaseMap(v=0.5, axis=(), runs=())


def test_phase_map_cells_expand_the_runs():
    pm = PhaseMap(
        v=0.5,
        axis=(0.25, 0.5, 0.75),
        runs=(((0, R), (1, T), (2, E)), ((0, H), (2, B)), ((0, E),)),
    )
    assert cells(pm) == ((R, H, E), (T, H, E), (E, B, E))


def _per_cell_raster(scenario, v, resolution):
    """Every cell classified on its own: the raster the runs must equal."""
    forms = scenario_forms(scenario)
    axis = tuple((i + 0.5) / resolution for i in range(resolution))
    factor = relativistic_factor(v)
    loads = [tau * factor for tau in axis]

    def mode(z, g):
        q_h, q_c, w_ext = forms.energies(z, g)
        return classify_signs(w_ext, q_h, q_c)

    return tuple(tuple(mode(z, g) for g in loads) for z in axis)


def _velocity_with_factor(target):
    """The v in (0, 1) with f(v) = target, by bisection (f falls from 1 to 0)."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if relativistic_factor(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


@st.composite
def _raster_requests(draw):
    resolution = draw(st.integers(min_value=2, max_value=300))
    kind = draw(st.sampled_from(("any", "slow", "fast", "half-load")))
    if kind == "any":
        v = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    elif kind == "slow":
        v = draw(st.floats(min_value=1e-300, max_value=1e-3))
    elif kind == "fast":
        v = 1.0 - draw(st.floats(min_value=1.2e-16, max_value=1e-3))
    else:
        # put one tau column's load g = tau * f(v) right at 1/2, where the
        # expansion-quench refrigerator edge sqrt(2g - 1) appears
        j = draw(st.integers(min_value=resolution // 2, max_value=resolution - 1))
        tau = (j + 0.5) / resolution
        shift = draw(st.floats(min_value=-1e-9, max_value=1e-9))
        v = _velocity_with_factor((0.5 + shift) / tau)
    return v, resolution


@settings(max_examples=100)
@given(request=_raster_requests())
@example(request=(1e-6, 300))
@example(request=(1e-6, 97))
@each_scenario
def test_runs_equal_per_cell_classification(case, request):
    # At v = 1e-6, f(v) is 1 to 1e-13: the diagonal cells tau = z sit on a
    # heat's zero and come out Boundary in the middle of a column.
    v, resolution = request
    raster = rasterize(case.scenario, v, resolution)
    assert cells(raster) == _per_cell_raster(case.scenario, v, resolution)


@pytest.mark.parametrize(
    "edges",
    [
        pytest.param(
            dict(fridge_top=lambda g: None, heater_top=lambda g: None,
                 engine_lower_z=lambda g: None),
            id="no-edges",
        ),
        pytest.param(
            dict(fridge_top=lambda g: None, heater_top=lambda g: 0.5 * g,
                 engine_lower_z=lambda g: 0.3),
            id="wrong-edges",
        ),
    ],
)
@each_scenario
def test_unpredicted_mode_change_rescans_the_column(monkeypatch, case, edges):
    # The edges only say where to look: a column whose checked cells
    # disagree across a gap is classified cell by cell, so even wrong edges
    # give the per-cell raster.
    scenario = case.scenario
    monkeypatch.setitem(
        high_temperature._FORMS, scenario, scenario_forms(scenario)._replace(**edges)
    )
    for v in (1e-6, 0.6):
        assert cells(rasterize(scenario, v, 60)) == _per_cell_raster(scenario, v, 60)


@each_scenario
def test_rasterize_evaluates_the_forms_order_resolution_times(monkeypatch, case):
    # The work guard that wall-clock bounds cannot give on a loaded host:
    # a raster of R**2 cells evaluates the forms O(R) times, not R**2.
    scenario = case.scenario
    calls = []
    energies = scenario_forms(scenario).energies

    def counted(z, g):
        calls.append(z)
        return energies(z, g)

    monkeypatch.setitem(
        high_temperature._FORMS, scenario, scenario_forms(scenario)._replace(energies=counted)
    )
    resolution = 1200
    for v in (1e-6, 0.35, 0.9999):
        calls.clear()
        rasterize(scenario, v, resolution)
        assert 0 < len(calls) <= 40 * resolution, (v, len(calls))


def test_mode_fractions_complete_and_normalized():
    pm = rasterize(SUDDEN_EXPANSION, 0.75, resolution=40)
    fractions = mode_fractions(pm)
    assert sorted(fractions) == sorted(m.value for m in OperationalMode)
    assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-12)
    assert fractions["engine"] > 0.0
    assert fractions["boundary"] <= 0.01


@pytest.mark.parametrize("v,resolution", [(0.05, 17), (0.35, 40), (0.75, 33), (0.95, 64)])
@each_scenario
def test_mode_fractions_equal_per_cell_count(case, v, resolution):
    pm = rasterize(case.scenario, v, resolution=resolution)
    counts = Counter(mode for row in cells(pm) for mode in row)
    want = {mode.value: counts[mode] / resolution**2 for mode in OperationalMode}
    fractions = mode_fractions(pm)
    assert fractions == want
    assert list(fractions) == [mode.value for mode in OperationalMode]


@each_scenario
def test_engine_share_grows_with_velocity(case):
    engine_share = []
    fridge_share = []
    for k in range(1, 10):
        fractions = mode_fractions(rasterize(case.scenario, k / 10, resolution=50))
        engine_share.append(fractions["engine"])
        fridge_share.append(fractions["refrigerator"])
    assert all(b >= a for a, b in zip(engine_share, engine_share[1:]))
    assert all(b <= a for a, b in zip(fridge_share, fridge_share[1:]))


def test_expansion_refrigerator_vanishes_from_the_half_factor_velocity():
    # The expansion-quench refrigerator needs q_c > 0, that is
    # g > (1 + z**2)/2; from the smallest double v* with f(v*) < 1/2 on,
    # every load tau * f(v) of the unit square lies below 1/2.
    v_star = _velocity_with_factor(0.5)
    assert v_star == 0.9746317289058357
    assert relativistic_factor(v_star) < 0.5 <= relativistic_factor(math.nextafter(v_star, 0.0))
    resolution = 400

    def fridge(v):
        return mode_fractions(rasterize(SUDDEN_EXPANSION, v, resolution))["refrigerator"]

    for v in (v_star, math.nextafter(v_star, 1.0), 0.975, 0.98, 0.99, 0.999):
        assert fridge(v) == 0.0, v
    # below v*, the fraction is positive and judged by the region's area
    # (2F - 1)**1.5 / (3F) on the unit square, F = f(v)
    for v in (0.97, 0.9):
        area = SCENARIOS["se"].mode_areas(relativistic_factor(v))["refrigerator"]
        fraction = fridge(v)
        assert fraction > 0.0 and abs(fraction - area) <= 0.5 / resolution, (v, fraction, area)


@pytest.mark.parametrize("resolution", [200, 400])
@each_scenario
def test_raster_fractions_converge_to_the_mode_areas(case, resolution):
    # each mode's closed-form area on the (z, tau) unit square, at f(v)
    for v in (0.1, 0.35, 0.63, 0.75, 0.95):
        areas = case.mode_areas(relativistic_factor(v))
        fractions = mode_fractions(rasterize(case.scenario, v, resolution))
        for mode, area in areas.items():
            assert abs(fractions[mode] - area) <= 0.5 / resolution, (v, mode, fractions[mode], area)


@each_scenario
def test_engine_area_grows_and_refrigerator_area_shrinks_with_velocity(case):
    # f falls with v, so the loads tau * f(v) fall: the engine floor drops
    # and the refrigerator edge sinks, for every v rather than three
    areas = [case.mode_areas(relativistic_factor(k / 1000)) for k in range(1, 1000)]
    for slower, faster in zip(areas, areas[1:]):
        assert faster["engine"] > slower["engine"]
        assert faster["refrigerator"] <= slower["refrigerator"]
