"""Monic cubic solver: trig branch, clamp band, hyperbolic continuation, Cardano root."""

import decimal
import math
import random
import sys

import numpy as np
import pytest

from otto_rel import SUDDEN_COMPRESSION, SUDDEN_EXPANSION, CubicSolveError, relativistic_factor
from otto_rel import cubic as cubic_module
from otto_rel.cubic import MonicCubic, principal_trig_root
from otto_rel.high_temperature import scenario_forms
from _reference import REFERENCE


def from_roots(r1, r2, r3):
    return MonicCubic(
        a2=-(r1 + r2 + r3),
        a1=r1 * r2 + r1 * r3 + r2 * r3,
        a0=-r1 * r2 * r3,
    )


def acos_argument(cubic):
    a2, a1, a0 = cubic.a2, cubic.a1, cubic.a0
    spread = a2 * a2 - 3.0 * a1
    return -(2 * a2**3 - 9 * a2 * a1 + 27 * a0) / (2 * spread * math.sqrt(spread))


def test_three_real_roots_returns_largest():
    cubic = from_roots(-2.0, 0.5, 3.0)
    assert principal_trig_root(cubic) == pytest.approx(3.0, rel=1e-12, abs=0)


def test_single_real_root_positive_branch():
    # real root at 10 plus a complex pair: acos argument exceeds +1
    cubic = MonicCubic(a2=-12.0, a1=21.01, a0=-10.1)
    assert acos_argument(cubic) > 1.0
    assert principal_trig_root(cubic) == pytest.approx(10.0, rel=1e-12, abs=0)


def test_single_real_root_negative_branch():
    cubic = MonicCubic(a2=12.0, a1=21.01, a0=10.1)
    assert acos_argument(cubic) < -1.0
    assert principal_trig_root(cubic) == pytest.approx(-10.0, rel=1e-12, abs=0)


def test_double_root_hits_clamp_band():
    # (y - 1)^2 (y + 2): argument is exactly -1 in exact arithmetic
    cubic = from_roots(1.0, 1.0, -2.0)
    assert acos_argument(cubic) == pytest.approx(-1.0, abs=1e-12)
    assert principal_trig_root(cubic) == pytest.approx(1.0, rel=1e-7, abs=0)
    # (y + 1)^2 (y - 2): argument +1, largest root is the simple one
    cubic = from_roots(-1.0, -1.0, 2.0)
    assert principal_trig_root(cubic) == pytest.approx(2.0, rel=1e-9, abs=0)


def test_monotone_cubic_takes_the_cardano_root():
    # y^3 + y - 2 has no stationary points; root at 1
    cubic = MonicCubic(a2=0.0, a1=1.0, a0=-2.0)
    assert cubic.a2**2 - 3 * cubic.a1 < 0
    assert principal_trig_root(cubic) == pytest.approx(1.0, rel=1e-12, abs=0)
    # (y + 1)^3 is the degenerate boundary case spread == 0
    cubic = MonicCubic(a2=3.0, a1=3.0, a0=1.0)
    assert principal_trig_root(cubic) == pytest.approx(-1.0, abs=1e-5)
    # (y - r)^3 with rounded coefficients: at the Cardano root the slope is
    # rounding noise, so a Newton step there must not leap away
    rng = random.Random(3)
    for r in [-4.137938016656564] + [rng.uniform(-10.0, 10.0) for _ in range(500)]:
        root = principal_trig_root(MonicCubic(a2=-3.0 * r, a1=3.0 * r * r, a0=-r * r * r))
        assert abs(root - r) <= 1e-4 * max(1.0, abs(r)), r


def test_residual_gate_raises(monkeypatch):
    # an impossible tolerance turns the tiny rounding residual into an error
    cubic = MonicCubic(a2=0.0, a1=-3.0, a0=-1.0)
    assert abs(cubic(principal_trig_root(cubic))) > 0.0
    with monkeypatch.context() as m:
        m.setattr(cubic_module, "RESIDUAL_TOL", 0.0)
        with pytest.raises(CubicSolveError):
            principal_trig_root(cubic)
    # a badly scaled cubic loses more digits than the default gate allows;
    # the solver must refuse rather than hand back a silently wrong root
    with pytest.raises(CubicSolveError):
        principal_trig_root(MonicCubic(a2=-1e8, a1=1.0, a0=1.0))


def test_coefficients_must_be_finite():
    with pytest.raises(ValueError):
        MonicCubic(a2=math.nan, a1=0.0, a0=1.0)
    with pytest.raises(ValueError):
        MonicCubic(a2=0.0, a1=math.inf, a0=1.0)


def test_callable_and_scale():
    cubic = MonicCubic(a2=2.0, a1=-3.0, a0=0.5)
    y = 1.7
    assert cubic(y) == pytest.approx(y**3 + 2 * y**2 - 3 * y + 0.5, rel=1e-15, abs=0)
    assert cubic.coefficient_scale() == 3.0


def test_random_cubics_against_numpy():
    rng = random.Random(20240817)
    checked = 0
    while checked < 2000:
        a2 = rng.uniform(-10, 10)
        a1 = rng.uniform(-10, 10)
        a0 = rng.uniform(-10, 10)
        cubic = MonicCubic(a2=a2, a1=a1, a0=a0)
        root = principal_trig_root(cubic)
        np_roots = np.roots([1.0, a2, a1, a0])
        reals = [r.real for r in np_roots if abs(r.imag) <= 1e-7 * (1 + abs(r.real))]
        assert reals, (a2, a1, a0)
        tol = 1e-6 * max(1.0, abs(root))
        assert min(abs(root - r) for r in reals) <= tol
        assert max(reals) - root <= tol
        checked += 1


def test_residual_property_random():
    rng = random.Random(7)
    for _ in range(5000):
        cubic = MonicCubic(
            a2=rng.uniform(-20, 20), a1=rng.uniform(-20, 20), a0=rng.uniform(-20, 20)
        )
        root = principal_trig_root(cubic)
        assert abs(cubic(root)) <= 1e-9 * cubic.coefficient_scale()


def test_expansion_efficiency_cubic_uses_hyperbolic_branch():
    # coupling below 1/2 pushes the arccos argument above +1, so the real
    # stationary ratio comes from the cosh continuation
    g = 0.5 * relativistic_factor(0.5)
    assert g < 0.5
    cubic = scenario_forms(SUDDEN_EXPANSION).efficiency_cubic(g)
    x = acos_argument(cubic)
    assert x > 1.0
    assert x == pytest.approx((g * g - 4 * g + 2) / (g * g), rel=1e-12, abs=0)
    root = principal_trig_root(cubic)
    assert root == pytest.approx(REFERENCE["optima"]["tau=0.5,v=0.5"]["z_eta_se"], rel=1e-13, abs=0)


def test_subnormal_load_keeps_the_principal_root():
    # At a subnormal load 2 * spread * sqrt(spread) underflows to 0, yet the
    # arccos argument is O(1) and the root sqrt(3g/(2-g)) exists.
    g = 1e-310 * relativistic_factor(0.99)
    cubic = scenario_forms(SUDDEN_COMPRESSION).efficiency_cubic(g)
    spread = cubic.a2 ** 2 - 3.0 * cubic.a1
    assert spread > 0.0 and 2.0 * spread * math.sqrt(spread) == 0.0
    root = principal_trig_root(cubic)
    assert root == pytest.approx(math.sqrt(3.0 * g / (2.0 - g)), rel=1e-12, abs=0)


def _decimal_root(cubic, start):
    # Newton's method at 80 digits on the cubic's exact float coefficients
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        a2, a1, a0 = (decimal.Decimal(c) for c in cubic)
        y = decimal.Decimal(start)
        for _ in range(100):
            step = (((y + a2) * y + a1) * y + a0) / ((3 * y + 2 * a2) * y + a1)
            if y == y - step:
                break
            y -= step
        return y


def _ulps_from_decimal_root(cubic, root, start):
    want = _decimal_root(cubic, start)
    return abs(decimal.Decimal(root) - want) / decimal.Decimal(math.ulp(float(want)))


@pytest.mark.parametrize("tau", [8.927268066483435e-155, 1e-155, 1.709196365738078e-158, 1e-161])
def test_overflowing_argument_keeps_the_real_root(tau):
    # Near g = 1e-155 the expansion quench's spread (3g/2)**2 is subnormal
    # and the hyperbolic argument overflows to inf, yet the one real root,
    # about (g (1 - 2g) / 2)**(1/3), exists and is Cardano's.
    g = tau * relativistic_factor(0.5)
    cubic = scenario_forms(SUDDEN_EXPANSION).efficiency_cubic(g)
    spread = cubic.a2 ** 2 - 3.0 * cubic.a1
    numerator = 27.0 * cubic.a0 + 2.0 * cubic.a2 ** 3
    assert 0.0 < spread < sys.float_info.min
    assert math.isinf(-(numerator / spread) / (2.0 * math.sqrt(spread)))
    root = principal_trig_root(cubic)
    start = (0.5 * g * (1.0 - 2.0 * g)) ** (1.0 / 3.0)
    assert _ulps_from_decimal_root(cubic, root, start) <= 1, (g, root)


def test_underflowed_spread_takes_the_cardano_root():
    # From g of about 1e-154 down, the expansion quench's arccos argument is
    # not a double, and below about 1.5e-162 its spread (3g/2)**2 is 0 in
    # floating point; the one real root, about (g/2)**(1/3), is Cardano's.
    for k in range(155, 309):
        g = float(f"1e-{k}")
        cubic = scenario_forms(SUDDEN_EXPANSION).efficiency_cubic(g)
        if k >= 166:
            assert cubic.a2 ** 2 - 3.0 * cubic.a1 == 0.0
        root = principal_trig_root(cubic)
        ulps = _ulps_from_decimal_root(cubic, root, (0.5 * g) ** (1.0 / 3.0))
        assert ulps <= 1, (g, root, ulps)


def test_normal_scale_keeps_the_one_step_division():
    # The arccos argument is a single division; dividing in two steps here
    # moves the root by an ulp.
    cubic = scenario_forms(SUDDEN_COMPRESSION).efficiency_cubic(0.3)
    a2, a1, a0 = cubic.a2, cubic.a1, cubic.a0
    spread = a2 * a2 - 3.0 * a1
    half = math.sqrt(spread)
    x = -(2.0 * a2 * a2 * a2 - 9.0 * a2 * a1 + 27.0 * a0) / (2.0 * spread * half)
    root = -a2 / 3.0 + (2.0 / 3.0) * half * math.cos(math.acos(x) / 3.0)
    assert principal_trig_root(cubic) == root


def test_determinism():
    cubic = MonicCubic(a2=-0.3, a1=-1.7, a0=0.2)
    assert principal_trig_root(cubic) == principal_trig_root(cubic)
