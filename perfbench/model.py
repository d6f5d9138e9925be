"""Independent restatement of the otto-rel model, used only to check outputs.

Nothing here imports otto_rel: the formulas are written out again from the
model definitions in the package docstrings, and the optima are located by
plain golden-section search, so a check fails if the program and this file
disagree rather than if both share a defect.
"""

from __future__ import annotations

import math

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_LN2 = math.log(2.0)


def factor(v: float) -> float:
    """Velocity reduction f(v) = sqrt(1-v^2) ln[(1+v)/(1-v)] / (2v), 0 < v < 1."""
    return math.sqrt(1.0 - v * v) * math.log((1.0 + v) / (1.0 - v)) / (2.0 * v)


def hot_limit(scenario: str, z: float, tau: float, v: float, beta_h: float = 1.0):
    """(q_h, q_c, w_ext) of the reduced cycle for scenario "sc" or "se"."""
    g = tau * factor(v)
    if scenario == "sc":
        q_h = (2.0 * z * z - g * (z * z + 1.0)) / (2.0 * z * z * beta_h)
        q_c = (g - z) / beta_h
    else:
        q_h = (z - g) / (z * beta_h)
        q_c = (g - 0.5 * (1.0 + z * z)) / beta_h
    return q_h, q_c, q_h + q_c


def exact(scenario: str, z: float, tau: float, v: float, beta_h: float, omega_h: float):
    """(q_h, q_c, w_ext) from the exact corner energies, beta_c = beta_h / tau."""
    beta_c = beta_h / tau
    omega_c = z * omega_h
    quench = (z * z + 1.0) / (2.0 * z)
    lam_ab = quench if scenario == "sc" else 1.0
    lam_cd = quench if scenario == "se" else 1.0
    doppler = math.sqrt((1.0 + v) / (1.0 - v))
    half = 0.5 * beta_c * omega_c

    def ln_sinh(x: float) -> float:
        return x - _LN2 + math.log(-math.expm1(-2.0 * x))

    ratio = ln_sinh(half * doppler) - ln_sinh(half / doppler)
    h_a = math.sqrt(1.0 - v * v) / (2.0 * beta_c * v) * ratio
    h_b = lam_ab * h_a / z
    coth = 1.0 / math.tanh(0.5 * beta_h * omega_h)
    h_c = 0.5 * omega_h * coth
    h_d = 0.5 * omega_c * lam_cd * coth
    q_h = h_c - h_b
    q_c = h_a - h_d
    return q_h, q_c, q_h + q_c


def engine_floor(scenario: str, tau: float, v: float) -> float:
    """Smallest ratio z with nonnegative hot-limit work."""
    g = tau * factor(v)
    if scenario == "sc":
        return 0.25 * (g + math.sqrt(g * (g + 8.0)))
    return 0.5 * (math.sqrt(1.0 + 8.0 * g) - 1.0)


def golden_max(f, lo: float, hi: float, iterations: int = 90) -> float:
    """Argmax of a unimodal f on [lo, hi] by golden-section search."""
    a, b = lo, hi
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iterations):
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


class Objectives:
    """The three hot-limit objectives of `optimize` at one (scenario, tau, v)."""

    def __init__(self, scenario: str, tau: float, v: float, beta_h: float = 1.0):
        self.scenario, self.tau, self.v, self.beta_h = scenario, tau, v, beta_h
        self.lo = engine_floor(scenario, tau, v)
        z_eta = golden_max(self.eta, self.lo, 1.0)
        self.eta_max = self.eta(z_eta)

    def eta(self, z: float) -> float:
        q_h, _, w = hot_limit(self.scenario, z, self.tau, self.v)
        return w / q_h

    def work(self, z: float) -> float:
        return hot_limit(self.scenario, z, self.tau, self.v, self.beta_h)[2]

    def omega(self, z: float) -> float:
        q_h, _, w = hot_limit(self.scenario, z, self.tau, self.v, self.beta_h)
        return 2.0 * w - self.eta_max * q_h

    def eta_at_omega_optimum(self) -> float:
        return self.eta(golden_max(self.omega, self.lo, 1.0))


def mode(w: float, q_h: float, q_c: float, eps: float = 1e-9) -> str:
    """Operational-mode token from the signs of (W, Q_h, Q_c)."""
    signs = tuple(0 if abs(x) <= eps else (1 if x > 0.0 else -1) for x in (w, q_h, q_c))
    return {
        (1, 1, -1): "engine",
        (-1, -1, 1): "refrigerator",
        (-1, -1, -1): "heater",
        (-1, 1, -1): "accelerator",
    }.get(signs, "boundary" if 0 in signs else "invalid")
