#!/usr/bin/env python3
"""Regenerate tests/_reference.py with 60-digit reference values.

This script is deliberately independent of the otto_rel package: every
formula is written out again from the model definitions, heats and work
are maximized by mpmath root-finding on derivatives rather than by the
package's solvers, and each closed form is asserted against a second
route at 45+ digits before anything is frozen.  The frozen file contains
plain Python floats (nearest doubles to the extended-precision values)
and is imported by the test suite as its source of expected numbers.

Run from the repository root:

    python3 scripts/generate_reference.py
"""

from __future__ import annotations

import pathlib
from collections import namedtuple

import mpmath as mp

mp.mp.dps = 60

TARGET = pathlib.Path(__file__).resolve().parents[1] / "tests" / "_reference.py"

TIGHT = mp.mpf(10) ** -45


def check(label: str, a, b, tol=TIGHT) -> None:
    scale = max(1, abs(a), abs(b))
    if abs(a - b) > tol * scale:
        raise AssertionError(f"{label}: {a} vs {b} (gap {abs(a - b)})")


# ----------------------------------------------------------------------
# model definitions, written independently of the package
# ----------------------------------------------------------------------


def factor(v):
    """Relativistic reduction of cold-bath thermal quantities."""
    v = mp.mpf(v)
    return mp.sqrt(1 - v * v) * mp.log((1 + v) / (1 - v)) / (2 * v)


def sudden_jump(z):
    return (z * z + 1) / (2 * z)


def exact_record(v, beta_c, beta_h, omega_c, omega_h, sudden_comp, sudden_exp):
    """Corner energies and per-cycle heats for one protocol choice."""
    v, beta_c, beta_h = mp.mpf(v), mp.mpf(beta_c), mp.mpf(beta_h)
    omega_c, omega_h = mp.mpf(omega_c), mp.mpf(omega_h)
    z = omega_c / omega_h
    lam_ab = sudden_jump(z) if sudden_comp else mp.mpf(1)
    lam_cd = sudden_jump(z) if sudden_exp else mp.mpf(1)
    doppler = mp.sqrt((1 + v) / (1 - v))
    x_plus = beta_c * omega_c / 2 * doppler
    x_minus = beta_c * omega_c / 2 / doppler
    h_a = (
        mp.sqrt(1 - v * v)
        / (2 * beta_c * v)
        * mp.log(mp.sinh(x_plus) / mp.sinh(x_minus))
    )
    h_b = (omega_h / omega_c) * lam_ab * h_a
    h_c = omega_h / 2 * mp.coth(beta_h * omega_h / 2)
    h_d = omega_c / 2 * lam_cd * mp.coth(beta_h * omega_h / 2)
    q_h = h_c - h_b
    q_c = h_a - h_d
    w = q_h + q_c
    eta = w / q_h if q_h > 0 else None
    return dict(h_a=h_a, h_b=h_b, h_c=h_c, h_d=h_d, q_h=q_h, q_c=q_c, w_ext=w, eta=eta)


def load(tau, v):
    """The reduced load g = tau * factor(v) that every hot-limit form reads."""
    return mp.mpf(tau) * factor(v)


def stationary_max(fn, x0, lo, hi):
    """Root of fn' near x0, checked to be an interior maximum."""
    root = mp.findroot(lambda x: mp.diff(fn, x), mp.mpf(x0), tol=mp.mpf(10) ** -50)
    assert lo < root < hi, f"stationary point {root} left ({lo}, {hi})"
    assert mp.diff(fn, root, 2) < 0, f"stationary point {root} is not a maximum"
    check("stationarity", mp.diff(fn, root), 0, tol=mp.mpf(10) ** -40)
    return root


def third_cos(argument):
    """cos(acos(argument)/3) continued through argument > 1."""
    value = mp.cos(mp.acos(mp.mpc(argument)) / 3)
    assert abs(value.imag) < TIGHT, f"unexpected imaginary part {value.imag}"
    return value.real


def eta_mw_sc_literal(eta_c, v):
    """Efficiency at maximum work (compression), termwise transcription."""
    eta_c, v = mp.mpf(eta_c), mp.mpf(v)
    rapidity2 = mp.log((1 + v) / (1 - v))
    head = 2 ** mp.mpf("7/3") * v * (1 - eta_c) ** mp.mpf("2/3")
    mid = 2 * (eta_c - 1) * (v * v * rapidity2 * mp.sqrt(1 - v * v)) ** mp.mpf("1/3")
    tail = rapidity2 * mp.sqrt(1 - v * v) * (2 * (1 - eta_c) ** 5) ** mp.mpf("1/3")
    return (head + 3 * mid + tail) / (head + mid - tail)


def eta_mw_se_literal(eta_c, v):
    """Efficiency at maximum work (expansion), termwise transcription."""
    eta_c, v = mp.mpf(eta_c), mp.mpf(v)
    rapidity2 = mp.log((1 + v) / (1 - v))
    head = v * (4 * (1 - eta_c)) ** mp.mpf("1/3")
    mid = (eta_c - 1) * (v * rapidity2**2 * (1 - v * v)) ** mp.mpf("1/3")
    tail = rapidity2 * mp.sqrt(1 - v * v) * (4 * (1 - eta_c) ** 4) ** mp.mpf("1/3")
    return (head + 3 * mid + tail) / (2 * (head + mid))


# One entry per asymmetric scenario, the only place either is written:
#   energies(z, g)    hot-limit (q_h, q_c, w) in units of 1/beta_h
#   engine_floor(g)   lower edge of the engine window in z
#   max_eta_ratio(g)  trig closed form of the efficiency-optimal ratio
#   eta_mw(eta_c, v)  termwise transcription of the efficiency at maximum work
#   sudden            (compression, expansion): the quenched strokes of the
#                     exact cycle
Scenario = namedtuple("Scenario", "energies engine_floor max_eta_ratio eta_mw sudden")

SCENARIOS = {
    "sc": Scenario(
        energies=lambda z, g: (
            (2 * z * z - g * (z * z + 1)) / (2 * z * z),
            g - z,
            (1 - z) * (2 * z * z - g * (1 + z)) / (2 * z * z),
        ),
        engine_floor=lambda g: (g + mp.sqrt(g * (g + 8))) / 4,
        max_eta_ratio=lambda g: 2 * mp.sqrt(g / (2 - g)) * third_cos(-mp.sqrt(g * (2 - g))),
        eta_mw=eta_mw_sc_literal,
        sudden=(True, False),
    ),
    "se": Scenario(
        energies=lambda z, g: (
            (z - g) / z,
            g - (1 + z * z) / 2,
            (1 - z) * (z * (1 + z) - 2 * g) / (2 * z),
        ),
        engine_floor=lambda g: (mp.sqrt(1 + 8 * g) - 1) / 2,
        max_eta_ratio=lambda g: g / 2 * (1 + 2 * third_cos((g * g - 4 * g + 2) / (g * g))),
        eta_mw=eta_mw_se_literal,
        sudden=(False, True),
    ),
}


def eta(scenario, z, g):
    q_h, _, w = scenario.energies(z, g)
    return w / q_h


def optimum_chain(name, g):
    """Efficiency optimum of one scenario, then the trade-off optimum it sets.

    The efficiency root is the trig closed form cross-checked by the
    derivative root; the trade-off root is the derivative root cross-checked
    by the exact stationarity identity z**3 = g*(2 - eta_max)/2.
    """
    scenario = SCENARIOS[name]
    floor = scenario.engine_floor(g)
    z_eta_cf = scenario.max_eta_ratio(g)
    z_eta = stationary_max(lambda z: eta(scenario, z, g), z_eta_cf, floor, 1)
    check(f"z_eta_{name} closed form", z_eta_cf, z_eta)
    cap = eta(scenario, z_eta, g)

    def omega(z):
        q_h, _, w = scenario.energies(z, g)
        return 2 * w - cap * q_h

    z_om_cf = (g * (2 - cap) / 2) ** mp.mpf("1/3")
    z_om = stationary_max(omega, z_om_cf, floor, 1)
    check(f"z_omega_{name} identity", z_om_cf, z_om)
    return dict(
        engine_lb=floor, z_eta=z_eta, eta_max=cap,
        z_omega=z_om, omega_max=omega(z_om), eta_omega=eta(scenario, z_om, g),
    )


def optima_block(tau, v):
    g = load(tau, v)
    z_work = g ** mp.mpf("1/3")
    rows = {}
    for name, scenario in SCENARIOS.items():
        row = rows[name] = optimum_chain(name, g)
        # work optimum: cube-root closed form cross-checked by derivative root
        z_w = stationary_max(lambda z: scenario.energies(z, g)[2], z_work, row["engine_lb"], 1)
        check(f"z_work {name}", z_work, z_w)
        row["work_max"] = scenario.energies(z_work, g)[2]
        row["eta_mw"] = eta(scenario, z_work, g)
        check(f"eta_mw_{name} literal", row["eta_mw"], scenario.eta_mw(1 - mp.mpf(tau), v))

    def each(*keys):
        """The keys suffixed by each scenario's name, over the table in order."""
        return {f"{key}_{name}": row[key] for name, row in rows.items() for key in keys}

    return {
        **each("engine_lb"), **each("z_eta", "eta_max"), "z_work": z_work,
        **each("work_max"), **each("eta_mw"), **each("z_omega", "omega_max", "eta_omega"),
        "crossing_z": mp.sqrt(g),
    }


def exact_edges():
    """A-corner energy at beta_c = 1 (so omega_c = 2x) near both ends of v.

    Each v is the double the package sees, converted exactly; at
    v = 1 - 1e-12 the decimal string would differ from it by 2e-5 in 1 - v.
    """
    velocities = (1e-12, 1e-5, 1e-3, 1 - 1e-6, 1 - 1e-12)
    return {
        repr(v): {
            repr(x): exact_record(mp.mpf(v), 1, 1, 2 * x, 2 * x, False, False)["h_a"]
            for x in (0.25, 30.0)
        }
        for v in velocities
    }


def factor_edges():
    """Velocity factor near both ends of v, at the doubles the package sees."""
    velocities = (1e-5, 1e-3, 1 - 1e-6, 1 - 1e-12)
    return {repr(v): factor(mp.mpf(v)) for v in velocities}


def eta_omega_point(tau, v, name):
    """Efficiency at the trade-off optimum of one scenario."""
    return optimum_chain(name, load(tau, v))["eta_omega"]


# ----------------------------------------------------------------------
# consistency gates that must hold before anything is written
# ----------------------------------------------------------------------


def verify_series_coefficients() -> None:
    """Small-v expansion of factor(): 1 - v^2/6 - 11 v^4/120 + O(v^6)."""
    v = mp.mpf(10) ** -6
    c2 = (factor(v) - 1) / (v * v)
    check("factor v^2 coefficient", c2, mp.mpf(-1) / 6, tol=mp.mpf(10) ** -10)
    c4 = (factor(v) - 1 + v * v / 6) / v**4
    check("factor v^4 coefficient", c4, mp.mpf(-11) / 120, tol=mp.mpf(10) ** -10)


def verify_first_law_spot() -> None:
    for name, scenario in SCENARIOS.items():
        rec = exact_record("0.5", 1, "0.5", 1, 2, *scenario.sudden)
        check(f"first law {name}", rec["w_ext"], rec["q_h"] + rec["q_c"])
        assert rec["h_a"] > mp.mpf("0.5"), "cold corner energy below ground level"
    adiabatic = exact_record("0.5", 1, "0.5", 1, 2, False, False)
    check("adiabatic efficiency is 1 - z", adiabatic["eta"], mp.mpf("0.5"))


# ----------------------------------------------------------------------
# emission
# ----------------------------------------------------------------------


def freeze(node):
    """The nearest doubles to a nested dict of mpf values (None stays None)."""
    if isinstance(node, dict):
        return {key: freeze(value) for key, value in node.items()}
    return None if node is None else float(node)


def render() -> str:
    """Run every consistency gate, then return the text of tests/_reference.py."""
    verify_series_coefficients()
    verify_first_law_spot()

    spot = mp.mpf("0.7"), load("0.5", "0.5")
    reference = {
        "factor": {
            "0.35": factor("0.35"),
            "0.5": factor("0.5"),
            "0.75": factor("0.75"),
            "0.95": factor("0.95"),
            "1e-4": factor(mp.mpf(10) ** -4),
            "9e-5": factor(mp.mpf("9e-5")),
        },
        # v=0.5, beta_c=1, beta_h=0.5, omega_c=1, omega_h=2 (z=0.5, tau=0.5)
        "exact_p0": {
            **{
                name: exact_record("0.5", 1, "0.5", 1, 2, *scenario.sudden)
                for name, scenario in SCENARIOS.items()
            },
            "adiabatic": exact_record("0.5", 1, "0.5", 1, 2, False, False),
            "sudden": exact_record("0.5", 1, "0.5", 1, 2, True, True),
        },
        # z=0.7, tau=0.5, v=0.5, beta_h=1
        "ht_spot": {
            name: dict(zip(("q_h", "q_c", "w_ext"), scenario.energies(*spot)))
            for name, scenario in SCENARIOS.items()
        },
        "optima": {
            "tau=0.5,v=0.5": optima_block("0.5", "0.5"),
            "tau=0.3,v=0.75": optima_block("0.3", "0.75"),
        },
        "trade_off_efficiency": {
            "sc_eta_c=0.99,v=0.95": eta_omega_point("0.01", "0.95", "sc"),
            "sc_eta_c=0.999,v=0.95": eta_omega_point("0.001", "0.95", "sc"),
            "se_eta_c=0.99,v=0.95": eta_omega_point("0.01", "0.95", "se"),
        },
        # h_a keyed by repr(v), then repr(x) with x = beta_c omega_c / 2
        "exact_edges": exact_edges(),
        # f(v) keyed by repr(v)
        "factor_edges": factor_edges(),
    }

    body = repr(freeze(reference)).replace("}, ", "},\n ")
    return (
        '"""Frozen reference values (nearest doubles to 60-digit results).\n'
        "\n"
        "Generated by scripts/generate_reference.py; regenerate with\n"
        "`python3 scripts/generate_reference.py` instead of editing.\n"
        '"""\n'
        "\n"
        f"REFERENCE = {body}\n"
    )


def main() -> None:
    TARGET.parent.mkdir(parents=True, exist_ok=True)
    TARGET.write_text(render(), encoding="utf-8")
    print(f"wrote {TARGET}")


if __name__ == "__main__":
    main()
