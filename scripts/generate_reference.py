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

import mpmath as mp

mp.mp.dps = 60

HERE = pathlib.Path(__file__).resolve().parent
TARGET = HERE.parent / "tests" / "_reference.py"

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
    return {
        "h_a": h_a,
        "h_b": h_b,
        "h_c": h_c,
        "h_d": h_d,
        "q_h": q_h,
        "q_c": q_c,
        "w_ext": w,
        "eta": eta,
    }


def ht_sc(z, tau, v, beta_h=1):
    z, tau, beta_h = mp.mpf(z), mp.mpf(tau), mp.mpf(beta_h)
    g = tau * factor(v)
    q_h = (2 * z * z - g * (z * z + 1)) / (2 * z * z * beta_h)
    q_c = (g - z) / beta_h
    w = (1 - z) * (2 * z * z - g * (1 + z)) / (2 * z * z * beta_h)
    return q_h, q_c, w


def ht_se(z, tau, v, beta_h=1):
    z, tau, beta_h = mp.mpf(z), mp.mpf(tau), mp.mpf(beta_h)
    g = tau * factor(v)
    q_h = (z - g) / (z * beta_h)
    q_c = (g - (1 + z * z) / 2) / beta_h
    w = (1 - z) * (z * (1 + z) - 2 * g) / (2 * z * beta_h)
    return q_h, q_c, w


def eta_sc(z, tau, v):
    q_h, _, w = ht_sc(z, tau, v)
    return w / q_h


def eta_se(z, tau, v):
    q_h, _, w = ht_se(z, tau, v)
    return w / q_h


def engine_lb_sc(g):
    return (g + mp.sqrt(g * (g + 8))) / 4


def engine_lb_se(g):
    return (mp.sqrt(1 + 8 * g) - 1) / 2


def stationary_max(fn, x0, lo, hi):
    """Root of fn' near x0, checked to be an interior maximum."""
    root = mp.findroot(lambda x: mp.diff(fn, x), mp.mpf(x0), tol=mp.mpf(10) ** -50)
    assert lo < root < hi, f"stationary point {root} left ({lo}, {hi})"
    assert mp.diff(fn, root, 2) < 0, f"stationary point {root} is not a maximum"
    check("stationarity", mp.diff(fn, root), 0, tol=mp.mpf(10) ** -40)
    return root


def third_cos(argument, multiple=1):
    """cos(multiple*acos(argument)/3) continued through argument > 1."""
    value = mp.cos(multiple * mp.acos(mp.mpc(argument)) / 3)
    assert abs(value.imag) < TIGHT, f"unexpected imaginary part {value.imag}"
    return value.real


def max_eta_ratio_sc(tau, v):
    """Trig closed form for the efficiency-optimal ratio (compression)."""
    b = mp.mpf(tau) * factor(v)
    return 2 * mp.sqrt(b / (2 - b)) * third_cos(-mp.sqrt(b * (2 - b)))


def max_eta_ratio_se(tau, v):
    """Trig closed form for the efficiency-optimal ratio (expansion)."""
    b = mp.mpf(tau) * factor(v)
    return b / 2 * (1 + 2 * third_cos((b * b - 4 * b + 2) / (b * b)))


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


def optima_block(tau, v):
    tau, v = mp.mpf(tau), mp.mpf(v)
    g = tau * factor(v)
    lb_sc, lb_se = engine_lb_sc(g), engine_lb_se(g)

    # efficiency optima: trig closed form cross-checked by derivative root
    z_eta_sc_cf = max_eta_ratio_sc(tau, v)
    z_eta_sc = stationary_max(lambda z: eta_sc(z, tau, v), z_eta_sc_cf, lb_sc, 1)
    check("z_eta_sc closed form", z_eta_sc_cf, z_eta_sc)
    z_eta_se_cf = max_eta_ratio_se(tau, v)
    z_eta_se = stationary_max(lambda z: eta_se(z, tau, v), z_eta_se_cf, lb_se, 1)
    check("z_eta_se closed form", z_eta_se_cf, z_eta_se)
    cap_sc = eta_sc(z_eta_sc, tau, v)
    cap_se = eta_se(z_eta_se, tau, v)

    # work optimum: cube-root closed form cross-checked by derivative root
    z_w_cf = g ** mp.mpf("1/3")
    z_w_sc = stationary_max(lambda z: ht_sc(z, tau, v)[2], z_w_cf, lb_sc, 1)
    z_w_se = stationary_max(lambda z: ht_se(z, tau, v)[2], z_w_cf, lb_se, 1)
    check("z_work sc", z_w_cf, z_w_sc)
    check("z_work se", z_w_cf, z_w_se)
    emw_sc = eta_sc(z_w_cf, tau, v)
    emw_se = eta_se(z_w_cf, tau, v)
    check("eta_mw_sc literal", emw_sc, eta_mw_sc_literal(1 - tau, v))
    check("eta_mw_se literal", emw_se, eta_mw_se_literal(1 - tau, v))

    # trade-off optima: derivative root cross-checked by the exact
    # stationarity identity z**3 = g*(2 - eta_max)/2
    def omega_sc(z):
        q_h, _, w = ht_sc(z, tau, v)
        return 2 * w - cap_sc * q_h

    def omega_se(z):
        q_h, _, w = ht_se(z, tau, v)
        return 2 * w - cap_se * q_h

    z_om_sc_cf = (g * (2 - cap_sc) / 2) ** mp.mpf("1/3")
    z_om_sc = stationary_max(omega_sc, z_om_sc_cf, lb_sc, 1)
    check("z_omega_sc identity", z_om_sc_cf, z_om_sc)
    z_om_se_cf = (g * (2 - cap_se) / 2) ** mp.mpf("1/3")
    z_om_se = stationary_max(omega_se, z_om_se_cf, lb_se, 1)
    check("z_omega_se identity", z_om_se_cf, z_om_se)

    return {
        "engine_lb_sc": lb_sc,
        "engine_lb_se": lb_se,
        "z_eta_sc": z_eta_sc,
        "eta_max_sc": cap_sc,
        "z_eta_se": z_eta_se,
        "eta_max_se": cap_se,
        "z_work": z_w_cf,
        "work_max_sc": ht_sc(z_w_cf, tau, v)[2],
        "work_max_se": ht_se(z_w_cf, tau, v)[2],
        "eta_mw_sc": emw_sc,
        "eta_mw_se": emw_se,
        "z_omega_sc": z_om_sc,
        "omega_max_sc": omega_sc(z_om_sc),
        "eta_omega_sc": eta_sc(z_om_sc, tau, v),
        "z_omega_se": z_om_se,
        "omega_max_se": omega_se(z_om_se),
        "eta_omega_se": eta_se(z_om_se, tau, v),
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


def eta_omega_point(tau, v, compression: bool):
    tau, v = mp.mpf(tau), mp.mpf(v)
    g = tau * factor(v)
    if compression:
        cap = eta_sc(
            stationary_max(
                lambda z: eta_sc(z, tau, v), max_eta_ratio_sc(tau, v), engine_lb_sc(g), 1
            ),
            tau,
            v,
        )
        z_om = (g * (2 - cap) / 2) ** mp.mpf("1/3")
        return eta_sc(z_om, tau, v)
    cap = eta_se(
        stationary_max(
            lambda z: eta_se(z, tau, v), max_eta_ratio_se(tau, v), engine_lb_se(g), 1
        ),
        tau,
        v,
    )
    z_om = (g * (2 - cap) / 2) ** mp.mpf("1/3")
    return eta_se(z_om, tau, v)


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
    rec = exact_record("0.5", 1, "0.5", 1, 2, True, False)
    check("first law", rec["w_ext"], rec["q_h"] + rec["q_c"])
    assert rec["h_a"] > mp.mpf("0.5"), "cold corner energy below ground level"
    adiabatic = exact_record("0.5", 1, "0.5", 1, 2, False, False)
    check("adiabatic efficiency is 1 - z", adiabatic["eta"], mp.mpf("0.5"))


# ----------------------------------------------------------------------
# emission
# ----------------------------------------------------------------------


def as_float(x):
    if x is None:
        return None
    return float(x)


def freeze(node):
    if isinstance(node, dict):
        return {key: freeze(value) for key, value in node.items()}
    return as_float(node)


def main() -> None:
    verify_series_coefficients()
    verify_first_law_spot()

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
            "sc": exact_record("0.5", 1, "0.5", 1, 2, True, False),
            "se": exact_record("0.5", 1, "0.5", 1, 2, False, True),
            "adiabatic": exact_record("0.5", 1, "0.5", 1, 2, False, False),
            "sudden": exact_record("0.5", 1, "0.5", 1, 2, True, True),
        },
        # z=0.7, tau=0.5, v=0.5, beta_h=1
        "ht_spot": {
            "sc": dict(zip(("q_h", "q_c", "w_ext"), ht_sc("0.7", "0.5", "0.5"))),
            "se": dict(zip(("q_h", "q_c", "w_ext"), ht_se("0.7", "0.5", "0.5"))),
        },
        "optima": {
            "tau=0.5,v=0.5": optima_block("0.5", "0.5"),
            "tau=0.3,v=0.75": optima_block("0.3", "0.75"),
        },
        "trade_off_efficiency": {
            "sc_eta_c=0.99,v=0.95": eta_omega_point("0.01", "0.95", True),
            "sc_eta_c=0.999,v=0.95": eta_omega_point("0.001", "0.95", True),
            "se_eta_c=0.99,v=0.95": eta_omega_point("0.01", "0.95", False),
        },
        # h_a keyed by repr(v), then repr(x) with x = beta_c omega_c / 2
        "exact_edges": exact_edges(),
        # f(v) keyed by repr(v)
        "factor_edges": factor_edges(),
    }

    frozen = freeze(reference)
    body = repr(frozen).replace("}, ", "},\n ")
    text = (
        '"""Frozen reference values (nearest doubles to 60-digit results).\n'
        "\n"
        "Generated by scripts/generate_reference.py; regenerate with\n"
        "`python3 scripts/generate_reference.py` instead of editing.\n"
        '"""\n'
        "\n"
        f"REFERENCE = {body}\n"
    )
    TARGET.parent.mkdir(parents=True, exist_ok=True)
    TARGET.write_text(text, encoding="utf-8")
    print(f"wrote {TARGET}")


if __name__ == "__main__":
    main()
