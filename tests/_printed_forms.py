"""Literal transcriptions of the circulated trade-off maximizers.

These printed closed forms for the maximizer of 2*W - eta_max*Q_h do not
survive a numeric check; the package uses (g (1 - eta_max/2))**(1/3)
instead.  They are kept here, outside the package, so the tests can keep
measuring how far they land from the true maximizer.
"""

import math


def _check_domain(tau: float, v: float) -> None:
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    if not 0.0 <= v < 1.0:
        raise ValueError(f"v must lie in [0, 1), got {v}")


def _real_cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _third_angle_cos(x: float, multiple: int) -> float:
    """cos(multiple * arccos(x) / 3), continued through x > 1.

    For x > 1 the arccos is imaginary and the expression continues as
    cosh(multiple * arccosh(x) / 3).  Arguments below -1 do not occur for
    the expressions in this module and are rejected.
    """
    if x < -1.0 - 1e-12:
        raise ValueError(f"argument {x} below -1 has no continuation here")
    if x <= 1.0:
        return math.cos(multiple * math.acos(max(x, -1.0)) / 3.0)
    return math.cosh(multiple * math.acosh(x) / 3.0)


def printed_omega_maximizer_sc(
    tau: float, v: float, log_variant: str = "zero"
) -> float:
    """Literal transcription of the circulated trade-off maximizer (compression).

    The source expression contains the combination ln[1/(1+v)] + ln(1+v),
    which is identically zero; log_variant="zero" keeps that literal
    reading and log_variant="rapidity" substitutes the doubled rapidity
    ln[(1+v)/(1-v)] in its place, the most plausible intended symbol.
    Returns whatever the formula yields (possibly out of (0, 1)); callers
    compare against the true maximizer instead of trusting it.
    """
    _check_domain(tau, v)
    if v == 0.0:
        raise ValueError("the printed form degenerates at v = 0")
    if log_variant == "zero":
        log_term = 0.0
    elif log_variant == "rapidity":
        log_term = 2.0 * math.atanh(v)
    else:
        raise ValueError(f"unknown log_variant {log_variant!r}")

    rap = 2.0 * math.atanh(v)
    v2 = v * v
    boost = math.sqrt(1.0 - v2)
    quench_load = tau * rap * boost
    angle_arg = -quench_load / (
        2.0 * v * math.sqrt(quench_load / (4.0 * v - quench_load))
    )
    cos_one = _third_angle_cos(angle_arg, 1)
    cos_two = _third_angle_cos(angle_arg, 2)

    inner = (
        2.0
        * cos_two
        * (
            tau * log_term * (1.0 - v2) * (16.0 * v - 3.0 * tau * log_term * boost)
            - 16.0 * v2 * boost
        )
        - 24.0 * v * angle_arg * cos_one * (4.0 * v * boost + tau * rap * (v2 - 1.0))
        - 16.0 * v2 * boost
        + tau * log_term * (1.0 - v2) * (40.0 * v - 9.0 * tau * log_term * boost)
    )
    numer = tau * rap * inner
    denom = (
        4.0
        * v
        * (1.0 + 2.0 * cos_two)
        * (tau * rap * (tau * rap * (v2 - 1.0) + 8.0 * v * boost) - 16.0 * v2)
    )
    return _real_cbrt(numer) / _real_cbrt(denom)


def printed_omega_maximizer_se(tau: float, v: float) -> float:
    """Literal transcription of the circulated trade-off maximizer (expansion).

    The inverse-cosine argument is real only for tau*f(v) >= 1/2; below
    that the hyperbolic continuation is used, mirroring the efficiency
    cubic.  As with the compression variant, the value is reported for
    agreement bookkeeping, not trusted.
    """
    _check_domain(tau, v)
    if v == 0.0:
        raise ValueError("the printed form degenerates at v = 0")
    rap = 2.0 * math.atanh(v)
    v2 = v * v
    boost = math.sqrt(1.0 - v2)
    quench_load = tau * rap * boost
    angle_arg = 1.0 - 8.0 * v * (v - quench_load) / (tau * tau * rap * rap * (v2 - 1.0))
    cos_one = _third_angle_cos(angle_arg, 1)
    cos_two = _third_angle_cos(angle_arg, 2)

    inner = rap * (
        3.0 * rap * tau * tau * (v2 - 1.0) * (2.0 * cos_two + 3.0)
        - 32.0 * tau * v * boost
    ) + 4.0 * (
        tau * rap * (3.0 * tau * rap * (v2 - 1.0) + 8.0 * v * boost) - 24.0 * v2
    ) * cos_one
    numer = tau * rap * boost * inner
    denom = 4.0 * v * _real_cbrt(2.0 * (1.0 - 2.0 * cos_one))
    return _real_cbrt(numer) / denom
