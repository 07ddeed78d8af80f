"""Paired t-test and the Student t distribution it needs.

The t-distribution tail is computed through the regularized incomplete
beta function (continued-fraction evaluation), accurate to ~1e-13 over the
degrees of freedom this toolkit uses.  Implemented on the stdlib so the
runtime has no numeric dependencies; the test suite checks the CDF against
an independent numerical-integration oracle.
"""

from __future__ import annotations

import math
from statistics import fmean, stdev
from typing import NamedTuple, Sequence

_MAX_ITER = 300
_EPS = 3e-16
_FPMIN = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz method)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        # The even and the odd coefficient of step m, one Lentz update each.
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = 1.0 + aa / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(f"incomplete beta did not converge (a={a}, b={b}, x={x})")


def betainc_regularized(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    # Continued fraction converges fast on one side of the mean; use the
    # symmetry I_x(a,b) = 1 - I_{1-x}(b,a) on the other.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_cdf(t: float, df: float) -> float:
    """P(T <= t) for Student's t with df degrees of freedom."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive: {df}")
    if math.isinf(t):
        return 1.0 if t > 0 else 0.0
    x = df / (df + t * t)
    tail = 0.5 * betainc_regularized(df / 2.0, 0.5, x)
    return 1.0 - tail if t >= 0 else tail


class TTestResult(NamedTuple):
    n: int
    mean_diff: float
    sd_diff: float
    t: float
    df: int
    p_one_sided: float
    p_two_sided: float


def paired_t_test(series_a: Sequence[float], series_b: Sequence[float]) -> TTestResult:
    """Paired t-test on two aligned series.

    Differences are a - b; the statistic uses the sample standard deviation
    (n-1 denominator).  The one-sided p is the tail in the direction of the
    observed effect, so p_two_sided == 2 * p_one_sided.  Raises ValueError
    for fewer than two pairs, mismatched lengths, or zero variance.
    """
    if len(series_a) != len(series_b):
        raise ValueError(f"paired series differ in length: {len(series_a)} vs {len(series_b)}")
    n = len(series_a)
    if n < 2:
        raise ValueError(f"paired t-test needs at least 2 pairs, got {n}")
    diffs = [a - b for a, b in zip(series_a, series_b)]
    mean_d = fmean(diffs)
    sd_d = stdev(diffs)
    if sd_d == 0.0:
        raise ValueError("zero variance: all pairwise differences are equal")
    t = mean_d / (sd_d / math.sqrt(n))
    df = n - 1
    p_one = student_t_cdf(-abs(t), df)
    return TTestResult(
        n=n,
        mean_diff=mean_d,
        sd_diff=sd_d,
        t=t,
        df=df,
        p_one_sided=p_one,
        p_two_sided=min(1.0, 2.0 * p_one),
    )
