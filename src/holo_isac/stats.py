"""Self-contained statistics toolbox for the Monte Carlo harness.

Student-t and F distribution functions are computed via the regularized
incomplete beta function with a modified-Lentz continued fraction, so the
package needs no statistics library at runtime; quantiles invert the CDFs by
bisection. Degenerate inputs (zero variances) map to documented sentinels
rather than NaNs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

P_FLOOR = 1e-300  # report p-values below this as the sentinel string
P_SENTINEL = "<1e-300"


# =====================================================================
# Regularized incomplete beta and the CDFs built on it
# =====================================================================

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 501):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise RuntimeError(f"incomplete beta continued fraction failed for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return float(x)
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(t: float, df: float) -> float:
    """Student-t cumulative distribution function."""
    if df <= 0.0:
        raise ValueError(f"degrees of freedom must be > 0, got {df}")
    if np.isnan(t):
        raise ValueError("t statistic is NaN")
    if np.isinf(t):
        return 1.0 if t > 0 else 0.0
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(0.5 * df, 0.5, x)
    return 1.0 - tail if t > 0.0 else tail


def f_cdf(x: float, df1: float, df2: float) -> float:
    """F distribution cumulative distribution function."""
    if df1 <= 0.0 or df2 <= 0.0:
        raise ValueError(f"degrees of freedom must be > 0, got ({df1}, {df2})")
    if x <= 0.0:
        return 0.0
    if np.isinf(x):
        return 1.0
    return regularized_incomplete_beta(0.5 * df1, 0.5 * df2,
                                       df1 * x / (df1 * x + df2))


@functools.lru_cache(maxsize=64)
def t_quantile(p: float, df: float) -> float:
    """Inverse Student-t CDF by bisection (plenty for CI construction).

    Memoized: the intervals and tests of a report ask for few (p, df)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must be in (0, 1), got {p}")
    lo, hi = -1e6, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


# =====================================================================
# Estimates and tests
# =====================================================================

@dataclass
class StatTestResult:
    """One hypothesis test outcome.

    df2 is populated for F tests only. ci bounds are the confidence interval
    of the mean difference where that is defined (NaN for ANOVA); p-values
    below 1e-300 are stored as 0.0 and serialized with the sentinel string.
    """

    kind: str
    statistic: float
    df: float
    p_value: float
    effect_size: float
    ci_low: float
    ci_high: float
    confidence: float
    df2: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p-value out of range: {self.p_value}")
        if (np.isfinite(self.ci_low) and np.isfinite(self.ci_high)
                and self.ci_low > self.ci_high):
            raise ValueError("confidence interval bounds are inverted")

    def p_display(self) -> str:
        return P_SENTINEL if self.p_value < P_FLOOR else repr(float(self.p_value))


def mean_ci(samples, confidence: float = 0.95):
    """Sample mean with a two-sided t confidence interval.

    Returns:
        (mean, ci_low, ci_high) tuple. A single sample yields an infinite
        interval; zero samples raise.
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("cannot form a confidence interval from no samples")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    m = float(x.mean())
    if x.size == 1:
        return m, -np.inf, np.inf
    se = float(x.std(ddof=1) / np.sqrt(x.size))
    if se == 0.0:
        return m, m, m
    tq = t_quantile(0.5 + confidence / 2.0, x.size - 1)
    return m, m - tq * se, m + tq * se


def cohens_d(a, b) -> float:
    """Pooled-standard-deviation effect size (mean(a) - mean(b)) / s_pooled.

    Zero pooled spread degenerates to signed infinity (0 when the means also
    agree).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("need at least two samples per group")
    diff = float(a.mean() - b.mean())
    pooled_var = ((a.size - 1) * a.var(ddof=1) + (b.size - 1) * b.var(ddof=1)) \
        / (a.size + b.size - 2)
    if pooled_var <= 0.0:
        if diff == 0.0:
            return 0.0
        return np.inf if diff > 0.0 else -np.inf
    return diff / float(np.sqrt(pooled_var))


def _two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) = I_{df/(df+t^2)}(df/2, 1/2), taken from the upper tail
    directly: 1 - CDF would round every p below about 1e-16 to 0."""
    if np.isinf(t):
        return 0.0
    return min(1.0, regularized_incomplete_beta(0.5 * df, 0.5,
                                                df / (df + t * t)))


def paired_t_test(a, b, confidence: float = 0.95) -> StatTestResult:
    """Paired-sample t test on the per-trial differences a - b.

    All-identical pairs give statistic 0 and p = 1; a constant nonzero
    difference degenerates to an infinite statistic and p stored as 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.size < 2:
        raise ValueError("paired test needs two equal-length samples, n >= 2")
    d = a - b
    n = d.size
    md = float(d.mean())
    sd = float(d.std(ddof=1))
    df = float(n - 1)
    if sd == 0.0:
        if md == 0.0:
            stat, p, lo, hi = 0.0, 1.0, 0.0, 0.0
        else:
            stat = np.inf if md > 0.0 else -np.inf
            p, lo, hi = 0.0, md, md
        return StatTestResult("paired_t", stat, df, p, cohens_d(a, b),
                             lo, hi, confidence)
    se = sd / float(np.sqrt(n))
    stat = md / se
    tq = t_quantile(0.5 + confidence / 2.0, df)
    return StatTestResult("paired_t", stat, df, _two_sided_p(stat, df),
                          cohens_d(a, b), md - tq * se, md + tq * se, confidence)


def one_way_anova(groups, confidence: float = 0.95) -> StatTestResult:
    """Fixed-effects one-way ANOVA across two or more groups.

    Zero within-group variance everywhere degenerates to F = inf / p = 0 when
    the group means differ, and F = 0 / p = 1 when they do not.
    """
    gs = [np.asarray(g, dtype=float) for g in groups]
    if len(gs) < 2 or any(g.size < 2 for g in gs):
        raise ValueError("ANOVA needs >= 2 groups with >= 2 samples each")
    n_total = sum(g.size for g in gs)
    k = len(gs)
    grand = sum(g.sum() for g in gs) / n_total
    ss_between = sum(g.size * (g.mean() - grand) ** 2 for g in gs)
    ss_within = sum(float(((g - g.mean()) ** 2).sum()) for g in gs)
    df1, df2 = float(k - 1), float(n_total - k)
    if ss_within == 0.0:
        if ss_between == 0.0:
            stat, p = 0.0, 1.0
        else:
            stat, p = np.inf, 0.0
        return StatTestResult("anova_f", stat, df1, p, 0.0, np.nan, np.nan,
                             confidence, df2=df2)
    stat = float((ss_between / df1) / (ss_within / df2))
    # P(F >= stat) = I_{df2/(df2+df1 stat)}(df2/2, df1/2): the upper tail
    # directly, not 1 - CDF, which is 0 below about 1e-16
    p = min(1.0, regularized_incomplete_beta(0.5 * df2, 0.5 * df1,
                                             df2 / (df2 + df1 * stat)))
    eta_sq = float(ss_between / (ss_between + ss_within))
    return StatTestResult("anova_f", stat, df1, p, eta_sq,
                         np.nan, np.nan, confidence, df2=df2)


def bonferroni(p_values, num_tests: int | None = None) -> np.ndarray:
    """Bonferroni family-wise correction min(1, m * p), elementwise."""
    p = np.asarray(p_values, dtype=float)
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValueError(f"p-values must lie in [0, 1], got {p}")
    m = num_tests if num_tests is not None else p.size
    if m < 1:
        raise ValueError(f"number of tests must be >= 1, got {m}")
    return np.minimum(1.0, m * p)
