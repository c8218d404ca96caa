import numpy as np
import pytest
import scipy.stats

from holo_isac.stats import (
    P_SENTINEL,
    StatTestResult,
    bonferroni,
    cohens_d,
    f_cdf,
    mean_ci,
    one_way_anova,
    paired_t_test,
    regularized_incomplete_beta,
    t_cdf,
    t_quantile,
)
from oracles import welch_t_test


# =====================================================================
# Distribution functions vs scipy
# =====================================================================

def test_incomplete_beta_against_scipy():
    rng = np.random.default_rng(61)
    for _ in range(50):
        a = float(rng.uniform(0.5, 20.0))
        b = float(rng.uniform(0.5, 20.0))
        x = float(rng.uniform(0.0, 1.0))
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            scipy.stats.beta.cdf(x, a, b), abs=1e-11)


def test_t_cdf_against_scipy():
    for df in [1, 2, 5, 10, 30, 199]:
        for t in np.linspace(-8.0, 8.0, 33):
            assert t_cdf(float(t), df) == pytest.approx(
                scipy.stats.t.cdf(t, df), abs=1e-11)


def test_f_cdf_against_scipy():
    for df1, df2 in [(1, 5), (3, 12), (2, 40), (7, 7), (10, 150)]:
        for x in [0.0, 0.2, 0.7, 1.0, 2.5, 6.0, 20.0]:
            assert f_cdf(x, df1, df2) == pytest.approx(
                scipy.stats.f.cdf(x, df1, df2), abs=1e-11)


def test_t_quantile_against_scipy():
    for df in [2, 9, 49, 199]:
        for p in [0.005, 0.025, 0.9, 0.975, 0.995]:
            assert t_quantile(p, df) == pytest.approx(
                scipy.stats.t.ppf(p, df), abs=1e-8)
        # the beta parametrization cannot resolve t^2 below machine epsilon,
        # so the median is only pinned to ~sqrt(eps * df)
        assert abs(t_quantile(0.5, df)) < 3e-8 * np.sqrt(df)


def test_t_quantile_memo_returns_the_bisection_bits():
    for p, df in [(0.975, 9), (0.975, 53), (0.995, 17.3), (0.025, 2)]:
        want = np.float64(t_quantile.__wrapped__(p, df)).tobytes()
        # the first call may fill the cache, the second reads it
        for got in (t_quantile(p, df), t_quantile(p, df)):
            assert np.float64(got).tobytes() == want


# =====================================================================
# Summary statistics
# =====================================================================

def test_mean_ci_hand_case():
    m, lo, hi = mean_ci([1.0, 2.0, 3.0])
    assert m == pytest.approx(2.0)
    ref_lo, ref_hi = scipy.stats.t.interval(
        0.95, df=2, loc=2.0, scale=1.0 / np.sqrt(3.0))
    assert lo == pytest.approx(ref_lo, abs=1e-7)
    assert hi == pytest.approx(ref_hi, abs=1e-7)


def test_mean_ci_edge_cases():
    m, lo, hi = mean_ci([4.2])
    assert m == 4.2 and lo == -np.inf and hi == np.inf
    m, lo, hi = mean_ci([5.0, 5.0, 5.0])
    assert lo == hi == 5.0
    with pytest.raises(ValueError):
        mean_ci([])


def test_cohens_d():
    a = [1.0, 2.0, 3.0]
    b = [2.0, 3.0, 4.0]
    # pooled sd is 1, so d = -1
    assert cohens_d(a, b) == pytest.approx(-1.0)
    assert cohens_d(a, a) == 0.0
    assert cohens_d([1.0, 1.0], [0.0, 0.0]) == np.inf


# =====================================================================
# Hypothesis tests vs scipy
# =====================================================================

def test_paired_t_against_scipy():
    rng = np.random.default_rng(62)
    for _ in range(10):
        n = int(rng.integers(5, 40))
        a = rng.standard_normal(n)
        b = a + 0.3 * rng.standard_normal(n) + 0.1
        res = paired_t_test(a, b)
        ref = scipy.stats.ttest_rel(a, b)
        assert res.statistic == pytest.approx(ref.statistic, rel=1e-10)
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-8, abs=1e-12)
        assert res.df == n - 1
        d = a - b
        assert res.ci_low < d.mean() < res.ci_high or res.p_value < 0.05


def test_paired_t_degenerate_cases():
    same = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert same.statistic == 0.0 and same.p_value == 1.0
    shifted = paired_t_test([1.0, 2.0, 3.0], [0.0, 1.0, 2.0])
    assert shifted.statistic == np.inf and shifted.p_value == 0.0
    assert shifted.p_display() == P_SENTINEL
    with pytest.raises(ValueError):
        paired_t_test([1.0], [2.0])
    with pytest.raises(ValueError):
        paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])


def test_welch_t_against_scipy():
    rng = np.random.default_rng(63)
    a = rng.standard_normal(25)
    b = 1.5 * rng.standard_normal(40) + 0.4
    res = welch_t_test(a, b)
    ref = scipy.stats.ttest_ind(a, b, equal_var=False)
    assert res.statistic == pytest.approx(ref.statistic, rel=1e-10)
    assert res.p_value == pytest.approx(ref.pvalue, rel=1e-8)
    assert res.df == pytest.approx(ref.df, rel=1e-10)


def test_anova_against_scipy():
    rng = np.random.default_rng(64)
    groups = [rng.standard_normal(20) + mu for mu in (0.0, 0.3, 0.8)]
    res = one_way_anova(groups)
    ref = scipy.stats.f_oneway(*groups)
    assert res.statistic == pytest.approx(ref.statistic, rel=1e-10)
    assert res.p_value == pytest.approx(ref.pvalue, rel=1e-8)
    assert res.df == 2 and res.df2 == 57
    assert 0.0 <= res.effect_size <= 1.0


def test_p_values_far_below_machine_epsilon_match_scipy():
    # 1 - CDF reads 0 for any p below about 1e-16
    rng = np.random.default_rng(65)
    a = rng.standard_normal(200)
    b = a - 1.0 + 0.3 * rng.standard_normal(200)
    paired = paired_t_test(a, b)
    ref = scipy.stats.ttest_rel(a, b)
    assert ref.pvalue < 1e-100
    assert paired.p_value == pytest.approx(ref.pvalue, rel=1e-10)
    assert paired.p_display() != P_SENTINEL
    groups = [rng.standard_normal(50) + mu for mu in (0.0, 3.0, 6.0)]
    anova = one_way_anova(groups)
    ref = scipy.stats.f_oneway(*groups)
    assert ref.pvalue < 1e-50
    assert anova.p_value == pytest.approx(ref.pvalue, rel=1e-10)


def test_anova_degenerate_groups():
    flat = one_way_anova([[1.0, 1.0], [1.0, 1.0]])
    assert flat.statistic == 0.0 and flat.p_value == 1.0
    split = one_way_anova([[1.0, 1.0], [2.0, 2.0]])
    assert split.statistic == np.inf and split.p_value == 0.0
    with pytest.raises(ValueError):
        one_way_anova([[1.0, 2.0]])


def test_overflowing_samples_raise_a_value_error_that_names_the_overflow():
    # finite samples whose differences, sums or squares overflow float64
    big = [1e308, -1e308, 1e308, -1e308]
    for call in (lambda: paired_t_test(big, [-x for x in big]),
                 lambda: one_way_anova([big, [0.0, 1.0, 2.0, 3.0]]),
                 lambda: cohens_d([1e200, -1e200], [0.0, 1.0])):
        with pytest.raises(ValueError, match="statistic overflow") as err:
            call()
        assert err.value.reason == "statistic_overflow"
    with pytest.raises(ValueError, match="non finite samples") as err:
        paired_t_test([1.0, np.inf], [0.0, 1.0])
    assert err.value.reason == "non_finite_samples"


# =====================================================================
# Result container and corrections
# =====================================================================

def test_result_validation_and_display():
    with pytest.raises(ValueError):
        StatTestResult("t", 1.0, 3, 1.5, 0.0, 0.0, 1.0, 0.95)
    with pytest.raises(ValueError):
        StatTestResult("t", 1.0, 3, 0.5, 0.0, 2.0, 1.0, 0.95)
    ok = StatTestResult("t", 1.0, 3, 0.25, 0.0, 0.0, 1.0, 0.95)
    assert ok.p_display() == "0.25"


def test_bonferroni():
    adj = bonferroni([0.01, 0.04])
    assert np.allclose(adj, [0.02, 0.08])
    assert np.all(bonferroni([0.9, 0.8]) == 1.0)
    assert np.allclose(bonferroni([0.01], num_tests=5), [0.05])
    with pytest.raises(ValueError):
        bonferroni([1.5])
    with pytest.raises(ValueError):
        bonferroni([0.1], num_tests=0)
