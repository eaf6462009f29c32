import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import example, given, settings, strategies as st

from smdcard.consistency import dispersion, f_survival, one_way_anova, task_seed
from smdcard.errors import EvaluationError


class TestDispersion:
    def test_max_min(self):
        stats, _ = dispersion([0.8, 0.6, 0.7])
        assert stats["max_min_difference"] == pytest.approx(0.2)

    def test_identical_values(self):
        stats, _ = dispersion([0.5, 0.5, 0.5])
        assert stats["variance"] == 0.0
        assert stats["max_min_difference"] == 0.0

    def test_hand_arithmetic_variance(self):
        # mean 0.7; squared deviations 0.01, 0.01, 0 -> population mean
        stats, _ = dispersion([0.8, 0.6, 0.7])
        assert stats["variance"] == pytest.approx(0.006667, abs=5e-7)

    def test_undefined_values_excluded_and_counted(self):
        stats, diag = dispersion([0.8, None, 0.6])
        assert stats["max_min_difference"] == pytest.approx(0.2)
        assert diag["excluded"] == 1

    def test_fewer_than_two_defined_undefined(self):
        stats, diag = dispersion([0.8, None])
        assert stats is None
        assert "undefined_reason" in diag

    def test_zero_variance_iff_zero_spread(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            values = list(rng.choice([0.25, 0.5], size=4))
            stats, _ = dispersion(values)
            assert (stats["variance"] == 0.0) == \
                (stats["max_min_difference"] == 0.0)


class TestAnova:
    def test_identical_means_small_f(self):
        rng = np.random.default_rng(2)
        groups = [rng.normal(size=50) for _ in range(3)]
        stats, _ = one_way_anova(groups)
        assert stats["p"] > 0.05

    def test_separated_groups_significant(self):
        stats, _ = one_way_anova([np.array([1.0, 2.0, 3.0]),
                                  np.array([101.0, 102.0, 103.0])])
        assert stats["F"] > 1000
        assert stats["p"] < 0.001

    def test_matches_sums_of_squares_oracle(self):
        groups = [np.array([3.1, 2.9, 3.3, 3.0]),
                  np.array([3.6, 3.8, 3.5]),
                  np.array([2.5, 2.7, 2.4, 2.8, 2.6])]
        stats, _ = one_way_anova(groups)

        # brute-force sums of squares
        all_values = np.concatenate(groups)
        grand = all_values.mean()
        ss_between = sum(len(g) * (g.mean() - grand) ** 2 for g in groups)
        ss_within = sum(((g - g.mean()) ** 2).sum() for g in groups)
        df_b = len(groups) - 1
        df_w = len(all_values) - len(groups)
        f_expected = (ss_between / df_b) / (ss_within / df_w)
        assert stats["F"] == pytest.approx(f_expected, abs=1e-9)

        # p from numeric integration of the F density
        def f_pdf(x):
            log_num = (df_b / 2) * math.log(df_b) + (df_w / 2) * math.log(df_w) \
                + (df_b / 2 - 1) * math.log(x)
            log_den = ((df_b + df_w) / 2) * math.log(df_w + df_b * x)
            log_beta = (math.lgamma(df_b / 2) + math.lgamma(df_w / 2)
                        - math.lgamma((df_b + df_w) / 2))
            return math.exp(log_num - log_den - log_beta)

        tail, _ = scipy.integrate.quad(f_pdf, stats["F"], np.inf, limit=200)
        assert stats["p"] == pytest.approx(tail, abs=1e-6)

    def test_zero_within_zero_between_undefined(self):
        stats, diag = one_way_anova([np.array([1.0, 1.0]),
                                     np.array([1.0, 1.0])])
        assert stats is None
        assert "no variation" in diag["undefined_reason"]

    def test_zero_within_positive_between_infinite(self):
        stats, _ = one_way_anova([np.array([1.0, 1.0]),
                                  np.array([2.0, 2.0])])
        assert math.isinf(stats["F"])
        assert stats["p"] == 0.0

    def test_invariant_under_common_shift(self):
        rng = np.random.default_rng(5)
        groups = [rng.normal(loc=i, size=20) for i in range(3)]
        base, _ = one_way_anova(groups)
        shifted, _ = one_way_anova([g + 1234.5 for g in groups])
        assert base["F"] == pytest.approx(shifted["F"], rel=1e-9)
        assert base["p"] == pytest.approx(shifted["p"], abs=1e-12)

    def test_single_group_rejected(self):
        with pytest.raises(EvaluationError):
            one_way_anova([np.array([1.0, 2.0])])

    def test_survival_function_bounds(self):
        assert f_survival(0.0, 2, 10) == 1.0
        assert 0.0 < f_survival(1.0, 2, 10) < 1.0


# Below this, scipy's ``betainc`` itself goes wrong where x^a nears the
# subnormal range: at (d1, d2, F) = (40, 10000, 38.06) it reads 1.26e-271
# where a 50-digit evaluation reads 6.66e-272; the largest such value seen
# was 1.5e-269
ORACLE_FLOOR = 1e-250


class TestFSurvival:
    @pytest.mark.parametrize("odd_between", [0, 1])
    @pytest.mark.parametrize("odd_within", [0, 1])
    @settings(max_examples=40, deadline=None)
    @given(half_between=st.integers(1, 20), half_within=st.integers(1, 10000),
           log_f=st.floats(-6.0, 6.0))
    @example(half_between=20, half_within=10000, log_f=0.0)
    @example(half_between=20, half_within=10000, log_f=1.5)
    @example(half_between=1, half_within=10000, log_f=0.5)
    @example(half_between=2, half_within=98, log_f=0.4)
    def test_matches_scipy_betainc_oracle(self, odd_between, odd_within,
                                          half_between, half_within, log_f):
        df_between = 2 * half_between - odd_between
        df_within = 2 * half_within - odd_within
        f_value = 10.0 ** log_f
        x = df_within / (df_within + df_between * f_value)
        oracle = float(scipy.special.betainc(df_within / 2, df_between / 2,
                                             x))
        tail = f_survival(f_value, df_between, df_within)
        if oracle >= ORACLE_FLOOR:
            assert tail == pytest.approx(oracle, rel=1e-12, abs=0.0)
        else:
            assert 0.0 <= tail < 1e-240

    @pytest.mark.parametrize("df_between, df_within", [(1, 1), (2, 10),
                                                       (3, 196), (40, 19999)])
    def test_edge_values(self, df_between, df_within):
        assert f_survival(0.0, df_between, df_within) == 1.0
        assert f_survival(-2.5, df_between, df_within) == 1.0
        assert f_survival(math.inf, df_between, df_within) == 0.0
        # F too small to move x off 1
        assert f_survival(1e-300, df_between, df_within) == 1.0

    def test_one_and_one_degrees_is_arctangent(self):
        # F(1, 1) is the square of a Cauchy variable: the tail at F is
        # (2/π) arctan(1/√F)
        for f_value in np.geomspace(1e-6, 1e6, 25):
            assert f_survival(f_value, 1, 1) == pytest.approx(
                2 / math.pi * math.atan(1 / math.sqrt(f_value)), rel=1e-14)

    @pytest.mark.parametrize("df_between, df_within", [(2, 2), (40, 600),
                                                       (60, 4000),
                                                       (100, 20000)])
    def test_even_degrees_match_exact_binomial_tail(self, df_between,
                                                    df_within):
        # With a = df_within/2 and b = df_between/2 integers, I_x(a, b) is
        # the binomial tail sum_{j >= a} C(a+b-1, j) x^j (1-x)^(a+b-1-j),
        # here in integers from the float x = m / d. It also holds where
        # x^a underflows and the prefactor goes through logarithms, which
        # the scipy oracle cannot check.
        a, b = df_within // 2, df_between // 2
        for f_value in np.geomspace(0.5, 200.0, 40):
            x = df_within / (df_within + df_between * f_value)
            m, d = x.as_integer_ratio()
            exact = m ** a * sum(math.comb(a + b - 1, a + k) * m ** k
                                 * (d - m) ** (b - 1 - k)
                                 for k in range(b)) / d ** (a + b - 1)
            tail = f_survival(f_value, df_between, df_within)
            if exact >= 1e-300:
                assert tail == pytest.approx(exact, rel=1e-12, abs=0.0)
            else:
                assert 0.0 <= tail < 1e-290

    @settings(max_examples=40, deadline=None)
    @given(df_between=st.integers(1, 40), df_within=st.integers(1, 20000))
    def test_tail_in_unit_interval_never_rises(self, df_between, df_within):
        tails = [f_survival(f_value, df_between, df_within)
                 for f_value in np.geomspace(1e-6, 1e6, 41)]
        assert all(0.0 <= t <= 1.0 for t in tails)
        assert all(later <= earlier for earlier, later in zip(tails,
                                                             tails[1:]))


class TestSeeding:
    def test_task_seed_stable(self):
        assert task_seed(7, "groupA", 3) == task_seed(7, "groupA", 3)
        assert task_seed(7, "groupA", 3) != task_seed(7, "groupA", 4)
        assert task_seed(7, "groupA", 3) != task_seed(8, "groupA", 3)

