import math

import numpy as np
import pytest
import scipy.integrate

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


class TestSeeding:
    def test_task_seed_stable(self):
        assert task_seed(7, "groupA", 3) == task_seed(7, "groupA", 3)
        assert task_seed(7, "groupA", 3) != task_seed(7, "groupA", 4)
        assert task_seed(7, "groupA", 3) != task_seed(8, "groupA", 3)

