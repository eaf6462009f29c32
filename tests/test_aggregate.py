import math

import pytest
from hypothesis import given, settings, strategies as st

from smdcard.aggregate import (QualityReport, aggregate_criterion,
                               assemble_report, make_result, normalize,
                               undefined_result, verdict)
from smdcard.config import config_from_dict
from smdcard.documents import dumps_canonical
from smdcard.errors import PlanError
from smdcard.model import EmbeddingSet
from smdcard.runner import EvaluationInputs, run_evaluation

THRESHOLDS = {"good": 80.0, "moderate": 70.0}


def _global(*results):
    """Results keyed as ``assemble_report`` takes them, all in the global
    scope."""
    return {("global", r.descriptor.name): r for r in results}


def _cfg(**extra):
    raw = {"metrics": ["cosine_similarity"]}
    raw.update(extra)
    return config_from_dict(raw)


class TestNormalize:
    def test_minimize_at_lower_bound_scores_100(self):
        r = make_result("frechet_distance", 0.0)
        assert normalize(r, (0.0, 50.0)) == 100.0

    def test_maximize_midpoint_scores_50(self):
        r = make_result("cosine_similarity", 0.0)
        assert normalize(r, (-1.0, 1.0)) == 50.0

    def test_out_of_bounds_clamped(self):
        high = make_result("frechet_distance", 400.0)
        assert normalize(high, (0.0, 50.0)) == 0.0
        low = make_result("cosine_similarity", -3.0)
        assert normalize(low, (-1.0, 1.0)) == 0.0

    def test_inf_sentinel_maps_by_direction(self):
        best = make_result("psnr", math.inf)
        assert normalize(best, (0.0, 60.0)) == 100.0
        worst = make_result("frechet_distance", math.inf)
        assert normalize(worst, (0.0, 50.0)) == 0.0

    def test_stat_sig_uses_p_value(self):
        r = make_result("anova", 3.2, p=0.42)
        assert normalize(r, None) == pytest.approx(42.0)

    def test_inverted_scale_metrics_flip(self):
        # raw t-closeness of 0 is ideal even though the catalog direction
        # says maximize
        r = make_result("t_closeness", 0.0)
        assert normalize(r, (0.0, 1.0)) == 100.0
        r = make_result("nearest_invalid_datapoint", 5.0)
        assert normalize(r, (0.0, 5.0)) == 100.0

    def test_undefined_passes_through(self):
        r = undefined_result("cosine_similarity", "zero centroid")
        assert normalize(r, (-1.0, 1.0)) is None

    def test_missing_bounds_raise_plan_error(self):
        r = make_result("frechet_distance", 1.0)
        with pytest.raises(PlanError, match="bounds"):
            normalize(r, None)

    @given(st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_value(self, a, b):
        lo_v, hi_v = sorted((a, b))
        r_lo = normalize(make_result("cosine_similarity", lo_v), (-1.0, 1.0))
        r_hi = normalize(make_result("cosine_similarity", hi_v), (-1.0, 1.0))
        assert r_lo <= r_hi
        m_lo = normalize(make_result("frechet_distance", lo_v), (0.0, 5.0))
        m_hi = normalize(make_result("frechet_distance", hi_v), (0.0, 5.0))
        assert m_lo >= m_hi


class TestAggregateCriterion:
    def test_equal_weights_mean(self):
        assert aggregate_criterion([100.0, 50.0], [1.0, 1.0]) == 75.0

    def test_single_value_identity(self):
        assert aggregate_criterion([62.5], [3.0]) == 62.5

    def test_weighted_mean(self):
        assert aggregate_criterion([90.0, 60.0], [2.0, 1.0]) == pytest.approx(80.0)

    def test_geometric_mode(self):
        value = aggregate_criterion([100.0, 25.0], [1.0, 1.0], mode="geometric")
        assert value == pytest.approx(50.0)

    def test_geometric_floor_applied(self):
        value = aggregate_criterion([0.0, 100.0], [1.0, 1.0], mode="geometric")
        assert value == pytest.approx(1.0)  # sqrt(0.01 * 100)

    @pytest.mark.parametrize("mode", ["arithmetic", "geometric"])
    def test_zero_total_weight_rejected(self, mode):
        # no fallback to equal weights
        with pytest.raises(PlanError, match="weights sum to 0"):
            aggregate_criterion([60.0, 90.0], [0.0, 0.0], mode=mode)

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_arithmetic_within_input_range(self, values):
        got = aggregate_criterion(values, [1.0] * len(values))
        assert min(values) - 1e-9 <= got <= max(values) + 1e-9


class TestVerdict:
    def test_paper_thresholds(self):
        assert verdict(82.0, THRESHOLDS) == "good"
        assert verdict(70.0, THRESHOLDS) == "moderate"
        assert verdict(69.9, THRESHOLDS) == "low"

    def test_boundary_sweep(self):
        score = 69.9
        while score <= 80.1:
            expected = ("good" if score >= 80.0
                        else "moderate" if score >= 70.0 else "low")
            assert verdict(score, THRESHOLDS) == expected
            score = round(score + 0.01, 2)

    def test_none_not_evaluated(self):
        assert verdict(None, THRESHOLDS) == "not evaluated"

    def test_custom_thresholds(self):
        strict = {"good": 95.0, "moderate": 90.0}
        assert verdict(92.0, strict) == "moderate"


class TestAssembleReport:
    def _report(self, results, cfg=None):
        cfg = cfg or _cfg(bounds={"frechet_distance": [0, 50]})
        return assemble_report(results, cfg, seed=7, config_digest="d" * 64,
                               tool={"name": "smdcard", "version": "0.0"})

    def test_seven_criteria_all_present(self):
        results = _global(
            make_result("cosine_similarity", 0.9),
            make_result("recall", 0.8),
            make_result("constraint_violation_rate", 0.1),
            make_result("missing_data_percentage", 0.05),
            make_result("t_closeness", 0.2),
            make_result("documentation_clarity", 8.0),
            make_result("max_min_difference", 4.0),
        )
        report = self._report(results)
        scope = report.scope("global")
        assert [c.criterion for c in scope.criteria] == [
            "congruence", "coverage", "constraint", "completeness",
            "compliance", "comprehension", "consistency"]
        for block in scope.criteria:
            assert block.score is not None
            assert block.metrics

    def test_region_scope_parallel_block(self):
        results = {("global", "cosine_similarity"):
                   make_result("cosine_similarity", 0.9),
                   ("region:lesion", "cosine_similarity"):
                   make_result("cosine_similarity", 0.7)}
        report = self._report(results)
        assert report.scope("region:lesion") is not None
        lesion = report.criterion("congruence", scope="region:lesion")
        assert lesion.score == pytest.approx(85.0)

    def test_undefined_excluded_with_weight_renormalized(self):
        results = _global(make_result("cosine_similarity", 1.0),
                          undefined_result("frechet_distance", "too small"))
        report = self._report(results)
        block = report.criterion("congruence")
        assert block.excluded == 1
        assert block.score == pytest.approx(100.0)
        assert any("too small" in n for n in report.notes)

    def test_no_positive_weight_left_is_not_evaluated(self):
        # the defined metric has weight 0 and the weighted one is undefined
        # (the reference centroid is the zero vector): the criterion is not
        # scored from the weight-0 metric alone
        real = EmbeddingSet(tuple("abcd"), [[1.0, 0.0], [-1.0, 0.0],
                                            [0.0, 2.0], [0.0, -2.0]])
        synthetic = EmbeddingSet(tuple("wxyz"), [[1.0, 1.0], [2.0, 1.0],
                                                 [1.0, 3.0], [2.0, 3.0]])
        cfg = config_from_dict({
            "metrics": ["cosine_similarity", "centroid_distance_congruence"],
            "weights": {"centroid_distance_congruence": 0},
            "bounds": {"centroid_distance_congruence": [0, 10]}})
        report = run_evaluation(
            EvaluationInputs(synthetic=synthetic, real=real), cfg)
        block = report.criterion("congruence")
        assert [(m["name"], m["value"] is None) for m in block.metrics] == [
            ("cosine_similarity", True),
            ("centroid_distance_congruence", False)]
        assert (block.score, block.verdict) == (None, "not evaluated")

    def test_round_trip_structural_identity(self):
        results = _global(make_result("cosine_similarity", 0.3125),
                          make_result("psnr", math.inf),
                          undefined_result("frechet_distance", "n too small"))
        cfg = _cfg(bounds={"frechet_distance": [0, 50], "psnr": [10, 50]})
        report = self._report(results, cfg)
        payload = dumps_canonical(report.to_dict())
        import json
        rebuilt = QualityReport.from_dict(json.loads(payload))
        assert dumps_canonical(rebuilt.to_dict()) == payload

    def test_rerun_byte_identical(self):
        results = _global(make_result("cosine_similarity", 0.5))
        a = dumps_canonical(self._report(results).to_dict())
        b = dumps_canonical(self._report(results).to_dict())
        assert a == b
