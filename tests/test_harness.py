import math

import numpy as np
import pytest

from smdcard import compliance, completeness, coverage
from smdcard.constraint import derive_range_rules, violation_magnitude, violation_rate
from smdcard.errors import EvaluationError
from smdcard.harness import inject_defect, make_gaussian_mixture, make_record_table

TWO_MODES = [{"mean": 0.0, "scale": 1.0, "weight": 0.5},
             {"mean": 8.0, "scale": 1.0, "weight": 0.5}]


class TestGaussianMixture:
    def test_sample_mean_within_standard_error(self):
        es = make_gaussian_mixture(100, 3, [{"mean": 2.0, "scale": 1.0,
                                             "weight": 1.0}], seed=0)
        bound = 4.0 / math.sqrt(100)
        assert np.all(np.abs(es.data.mean(axis=0) - 2.0) < bound)

    def test_mode_labels_partition_rows(self):
        es = make_gaussian_mixture(101, 2, TWO_MODES, seed=1)
        labels = set(es.subgroup)
        assert labels == {"mode0", "mode1"}
        counts = [es.subgroup.count(label) for label in sorted(labels)]
        assert sum(counts) == 101
        assert abs(counts[0] - counts[1]) <= 1

    def test_same_seed_identical(self):
        a = make_gaussian_mixture(50, 4, TWO_MODES, seed=9)
        b = make_gaussian_mixture(50, 4, TWO_MODES, seed=9)
        assert np.array_equal(a.data, b.data)

    def test_vector_means_supported(self):
        es = make_gaussian_mixture(40, 2, [{"mean": [0.0, 5.0], "scale": 0.1,
                                            "weight": 1.0}], seed=2)
        assert abs(es.data[:, 1].mean() - 5.0) < 0.2


class TestDefects:
    def test_mode_drop_removes_every_row_of_mode(self):
        real = make_gaussian_mixture(80, 3, TWO_MODES, seed=3)
        result = inject_defect(real, "mode_drop", mode="mode1")
        assert "mode1" not in set(result.dataset.subgroup)
        assert result.descriptor["expected"]["dropped_rows"] == 40

    def test_duplicate_real_exact_copies(self):
        real = make_gaussian_mixture(60, 3, TWO_MODES, seed=4)
        result = inject_defect(real, "duplicate_real", seed=5, fraction=0.5)
        synth = result.dataset
        copies = sum(
            1 for i in range(synth.n)
            if any(np.array_equal(synth.data[i], real.data[j])
                   for j in range(real.n)))
        assert copies == 30

    def test_out_of_range_exact_count(self):
        table = make_record_table(40, seed=6)
        result = inject_defect(table, "out_of_range", seed=7, field="age",
                               fraction=0.2, magnitude=30.0)
        rules = derive_range_rules(table, ["age"])
        rate, _ = violation_rate(result.dataset, rules)
        assert rate == pytest.approx(math.ceil(0.2 * 40) / 40)

    def test_out_of_range_draws_among_populated_cells(self):
        table = inject_defect(make_record_table(40, seed=6), "mask_cells",
                              seed=8, fraction=0.3).dataset
        age = table.floats("age")
        populated = int((~np.isnan(age)).sum())
        assert populated < 40
        result = inject_defect(table, "out_of_range", seed=7, field="age",
                               fraction=0.2, magnitude=30.0)
        shifted = result.dataset.floats("age")
        assert np.array_equal(np.isnan(shifted), np.isnan(age))
        assert (shifted > np.nanmax(age)).sum() == math.ceil(0.2 * populated)

    def test_mask_cells_exact_fraction(self):
        table = make_record_table(30, seed=8)
        result = inject_defect(table, "mask_cells", seed=9, fraction=0.1)
        pct, _ = completeness.missing_data_percentage(result.dataset)
        assert abs(pct - 0.1) <= 1.0 / (30 * 3)

    def test_delete_field_removes_column(self):
        table = make_record_table(20, seed=10)
        result = inject_defect(table, "delete_field", name="hgb")
        assert "hgb" not in result.dataset.column_names

    def test_delete_field_keeps_the_last_field(self):
        table = make_record_table(3, seed=10, numeric_fields={"a": (0.0, 1.0)},
                                  categorical_fields={"b": ["x", "y"]})
        smaller = inject_defect(table, "delete_field", name="a").dataset
        assert smaller.column_names == ("b",) and smaller.n == 3
        with pytest.raises(EvaluationError, match="name must be one of two "
                           "or more fields of the source, got 'b'"):
            inject_defect(smaller, "delete_field", name="b")

    def test_unknown_kind_rejected(self):
        real = make_gaussian_mixture(10, 2, TWO_MODES, seed=0)
        with pytest.raises(EvaluationError, match="must be a defect kind"):
            inject_defect(real, "gremlins")

    def test_wrong_source_rejected(self):
        real = make_gaussian_mixture(10, 2, TWO_MODES, seed=0)
        table = make_record_table(10, seed=0)
        with pytest.raises(EvaluationError, match="applies to embedding sets"):
            inject_defect(table, "mode_drop", mode="mode0")
        with pytest.raises(EvaluationError, match="applies to record tables"):
            inject_defect(real, "mask_cells", fraction=0.1)

    def test_unknown_target_rejected(self):
        real = make_gaussian_mixture(10, 2, TWO_MODES, seed=0)
        with pytest.raises(EvaluationError, match="mode9"):
            inject_defect(real, "mode_drop", mode="mode9")

    def test_same_seed_same_defect(self):
        real = make_gaussian_mixture(30, 3, TWO_MODES, seed=1)
        a = inject_defect(real, "duplicate_real", seed=2, fraction=0.3)
        b = inject_defect(real, "duplicate_real", seed=2, fraction=0.3)
        assert np.array_equal(a.dataset.data, b.dataset.data)


@pytest.mark.parametrize("make, kwargs, message", [
    (make_record_table, {"n": -2}, "n must be at least 1, got -2"),
    (make_record_table, {"categorical_fields": {"sex": []}},
     "categorical_fields.sex must be a non-empty list, got []"),
    (make_record_table, {"numeric_fields": {"age": (5.0, 1.0)}},
     "numeric_fields.age must be a [low, high] pair with low <= high, "
     "got (5.0, 1.0)"),
    (make_record_table, {"numeric_fields": {"age": (-1e308, 1e308)}},
     "numeric_fields.age must be a [low, high] pair of finite width, "
     "got (-1e+308, 1e+308)"),
    (make_record_table, {"categorical_fields": {"age": ["x"]}},
     "categorical_fields.age is also a numeric field"),
    (make_gaussian_mixture, {"modes": [{"scale": -1}]},
     "modes[0].scale must be at least 0, got -1"),
    (make_gaussian_mixture, {"n": 5, "d": 2, "modes": [{"mean": [1]}]},
     "modes[0].mean must be a number or a list of 2 numbers, got [1]"),
    (lambda **kw: inject_defect(make_gaussian_mixture(10, 2), **kw),
     {"kind": "duplicate_real", "fraction": 2},
     "fraction must be in (0, 1], got 2"),
    (lambda **kw: inject_defect(make_gaussian_mixture(10, 2), **kw),
     {"kind": "mode_drop", "mode": "mode0", "seed": -1},
     "seed must be at least 0, got -1"),
    (lambda **kw: inject_defect(make_gaussian_mixture(10, 2), **kw),
     {"kind": "mode_drop"}, "mode must be str, got None"),
    (lambda **kw: inject_defect(make_gaussian_mixture(10, 2), **kw),
     {"kind": "mode_drop", "mode": "mode0"},
     "mode must be one of two or more modes of the source, got 'mode0'"),
    (lambda **kw: inject_defect(make_record_table(10), **kw),
     {"kind": "out_of_range", "field": "sex", "fraction": 0.5,
      "magnitude": 1}, "field must be a numeric field of the source, "
                       "got 'sex'"),
    (lambda **kw: inject_defect(make_record_table(10), **kw),
     {"kind": "out_of_range", "field": "age", "fraction": 0.5,
      "magnitude": 0}, "magnitude must be above 0, got 0"),
], ids=["negative_rows", "no_categories", "reversed_range",
        "overflowing_range", "repeated_field", "negative_scale",
        "mean_length", "fraction", "defect_seed", "missing_param",
        "only_mode", "categorical_field", "magnitude"])
def test_bad_value_is_named_before_drawing(make, kwargs, message):
    # each was a numpy ValueError, an error naming no key, or no error
    with pytest.raises(EvaluationError) as info:
        make(**kwargs)
    assert str(info.value) == message


class TestDirectionalSensitivity:
    def test_mode_drop_lowers_recall_and_coverage(self):
        real = make_gaussian_mixture(100, 4, TWO_MODES, seed=11)
        baseline = make_gaussian_mixture(100, 4, TWO_MODES, seed=12)
        dropped = inject_defect(real, "mode_drop", mode="mode1").dataset

        recall_base, _ = coverage.manifold_recall(real, baseline)
        recall_drop, _ = coverage.manifold_recall(real, dropped)
        cov_base, _ = coverage.manifold_coverage(real, baseline)
        cov_drop, _ = coverage.manifold_coverage(real, dropped)
        assert recall_drop < recall_base
        assert cov_drop < cov_base

    def test_duplicate_fraction_bounds_leakage(self):
        real = make_gaussian_mixture(80, 4, TWO_MODES, seed=13)
        for fraction in (0.25, 0.5, 1.0):
            synth = inject_defect(real, "duplicate_real", seed=14,
                                  fraction=fraction).dataset
            leak, _ = compliance.leakage_rate(real, synth)
            assert leak >= fraction

    def test_out_of_range_bounds_violation_rate(self):
        table = make_record_table(50, seed=15)
        rules = derive_range_rules(table, ["age", "hgb"])
        base_rate, _ = violation_rate(table, rules)
        assert base_rate == 0.0
        for fraction in (0.1, 0.4):
            bad = inject_defect(table, "out_of_range", seed=16, field="age",
                                fraction=fraction, magnitude=5.0).dataset
            rate, _ = violation_rate(bad, rules)
            magnitude, _ = violation_magnitude(bad, rules)
            assert rate >= fraction - 1.0 / 50
            assert magnitude > 0.0

    def test_delete_field_lowers_required_proportion(self):
        table = make_record_table(25, seed=17)
        required = list(table.column_names)
        base, _ = completeness.required_field_proportion(table, required)
        smaller = inject_defect(table, "delete_field", name="sex").dataset
        after, _ = completeness.required_field_proportion(smaller, required)
        assert after < base
