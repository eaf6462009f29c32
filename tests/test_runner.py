import hashlib
import multiprocessing
import os
import pickle
import signal
import time
from dataclasses import replace

import numpy as np
import pytest

from smdcard import catalog, congruence, consistency, coverage, errors, \
    runner
from smdcard.aggregate import has_bounds_source
from smdcard.config import config_from_dict
from smdcard.consistency import one_way_anova, task_seed
from smdcard.constraint import ConstraintRuleSet, rule_from_dict
from smdcard.errors import EvaluationError
from smdcard.harness import make_gaussian_mixture, make_record_table
from smdcard.ingest import dumps_canonical
from smdcard.model import EmbeddingSet, RecordTable, Violation
from smdcard.runner import (EvaluationInputs, PlanViolations, calibrate_bounds,
                            plan, run_evaluation)

TWO_MODES = [{"mean": 0.0, "scale": 1.0, "weight": 0.5},
             {"mean": 6.0, "scale": 1.0, "weight": 0.5}]


def _embedding_config(**extra):
    raw = {
        "metrics": ["cosine_similarity", "jensen_shannon_divergence",
                    "frechet_distance", "precision", "recall", "coverage",
                    "vendi_score", "re_identification_risk"],
        "bounds": {"frechet_distance": [0, 60]},
        "seed": 5,
    }
    raw.update(extra)
    return config_from_dict(raw)


_EMBEDDING_METRICS = [name for name in catalog.selectable_names()
                      if catalog.descriptor(name).source
                      == catalog.SOURCE_EMBEDDING]

TABLE_METRICS = ["missing_data_percentage", "required_field_proportion",
                 "constraint_violation_rate", "k_anonymity", "l_diversity",
                 "t_closeness", "constraint_boundary_distance",
                 "nearest_invalid_datapoint"]


def _table_config():
    return config_from_dict({
        "metrics": TABLE_METRICS,
        "bounds": {"constraint_boundary_distance": [0, 10],
                   "nearest_invalid_datapoint": [0, 10]},
        "constraints": {"derive": {"fields": ["age", "hgb"]}},
        "compliance": {"quasi_identifiers": ["sex"],
                       "sensitive_column": "hgb"},
        "tables": {"real": "unused.csv",
                   "schema": {"age": "numeric", "hgb": "numeric",
                              "sex": "categorical"}},
    })


#: need -> (config block, key, a value that satisfies it)
_SUPPLIED = {
    "quasi_identifiers": ("compliance", "quasi_identifiers", ["sex"]),
    "sensitive_column": ("compliance", "sensitive_column", "hgb"),
    "constraint_rules": ("constraints", "rules",
                         [{"id": "adult", "kind": "range", "field": "age",
                           "min": 18}]),
    "required_fields": ("completeness", "required_fields", ["age"]),
}


def _config_without(name, left_out):
    raw = {"metrics": [name], "bounds": {name: [0, 10]}}
    for need, (block, key, value) in _SUPPLIED.items():
        if need != left_out:
            raw.setdefault(block, {})[key] = value
    return config_from_dict(raw)


@pytest.fixture
def pair():
    real = make_gaussian_mixture(90, 5, TWO_MODES, seed=31)
    synth = make_gaussian_mixture(80, 5, TWO_MODES, seed=32)
    return real, synth


class TestPlan:
    def test_clean_plan_ok(self, pair):
        real, synth = pair
        outcome = plan(EvaluationInputs(synthetic=synth, real=real),
                       _embedding_config())
        assert outcome.ok

    def test_missing_reference_named_per_metric(self, pair):
        _, synth = pair
        outcome = plan(EvaluationInputs(synthetic=synth), _embedding_config())
        messages = outcome.messages()
        assert any("frechet_distance" in m for m in messages)
        assert any("precision" in m for m in messages)

    def test_table_metric_without_table(self, pair):
        real, synth = pair
        cfg = config_from_dict({"metrics": ["missing_data_percentage"]})
        outcome = plan(EvaluationInputs(synthetic=synth, real=real), cfg)
        assert any("--table" in m for m in outcome.messages())

    def test_unbounded_metric_without_bounds(self, pair):
        real, synth = pair
        cfg = config_from_dict({"metrics": ["earth_movers_distance"]})
        outcome = plan(EvaluationInputs(synthetic=synth, real=real), cfg)
        assert any("bounds" in m for m in outcome.messages())

    @pytest.mark.parametrize("name,need", [
        (d.name, need) for d in catalog.REGISTRY.values() for need in d.needs])
    def test_each_declared_need_is_checked(self, pair, name, need):
        real, synth = pair
        inputs = EvaluationInputs(synthetic=synth, real=real,
                                  table=make_record_table(20, seed=9))
        assert plan(inputs, _config_without(name, None)).ok
        messages = plan(inputs, _config_without(name, need)).messages()
        assert any(m.startswith("E227") for m in messages), messages

    def test_consistency_needs_subgroups(self, pair):
        real, synth = pair
        bare = EmbeddingSet(ids=synth.ids, data=synth.data)
        cfg = config_from_dict({"metrics": ["cosine_similarity",
                                            "max_min_difference"]})
        outcome = plan(EvaluationInputs(synthetic=bare, real=real), cfg)
        assert any("subgroup" in m for m in outcome.messages())

    def test_dispersion_needs_its_bases_selected(self, pair):
        # no subgroup task computes an unselected base, so the dispersion
        # metrics would have no values; anova draws its own replicates
        real, synth = pair
        inputs = EvaluationInputs(synthetic=synth, real=real)
        raw = {"metrics": ["cosine_similarity", "metric_variance",
                           "max_min_difference", "anova"],
               "consistency": {"base_metrics": ["recall"]}}
        assert plan(inputs, config_from_dict(raw)).messages() == [
            f"E227: metric {name!r} reads the subgroup values of base metric "
            "'recall', which metrics does not select"
            for name in ("metric_variance", "max_min_difference")]
        assert plan(inputs, config_from_dict(
            dict(raw, metrics=["cosine_similarity", "anova"]))).ok
        assert plan(inputs, config_from_dict(
            dict(raw, metrics=raw["metrics"] + ["recall"]))).ok

    def test_anova_only_base_needs_no_bounds(self, pair):
        # anova tests the raw replicate values, so no bound is ever used
        real, synth = pair
        inputs = EvaluationInputs(synthetic=synth, real=real)
        cfg = config_from_dict({
            "metrics": ["cosine_similarity", "anova"],
            "consistency": {"base_metrics": ["earth_movers_distance"],
                            "bootstrap_replicates": 5},
            "columns": {"subgroup": "subgroup"}, "seed": 3})
        assert plan(inputs, cfg).ok
        anova = run_evaluation(inputs, cfg).criterion("consistency").metrics[0]
        assert anova["name"] == "anova" and anova["value"] is not None

    def test_missing_bound_reported_once(self, pair):
        # a dispersion metric's base is selected (E227), so the base's own
        # E228 is the one report of its missing bound
        real, synth = pair
        cfg = config_from_dict({"metrics": ["earth_movers_distance",
                                            "max_min_difference"]})
        assert plan(EvaluationInputs(synthetic=synth, real=real),
                    cfg).messages() == [
            "E228: metric 'earth_movers_distance' has no normalization "
            "bounds; add bounds in the config or run calibrate"]

    @pytest.mark.parametrize("raw, message", [
        ({"metrics": ["psnr"], "bounds": {"psnr": [10, 60]}},
         "E227: metric 'psnr' needs paired images (--images)"),
        ({"metrics": ["inception_score"]},
         "E227: metric 'inception_score' needs a class-probability matrix "
         "(params.inception_score.probs_path)"),
        ({"metrics": ["documentation_clarity"]},
         "E227: metric 'documentation_clarity' is computed at card-build "
         "time from the manifest, not by evaluate"),
        ({"metrics": ["cosine_similarity"], "pca": {"target_dim": 6}},
         "E229: pca.target_dim=6 exceeds d=5"),
        ({"metrics": ["constraint_violation_rate"],
          "constraints": {"rules": [{"id": "r", "kind": "range",
                                     "field": "bogus", "max": 1}]}},
         "E229: rule 'r' references unknown field 'bogus'"),
    ], ids=["images", "class_probs", "manifest", "pca_dim", "rule_field"])
    def test_plan_violation_messages(self, pair, raw, message):
        real, synth = pair
        inputs = EvaluationInputs(synthetic=synth, real=real,
                                  table=make_record_table(20, seed=9))
        assert plan(inputs, config_from_dict(raw)).messages() == [message]


class TestRunEvaluation:
    def test_report_structure(self, pair):
        real, synth = pair
        report = run_evaluation(EvaluationInputs(synthetic=synth, real=real),
                                _embedding_config())
        assert report.scope("global") is not None
        assert report.scope("subgroup:mode0") is not None
        congruence = report.criterion("congruence")
        assert congruence is not None
        names = [m["name"] for m in congruence.metrics]
        assert names == ["cosine_similarity", "jensen_shannon_divergence",
                         "frechet_distance", "precision"]
        assert report.seed == 5
        assert len(report.config_digest) == 64

    def test_selected_metrics_appear_once_per_scope(self, pair):
        real, synth = pair
        config = _embedding_config()
        report = run_evaluation(EvaluationInputs(synthetic=synth, real=real),
                                config)
        for scope_block in report.scopes:
            seen = [m["name"] for c in scope_block.criteria
                    for m in c.metrics]
            assert len(seen) == len(set(seen))
            assert set(seen) == set(config.metrics)

    def test_plan_violations_raise(self, pair):
        _, synth = pair
        with pytest.raises(PlanViolations):
            run_evaluation(EvaluationInputs(synthetic=synth),
                           _embedding_config())

    def test_workers_do_not_change_bytes(self, pair):
        real, synth = pair
        cfg = _embedding_config(consistency={"base_metrics":
                                             ["jensen_shannon_divergence",
                                              "recall"],
                                             "bootstrap_replicates": 20},
                                metrics=["cosine_similarity",
                                         "jensen_shannon_divergence", "recall",
                                         "anova", "max_min_difference"])
        one = run_evaluation(EvaluationInputs(synthetic=synth, real=real),
                             cfg, workers=1)
        four = run_evaluation(EvaluationInputs(synthetic=synth, real=real),
                              cfg, workers=4)
        assert dumps_canonical(one.to_dict()) == dumps_canonical(four.to_dict())

    def test_region_scopes_present(self):
        real_base = make_gaussian_mixture(60, 4, TWO_MODES, seed=41)
        synth_base = make_gaussian_mixture(60, 4, TWO_MODES, seed=42)
        regions = tuple("lesion" if i % 2 else "background"
                        for i in range(60))
        real = EmbeddingSet(ids=real_base.ids, data=real_base.data,
                            region=regions)
        synth = EmbeddingSet(ids=synth_base.ids, data=synth_base.data,
                             region=regions)
        cfg = config_from_dict({"metrics": ["cosine_similarity"],
                                "columns": {"region": "region"}})
        report = run_evaluation(EvaluationInputs(synthetic=synth, real=real),
                                cfg)
        assert report.scope("region:lesion") is not None
        assert report.scope("region:background") is not None
        lesion = report.criterion("congruence", scope="region:lesion")
        assert lesion.score is not None

    def test_tiny_subgroup_yields_undefined_marker(self):
        real_base = make_gaussian_mixture(40, 4, TWO_MODES, seed=51)
        labels = ("big",) * 39 + ("tiny",)
        real = EmbeddingSet(ids=real_base.ids, data=real_base.data,
                            subgroup=labels)
        synth = EmbeddingSet(
            ids=tuple(f"s{i}" for i in range(40)),
            data=make_gaussian_mixture(40, 4, TWO_MODES, seed=52).data,
            subgroup=labels)
        cfg = config_from_dict({"metrics": ["frechet_distance"],
                                "bounds": {"frechet_distance": [0, 60]},
                                "columns": {"subgroup": "subgroup"}})
        report = run_evaluation(EvaluationInputs(synthetic=synth, real=real),
                                cfg)
        tiny = report.criterion("congruence", scope="subgroup:tiny")
        entry = tiny.metrics[0]
        assert entry["value"] is None
        assert "insufficient samples" in entry["diagnostics"]["undefined_reason"]

    def test_table_and_constraint_metrics(self):
        synth_emb = make_gaussian_mixture(30, 3, TWO_MODES, seed=61)
        real_table = make_record_table(60, seed=62)
        synth_table = make_record_table(55, seed=63)
        report = run_evaluation(
            EvaluationInputs(synthetic=synth_emb, table=synth_table,
                             real_table=real_table), _table_config())
        completeness_block = report.criterion("completeness")
        assert completeness_block.score is not None
        constraint_block = report.criterion("constraint")
        assert len(constraint_block.metrics) == 3
        compliance_block = report.criterion("compliance")
        assert compliance_block.score is not None

    def test_empty_table_metrics_undefined(self):
        real_table = make_record_table(60, seed=62)
        empty = RecordTable(real_table.columns, [()] * real_table.m)
        report = run_evaluation(
            EvaluationInputs(synthetic=make_gaussian_mixture(30, 3, TWO_MODES,
                                                             seed=61),
                             table=empty, real_table=real_table),
            _table_config())
        entries = {entry["name"]: entry
                   for criterion in ("constraint", "completeness", "compliance")
                   for entry in report.criterion(criterion).metrics}
        assert sorted(entries) == sorted(TABLE_METRICS)
        for name, entry in entries.items():
            assert entry["value"] is None, name
            assert "empty table" in entry["diagnostics"]["undefined_reason"]

    def test_pca_reduction_recorded(self, pair):
        real, synth = pair
        cfg = _embedding_config(pca={"target_dim": 3})
        report = run_evaluation(EvaluationInputs(synthetic=synth, real=real),
                                cfg)
        assert any("principal components" in n for n in report.notes)

    def test_declared_privacy_in_report(self, pair):
        real, synth = pair
        cfg = _embedding_config(
            compliance={"declared": {"epsilon": 2.5}})
        report = run_evaluation(EvaluationInputs(synthetic=synth, real=real),
                                cfg)
        assert report.declared_privacy["epsilon"] == \
            "2.5 (declared, not verified)"


class TestSubgroupRecompute:
    def test_subgroup_value_matches_manual_filter(self, pair):
        real, synth = pair
        cfg = config_from_dict({"metrics": ["jensen_shannon_divergence"],
                                "columns": {"subgroup": "subgroup"},
                                "seed": 5})
        report = run_evaluation(EvaluationInputs(synthetic=synth, real=real),
                                cfg)
        entry = report.criterion("congruence",
                                 scope="subgroup:mode0").metrics[0]

        from smdcard.congruence import jensen_shannon
        real_idx = [i for i, s in enumerate(real.subgroup) if s == "mode0"]
        synth_idx = [i for i, s in enumerate(synth.subgroup) if s == "mode0"]
        manual, _ = jensen_shannon(real.subset(real_idx),
                                   synth.subset(synth_idx))
        assert entry["value"] == pytest.approx(manual, abs=1e-12)

    def test_subgroup_permutation_invariance(self, pair):
        real, synth = pair
        cfg = config_from_dict({"metrics": ["jensen_shannon_divergence"],
                                "columns": {"subgroup": "subgroup"}})
        report_a = run_evaluation(EvaluationInputs(synthetic=synth, real=real),
                                  cfg)
        swapped = {"mode0": "mode1", "mode1": "mode0"}
        real_sw = EmbeddingSet(ids=real.ids, data=real.data,
                               subgroup=tuple(swapped[s]
                                              for s in real.subgroup))
        synth_sw = EmbeddingSet(ids=synth.ids, data=synth.data,
                                subgroup=tuple(swapped[s]
                                               for s in synth.subgroup))
        report_b = run_evaluation(
            EvaluationInputs(synthetic=synth_sw, real=real_sw), cfg)
        a0 = report_a.criterion("congruence", "subgroup:mode0").metrics[0]
        b1 = report_b.criterion("congruence", "subgroup:mode1").metrics[0]
        assert a0["value"] == b1["value"]


# ---------------------------------------------------------------------------
# reference oracle: the serial bootstrap loop the replicate tasks replaced

_ORACLE_BASES = {
    "recall": lambda real, synth: coverage.manifold_recall(real, synth, k=3),
    "jensen_shannon_divergence": lambda real, synth:
        congruence.jensen_shannon(real, synth),
    "entropy_coverage": lambda real, synth: coverage.embedding_entropy(synth),
}


def _oracle_anova_per_base(real, synth, bases, replicates, seed):
    """Per base: resample each subgroup's rows from the full synthetic set,
    stop a subgroup at its first undefined replicate, F-test the rest."""
    labels = sorted(set(synth.subgroup))
    detail = {}
    for base in bases:
        groups, used, skipped = [], [], []
        for label in labels:
            indices = np.asarray([i for i, v in enumerate(synth.subgroup)
                                  if v == label])
            real_slice = real.subset([i for i, v in enumerate(real.subgroup)
                                      if v == label])
            samples = []
            for r in range(replicates):
                rng = np.random.default_rng(task_seed(seed, label, r))
                rows = indices[rng.integers(indices.size, size=indices.size)]
                resample = EmbeddingSet(
                    ids=tuple(f"b{i:06d}" for i in range(rows.size)),
                    data=synth.data[rows])
                try:
                    value, _ = _ORACLE_BASES[base](real_slice, resample)
                except EvaluationError:
                    break
                samples.append(float(value))
            if len(samples) == replicates:
                groups.append(np.asarray(samples))
                used.append(label)
            else:
                skipped.append(label)
        stats, _ = one_way_anova(groups)
        detail[base] = {"F": stats["F"], "p": stats["p"],
                        "subgroups": used, "skipped": skipped}
    return detail


class TestAnovaReplicates:
    @pytest.mark.parametrize("partial", [False, True])
    def test_equals_serial_bootstrap_oracle(self, monkeypatch, partial):
        if partial:
            # recall also undefined on some, not all, replicates of "a":
            # the oracle's single calls raise, and the block, which scores
            # every replicate at once, marks the same replicates undefined
            recall = coverage.manifold_recall
            recall_block = coverage.manifold_recall_replicates

            def patched(real, synth, k):
                if synth.data[:, 0].mean() < -0.5:
                    raise EvaluationError("patched")
                return recall(real, synth, k=k)

            def patched_block(real, synth, rows, k):
                return [(None, {}) if synth.data[r, 0].mean() < -0.5
                        else result for r, result in
                        zip(rows, recall_block(real, synth, rows, k=k))]
            monkeypatch.setattr(coverage, "manifold_recall", patched)
            monkeypatch.setattr(coverage, "manifold_recall_replicates",
                                patched_block)
        # "tiny" has 3 synthetic rows: too few for recall's k=3 with the
        # self-match excluded, so recall's block raises and recall skips
        # it, while JSD and entropy keep it
        labels = ("a",) * 20 + ("b",) * 20 + ("c",) * 20 + ("tiny",) * 3
        real_base = make_gaussian_mixture(63, 4, TWO_MODES, seed=71)
        synth_base = make_gaussian_mixture(63, 4, TWO_MODES, seed=72)
        real = EmbeddingSet(ids=real_base.ids, data=real_base.data,
                            subgroup=labels)
        synth = EmbeddingSet(ids=synth_base.ids, data=synth_base.data,
                             subgroup=labels)
        bases = ["recall", "jensen_shannon_divergence", "entropy_coverage"]
        cfg = config_from_dict({
            "metrics": bases + ["anova"],
            "consistency": {"base_metrics": bases, "bootstrap_replicates": 12},
            "bounds": {"entropy_coverage": [0, 5]},
            "columns": {"subgroup": "subgroup"}, "seed": 9})
        report = run_evaluation(EvaluationInputs(synthetic=synth, real=real),
                                cfg, workers=2)
        entry = report.criterion("consistency").metrics[0]
        expected = _oracle_anova_per_base(real, synth, bases, 12,
                                          cfg.effective_seed())
        assert expected["recall"]["skipped"] == (["a", "tiny"] if partial
                                                 else ["tiny"])
        assert expected["jensen_shannon_divergence"]["skipped"] == []
        assert expected["entropy_coverage"]["skipped"] == []
        assert entry["diagnostics"]["per_base"] == expected
        worst = min(expected.values(), key=lambda detail: detail["p"])
        assert entry["value"] == worst["F"]
        assert entry["diagnostics"]["p"] == worst["p"]

    def test_one_draw_per_subgroup_replicate(self, pair, monkeypatch):
        # every base of a subgroup, with or without a block form, reads the
        # same rows in each replicate, drawn once
        real, synth = pair
        draws = []
        replicate_rows = consistency.replicate_rows

        def counted(size, label, replicate, seed):
            draws.append((label, replicate))
            return replicate_rows(size, label, replicate, seed)
        monkeypatch.setattr(consistency, "replicate_rows", counted)
        bases = ["jensen_shannon_divergence", "recall", "cosine_similarity"]
        cfg = _embedding_config(metrics=bases + ["anova"], consistency={
            "base_metrics": bases, "bootstrap_replicates": 5})
        run_evaluation(EvaluationInputs(synthetic=synth, real=real), cfg)
        assert sorted(draws) == [(label, r) for label in ("mode0", "mode1")
                                 for r in range(5)]

    @pytest.mark.parametrize("bins", [None, 0])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_observed_value_from_block_equals_direct_call(self, bins,
                                                          workers):
        # each subgroup's recall and JSD ride in their replicate blocks as
        # the whole-set pair, and read as direct calls on the subgroup's
        # slices would: "noref" has no reference rows, "small" too few rows
        # for recall's k=3, and bins 0 makes every JSD undefined
        real_base = make_gaussian_mixture(56, 3, TWO_MODES, seed=81)
        synth_base = make_gaussian_mixture(53, 3, TWO_MODES, seed=82)
        real_labels = ("a",) * 28 + ("b",) * 25 + ("small",) * 3
        synth_labels = ("a",) * 20 + ("b",) * 20 + ("small",) * 3 + (
            "noref",) * 10
        real = EmbeddingSet(real_base.ids, real_base.data,
                            subgroup=real_labels)
        synth = EmbeddingSet(synth_base.ids, synth_base.data,
                             subgroup=synth_labels)
        observed = ["recall", "jensen_shannon_divergence"]
        cfg = config_from_dict({
            "metrics": observed + ["anova"],
            "consistency": {"base_metrics": observed + ["entropy_coverage"],
                            "bootstrap_replicates": 6},
            "columns": {"subgroup": "subgroup"}, "seed": 4})
        if bins is not None:
            cfg = replace(cfg, params={"jensen_shannon_divergence":
                                       {"bins": bins}})
        report = run_evaluation(EvaluationInputs(synthetic=synth, real=real),
                                cfg, workers=workers)
        direct = {"recall": lambda r, s: coverage.manifold_recall(r, s, k=3),
                  "jensen_shannon_divergence": lambda r, s:
                      congruence.jensen_shannon(r, s, bins=bins)}
        undefined = set()
        for label in ("a", "b", "noref", "small"):
            scope = report.scope(f"subgroup:{label}")
            entries = {m["name"]: m for c in scope.criteria
                       for m in c.metrics}
            assert sorted(entries) == sorted(observed)
            real_slice = runner._filter_by_label(real, "subgroup", label)
            synth_slice = runner._filter_by_label(synth, "subgroup", label)
            for name in observed:
                if real_slice is None:
                    want = None, {"undefined_reason": "insufficient samples: "
                                  "no reference rows in this slice"}
                else:
                    try:
                        want = direct[name](real_slice, synth_slice)
                    except EvaluationError as exc:
                        want = None, {"undefined_reason":
                                      f"insufficient samples: {exc}"}
                got = entries[name]["value"], entries[name]["diagnostics"]
                assert (repr(got[0]), repr(sorted(got[1].items()))) == (
                    repr(want[0]), repr(sorted(want[1].items()))), (label,
                                                                    name)
                if want[0] is None:
                    undefined.add((label, name))
        assert undefined == {("noref", "recall"), ("small", "recall"), (
            "noref", "jensen_shannon_divergence")} | ({
                (label, "jensen_shannon_divergence")
                for label in ("a", "b", "small")} if bins == 0 else set())
        # entropy_coverage is a base only anova reads: no scope reports it
        assert all(m["name"] != "entropy_coverage"
                   for scope in report.scopes for c in scope.criteria
                   for m in c.metrics)

    @pytest.mark.parametrize("name", list(runner._BLOCKS) + [
        name for name in _EMBEDDING_METRICS if name not in runner._BLOCKS])
    def test_block_markers_equal_per_replicate_markers(self, monkeypatch,
                                                       name):
        # every pair's result is the metric's ``_results`` on the two drawn
        # sets; a block metric runs whole-reference draws of one length in
        # one pass, with the markers a task per replicate would give: a
        # subgroup without reference rows, a subgroup too small for k, and
        # an error inside a block
        synth = make_gaussian_mixture(20, 3, TWO_MODES, seed=5)
        real = make_gaussian_mixture(24, 3, TWO_MODES, seed=7)
        cfg = config_from_dict({"metrics": [name, "anova"],
                                "consistency": {"bootstrap_replicates": 4},
                                "bounds": {"entropy_coverage": [0, 5]}})
        blocks = []
        if name in runner._BLOCKS:
            one_pass = runner._BLOCKS[name]

            def counted(args, params, rows):
                blocks.append(len(rows))
                return one_pass(args, params, rows)
            monkeypatch.setitem(runner._BLOCKS, name, counted)
        rng = np.random.default_rng(8)
        args = runner._Args(real, synth, cfg, 0)
        # drawn on both sides, with repeats, unequal lengths and one-row
        # draws: never one pass
        drawn = ((rng.integers(24, size=24), rng.integers(20, size=20)),
                 (None, rng.integers(20, size=7)),
                 (rng.integers(24, size=5), None),
                 (np.array([3]), rng.integers(20, size=20)),
                 (rng.integers(24, size=24), np.array([5])))
        # draws of one length, one of them on a drawn reference, and the
        # whole reference against draws of two lengths: never one pass
        referenced = ((rng.integers(24, size=24), rng.integers(20, size=20)),
                      (None, rng.integers(20, size=20)))
        unequal = ((None, rng.integers(20, size=20)),
                   (None, rng.integers(20, size=9)))
        # the whole reference against draws of one length below k + 1
        short = ((None, rng.integers(20, size=3)),
                 (None, np.array([4, 4, 4])))
        for pairs in (drawn, referenced, unequal, short):
            task = ("global", name, pairs)
            assert (repr(_summary(runner._task_results(task, args)))
                    == repr(_summary(_per_pair_results(task, args))))
        assert blocks == ([2] if name in runner._BLOCKS else [])
        if name not in runner._BLOCKS:
            return

        task = _block_task(cfg, synth.n)
        missing = runner._task_results(task, runner._Args(None, synth, cfg, 0))
        binary = catalog.descriptor(name).arity == "binary"
        assert all((r.value is None) == binary for r in missing)
        if binary:
            assert [(r.scope, r.diagnostics) for r in missing] == [(
                "subgroup:a", {"undefined_reason": "insufficient samples: no "
                                                   "reference rows in this "
                                                   "slice"})] * 4
        # 3 rows: recall's k=3 exceeds the 2 other rows of every replicate
        tiny = runner._Args(synth, make_gaussian_mixture(3, 3, TWO_MODES,
                                                         seed=6), cfg, 0)
        tiny_task = _block_task(cfg, tiny.synthetic.n)
        blocks.clear()
        block = runner._task_results(tiny_task, tiny)
        assert blocks == [4]
        assert _summary(block) == _summary(_per_pair_results(tiny_task, tiny))
        if name == "recall":
            assert [r.diagnostics for r in block] == [{
                "undefined_reason": "insufficient samples: k=3 out of range: "
                                    "reference set supports at most k=2 "
                                    "(self-match excluded)"}] * 4

        def fail(*args, **kwargs):
            raise EvaluationError("too few rows")
        for module, function in ((congruence, "jensen_shannon_replicates"),
                                 (congruence, "jensen_shannon"),
                                 (coverage, "embedding_entropy_replicates"),
                                 (coverage, "embedding_entropy"),
                                 (coverage, "manifold_recall_replicates"),
                                 (coverage, "manifold_recall")):
            monkeypatch.setattr(module, function, fail)
        failed = runner._task_results(task, runner._Args(synth, synth, cfg, 0))
        assert [(r.value, r.scope, r.diagnostics) for r in failed] == [(
            None, "subgroup:a",
            {"undefined_reason": "insufficient samples: too few rows"})] * 4


def _block_task(cfg, n):
    """The one replicate block ``consistency`` gives subgroup "a" of ``n``
    synthetic rows at seed 0, as a runner task."""
    (base, pairs), = consistency.replicate_tasks(cfg, "subgroup:a", n, 0)
    return "subgroup:a", base, pairs


def _per_pair_results(task, args):
    """A task's results as one computation per pair on its two ``resample``d
    sets, through the same undefined-marker rules."""
    scope, name, pairs = task
    results = []
    for reference, drawn in pairs:
        paired = replace(args, real=args.real if reference is None or
                         args.real is None else args.real.resample(reference),
                         synthetic=args.synthetic if drawn is None
                         else args.synthetic.resample(drawn))
        results += runner._results(scope, name, paired, lambda: [
            runner._compute(name, paired)])
    return results


def _summary(results):
    return [(r.value, r.scope, r.diagnostics) for r in results]


class _PoolRefused(Exception):
    pass


def _reaped(pids) -> bool:
    """Whether no process in ``pids`` is left as a child of this one."""
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        return False
    return True


class TestWorkerProcesses:
    METRICS = ["cosine_similarity", "jensen_shannon_divergence", "recall"]
    TASK_RESULTS = staticmethod(runner._task_results)

    @pytest.fixture
    def recording_pool(self, monkeypatch):
        """Stands in for the fork-join: records the process count asked
        for and refuses to start, so no process is ever created."""
        sizes = []

        def refuse(pooled, processes, context):
            sizes.append(processes)
            raise _PoolRefused
        monkeypatch.setattr(runner, "_fork_join", refuse)
        return sizes

    @pytest.fixture(autouse=True)
    def deadline(self):
        """Fail a test that is still waiting after a minute, instead of
        hanging; the fork-join kills and reaps its children on the way
        out."""
        def expire(signum, frame):
            raise TimeoutError("still waiting after 60 s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.fixture
    def forked(self, monkeypatch):
        """The pids of the children this process forks."""
        pids = []
        fork = os.fork

        def recorded():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid
        monkeypatch.setattr(os, "fork", recorded)
        return pids

    def _placed(self, monkeypatch, in_parent, in_child):
        """Route every task through ``in_parent`` in this process and
        ``in_child`` in a forked one; each gets the task and the real
        ``_task_results``."""
        parent, task_results = os.getpid(), self.TASK_RESULTS

        def placed(task, args):
            where = in_parent if os.getpid() == parent else in_child
            return where(task, lambda: task_results(task, args))
        monkeypatch.setattr(runner, "_task_results", placed)
        monkeypatch.setattr(runner, "_available_cpus", lambda: 2)

    def test_pool_capped_by_cpus_and_tasks(self, pair, monkeypatch,
                                           recording_pool):
        real, synth = pair
        # no subgroup labels: one global scope, one task per metric
        inputs = EvaluationInputs(synthetic=EmbeddingSet(synth.ids, synth.data),
                                  real=real)
        cfg = _embedding_config(metrics=self.METRICS)
        assert runner._available_cpus() >= 1
        for cpus in (2, 10_000):
            monkeypatch.setattr(runner, "_available_cpus", lambda: cpus)
            with pytest.raises(_PoolRefused):
                run_evaluation(inputs, cfg, workers=10_000)
        assert recording_pool == [2, len(self.METRICS)]

    def test_one_task_per_subgroup_replicate_block(self, pair, monkeypatch,
                                                   recording_pool):
        # every scope pools one task per metric, whatever the replicate
        # count: a subgroup's task for a base carries its replicate block
        real, synth = pair
        subgroups = len(set(synth.subgroup))
        bases = ["jensen_shannon_divergence", "recall"]
        cfg = _embedding_config(metrics=self.METRICS + ["anova"], consistency={
            "base_metrics": bases, "bootstrap_replicates": 50})
        monkeypatch.setattr(runner, "_available_cpus", lambda: 10_000)
        with pytest.raises(_PoolRefused):
            run_evaluation(EvaluationInputs(synthetic=synth, real=real), cfg,
                           workers=10_000)
        single = (1 + subgroups) * len(self.METRICS)
        assert subgroups == 2
        assert recording_pool == [single]

    def test_one_cpu_or_no_fork_runs_serially(self, pair, monkeypatch,
                                              recording_pool):
        real, synth = pair
        inputs = EvaluationInputs(synthetic=synth, real=real)
        cfg = _embedding_config(metrics=self.METRICS)
        serial = dumps_canonical(run_evaluation(inputs, cfg).to_dict())
        monkeypatch.setattr(runner, "_available_cpus", lambda: 1)
        assert dumps_canonical(run_evaluation(
            inputs, cfg, workers=4).to_dict()) == serial
        monkeypatch.setattr(runner, "_available_cpus", lambda: 4)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        assert dumps_canonical(run_evaluation(
            inputs, cfg, workers=4).to_dict()) == serial
        assert recording_pool == []

    def test_children_forked_and_reaped(self, pair, monkeypatch, forked):
        # the evaluate process only collects: 3 processes fork 3 children
        real, synth = pair
        inputs = EvaluationInputs(synthetic=synth, real=real)
        cfg = _embedding_config(metrics=self.METRICS)
        serial = dumps_canonical(run_evaluation(inputs, cfg).to_dict())
        assert forked == []
        monkeypatch.setattr(runner, "_available_cpus", lambda: 3)
        assert dumps_canonical(run_evaluation(
            inputs, cfg, workers=3).to_dict()) == serial
        assert len(forked) == 3 and _reaped(forked)

    def test_this_process_runs_no_pooled_task(self, pair, monkeypatch,
                                              forked):
        # what this process computes must not depend on which child ran
        # what, so that a profile of it repeats from run to run
        def refuse(task, compute):
            raise AssertionError(f"{task} ran in the evaluate process")
        self._placed(monkeypatch, refuse, lambda task, compute: compute())
        real, synth = pair
        run_evaluation(EvaluationInputs(synthetic=synth, real=real),
                       _embedding_config(metrics=self.METRICS), workers=2)
        assert len(forked) == 2 and _reaped(forked)

    def test_every_task_runs_once_with_more_processes_than_cpus(
            self, monkeypatch, forked, tmp_path):
        # a lost update of the shared claim counter would run a task twice
        # or not at all; six processes share it on fewer CPUs
        log = tmp_path / "claims"

        def claimed(task, args):
            with open(log, "a") as fh:
                fh.write(f"{args}\n")
            return [args * 2]
        monkeypatch.setattr(runner, "_task_results", claimed)
        pooled = [(("global", "m", None), i) for i in range(300)]
        context = multiprocessing.get_context("fork")
        assert runner._fork_join(pooled, 6, context) == [
            [2 * i] for i in range(300)]
        assert sorted(int(i) for i in log.read_text().split()) == list(
            range(300))
        assert len(forked) == 6 and _reaped(forked)

    def _error(self, run):
        with pytest.raises(Exception) as caught:
            run()
        return type(caught.value), str(caught.value), getattr(
            caught.value, "code", None)

    def _run(self, pair, workers):
        real, synth = pair
        cfg = _embedding_config(metrics=self.METRICS)
        return lambda: run_evaluation(
            EvaluationInputs(synthetic=synth, real=real), cfg,
            workers=workers)

    def test_error_in_a_child_surfaces_as_serially(self, pair, monkeypatch,
                                                   forked, tmp_path):
        # a child's pids reach this process through a file
        log = tmp_path / "pids"

        def fail(task, compute):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            raise EvaluationError("task failed", code="E249")
        self._placed(monkeypatch, fail, fail)
        serial = self._error(self._run(pair, 1))
        assert serial == (EvaluationError, "task failed", "E249")
        assert {int(pid) for pid in log.read_text().split()} == {os.getpid()}
        log.unlink()
        assert self._error(self._run(pair, 2)) == serial
        pids = {int(pid) for pid in log.read_text().split()}
        assert pids and pids <= set(forked)
        assert len(forked) == 2 and _reaped(forked)

    def test_first_failing_task_in_task_order_wins(self, pair, monkeypatch,
                                                   forked):
        # every task fails with its own message, wherever it runs
        def fail(task, compute):
            raise EvaluationError(f"{task[1]} in {task[0]} failed")
        self._placed(monkeypatch, fail, fail)
        serial = self._error(self._run(pair, 1))
        assert serial[1] == "cosine_similarity in global failed"
        assert self._error(self._run(pair, 2)) == serial
        assert len(forked) == 2 and _reaped(forked)

    def test_child_ending_without_results_is_an_error(self, pair, monkeypatch,
                                                      forked):
        def end(task, compute):
            os._exit(3)
        self._placed(monkeypatch, None, end)
        with pytest.raises(RuntimeError, match=r"worker process \d+ ended "
                           r"without sending its results \(exit code 3\)"):
            self._run(pair, 2)()
        assert len(forked) == 2 and _reaped(forked)

    def test_interrupted_run_kills_and_reaps_children(self, pair, monkeypatch,
                                                      forked):
        # the children hang; this process is interrupted while it waits
        def hang(task, compute):
            time.sleep(60)

        def interrupt(signum, frame):
            raise KeyboardInterrupt
        self._placed(monkeypatch, None, hang)
        previous = signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        start = time.perf_counter()
        try:
            with pytest.raises(KeyboardInterrupt):
                self._run(pair, 2)()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.perf_counter() - start < 30
        assert len(forked) == 2 and _reaped(forked)

    @pytest.mark.parametrize("error", [
        errors.SmdError("base", code="E199"), errors.ConfigError("config"),
        errors.InputError("input", code="E212"), errors.PlanError("plan"),
        errors.CardError("card", code="E231"),
        errors.EvaluationError("evaluation", code="E249"),
        PlanViolations([Violation("E227", "a"), Violation("E228", "b")]),
    ], ids=lambda e: type(e).__name__)
    def test_errors_survive_pickling(self, error):
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error)
        assert (str(copy), copy.code) == (str(error), error.code)
        assert getattr(copy, "violations", None) == getattr(
            error, "violations", None)

    def _image_run(self, pair, pairs, workers):
        real, synth = pair
        cfg = config_from_dict({"metrics": ["cosine_similarity", "psnr",
                                            "ssim"],
                                "bounds": {"psnr": [0, 60]}})
        inputs = EvaluationInputs(synthetic=synth, real=real,
                                  image_pairs=pairs)
        with pytest.raises(Exception) as caught:
            run_evaluation(inputs, cfg, workers=workers)
        return type(caught.value), str(caught.value), getattr(
            caught.value, "code", None)

    def test_malformed_image_pair_error_same_at_any_worker_count(self, pair):
        # equal-shaped 1-D "images": psnr scores them, ssim's 2-D window fails
        line = np.arange(8, dtype=np.uint8)
        pairs = [(line, line[::-1].copy(), 255)]
        serial = self._image_run(pair, pairs, 1)
        assert serial[0] is ValueError
        assert self._image_run(pair, pairs, 2) == serial

    def test_task_error_code_crosses_worker_processes(self, pair,
                                                      monkeypatch):
        def malformed(pairs):
            raise EvaluationError("malformed image pair 0", code="E249")
        monkeypatch.setattr(congruence, "psnr_pairs", malformed)
        image = np.zeros((8, 8), dtype=np.uint8)
        serial = self._image_run(pair, [(image, image, 255)], 1)
        assert serial == (EvaluationError, "malformed image pair 0", "E249")
        assert self._image_run(pair, [(image, image, 255)], 2) == serial


class TestCalibration:
    def test_bounds_for_every_embedding_metric(self):
        # only the metrics without two analytic ends: the others keep them
        real = make_gaussian_mixture(100, 4, TWO_MODES, seed=71)
        cfg = _embedding_config()
        bounds = calibrate_bounds(real, cfg)
        assert set(bounds) == {"frechet_distance", "vendi_score"}
        for lo, hi in bounds.values():
            assert lo < hi

    def test_self_split_frechet_floor_near_zero(self):
        real = make_gaussian_mixture(200, 4, TWO_MODES, seed=72)
        cfg = config_from_dict({"metrics": ["frechet_distance"], "seed": 1})
        bounds = calibrate_bounds(real, cfg)
        lo, hi = bounds["frechet_distance"]
        assert 0.0 <= lo < 1.0
        assert hi > lo

    def test_same_seed_identical_bounds(self):
        real = make_gaussian_mixture(80, 4, TWO_MODES, seed=73)
        cfg = _embedding_config()
        assert calibrate_bounds(real, cfg) == calibrate_bounds(real, cfg)

    @pytest.mark.parametrize("n, failed, digest", [
        (7, ["rarity_score"],
         "33d78d6da9ab6b0d55ae58e306a5763f87ded07512fff1c31c33aa7d5645e97b"),
        (40, [],
         "8479368908fd616e7c2cef900dedf1c5bc1a4c1203aa81b131753125ad4f9987"),
        (41, [],
         "4ee0c9a8fd4eccc44d3d41abc205e2dcca408ea69608b9e96b1f69534e9410f3"),
    ], ids=["n7", "n40", "n41"])
    def test_bounds_pinned(self, n, failed, digest):
        # every computable embedding metric, of which those without two
        # analytic ends get bounds; at n=7 the 3-row first half is too
        # small for rarity_score's k on the reference side, and at odd n
        # the two halves differ in length
        open_ended = {name for name in _EMBEDDING_METRICS
                      if catalog.descriptor(name).static_bounds is None}
        bounds = calibrate_bounds(
            make_gaussian_mixture(n, 3, TWO_MODES, seed=n),
            config_from_dict({"metrics": _EMBEDDING_METRICS, "seed": 5}))
        assert sorted(open_ended - set(bounds)) == failed
        assert hashlib.sha256(repr(sorted(bounds.items())).encode()
                              ).hexdigest() == digest

    def test_too_small_to_split(self):
        tiny = make_gaussian_mixture(3, 2, TWO_MODES, seed=74)
        with pytest.raises(Exception, match="too small"):
            calibrate_bounds(tiny, _embedding_config())


class TestCatalogDispatch:
    """The catalog rows and the runner's compute table stay in step."""

    def test_one_compute_entry_per_task_metric(self):
        # manifest metrics are scored when the card is built; every other
        # computable metric, the subgroup metrics included, runs as a task
        # through exactly one compute entry
        expected = {d.name for d in catalog.REGISTRY.values()
                    if d.computable and d.source != catalog.SOURCE_MANIFEST}
        assert set(runner._COMPUTE) == expected

    def test_bounds_source_follows_descriptor(self):
        cfg = config_from_dict({"metrics": ["cosine_similarity"]})
        for d in catalog.REGISTRY.values():
            expected = (None not in d.range or d.data_bounds
                        or d.direction == "stat-sig")
            assert has_bounds_source(d.name, cfg) == expected, d.name

    def test_default_bounds_exactly_for_data_bounds_metrics(self):
        rng = np.random.default_rng(84)
        image = rng.integers(0, 256, size=(12, 12)).astype(float)
        inputs = EvaluationInputs(
            synthetic=make_gaussian_mixture(40, 3, TWO_MODES, seed=82),
            real=make_gaussian_mixture(40, 3, TWO_MODES, seed=81),
            table=make_record_table(50, seed=83, categorical_fields={
                "sex": ["F", "M"], "dx": ["a", "b", "c"]}),
            image_pairs=[(image, image[::-1], 255)],
            class_probs=rng.dirichlet(np.ones(3), size=10))
        cfg = config_from_dict({
            "metrics": ["cosine_similarity"],
            "compliance": {"quasi_identifiers": ["sex"],
                           "sensitive_column": "dx"}})
        rules = ConstraintRuleSet((rule_from_dict(
            {"id": "range:age", "kind": "range", "field": "age",
             "min": 0, "max": 60}),))
        # the subgroup metrics read the other tasks' results: none here
        args = runner._Args(inputs.real, inputs.synthetic, cfg, 0, inputs,
                            rules, ("age", "sex"), results={})
        for name in runner._COMPUTE:
            d = catalog.descriptor(name)
            result, = runner._results("global", name, args, lambda: [
                runner._compute(name, args)])
            bounds = result.diagnostics.get("default_bounds")
            assert (bounds is not None) == (d.data_bounds is not None), name
            if d.data_bounds == "rows":
                rows = (inputs.table if d.source == catalog.SOURCE_TABLE
                        else inputs.synthetic).n
                assert bounds == [1.0, float(rows)], name

    @pytest.mark.parametrize("name, key, default", [
        (d.name, key, default) for d in catalog.REGISTRY.values()
        for key, default, _ in d.params], ids=lambda v: str(v))
    def test_explicit_default_param_same_report(self, name, key, default):
        rng = np.random.default_rng(86)
        inputs = EvaluationInputs(
            synthetic=make_gaussian_mixture(36, 3, TWO_MODES, seed=85),
            real=make_gaussian_mixture(40, 3, TWO_MODES, seed=84),
            class_probs=rng.dirichlet(np.ones(3), size=10))
        raw = {"metrics": [name], "bounds": {name: [-100, 100]}, "seed": 3}
        reports = [dumps_canonical(run_evaluation(inputs, config_from_dict(
            dict(raw, **extra))).to_dict()) for extra in
            ({}, {"params": {name: {key: default}}})]
        assert reports[0] == reports[1]
