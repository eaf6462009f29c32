import hashlib
import os
import pickle
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
from smdcard.documents import dumps_canonical
from smdcard.model import EmbeddingSet, RecordTable
from smdcard.runner import (EvaluationInputs, PlanViolations, calibrate_bounds,
                            run_evaluation)

from conftest import plan_messages

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
        assert plan_messages(EvaluationInputs(synthetic=synth, real=real),
                             _embedding_config()) == []

    def test_missing_reference_named_per_metric(self, pair):
        _, synth = pair
        messages = plan_messages(EvaluationInputs(synthetic=synth),
                                 _embedding_config())
        assert any("frechet_distance" in m for m in messages)
        assert any("precision" in m for m in messages)

    def test_table_metric_without_table(self, pair):
        real, synth = pair
        cfg = config_from_dict({"metrics": ["missing_data_percentage"]})
        messages = plan_messages(EvaluationInputs(synthetic=synth, real=real),
                                 cfg)
        assert any("--table" in m for m in messages)

    def test_unbounded_metric_without_bounds(self, pair):
        real, synth = pair
        cfg = config_from_dict({"metrics": ["earth_movers_distance"]})
        messages = plan_messages(EvaluationInputs(synthetic=synth, real=real),
                                 cfg)
        assert any("bounds" in m for m in messages)

    @pytest.mark.parametrize("name,need", [
        (d.name, need) for d in catalog.REGISTRY.values() for need in d.needs])
    def test_each_declared_need_is_checked(self, pair, name, need):
        real, synth = pair
        inputs = EvaluationInputs(synthetic=synth, real=real,
                                  table=make_record_table(20, seed=9))
        assert plan_messages(inputs, _config_without(name, None)) == []
        messages = plan_messages(inputs, _config_without(name, need))
        assert any(m.startswith("E227") for m in messages), messages

    def test_consistency_needs_subgroups(self, pair):
        real, synth = pair
        bare = EmbeddingSet(ids=synth.ids, data=synth.data)
        cfg = config_from_dict({"metrics": ["cosine_similarity",
                                            "max_min_difference"]})
        messages = plan_messages(EvaluationInputs(synthetic=bare, real=real),
                                 cfg)
        assert any("subgroup" in m for m in messages)

    def test_dispersion_needs_its_bases_selected(self, pair):
        # no subgroup task computes an unselected base, so the dispersion
        # metrics would have no values; anova draws its own replicates
        real, synth = pair
        inputs = EvaluationInputs(synthetic=synth, real=real)
        raw = {"metrics": ["cosine_similarity", "metric_variance",
                           "max_min_difference", "anova"],
               "consistency": {"base_metrics": ["recall"]}}
        assert plan_messages(inputs, config_from_dict(raw)) == [
            f"E227: metric {name!r} reads the subgroup values of base metric "
            "'recall', which metrics does not select"
            for name in ("metric_variance", "max_min_difference")]
        assert plan_messages(inputs, config_from_dict(
            dict(raw, metrics=["cosine_similarity", "anova"]))) == []
        assert plan_messages(inputs, config_from_dict(
            dict(raw, metrics=raw["metrics"] + ["recall"]))) == []

    def test_anova_only_base_needs_no_bounds(self, pair):
        # anova tests the raw replicate values, so no bound is ever used
        real, synth = pair
        inputs = EvaluationInputs(synthetic=synth, real=real)
        cfg = config_from_dict({
            "metrics": ["cosine_similarity", "anova"],
            "consistency": {"base_metrics": ["earth_movers_distance"],
                            "bootstrap_replicates": 5},
            "columns": {"subgroup": "subgroup"}, "seed": 3})
        assert plan_messages(inputs, cfg) == []
        anova = run_evaluation(inputs, cfg).criterion("consistency").metrics[0]
        assert anova["name"] == "anova" and anova["value"] is not None

    def test_missing_bound_reported_once(self, pair):
        # a dispersion metric's base is selected (E227), so the base's own
        # E228 is the one report of its missing bound
        real, synth = pair
        cfg = config_from_dict({"metrics": ["earth_movers_distance",
                                            "max_min_difference"]})
        assert plan_messages(EvaluationInputs(synthetic=synth, real=real),
                             cfg) == [
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
        assert plan_messages(inputs, config_from_dict(raw)) == [message]


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


def _observed_undefined(report, real, synth, bins):
    """Check that the global scope's and every subgroup's recall and JSD
    read as direct calls on the scope's slices; the (scope label, metric)
    of each undefined one."""
    direct = {"recall": lambda r, s: coverage.manifold_recall(r, s, k=3),
              "jensen_shannon_divergence": lambda r, s:
                  congruence.jensen_shannon(r, s, bins=bins)}
    undefined = set()
    for label in ("global", "a", "b", "noref", "small"):
        if label == "global":
            scope, real_slice, synth_slice = report.scope(label), real, synth
        else:
            scope = report.scope(f"subgroup:{label}")
            real_slice = runner._filter_by_label(real, "subgroup", label)
            synth_slice = runner._filter_by_label(synth, "subgroup", label)
        entries = {m["name"]: m for c in scope.criteria for m in c.metrics
                   if m["name"] != "anova"}
        assert sorted(entries) == sorted(direct)
        for name, call in direct.items():
            if real_slice is None:
                want = None, {"undefined_reason": "insufficient samples: "
                              "no reference rows in this slice"}
            else:
                try:
                    want = call(real_slice, synth_slice)
                except EvaluationError as exc:
                    want = None, {"undefined_reason":
                                  f"insufficient samples: {exc}"}
            got = entries[name]["value"], entries[name]["diagnostics"]
            assert (repr(got[0]), repr(sorted(got[1].items()))) == (
                repr(want[0]), repr(sorted(want[1].items()))), (label, name)
            if want[0] is None:
                undefined.add((label, name))
    return undefined


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
                # rows None is the set itself, which the single call reads
                sets = [slice(None)] if rows is None else rows
                return [(None, {}) if synth.data[r, 0].mean() < -0.5
                        else result for r, result in
                        zip(sets, recall_block(real, synth, rows, k=k))]
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
                                cfg)
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
    @pytest.mark.parametrize("runs", [1, 2])
    def test_observed_value_from_block_equals_direct_call(
            self, monkeypatch, bins, runs):
        # every scope's recall and JSD run through their block form, led by
        # the scope's set in a subgroup's replicate block where anova is
        # selected, else as a block of the set alone, and read as direct
        # calls on the scope's slices would: "noref" has no reference rows,
        # "small" too few rows for recall's k=3, and bins 0 makes every JSD
        # undefined; a second run in the same process runs the same blocks
        # and gives the same report bytes
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
        blocks = []  # (metric, draws) of each block run
        for name, one_pass in list(runner._BLOCKS.items()):
            def counted(args, params, rows, name=name, one_pass=one_pass):
                blocks.append((name, len(rows)))
                return one_pass(args, params, rows)
            monkeypatch.setitem(runner._BLOCKS, name, counted)
        for anova, run in [(a, r) for a in (True, False)
                           for r in range(runs)]:
            blocks.clear()
            cfg = config_from_dict({
                "metrics": observed + ["anova"] * anova,
                "consistency": {"base_metrics": observed
                                + ["entropy_coverage"],
                                "bootstrap_replicates": 6},
                # scorable, so only its absence from metrics keeps it out
                "bounds": {"entropy_coverage": [0, 5]},
                "columns": {"subgroup": "subgroup"}, "seed": 4})
            if bins is not None:
                cfg = replace(cfg, params={"jensen_shannon_divergence":
                                           {"bins": bins}})
            report = run_evaluation(
                EvaluationInputs(synthetic=synth, real=real), cfg)
            assert _observed_undefined(report, real, synth, bins) == {
                ("noref", "recall"), ("small", "recall"),
                ("noref", "jensen_shannon_divergence")} | ({
                    (label, "jensen_shannon_divergence")
                    for label in ("global", "a", "b", "small")}
                    if bins == 0 else set())
            # the global and three subgroup slices with reference rows, and
            # entropy's blocks of all four subgroups where anova reads them,
            # each led by the subgroup's set
            whole = 1 + 6 * anova
            assert sorted(blocks) == sorted(
                [(name, 1) for name in observed]
                + [(name, whole) for name in observed] * 3
                + [("entropy_coverage", 7)] * 4 * anova)
            # entropy_coverage is a base only anova reads: no scope reports
            # it, though every subgroup's block computes its set's value
            assert all(m["name"] != "entropy_coverage"
                       for scope in report.scopes for c in scope.criteria
                       for m in c.metrics)
            text = dumps_canonical(report.to_dict())
            if run == 0:
                first = text
            assert text == first

    @pytest.mark.parametrize("name", list(runner._BLOCKS) + [
        name for name in _EMBEDDING_METRICS if name not in runner._BLOCKS])
    def test_block_markers_equal_per_replicate_markers(self, monkeypatch,
                                                       name):
        # the set's result and every replicate's are the metric's
        # ``_results`` on that synthetic set; a block metric runs every task
        # in one pass, with the markers a task per replicate would give: a
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
        # bootstrap draws of the set's length, with repeats
        bootstrap = runner._Args(real, synth, cfg, 0), tuple(
            rng.integers(20, size=20) for _ in range(3))
        # a set below k + 1 rows, and draws of its length
        short = runner._Args(real, synth.subset([0, 4, 9]), cfg, 0), (
            rng.integers(3, size=3), np.array([1, 1, 1]))
        for args, replicates in (bootstrap, short):
            task = ("global", name, replicates)
            assert (repr(_summary(runner._task_results(task, args)))
                    == repr(_summary(_per_draw_results(task, args))))
        assert blocks == ([4, 3] if name in runner._BLOCKS else [])
        if name not in runner._BLOCKS:
            return

        task = _block_task(cfg, synth.n)
        missing = runner._task_results(task, runner._Args(None, synth, cfg, 0))
        binary = catalog.descriptor(name).arity == "binary"
        assert all((r.value is None) == binary for r in missing.values())
        if binary:
            assert [(scope, r.diagnostics)
                    for (scope, _, _), r in missing.items()] == [(
                "subgroup:a", {"undefined_reason": "insufficient samples: no "
                                                   "reference rows in this "
                                                   "slice"})] * 5
        # 3 rows: recall's k=3 exceeds the 2 other rows of the set and of
        # every replicate
        tiny = runner._Args(synth, make_gaussian_mixture(3, 3, TWO_MODES,
                                                         seed=6), cfg, 0)
        tiny_task = _block_task(cfg, tiny.synthetic.n)
        blocks.clear()
        block = runner._task_results(tiny_task, tiny)
        assert blocks == [5]
        assert _summary(block) == _summary(_per_draw_results(tiny_task, tiny))
        if name == "recall":
            assert [r.diagnostics for r in block.values()] == [{
                "undefined_reason": "insufficient samples: k=3 out of range: "
                                    "reference set supports at most k=2 "
                                    "(self-match excluded)"}] * 5

        def fail(*args, **kwargs):
            raise EvaluationError("too few rows")
        for module, function in ((congruence, "jensen_shannon_replicates"),
                                 (coverage, "embedding_entropy_replicates"),
                                 (coverage, "manifold_recall_replicates")):
            monkeypatch.setattr(module, function, fail)
        failed = runner._task_results(task, runner._Args(synth, synth, cfg, 0))
        assert [(r.value, scope, r.diagnostics)
                for (scope, _, _), r in failed.items()] == [(
            None, "subgroup:a",
            {"undefined_reason": "insufficient samples: too few rows"})] * 5


def _block_task(cfg, n):
    """The one replicate block ``consistency`` gives subgroup "a" of ``n``
    synthetic rows at seed 0, as a runner task."""
    (base, replicates), = consistency.replicate_tasks(cfg, "subgroup:a", n, 0)
    return "subgroup:a", base, replicates


#: Each block metric's single-set function, the oracle of its block form.
_SINGLE_SET = {
    "jensen_shannon_divergence": lambda a, p: congruence.jensen_shannon(
        a.real, a.synthetic, **p),
    "recall": lambda a, p: coverage.manifold_recall(a.real, a.synthetic, **p),
    "entropy_coverage": lambda a, p: coverage.embedding_entropy(
        a.synthetic, **p),
}


def _per_draw_results(task, args):
    """A task's results as one computation on its synthetic set, then one
    per replicate on its ``resample``d set, a block metric through its
    single-set function, through the same undefined-marker rules, keyed as
    ``_task_results`` keys them."""
    scope, name, replicates = task
    compute = {**runner._COMPUTE, **_SINGLE_SET}[name]
    results = {}
    for r, one in zip((None, *range(len(replicates))), [args] + [
            replace(args, synthetic=args.synthetic.resample(drawn))
            for drawn in replicates]):
        result, = runner._results(name, one, lambda: [
            compute(one, runner._params(name, one.config))])
        results[scope, name, r] = result
    return results


def _summary(results):
    return [(key, r.value, r.diagnostics) for key, r in results.items()]


class TestWorkerProcesses:
    """The evaluate process runs every task itself, whatever ``--workers``
    says; what used to cross a process boundary still behaves the same."""
    METRICS = ["cosine_similarity", "jensen_shannon_divergence", "recall"]

    def test_one_task_per_subgroup_replicate_block(self, pair, monkeypatch):
        # every scope runs one task per metric, whatever the replicate
        # count: a subgroup's task for a base carries its replicate block
        real, synth = pair
        subgroups = sorted(set(synth.subgroup))
        bases = ["jensen_shannon_divergence", "recall"]
        cfg = _embedding_config(metrics=self.METRICS + ["anova"], consistency={
            "base_metrics": bases, "bootstrap_replicates": 50})
        tasks = []
        task_results = runner._task_results

        def recorded(task, args):
            tasks.append(task)
            return task_results(task, args)
        monkeypatch.setattr(runner, "_task_results", recorded)
        run_evaluation(EvaluationInputs(synthetic=synth, real=real), cfg)
        assert len(subgroups) == 2
        assert len(tasks) == (1 + len(subgroups)) * len(self.METRICS) + 1
        assert [(scope, name, len(replicates))
                for scope, name, replicates in tasks] == [
            (scope, name, 50 * (scope != "global" and name in bases))
            for scope in ["global"] + [f"subgroup:{g}" for g in subgroups]
            for name in self.METRICS] + [("global", "anova", 0)]

    def _error(self, run):
        with pytest.raises(Exception) as caught:
            run()
        return type(caught.value), str(caught.value), getattr(
            caught.value, "code", None)

    def test_error_in_a_child_surfaces_as_serially(self, pair, monkeypatch,
                                                   tmp_path):
        # a failing task runs in this process, forks nothing, and its error
        # is the run's, message and code as raised
        log = tmp_path / "pids"

        def fail(task, args):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            raise EvaluationError("task failed", code="E249")

        def refuse():
            raise OSError("evaluate forked a process")
        monkeypatch.setattr(runner, "_task_results", fail)
        monkeypatch.setattr(os, "fork", refuse)
        real, synth = pair
        assert self._error(lambda: run_evaluation(
            EvaluationInputs(synthetic=synth, real=real),
            _embedding_config(metrics=self.METRICS))) == (
            EvaluationError, "task failed", "E249")
        assert [int(pid) for pid in log.read_text().split()] == [os.getpid()]

    def test_first_failing_task_in_task_order_wins(self, pair, monkeypatch):
        # every task fails with its own message; the first one's error is
        # the run's, code and all
        def fail(task, args):
            raise EvaluationError(f"{task[1]} in {task[0]} failed",
                                  code="E249")
        monkeypatch.setattr(runner, "_task_results", fail)
        real, synth = pair
        assert self._error(lambda: run_evaluation(
            EvaluationInputs(synthetic=synth, real=real),
            _embedding_config(metrics=self.METRICS))) == (
            EvaluationError, "cosine_similarity in global failed", "E249")

    @pytest.mark.parametrize("error", [
        errors.SmdError("base", code="E199"), errors.ConfigError("config"),
        errors.InputError("input", code="E212"), errors.PlanError("plan"),
        errors.CardError("card", code="E231"),
        errors.EvaluationError("evaluation", code="E249"),
    ], ids=lambda e: type(e).__name__)
    def test_errors_survive_pickling(self, error):
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error)
        assert (str(copy), copy.code) == (str(error), error.code)
        assert getattr(copy, "violations", None) == getattr(
            error, "violations", None)

    def _image_run(self, pair, pairs):
        real, synth = pair
        cfg = config_from_dict({"metrics": ["cosine_similarity", "psnr",
                                            "ssim"],
                                "bounds": {"psnr": [0, 60]}})
        inputs = EvaluationInputs(synthetic=synth, real=real,
                                  image_pairs=pairs)
        return self._error(lambda: run_evaluation(inputs, cfg))

    def test_malformed_image_pair_error_same_at_any_worker_count(self, pair):
        # equal-shaped 1-D "images": psnr scores them, ssim's 2-D window fails
        line = np.arange(8, dtype=np.uint8)
        pairs = [(line, line[::-1].copy(), 255)]
        assert self._image_run(pair, pairs)[0] is ValueError

    def test_task_error_code_crosses_worker_processes(self, pair,
                                                      monkeypatch):
        def malformed(pairs):
            raise EvaluationError("malformed image pair 0", code="E249")
        monkeypatch.setattr(congruence, "psnr_pairs", malformed)
        image = np.zeros((8, 8), dtype=np.uint8)
        assert self._image_run(pair, [(image, image, 255)]) == (
            EvaluationError, "malformed image pair 0", "E249")


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
        # small for rarity_score's k on the reference side, which fails the
        # run with E228, so the rest is calibrated without it; at odd n the
        # two halves differ in length
        open_ended = {name for name in _EMBEDDING_METRICS
                      if catalog.descriptor(name).static_bounds is None}
        real = make_gaussian_mixture(n, 3, TWO_MODES, seed=n)
        if failed:
            with pytest.raises(PlanViolations) as raised:
                calibrate_bounds(real, config_from_dict(
                    {"metrics": _EMBEDDING_METRICS, "seed": 5}))
            assert [(v.code, str(v).split("'")[1])
                    for v in raised.value.violations] == [
                ("E228", name) for name in failed]
        bounds = calibrate_bounds(real, config_from_dict(
            {"metrics": [m for m in _EMBEDDING_METRICS if m not in failed],
             "seed": 5}))
        assert sorted(open_ended - set(bounds)) == failed
        assert hashlib.sha256(repr(sorted(bounds.items())).encode()
                              ).hexdigest() == digest

    _BLOCK_METRICS = ["jensen_shannon_divergence", "recall",
                      "entropy_coverage"]

    @pytest.mark.parametrize("n", [40, 41])
    def test_block_metrics_never_run_single_set_functions(
            self, monkeypatch, pair, n):
        # a calibration self-split, odd halves included, and an evaluation
        # with replicates run a block metric only through its block form
        def fail(*args, **kwargs):
            raise AssertionError("a single-set function ran")
        for module, function in ((congruence, "jensen_shannon"),
                                 (coverage, "manifold_recall"),
                                 (coverage, "embedding_entropy")):
            monkeypatch.setattr(module, function, fail)
        bounds = calibrate_bounds(
            make_gaussian_mixture(n, 3, TWO_MODES, seed=n),
            config_from_dict({"metrics": self._BLOCK_METRICS, "seed": 5}))
        assert set(bounds) == {"entropy_coverage"}
        real, synth = pair
        report = run_evaluation(
            EvaluationInputs(synthetic=synth, real=real), _embedding_config(
                metrics=self._BLOCK_METRICS + ["anova"],
                bounds={"entropy_coverage": [0, 5]},
                consistency={"base_metrics": self._BLOCK_METRICS,
                             "bootstrap_replicates": 5}))
        assert report.criterion("consistency").metrics[0]["value"] is not None

    def test_one_block_per_task_at_odd_n(self, monkeypatch):
        # every calibrate task has no replicates and runs one block on the
        # halves of a split, 20 and 21 rows: a binary metric half against
        # half, entropy on each half alone. JSD and recall have two
        # analytic ends, which calibrate keeps, so their upper ends are
        # opened here to make them run
        tasks, blocks = [], []
        task_results = runner._task_results

        def recorded(task, args):
            tasks.append(task)
            return task_results(task, args)
        monkeypatch.setattr(runner, "_task_results", recorded)
        for name, one_pass in list(runner._BLOCKS.items()):
            def counted(args, params, rows, name=name, one_pass=one_pass):
                blocks.append((name, [len(r) for r in rows],
                               None if args.real is None else args.real.n,
                               args.synthetic.n))
                return one_pass(args, params, rows)
            monkeypatch.setitem(runner._BLOCKS, name, counted)
        descriptor = catalog.descriptor
        monkeypatch.setattr(catalog, "descriptor", lambda name: replace(
            descriptor(name), range=(descriptor(name).range[0], None)))
        bounds = calibrate_bounds(
            make_gaussian_mixture(41, 3, TWO_MODES, seed=41),
            config_from_dict({"metrics": self._BLOCK_METRICS, "seed": 5}))
        assert set(bounds) == set(self._BLOCK_METRICS)
        assert tasks == [("global", name, ()) for name, _, _, _ in blocks]
        assert blocks == [(name, [21], 20, 21) for name in (
            "jensen_shannon_divergence", "recall") for _ in range(5)] + [
            ("entropy_coverage", [20], None, 20),
            ("entropy_coverage", [21], None, 21)] * 5

    def test_too_small_to_split(self):
        tiny = make_gaussian_mixture(3, 2, TWO_MODES, seed=74)
        with pytest.raises(Exception, match="too small"):
            calibrate_bounds(tiny, _embedding_config())


class TestCatalogDispatch:
    """The catalog rows and the runner's compute table stay in step."""

    def test_one_compute_entry_per_task_metric(self):
        # manifest metrics are scored when the card is built; every other
        # computable metric, the subgroup metrics included, runs as a task
        # through exactly one compute or block entry
        expected = {d.name for d in catalog.REGISTRY.values()
                    if d.computable and d.source != catalog.SOURCE_MANIFEST}
        assert not set(runner._COMPUTE) & set(runner._BLOCKS)
        assert set(runner._COMPUTE) | set(runner._BLOCKS) == expected

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
        for name in list(runner._COMPUTE) + list(runner._BLOCKS):
            d = catalog.descriptor(name)
            result, = runner._task_results(("global", name, ()),
                                           args).values()
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
