"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and holding a runtime budget (run with ``pytest -s`` to see
the lines while the suite runs)."""

import csv
import itertools
import json
import math
import pathlib
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import yaml

from smdcard import compliance, congruence, consistency, coverage
from smdcard.aggregate import verdict
from smdcard.catalog import catalog_rows
from smdcard.cli import main
from smdcard.config import config_from_dict
from smdcard.card import (build_card, card_from_json, documentation_clarity_score,
                          field_labels, render_structured)
from smdcard.harness import inject_defect, make_gaussian_mixture, make_record_table
from smdcard.ingest import write_embeddings
from smdcard.model import EmbeddingSet
from smdcard.numerics import kth_neighbor_distances
from smdcard.runner import EvaluationInputs, run_evaluation

DATA = pathlib.Path(__file__).parent / "data"
THRESHOLDS = {"good": 80.0, "moderate": 70.0}


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{name}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(f"ACCEPTANCE {number} [{name}]: FAIL "
              f"(runtime {elapsed:.2f}s over {budget_seconds}s)")
        raise AssertionError(f"runtime {elapsed:.2f}s over budget "
                             f"{budget_seconds}s")
    print(f"ACCEPTANCE {number} [{name}]: PASS ({elapsed:.2f}s)")


def _copy_of(eset: EmbeddingSet) -> EmbeddingSet:
    return EmbeddingSet(ids=tuple(f"s{i}" for i in range(eset.n)),
                        data=eset.data.copy())


def test_acceptance_1_threshold_fidelity():
    with criterion(1, "threshold fidelity", 1.0):
        assert verdict(82.0, THRESHOLDS) == "good"
        assert verdict(70.0, THRESHOLDS) == "moderate"
        assert verdict(69.9, THRESHOLDS) == "low"
        score = 69.90
        while score <= 80.10 + 1e-9:
            expected = ("good" if score >= 80.0
                        else "moderate" if score >= 70.0 else "low")
            assert verdict(score, THRESHOLDS) == expected, score
            score = round(score + 0.01, 2)


def test_acceptance_2_identity_optimum_suite():
    with criterion(2, "identity optimum", 10.0):
        real = make_gaussian_mixture(500, 16, [{"mean": 0.0, "scale": 1.0,
                                                "weight": 1.0}], seed=2024)
        synth = _copy_of(real)

        value, _ = congruence.cosine_centroid(real, synth)
        assert value == pytest.approx(1.0, abs=1e-9)
        value, _ = congruence.wasserstein1(real, synth)
        assert value == pytest.approx(0.0, abs=1e-9)
        value, _ = congruence.jensen_shannon(real, synth)
        assert value == pytest.approx(0.0, abs=1e-9)
        value, _ = congruence.frechet_distance(real, synth)
        assert value <= 1e-6
        value, _ = congruence.manifold_precision(real, synth)
        assert value == 1.0
        value, _ = coverage.manifold_recall(real, synth)
        assert value == 1.0
        value, _ = coverage.manifold_coverage(real, synth)
        assert value == 1.0
        value, _ = congruence.centroid_distance(real, synth)
        assert value == 0.0
        value, _ = coverage.centroid_spread(real, synth)
        direct = float(np.mean(np.linalg.norm(
            real.data - real.data.mean(axis=0), axis=1)))
        assert value == pytest.approx(direct, abs=1e-12)
        value, _ = compliance.leakage_rate(real, synth)
        assert value == 1.0


def test_acceptance_3_closed_form_checks():
    with criterion(3, "closed forms", 10.0):
        # equal covariance, shifted mean: distance reduces to the squared shift
        rng = np.random.default_rng(33)
        base = rng.normal(size=(120, 6))
        shifted = base.copy()
        shifted[:, 2] += 3.0
        real = EmbeddingSet(ids=tuple(map(str, range(120))), data=base)
        synth = EmbeddingSet(ids=tuple(f"s{i}" for i in range(120)),
                             data=shifted)
        value, _ = congruence.frechet_distance(real, synth)
        assert value == pytest.approx(9.0, abs=1e-6)

        # diversity count extremes
        same = EmbeddingSet(ids=("a", "b", "c", "d"),
                            data=np.tile([1.0, 2.0], (4, 1)))
        value, _ = coverage.vendi_score(same)
        assert value == pytest.approx(1.0, abs=1e-6)
        ortho = EmbeddingSet(ids=tuple(map(str, range(9))), data=np.eye(9))
        value, _ = coverage.vendi_score(ortho)
        assert value == pytest.approx(9.0, abs=1e-6)

        # uniform 8-bin occupancy
        uniform = EmbeddingSet(ids=tuple(map(str, range(8))),
                               data=np.array([[0.5 + i] for i in range(8)]))
        value, _ = coverage.embedding_entropy(uniform, bins=8)
        assert value == pytest.approx(math.log(8), abs=1e-9)

        # unit-MSE 8-bit image pair
        a = np.full((12, 12), 40, dtype=np.uint8)
        b = np.full((12, 12), 41, dtype=np.uint8)
        value, _ = congruence.psnr_pairs([(a, b, 255)])
        assert value == pytest.approx(20.0 * math.log10(255.0), abs=1e-6)

        # unit square hull
        square = EmbeddingSet(ids=("a", "b", "c", "d"),
                              data=np.array([[0.0, 0.0], [1.0, 0.0],
                                             [1.0, 1.0], [0.0, 1.0]]))
        value, _ = coverage.convex_hull_volume(square)
        assert value == 1.0


def test_acceptance_4_oracle_equivalence():
    with criterion(4, "oracle equivalence", 60.0):
        rng = np.random.default_rng(404)

        # distribution distance vs an independent matrix square root
        a = rng.normal(size=(200, 5)) @ np.diag([2.0, 1.4, 1.0, 0.6, 0.3])
        b = rng.normal(loc=0.25, size=(200, 5))
        real = EmbeddingSet(ids=tuple(map(str, range(200))), data=a)
        synth = EmbeddingSet(ids=tuple(f"s{i}" for i in range(200)), data=b)
        value, _ = congruence.frechet_distance(real, synth)
        cov_a = np.cov(a, rowvar=False) + 1e-6 * np.eye(5)
        cov_b = np.cov(b, rowvar=False) + 1e-6 * np.eye(5)
        expected = (np.sum((a.mean(0) - b.mean(0)) ** 2)
                    + np.trace(cov_a + cov_b
                               - 2 * scipy.linalg.sqrtm(cov_a @ cov_b).real))
        assert value == pytest.approx(expected, rel=1e-6)

        # exact-matching transport vs exhaustive permutations (n = 8)
        x = rng.normal(size=(8, 3))
        y = rng.normal(size=(8, 3))
        ex = EmbeddingSet(ids=tuple(map(str, range(8))), data=x)
        ey = EmbeddingSet(ids=tuple(f"s{i}" for i in range(8)), data=y)
        value, _ = congruence.wasserstein1(ex, ey, mode="exact-matching")
        cost = np.linalg.norm(x[:, None] - y[None, :], axis=2)
        brute = min(sum(cost[i, p[i]] for i in range(8)) / 8.0
                    for p in itertools.permutations(range(8)))
        assert value == pytest.approx(brute, abs=1e-12)

        # neighbor distances vs all-pairs sort on integer coordinates
        pts = rng.integers(-40, 40, size=(100, 5)).astype(np.float64)
        oracle = np.empty((100, 3))
        for i in range(100):
            dists = sorted(math.dist(pts[i], pts[j])
                           for j in range(100) if j != i)
            oracle[i] = dists[:3]
        for j in range(3):
            assert np.array_equal(kth_neighbor_distances(pts, j + 1)[0],
                                  oracle[:, j])

        # one-way F and p vs sums of squares + numeric integration
        groups = [rng.normal(loc=0.0, size=12), rng.normal(loc=0.5, size=9),
                  rng.normal(loc=0.2, size=15)]
        stats, _ = consistency.one_way_anova(groups)
        pooled = np.concatenate(groups)
        grand = pooled.mean()
        ss_b = sum(g.size * (g.mean() - grand) ** 2 for g in groups)
        ss_w = sum(((g - g.mean()) ** 2).sum() for g in groups)
        df_b, df_w = 2, pooled.size - 3
        assert stats["F"] == pytest.approx((ss_b / df_b) / (ss_w / df_w),
                                           abs=1e-9)

        def f_pdf(value):
            log_num = (df_b / 2) * math.log(df_b) \
                + (df_w / 2) * math.log(df_w) \
                + (df_b / 2 - 1) * math.log(value)
            log_den = ((df_b + df_w) / 2) * math.log(df_w + df_b * value)
            log_beta = (math.lgamma(df_b / 2) + math.lgamma(df_w / 2)
                        - math.lgamma((df_b + df_w) / 2))
            return math.exp(log_num - log_den - log_beta)

        tail, _ = scipy.integrate.quad(f_pdf, stats["F"], np.inf, limit=200)
        assert stats["p"] == pytest.approx(tail, abs=1e-6)

        # anonymity metrics vs exhaustive grouping on a 50-row table
        from conftest import table_from
        cols = [("band", "categorical"), ("zip3", "categorical"),
                ("dx", "categorical"), ("lab", "numeric")]
        rows = [(str(rng.choice(["20s", "30s", "40s"])),
                 str(rng.choice(["100", "101"])),
                 str(rng.choice(["flu", "cold", "ok"])),
                 float(rng.integers(1, 6))) for _ in range(50)]
        table = table_from(cols, rows)
        qis = ["band", "zip3"]

        groups_by_key = {}
        for row in rows:
            groups_by_key.setdefault((row[0], row[1]), []).append(row)
        k_value, _ = compliance.k_anonymity(table, qis)
        assert k_value == min(len(g) for g in groups_by_key.values())
        l_value, _ = compliance.l_diversity(table, qis, "dx")
        assert l_value == min(len({r[2] for r in g})
                              for g in groups_by_key.values())
        t_value, _ = compliance.t_closeness(table, qis, "dx")
        global_counts = {}
        for row in rows:
            global_counts[row[2]] = global_counts.get(row[2], 0) + 1
        global_dist = {k: v / 50 for k, v in global_counts.items()}
        worst = 0.0
        for g in groups_by_key.values():
            local = {k: sum(1 for r in g if r[2] == k) / len(g)
                     for k in {r[2] for r in g}}
            keys = set(local) | set(global_dist)
            tv = 0.5 * sum(abs(local.get(k, 0.0) - global_dist.get(k, 0.0))
                           for k in keys)
            worst = max(worst, tv)
        assert t_value == pytest.approx(worst, abs=1e-12)


def test_acceptance_5_directional_sensitivity():
    with criterion(5, "directional sensitivity", 30.0):
        modes = [{"mean": 0.0, "scale": 1.0, "weight": 0.5},
                 {"mean": 8.0, "scale": 1.0, "weight": 0.5}]
        real = make_gaussian_mixture(120, 5, modes, seed=501)
        baseline = make_gaussian_mixture(120, 5, modes, seed=502)

        recall_base, _ = coverage.manifold_recall(real, baseline)
        cov_base, _ = coverage.manifold_coverage(real, baseline)
        dropped = inject_defect(real, "mode_drop", mode="mode1").dataset
        recall_drop, _ = coverage.manifold_recall(real, dropped)
        cov_drop, _ = coverage.manifold_coverage(real, dropped)
        assert recall_drop < recall_base
        assert cov_drop < cov_base

        for fraction in (0.2, 0.5):
            synth = inject_defect(real, "duplicate_real", seed=503,
                                  fraction=fraction).dataset
            leak, _ = compliance.leakage_rate(real, synth)
            assert leak >= fraction

        table = make_record_table(50, seed=504)
        from smdcard.constraint import derive_range_rules, violation_magnitude, \
            violation_rate
        rules = derive_range_rules(table, ["age", "hgb"])
        for fraction in (0.1, 0.3):
            bad = inject_defect(table, "out_of_range", seed=505, field="age",
                                fraction=fraction, magnitude=7.0).dataset
            rate, _ = violation_rate(bad, rules)
            magnitude, _ = violation_magnitude(bad, rules)
            assert rate >= fraction - 1.0 / 50
            assert magnitude > 0.0

        from smdcard.completeness import missing_data_percentage, \
            required_field_proportion
        masked = inject_defect(table, "mask_cells", seed=506,
                               fraction=0.15).dataset
        pct, _ = missing_data_percentage(masked)
        assert abs(pct - 0.15) <= 1.0 / (50 * 3)

        smaller = inject_defect(table, "delete_field", name="sex").dataset
        base_prop, _ = required_field_proportion(table,
                                                 list(table.column_names))
        after_prop, _ = required_field_proportion(smaller,
                                                  list(table.column_names))
        assert after_prop < base_prop

        # subgroup skew raises the consistency spread for the base metric
        config = config_from_dict({
            "metrics": ["jensen_shannon_divergence", "max_min_difference"],
            "columns": {"subgroup": "subgroup"},
            "consistency": {"base_metrics": ["jensen_shannon_divergence"]},
            "seed": 507,
        })
        clean = EmbeddingSet(ids=tuple(f"s{i}" for i in range(real.n)),
                             data=real.data.copy(), subgroup=real.subgroup)
        report_clean = run_evaluation(
            EvaluationInputs(synthetic=clean, real=real), config)
        skewed = inject_defect(real, "subgroup_skew", seed=508,
                               subgroup="mode1", noise_scale=2.0).dataset
        report_skewed = run_evaluation(
            EvaluationInputs(synthetic=skewed, real=real), config)

        def max_min(report):
            block = report.criterion("consistency")
            entry = [m for m in block.metrics
                     if m["name"] == "max_min_difference"][0]
            return entry["value"]

        assert max_min(report_skewed) > max_min(report_clean)


def test_acceptance_6_card_schema_completeness():
    with criterion(6, "card schema", 5.0):
        golden = json.loads((DATA / "card_fields_golden.json").read_text())
        assert field_labels() == golden

        from test_card import FULL_MANIFEST, _report
        card = build_card(FULL_MANIFEST, _report(), report_digest="a" * 64)
        payload = render_structured(card)
        assert render_structured(card_from_json(payload)) == payload

        score_all, _ = documentation_clarity_score(FULL_MANIFEST)
        assert score_all == 10
        score_none, _ = documentation_clarity_score({"general": {"name": "x"}})
        assert score_none == 1
        four = {
            "general": {"name": "x", "version_history": "v1",
                        "point_of_contact": "a@b"},
            "generation": {"generation_method": "procedural"},
            "usage": {"preprocessing_requirements": "none"},
        }
        score_four, items = documentation_clarity_score(four)
        assert sum(i["satisfied"] for i in items) == 4
        assert score_four == 5


def test_acceptance_7_cli_determinism(tmp_path):
    with criterion(7, "evaluate determinism", 20.0):
        modes = [{"mean": 0.0, "scale": 1.0, "weight": 0.5},
                 {"mean": 6.0, "scale": 1.0, "weight": 0.5}]
        real = make_gaussian_mixture(200, 8, modes, seed=701)
        synth = make_gaussian_mixture(180, 8, modes, seed=702)
        write_embeddings(real, str(tmp_path / "real.csv"))
        write_embeddings(synth, str(tmp_path / "synthetic.csv"))
        config = {
            "metrics": ["cosine_similarity", "jensen_shannon_divergence",
                        "frechet_distance", "precision", "recall", "coverage",
                        "vendi_score", "cluster_balance",
                        "re_identification_risk", "anova",
                        "max_min_difference"],
            "bounds": {"frechet_distance": [0, 80]},
            "columns": {"subgroup": "subgroup"},
            "consistency": {"base_metrics": ["jensen_shannon_divergence"],
                            "bootstrap_replicates": 60},
            "seed": 703,
        }
        (tmp_path / "config.yaml").write_text(yaml.safe_dump(config))
        outputs = []
        for name, workers in (("a.json", 1), ("b.json", 1), ("c.json", 4)):
            code = main(["evaluate",
                         "--real", str(tmp_path / "real.csv"),
                         "--synthetic", str(tmp_path / "synthetic.csv"),
                         "--config", str(tmp_path / "config.yaml"),
                         "--out", str(tmp_path / name),
                         "--workers", str(workers)])
            assert code == 0
            outputs.append((tmp_path / name).read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0] == outputs[2]


def test_acceptance_8_descriptor_fidelity():
    with criterion(8, "descriptor fidelity", 1.0):
        direction_map = {"Maximize": "maximize", "Minimize": "minimize",
                         "Stat. Sig.": "stat-sig"}
        space_map = {"Embedding": "embedding", "Image": "image",
                     "Metadata": "metadata", "Data Attribute": "data-attribute",
                     "Documentation": "documentation",
                     "Quality Metrics": "quality-metrics"}
        with open(DATA / "metric_catalog_golden.csv", encoding="utf-8") as fh:
            golden = list(csv.DictReader(fh))
        rows = catalog_rows()
        assert len(rows) == len(golden) == 32
        for descriptor, expected in zip(rows, golden):
            assert descriptor.label == expected["metric"]
            assert descriptor.criterion == expected["criterion"].lower()
            assert descriptor.space == space_map[expected["space"]]
            assert descriptor.arity == expected["binary"].lower()
            assert descriptor.direction == direction_map[expected["direction"]]
            assert descriptor.image_only == (expected["image_metric"] == "Yes")
