import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import smdcard

from smdcard.compliance import (declared_privacy_record, k_anonymity,
                                l_diversity, leakage_rate, t_closeness)
from smdcard.config import config_from_dict
from smdcard.errors import EvaluationError
from smdcard.model import EmbeddingSet

from conftest import embedding_from, table_from

QI_COLUMNS = [("age_band", "categorical"), ("zip3", "categorical"),
              ("dx", "categorical"), ("lab", "numeric")]


def _qi_table(rows):
    return table_from(QI_COLUMNS, rows)


def _random_qi_table(n=50, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        rows.append((str(rng.choice(["20s", "30s", "40s"])),
                     str(rng.choice(["100", "101"])),
                     str(rng.choice(["flu", "cold", "ok"])),
                     float(rng.integers(1, 6))))
    return _qi_table(rows)


class TestKAnonymity:
    def test_constructed_classes(self):
        rows = [("20s", "100", "flu", 1.0)] * 3 + [("30s", "100", "flu", 1.0)] * 2
        value, diag = k_anonymity(_qi_table(rows), ["age_band", "zip3"])
        assert value == 2
        assert diag["classes"] == 2

    def test_all_identical_gives_n(self):
        rows = [("20s", "100", "flu", 1.0)] * 7
        value, _ = k_anonymity(_qi_table(rows), ["age_band"])
        assert value == 7

    def test_matches_exhaustive_grouping_oracle(self):
        table = _random_qi_table(50, seed=4)
        qis = ["age_band", "zip3"]
        value, _ = k_anonymity(table, qis)

        groups = {}
        for row in table.rows:
            groups.setdefault((row[0], row[1]), []).append(row)
        assert value == min(len(v) for v in groups.values())

    def test_suppressing_a_column_never_lowers_k(self):
        table = _random_qi_table(50, seed=9)
        full, _ = k_anonymity(table, ["age_band", "zip3"])
        coarser, _ = k_anonymity(table, ["age_band"])
        assert coarser >= full

    def test_empty_table_errors(self):
        with pytest.raises(EvaluationError, match="empty"):
            k_anonymity(_qi_table([]), ["age_band"])

    def test_missing_qi_grouped_and_flagged(self):
        rows = [("20s", "100", "flu", 1.0), (None, "100", "flu", 1.0),
                (None, "100", "flu", 1.0)]
        value, diag = k_anonymity(_qi_table(rows), ["age_band"])
        assert diag["rows_with_missing_qi"] == 2
        assert value == 1  # the '20s' singleton


class TestLDiversity:
    def test_single_class_two_values(self):
        rows = [("20s", "100", "flu", 1.0), ("20s", "100", "flu", 1.0),
                ("20s", "100", "cold", 1.0)]
        value, _ = l_diversity(_qi_table(rows), ["age_band"], "dx")
        assert value == 2

    def test_single_valued_classes(self):
        rows = [("20s", "100", "flu", 1.0), ("30s", "100", "cold", 1.0)]
        value, _ = l_diversity(_qi_table(rows), ["age_band"], "dx")
        assert value == 1

    def test_matches_exhaustive_distinct_count_oracle(self):
        table = _random_qi_table(50, seed=21)
        value, _ = l_diversity(table, ["age_band", "zip3"], "dx")

        groups = {}
        for row in table.rows:
            groups.setdefault((row[0], row[1]), set()).add(row[2])
        assert value == min(len(v) for v in groups.values())

    def test_missing_sensitive_column_errors(self):
        with pytest.raises(EvaluationError, match="ghost"):
            l_diversity(_random_qi_table(), ["age_band"], "ghost")


class TestTCloseness:
    def test_classes_matching_global_zero(self):
        rows = []
        for band in ("20s", "30s"):
            rows += [(band, "100", "flu", 1.0), (band, "100", "cold", 1.0)]
        value, _ = t_closeness(_qi_table(rows), ["age_band"], "dx")
        assert value == 0.0

    def test_categorical_total_variation_closed_form(self):
        # one class holds only "flu"; global splits evenly
        rows = [("20s", "100", "flu", 1.0), ("20s", "100", "flu", 1.0),
                ("30s", "100", "cold", 1.0), ("30s", "100", "cold", 1.0)]
        value, _ = t_closeness(_qi_table(rows), ["age_band"], "dx")
        assert value == pytest.approx(0.5)

    def test_numeric_matches_quantile_transport_oracle(self):
        # class size 4 against global size 12: a 1200-point midpoint grid
        # evaluates both inverse CDFs exactly
        rows = []
        values_by_class = {"20s": [1.0, 2.0, 3.0, 4.0],
                           "30s": [2.0, 2.0, 5.0, 6.0],
                           "40s": [1.0, 3.0, 5.0, 9.0]}
        for band, values in values_by_class.items():
            rows += [(band, "100", "flu", v) for v in values]
        table = _qi_table(rows)
        value, diag = t_closeness(table, ["age_band"], "lab")
        assert diag["ground_distance"] == "range-normalized-transport"

        global_sorted = sorted(v for vs in values_by_class.values() for v in vs)
        span = global_sorted[-1] - global_sorted[0]
        grid = 1200

        def inverse_cdf(sorted_values, q):
            return sorted_values[min(math.ceil(q * len(sorted_values)) - 1,
                                     len(sorted_values) - 1)]

        worst = 0.0
        for values in values_by_class.values():
            local = sorted(values)
            total = 0.0
            for j in range(grid):
                q = (j + 0.5) / grid
                total += abs(inverse_cdf(local, q)
                             - inverse_cdf(global_sorted, q))
            worst = max(worst, (total / grid) / span)
        assert value == pytest.approx(worst, abs=1e-12)

    def test_degenerate_global_zero(self):
        rows = [("20s", "100", "flu", 1.0), ("30s", "100", "flu", 1.0)]
        value, diag = t_closeness(_qi_table(rows), ["age_band"], "dx")
        assert value == 0.0
        assert diag["degenerate_global"] is True

    def test_uniform_subsample_classes_zero(self):
        rows = []
        for band in ("20s", "30s", "40s"):
            for dx in ("flu", "cold"):
                rows.append((band, "100", dx, 1.0))
        value, _ = t_closeness(_qi_table(rows), ["age_band"], "dx")
        assert value == 0.0
    def test_categorical_independent_of_hash_seed(self):
        # total variation summed in set order changed in the last bit with
        # PYTHONHASHSEED; it must not depend on string hashing at all
        script = (
            "from smdcard.compliance import t_closeness\n"
            "from smdcard.harness import make_record_table\n"
            "for seed in range(40):\n"
            "    t = make_record_table(300, seed=seed, numeric_fields={'x': "
            "(0.0, 1.0)}, categorical_fields={'band': list('abcdefg'), "
            "'dx': list('pqrstuvw')})\n"
            "    print(repr(t_closeness(t, ['band'], 'dx')))\n")
        src = str(pathlib.Path(smdcard.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": src}
            run = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, check=True,
                                 timeout=120)
            outputs.append(run.stdout)
        assert outputs[0].count("\n") == 40
        assert outputs[0] == outputs[1]


class TestLeakage:
    def test_exact_copy_full_leakage(self, identity_pair):
        real, synth = identity_pair
        value, _ = leakage_rate(real, synth)
        assert value == 1.0

    def test_translated_far_zero(self, identity_pair):
        real, synth = identity_pair
        far = EmbeddingSet(ids=synth.ids, data=synth.data + 1e6)
        value, _ = leakage_rate(real, far)
        assert value == 0.0

    def test_half_copied_matches_brute_force(self):
        rng = np.random.default_rng(42)
        real_pts = rng.normal(size=(40, 3))
        synth_pts = np.vstack([real_pts[:20], real_pts[20:] + 1e5])
        real = embedding_from(real_pts)
        synth = embedding_from(synth_pts, prefix="s")
        value, diag = leakage_rate(real, synth)
        assert value == pytest.approx(0.5)

        # oracle: explicit nearest-neighbor distances
        tau = diag["tau"]
        hits = 0
        for s in synth_pts:
            nearest = min(np.linalg.norm(s - r) for r in real_pts)
            hits += nearest <= tau
        assert value == pytest.approx(hits / 40)

    def test_rigid_translation_of_both_sets_invariant(self, gaussian_pair):
        real, synth = gaussian_pair
        base, _ = leakage_rate(real, synth)
        offset = np.full(real.d, 123.456)
        moved_real = EmbeddingSet(ids=real.ids, data=real.data + offset)
        moved_synth = EmbeddingSet(ids=synth.ids, data=synth.data + offset)
        moved, _ = leakage_rate(moved_real, moved_synth)
        assert base == pytest.approx(moved, abs=1e-12)

    def test_default_tau_needs_two_reference_rows(self):
        real = embedding_from([[0.0, 0.0]])
        synth = embedding_from([[0.0, 0.0]], prefix="s")
        with pytest.raises(EvaluationError, match="at least 2"):
            leakage_rate(real, synth)


class TestDeclaredPrivacy:
    def test_declared_epsilon_passthrough(self):
        cfg = config_from_dict({"metrics": ["k_anonymity"],
                                "compliance": {"declared": {"epsilon": 1.0}}})
        record = declared_privacy_record(cfg)
        assert record["epsilon"] == "1.0 (declared, not verified)"

    def test_no_declaration(self):
        cfg = config_from_dict({"metrics": ["k_anonymity"]})
        record = declared_privacy_record(cfg)
        assert record["epsilon"] == "not declared"
        assert record["anonymization_method"] == "not declared"
