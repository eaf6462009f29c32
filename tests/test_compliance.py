import math
import os
import pathlib
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import smdcard

from smdcard.compliance import (declared_privacy_record, k_anonymity,
                                l_diversity, leakage_rate, t_closeness)
from smdcard.config import DECLARED_KEYS, config_from_dict
from smdcard.errors import EvaluationError
from smdcard.model import EmbeddingSet
from smdcard.numerics import w1_distance_1d

from conftest import RowTable, embedding_from, table_from

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

    def test_missing_marker_text_is_an_ordinary_value(self):
        rows = [("<missing>", "100", "flu", 1.0), (None, "100", "flu", 1.0),
                ("x", "100", "flu", 1.0), ("x", "100", "flu", 1.0)]
        value, diag = k_anonymity(_qi_table(rows), ["age_band"])
        assert (value, diag["rows_with_missing_qi"]) == (1, 1)


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

    def test_distinct_sensitive_values_count_signed_zeros_once(self):
        rows = [("20s", "100", "flu", -0.0), ("20s", "100", "flu", 0.0),
                ("30s", "100", "flu", None), ("30s", "100", None, 2.5),
                ("30s", "100", "cold", 2.5)]
        value, diag = l_diversity(_qi_table(rows), ["age_band"], "lab")
        assert (value, diag["distinct_sensitive_values"]) == (2, 2)
        value, diag = l_diversity(_qi_table(rows), ["age_band"], "dx")
        assert (value, diag["distinct_sensitive_values"]) == (1, 2)


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


# ---------------------------------------------------------------------------
# reference oracle: the per-row grouping the anonymity metrics replaced


def _oracle_classes(table, quasi_identifiers):
    """Rows grouped by the tuple of their quasi-identifier texts; None keys
    a missing cell, so it cannot meet any cell text."""
    idx = [table.column_index(q) for q in quasi_identifiers]
    classes = {}
    missing_rows = 0
    for i, row in enumerate(table.rows):
        key = tuple(None if table.missing_mask[i, j] else str(row[j])
                    for j in idx)
        if None in key:
            missing_rows += 1
        classes.setdefault(key, []).append(i)
    return classes, missing_rows


def _oracle_k_anonymity(table, quasi_identifiers):
    classes, missing_rows = _oracle_classes(table, quasi_identifiers)
    sizes = sorted(len(v) for v in classes.values())
    return sizes[0], {"classes": len(classes),
                      "rows_with_missing_qi": missing_rows, "n": table.n}


def _oracle_l_diversity(table, quasi_identifiers, sensitive_column):
    classes, missing_rows = _oracle_classes(table, quasi_identifiers)
    j = table.column_index(sensitive_column)
    diversities = [len({None if table.missing_mask[i, j]
                        else str(table.rows[i][j]) for i in rows})
                   for rows in classes.values()]
    observed = {table.rows[i][j] for i in range(table.n)
                if not table.missing_mask[i, j]}
    return min(diversities), {"classes": len(classes),
                              "rows_with_missing_qi": missing_rows,
                              "distinct_sensitive_values": len(observed)}


def _oracle_t_closeness(table, quasi_identifiers, sensitive_column):
    classes, missing_rows = _oracle_classes(table, quasi_identifiers)
    j = table.column_index(sensitive_column)
    numeric = table.columns[j][1] == "numeric"
    diagnostics = {"classes": len(classes),
                   "rows_with_missing_qi": missing_rows,
                   "ground_distance": "range-normalized-transport" if numeric
                                      else "total-variation"}

    def present(rows):
        return [table.rows[i][j] for i in rows if not table.missing_mask[i, j]]

    everything = present(range(table.n))
    if not everything:
        raise EvaluationError(f"sensitive column {sensitive_column!r} "
                              "is entirely missing")
    if numeric:
        global_values = np.asarray(everything, dtype=np.float64)
        span = float(global_values.max() - global_values.min())
        if span == 0.0:
            return 0.0, {**diagnostics, "degenerate_global": True}
        worst = 0.0
        for rows in classes.values():
            values = present(rows)
            if values:
                worst = max(worst, w1_distance_1d(np.asarray(values),
                                                  global_values) / span)
        return min(1.0, worst), diagnostics
    global_counts = Counter(map(str, everything))
    if len(global_counts) == 1:
        return 0.0, {**diagnostics, "degenerate_global": True}
    global_dist = {k: c / len(everything) for k, c in global_counts.items()}
    worst = 0.0
    for rows in classes.values():
        values = [str(v) for v in present(rows)]
        if not values:
            continue
        local = {k: c / len(values) for k, c in Counter(values).items()}
        tv = 0.5 * sum(abs(local.get(k, 0.0) - global_dist.get(k, 0.0))
                       for k in sorted(local.keys() | global_dist.keys()))
        worst = max(worst, tv)
    return worst, diagnostics


def _outcome(metric, *args):
    try:
        return repr(metric(*args))
    except EvaluationError as exc:
        return f"EvaluationError({exc})"


# cell texts that a comma-joined or <U-array encoding would mangle
_TEXTS = ["a", "a,b", 'say "hi"', "x\x00", "x", "<missing>", ""]
_ORACLE_COLUMNS = [("qt", "text"), ("qn", "numeric"), ("qc", "categorical"),
                   ("st", "text"), ("sn", "numeric")]
_ORACLE_ROWS = st.lists(st.tuples(
    st.one_of(st.none(), st.sampled_from(_TEXTS)),
    st.one_of(st.none(), st.sampled_from([0.0, -0.0, 1.0])),
    st.one_of(st.none(), st.sampled_from(["p", "q"])),
    st.one_of(st.none(), st.sampled_from(_TEXTS)),
    st.one_of(st.none(), st.sampled_from([0.0, -0.0, 0.5, 3.25]))),
    min_size=1, max_size=30)
_SINGLE_CLASS = [("a,b", -0.0, "p", 'say "hi"', 0.5),
                 ("a,b", -0.0, "p", "x\x00", 3.25)]


@given(_ORACLE_ROWS,
       st.lists(st.sampled_from(["qt", "qn", "qc"]), min_size=1, max_size=3,
                unique=True),
       st.sampled_from(["st", "sn"]))
@example(_SINGLE_CLASS, ["qt", "qn", "qc"], "st")
@example(_SINGLE_CLASS, ["qn"], "sn")
@settings(max_examples=300, deadline=None)
def test_anonymity_equals_per_row_oracle(rows, quasi_identifiers, sensitive):
    table, raw = table_from(_ORACLE_COLUMNS, rows), RowTable(_ORACLE_COLUMNS,
                                                             rows)
    assert (_outcome(k_anonymity, table, quasi_identifiers)
            == _outcome(_oracle_k_anonymity, raw, quasi_identifiers))
    for metric, oracle in ((l_diversity, _oracle_l_diversity),
                           (t_closeness, _oracle_t_closeness)):
        assert (_outcome(metric, table, quasi_identifiers, sensitive)
                == _outcome(oracle, raw, quasi_identifiers, sensitive))


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

    def test_explicit_null_not_declared(self):
        cfg = config_from_dict({"metrics": ["k_anonymity"], "compliance": {
            "declared": {key: None for key in DECLARED_KEYS}}})
        assert declared_privacy_record(cfg) == {
            key: "not declared" for key in DECLARED_KEYS}
