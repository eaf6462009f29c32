"""Compliance metrics: privacy risk and declared standards adherence.

The anonymity family (k-anonymity, l-diversity, t-closeness) groups rows by
their joint quasi-identifier values; rows with missing quasi-identifier
values group under an explicit missing marker and are flagged. The
re-identification proxy flags synthetic rows that sit suspiciously close to
individual reference rows. Differential-privacy parameters are never
estimated from data: they pass through from the generator's declaration,
labeled as declared rather than verified.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .errors import EvaluationError
from .model import EmbeddingSet, RecordTable
from .numerics import ball_query, kth_neighbor_distance, w1_distance_1d

_MISSING = "<missing>"


def _equivalence_classes(table: RecordTable, quasi_identifiers: list[str]):
    if not quasi_identifiers:
        raise EvaluationError("quasi-identifier list is empty")
    if table.n == 0:
        raise EvaluationError("anonymity metrics are undefined on an empty table")
    idx = [table.column_index(q) for q in quasi_identifiers]
    classes: dict[tuple, list[int]] = {}
    missing_rows = 0
    for i, row in enumerate(table.rows):
        key = []
        for j in idx:
            if table.missing_mask[i, j]:
                key.append(_MISSING)
            else:
                key.append(str(row[j]))
        if _MISSING in key:
            missing_rows += 1
        classes.setdefault(tuple(key), []).append(i)
    return classes, missing_rows


def k_anonymity(table: RecordTable, quasi_identifiers: list[str]):
    """Smallest equivalence-class size over joint quasi-identifier values."""
    classes, missing_rows = _equivalence_classes(table, quasi_identifiers)
    sizes = sorted(len(v) for v in classes.values())
    diagnostics = {"classes": len(classes), "rows_with_missing_qi": missing_rows,
                   "n": table.n}
    return sizes[0], diagnostics


def l_diversity(table: RecordTable, quasi_identifiers: list[str],
                sensitive_column: str):
    """Minimum count of distinct sensitive values over equivalence classes."""
    if sensitive_column not in table.column_names:
        raise EvaluationError(f"sensitive column {sensitive_column!r} missing")
    classes, missing_rows = _equivalence_classes(table, quasi_identifiers)
    j = table.column_index(sensitive_column)
    diversities = []
    for rows in classes.values():
        values = {str(table.rows[i][j]) if not table.missing_mask[i, j]
                  else _MISSING for i in rows}
        diversities.append(len(values))
    diagnostics = {"classes": len(classes),
                   "rows_with_missing_qi": missing_rows,
                   "distinct_sensitive_values":
                       len(table.observed_domain(sensitive_column))}
    return min(diversities), diagnostics


def t_closeness(table: RecordTable, quasi_identifiers: list[str],
                sensitive_column: str):
    """Largest distance between a class's sensitive-value distribution and
    the global one.

    Categorical sensitive columns use total variation distance; numeric ones
    use the 1-D transport distance normalized by the observed global range.
    0 means every class mirrors the global distribution.
    """
    if sensitive_column not in table.column_names:
        raise EvaluationError(f"sensitive column {sensitive_column!r} missing")
    classes, missing_rows = _equivalence_classes(table, quasi_identifiers)
    j = table.column_index(sensitive_column)
    numeric = table.kind(sensitive_column) == "numeric"
    diagnostics = {"classes": len(classes),
                   "rows_with_missing_qi": missing_rows,
                   "ground_distance": "range-normalized-transport" if numeric
                                      else "total-variation"}

    if numeric:
        global_values = table.numeric_values(sensitive_column)
        if global_values.size == 0:
            raise EvaluationError(f"sensitive column {sensitive_column!r} "
                                  "is entirely missing")
        span = float(global_values.max() - global_values.min())
        if span == 0.0:
            return 0.0, {**diagnostics, "degenerate_global": True}
        worst = 0.0
        for rows in classes.values():
            values = np.asarray([float(table.rows[i][j]) for i in rows
                                 if not table.missing_mask[i, j]])
            if values.size == 0:
                continue
            worst = max(worst, w1_distance_1d(values, global_values) / span)
        return min(1.0, worst), diagnostics

    global_counts = Counter(str(table.rows[i][j]) for i in range(table.n)
                            if not table.missing_mask[i, j])
    observed = sum(global_counts.values())
    if observed == 0:
        raise EvaluationError(f"sensitive column {sensitive_column!r} "
                              "is entirely missing")
    if len(global_counts) == 1:
        return 0.0, {**diagnostics, "degenerate_global": True}
    global_dist = {k: c / observed for k, c in global_counts.items()}
    worst = 0.0
    for rows in classes.values():
        present = [str(table.rows[i][j]) for i in rows
                   if not table.missing_mask[i, j]]
        if not present:
            continue
        local = {k: c / len(present) for k, c in Counter(present).items()}
        tv = 0.5 * sum(abs(local.get(k, 0.0) - global_dist.get(k, 0.0))
                       for k in sorted(local.keys() | global_dist.keys()))
        worst = max(worst, tv)
    return worst, diagnostics


def leakage_rate(real: EmbeddingSet, synthetic: EmbeddingSet,
                 tau: float | None = None):
    """Fraction of synthetic points whose nearest reference neighbor lies
    within ``tau`` (near-duplicate proxy for re-identification risk).

    Default tau: 1st percentile of reference-to-reference nearest-neighbor
    distances, self excluded.
    """
    if real.d != synthetic.d:
        raise EvaluationError(f"dimension mismatch: real d={real.d}, "
                              f"synthetic d={synthetic.d}")
    if tau is None:
        if real.n < 2:
            raise EvaluationError("defaulting tau needs at least 2 reference "
                                  "rows")
        tau = float(np.percentile(kth_neighbor_distance(real.data, 1), 1.0))
    smallest, _ = ball_query(synthetic.data, real.data, np.full(real.n, tau))
    hits = smallest <= tau
    return float(hits.mean()), {"tau": float(tau), "hits": int(hits.sum())}


def declared_privacy_record(config) -> dict:
    """Card entries for generator-declared privacy parameters.

    Pass-through only: differential-privacy guarantees are properties of the
    generating mechanism, so they are reported as declared, never verified.
    """
    declared = dict(config.declared_privacy or {})
    record = {}
    for key in ("epsilon", "delta"):
        value = declared.get(key)
        record[key] = (f"{value} (declared, not verified)"
                       if value is not None else "not declared")
    record["anonymization_method"] = declared.get("anonymization_method",
                                                  "not declared")
    record["format_standard"] = declared.get("format_standard", "not declared")
    return record
