"""Compliance metrics: privacy risk and declared standards adherence.

The anonymity family (k-anonymity, l-diversity, t-closeness) groups rows by
their joint quasi-identifier values; a missing quasi-identifier is a value
of its own, distinct from every cell text, and such rows are flagged. The
re-identification proxy flags synthetic rows that sit suspiciously close to
individual reference rows. Differential-privacy parameters are never
estimated from data: they pass through from the generator's declaration,
labeled as declared rather than verified.
"""

from __future__ import annotations

import numpy as np

from .config import DECLARED_KEYS
from .errors import EvaluationError
from .model import EmbeddingSet, RecordTable, check_dims
from .numerics import ball_query, kth_neighbor_distances, w1_distance_1d


def _equivalence_classes(table: RecordTable, quasi_identifiers: list[str]):
    """Class of every row (0..classes-1), the class count, and the number of
    rows with a missing quasi-identifier, which is a value of its own."""
    if not quasi_identifiers:
        raise EvaluationError("quasi-identifier list is empty")
    if table.n == 0:
        raise EvaluationError("anonymity metrics are undefined on an empty table")
    key = np.zeros(table.n, dtype=np.intp)
    for name in quasi_identifiers:
        codes, domain = table.codes(name)
        # mixed-radix key, re-coded after each column so it stays below n
        _, key = np.unique(key * (len(domain) + 1) + codes + 1,
                           return_inverse=True)
    missing = table.missing_mask[:, list(map(table.column_index,
                                             quasi_identifiers))]
    return key, int(key.max()) + 1, int(missing.any(axis=1).sum())


def k_anonymity(table: RecordTable, quasi_identifiers: list[str]):
    """Smallest equivalence-class size over joint quasi-identifier values."""
    key, classes, missing_rows = _equivalence_classes(table, quasi_identifiers)
    diagnostics = {"classes": classes, "rows_with_missing_qi": missing_rows,
                   "n": table.n}
    return int(np.bincount(key).min()), diagnostics


def l_diversity(table: RecordTable, quasi_identifiers: list[str],
                sensitive_column: str):
    """Minimum count of distinct sensitive values over equivalence classes
    (a missing sensitive value counts as one value)."""
    if sensitive_column not in table.column_names:
        raise EvaluationError(f"sensitive column {sensitive_column!r} missing")
    key, classes, missing_rows = _equivalence_classes(table, quasi_identifiers)
    codes, domain = table.codes(sensitive_column)
    radix = len(domain) + 1
    pairs = np.unique(key * radix + codes + 1)
    if table.kind(sensitive_column) == "numeric":
        # distinct values, where -0.0 and 0.0 are one
        values = table.floats(sensitive_column)
        distinct = len(np.unique(values[~np.isnan(values)]))
    else:
        distinct = len(domain)
    diagnostics = {"classes": classes,
                   "rows_with_missing_qi": missing_rows,
                   "distinct_sensitive_values": distinct}
    return int(np.bincount(pairs // radix).min()), diagnostics


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
    key, classes, missing_rows = _equivalence_classes(table, quasi_identifiers)
    numeric = table.kind(sensitive_column) == "numeric"
    diagnostics = {"classes": classes,
                   "rows_with_missing_qi": missing_rows,
                   "ground_distance": "range-normalized-transport" if numeric
                                      else "total-variation"}
    present = ~table.missing_mask[:, table.column_index(sensitive_column)]
    if not present.any():
        raise EvaluationError(f"sensitive column {sensitive_column!r} "
                              "is entirely missing")
    key = key[present]
    sizes = np.bincount(key, minlength=classes)

    if numeric:
        global_values = table.floats(sensitive_column)[present]
        span = float(global_values.max() - global_values.min())
        if span == 0.0:
            return 0.0, {**diagnostics, "degenerate_global": True}
        by_class = global_values[np.argsort(key, kind="stable")]
        worst = 0.0
        for values in np.split(by_class, np.cumsum(sizes)[:-1]):
            if values.size:
                worst = max(worst, w1_distance_1d(values, global_values) / span)
        return min(1.0, worst), diagnostics

    codes, domain = table.codes(sensitive_column)
    if len(domain) == 1:
        return 0.0, {**diagnostics, "degenerate_global": True}
    codes = codes[present]
    global_dist = np.bincount(codes, minlength=len(domain)) / codes.size
    pairs, counts = np.unique(codes * classes + key, return_counts=True)
    code, cls = np.divmod(pairs, classes)
    share = counts / sizes[cls]
    bounds = np.searchsorted(code, np.arange(len(domain) + 1))
    tv = np.zeros(classes)
    for k, g in enumerate(global_dist):  # key by key, in domain order
        local = np.zeros(classes)
        local[cls[bounds[k]:bounds[k + 1]]] = share[bounds[k]:bounds[k + 1]]
        tv += np.abs(local - g)
    return max(0.0, float(np.max(0.5 * tv[sizes > 0]))), diagnostics


def leakage_rate(real: EmbeddingSet, synthetic: EmbeddingSet,
                 tau: float | None = None):
    """Fraction of synthetic points whose nearest reference neighbor lies
    within ``tau`` (near-duplicate proxy for re-identification risk).

    Default tau: 1st percentile of reference-to-reference nearest-neighbor
    distances, self excluded.
    """
    check_dims(real, synthetic)
    if tau is None:
        if real.n < 2:
            raise EvaluationError("defaulting tau needs at least 2 reference "
                                  "rows")
        tau = float(np.percentile(kth_neighbor_distances(real.data, 1), 1.0))
    (smallest,), _ = ball_query(synthetic.data, real.data,
                                np.full((1, real.n), tau))
    hits = smallest <= tau
    return float(hits.mean()), {"tau": float(tau), "hits": int(hits.sum())}


def declared_privacy_record(config) -> dict:
    """Card entries for generator-declared privacy parameters, one per
    ``config.DECLARED_KEYS`` key; an absent or null key is "not declared".

    Pass-through only: differential-privacy guarantees are properties of the
    generating mechanism, so they are reported as declared, never verified.
    """
    declared = config.declared_privacy or {}
    record = {}
    for key in DECLARED_KEYS:
        value = declared.get(key)
        if value is None:
            record[key] = "not declared"
        elif key in ("epsilon", "delta"):
            record[key] = f"{value} (declared, not verified)"
        else:
            record[key] = value
    return record
