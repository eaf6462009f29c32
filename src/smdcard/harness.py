"""Deterministic fixtures and defect injection.

Each defect kind mirrors a concrete way synthetic datasets go wrong (a lost
mode, memorized rows, out-of-range values, dropped fields, missing cells,
one degraded subgroup) and attaches a ground-truth descriptor with the
expected measurable effect, so directional tests can assert inequalities
instead of fuzzy trends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError
from .model import EmbeddingSet, RecordTable


def make_gaussian_mixture(n: int, d: int, modes: list[dict],
                          seed: int = 0) -> EmbeddingSet:
    """Seeded sample from a Gaussian mixture; mode labels become subgroups.

    Each mode is {"mean": scalar or length-d list, "scale": s, "weight": w};
    weights are normalized internally and row counts apportioned by largest
    remainder so the label partition is exact and reproducible.
    """
    if n < 1 or d < 1 or not modes:
        raise EvaluationError("mixture needs n >= 1, d >= 1 and at least one mode")
    weights = np.asarray([float(m.get("weight", 1.0)) for m in modes])
    if np.any(weights <= 0):
        raise EvaluationError("mode weights must be positive")
    weights = weights / weights.sum()

    raw = weights * n
    counts = np.floor(raw).astype(int)
    remainder = n - counts.sum()
    order = np.argsort(-(raw - counts), kind="stable")
    for i in range(remainder):
        counts[order[i % len(modes)]] += 1

    rng = np.random.default_rng(seed)
    blocks = []
    labels = []
    for m_idx, (mode, count) in enumerate(zip(modes, counts)):
        mean = mode.get("mean", 0.0)
        mean_vec = (np.full(d, float(mean)) if np.isscalar(mean)
                    else np.asarray(mean, dtype=np.float64))
        if mean_vec.shape != (d,):
            raise EvaluationError(f"mode {m_idx}: mean must be scalar or "
                                  f"length {d}")
        scale = float(mode.get("scale", 1.0))
        blocks.append(rng.normal(loc=mean_vec, scale=scale, size=(count, d)))
        labels += [f"mode{m_idx}"] * count
    data = np.vstack(blocks)
    ids = tuple(f"r{i:05d}" for i in range(n))
    return EmbeddingSet(ids=ids, data=data, subgroup=tuple(labels))


def make_record_table(n: int, seed: int = 0,
                      numeric_fields: dict[str, tuple[float, float]] | None = None,
                      categorical_fields: dict[str, list[str]] | None = None
                      ) -> RecordTable:
    """Fully populated random table (uniform numerics, uniform categories)."""
    numeric_fields = numeric_fields or {"age": (20.0, 80.0),
                                        "hgb": (10.0, 17.0)}
    categorical_fields = categorical_fields or {"sex": ["F", "M"]}
    rng = np.random.default_rng(seed)
    columns = ([(name, "numeric") for name in numeric_fields]
               + [(name, "categorical") for name in categorical_fields])
    rows = []
    for _ in range(n):  # row by row: the draw order fixes the fixtures
        row = [float(rng.uniform(lo, hi))
               for lo, hi in numeric_fields.values()]
        row += [values[int(rng.integers(len(values)))]
                for values in categorical_fields.values()]
        rows.append(row)
    return RecordTable(tuple(columns), list(zip(*rows)) or [()] * len(columns))


@dataclass(frozen=True)
class DefectResult:
    dataset: "EmbeddingSet | RecordTable"
    descriptor: dict


def inject_defect(source, kind: str, seed: int = 0, **params) -> DefectResult:
    """Produce a defective synthetic dataset from a pristine source, with
    the parameters ``DEFECTS`` gives the kind. The returned descriptor
    records the defect and its expected measurable effect."""
    if kind not in DEFECTS:
        raise EvaluationError(f"unknown defect kind {kind!r}")
    handler, fixture, _ = DEFECTS[kind]
    applies_to, sets = ((RecordTable, "record tables") if fixture == "table"
                        else (EmbeddingSet, "embedding sets"))
    if not isinstance(source, applies_to):
        raise EvaluationError(f"defect {kind!r} applies to {sets}")
    return handler(source, seed, **params)


def _synthetic_ids(n: int) -> tuple[str, ...]:
    return tuple(f"s{i:05d}" for i in range(n))


def _mode_drop(real, seed, mode: str) -> DefectResult:
    del seed
    if real.subgroup is None or mode not in set(real.subgroup):
        raise EvaluationError(f"no mode labeled {mode!r} in the source")
    keep = [i for i, label in enumerate(real.subgroup) if label != mode]
    if not keep:
        raise EvaluationError("mode_drop would remove every row")
    kept = real.subset(keep)
    synthetic = EmbeddingSet(ids=_synthetic_ids(len(keep)), data=kept.data,
                             subgroup=kept.subgroup, region=kept.region)
    return DefectResult(synthetic, {
        "kind": "mode_drop", "mode": mode,
        "expected": {"dropped_rows": real.n - len(keep),
                     "effect": "recall and coverage drop below the "
                               "no-defect baseline"}})


def _duplicate_real(real, seed, fraction: float) -> DefectResult:
    if not (0.0 < fraction <= 1.0):
        raise EvaluationError("duplicate fraction must be in (0, 1]")
    n = real.n
    n_copy = math.ceil(fraction * n)
    rng = np.random.default_rng(seed)
    copy_rows = rng.choice(n, size=n_copy, replace=False)
    copy_rows.sort()
    span = float(np.max(np.abs(real.data))) + 1.0
    offset = 10.0 * span
    data = real.data.copy()
    rest = np.setdiff1d(np.arange(n), copy_rows)
    data[rest] = data[rest] + offset  # far from every reference ball
    synthetic = EmbeddingSet(ids=_synthetic_ids(n), data=data,
                             subgroup=real.subgroup, region=real.region)
    return DefectResult(synthetic, {
        "kind": "duplicate_real", "fraction": fraction,
        "expected": {"copied_rows": int(n_copy),
                     "effect": f"leakage rate at least {fraction}"}})


def _out_of_range(table, seed, field: str, fraction: float,
                  magnitude: float) -> DefectResult:
    if field not in table.column_names or table.kind(field) != "numeric":
        raise EvaluationError(f"out_of_range needs a numeric field, got "
                              f"{field!r}")
    if not (0.0 < fraction <= 1.0):
        raise EvaluationError("out_of_range fraction must be in (0, 1]")
    if magnitude <= 0:
        raise EvaluationError("out_of_range magnitude must be positive")
    values = table.floats(field).copy()
    populated = np.flatnonzero(~np.isnan(values))
    if not populated.size:
        raise EvaluationError(f"out_of_range field {field!r} has no "
                              "populated cell")
    n_bad = math.ceil(fraction * populated.size)
    rng = np.random.default_rng(seed)
    bad_rows = populated[rng.choice(populated.size, size=n_bad, replace=False)]
    values[bad_rows] = values[populated].max() + magnitude
    defective = RecordTable(table.columns, [
        values if name == field else table.column(name)
        for name in table.column_names])
    return DefectResult(defective, {
        "kind": "out_of_range", "field": field, "fraction": fraction,
        "magnitude": magnitude,
        "expected": {"violating_rows": int(n_bad),
                     "effect": "violation rate at least fraction - 1/n; "
                               "violation magnitude above zero"}})


def _delete_field(table, seed, name: str) -> DefectResult:
    del seed
    if name not in table.column_names:
        raise EvaluationError(f"no field named {name!r}")
    kept = [column for column in table.columns if column[0] != name]
    defective = RecordTable(kept, [table.column(other) for other, _ in kept])
    return DefectResult(defective, {
        "kind": "delete_field", "field": name,
        "expected": {"effect": "required-field proportion drops"}})


def _mask_cells(table, seed, fraction: float) -> DefectResult:
    if not (0.0 < fraction <= 1.0):
        raise EvaluationError("mask fraction must be in (0, 1]")
    total = table.n * table.m
    n_mask = round(fraction * total)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(total, size=n_mask, replace=False)
    mask = np.isin(np.arange(total), chosen).reshape(table.n, table.m)
    defective = RecordTable(table.columns, [
        np.where(mask[:, j], None, np.array(table.column(name), dtype=object))
        for j, name in enumerate(table.column_names)])
    return DefectResult(defective, {
        "kind": "mask_cells", "fraction": fraction,
        "expected": {"masked_cells": int(n_mask),
                     "effect": f"missing percentage within 1/(n*m) of "
                               f"{fraction}"}})


def _subgroup_skew(real, seed, subgroup: str,
                   noise_scale: float) -> DefectResult:
    if real.subgroup is None or subgroup not in set(real.subgroup):
        raise EvaluationError(f"no subgroup labeled {subgroup!r} in the source")
    if noise_scale <= 0:
        raise EvaluationError("noise scale must be positive")
    rng = np.random.default_rng(seed)
    data = real.data.copy()
    rows = [i for i, label in enumerate(real.subgroup) if label == subgroup]
    data[rows] = data[rows] + rng.normal(scale=noise_scale,
                                         size=(len(rows), real.d))
    synthetic = EmbeddingSet(ids=_synthetic_ids(real.n), data=data,
                             subgroup=real.subgroup, region=real.region)
    return DefectResult(synthetic, {
        "kind": "subgroup_skew", "subgroup": subgroup,
        "noise_scale": noise_scale,
        "expected": {"skewed_rows": len(rows),
                     "effect": "consistency max-min difference rises for "
                               "the affected base metric"}})


#: kind -> (handler, the fixture it applies to, its parameters and their
#: types); every kind takes a seed as well.
DEFECTS = {
    "mode_drop": (_mode_drop, "embedding", {"mode": str}),
    "duplicate_real": (_duplicate_real, "embedding", {"fraction": float}),
    "out_of_range": (_out_of_range, "table", {
        "field": str, "fraction": float, "magnitude": float}),
    "delete_field": (_delete_field, "table", {"name": str}),
    "mask_cells": (_mask_cells, "table", {"fraction": float}),
    "subgroup_skew": (_subgroup_skew, "embedding", {
        "subgroup": str, "noise_scale": float}),
}
