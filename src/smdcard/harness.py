"""Deterministic fixtures and defect injection.

Each defect kind mirrors a concrete way synthetic datasets go wrong (a lost
mode, memorized rows, out-of-range values, dropped fields, missing cells,
one degraded subgroup) and attaches a ground-truth descriptor with the
expected measurable effect, so directional tests can assert inequalities
instead of fuzzy trends. Each function checks every value before it draws
and names the value's key: ``modes[0].weight must be above 0, got -1``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError
from .model import EmbeddingSet, RecordTable

_TYPES = {int: numbers.Integral, float: numbers.Real, list: (list, tuple)}
_RULES = {"at least 0": lambda v: v >= 0, "at least 1": lambda v: v >= 1,
          "above 0": lambda v: v > 0, "in (0, 1]": lambda v: 0 < v <= 1}


def _fail(key: str, rule: str, value):
    raise EvaluationError(f"{key} must be {rule}, got {value!r}")


def check(key: str, value, kind: type, rule: str | None = None):
    """``value`` if it is a ``kind`` (a float may be an int and must be
    finite, a list may be a tuple; a bool is no number) keeping ``rule``."""
    if (not isinstance(value, _TYPES.get(kind, kind))
            or isinstance(value, bool)):
        _fail(key, kind.__name__, value)
    if kind is float and not -math.inf < value < math.inf:
        _fail(key, "finite", value)
    if rule is not None and not _RULES[rule](value):
        _fail(key, rule, value)
    return value


def check_keys(key: str, value, keys) -> dict:
    """``value`` if it is a mapping whose keys are all among ``keys``."""
    for name in check(key, value, dict):
        if name not in keys:
            raise EvaluationError(f"{key}.{name} is not a recipe key "
                                  f"({', '.join(keys)})")
    return value


def make_gaussian_mixture(n: int = 200, d: int = 8,
                          modes: list[dict] = ({},),
                          seed: int = 0) -> EmbeddingSet:
    """Seeded sample from a Gaussian mixture; mode labels become subgroups.

    Each mode is {"mean": scalar or length-d list, "scale": s, "weight": w};
    weights are normalized internally and row counts apportioned by largest
    remainder so the label partition is exact and reproducible.
    """
    check("n", n, int, "at least 1")
    check("d", d, int, "at least 1")
    check("seed", seed, int, "at least 0")
    if not check("modes", modes, list):
        _fail("modes", "a non-empty list", modes)
    for i, mode in enumerate(modes):
        key = f"modes[{i}]"
        mean = check_keys(key, mode, ("mean", "scale", "weight")).get(
            "mean", 0.0)
        means = mean if isinstance(mean, (list, tuple)) else [mean] * d
        if len(means) != d:
            _fail(f"{key}.mean", f"a number or a list of {d} numbers", mean)
        for x in means:
            check(f"{key}.mean", x, float)
        check(f"{key}.scale", mode.get("scale", 1.0), float, "at least 0")
        check(f"{key}.weight", mode.get("weight", 1.0), float, "above 0")
    weights = np.asarray([float(m.get("weight", 1.0)) for m in modes])
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
        scale = float(mode.get("scale", 1.0))
        blocks.append(rng.normal(loc=mean_vec, scale=scale, size=(count, d)))
        labels += [f"mode{m_idx}"] * count
    data = np.vstack(blocks)
    ids = tuple(f"r{i:05d}" for i in range(n))
    return EmbeddingSet(ids=ids, data=data, subgroup=tuple(labels))


def _fields(key: str, value, default: dict) -> dict:
    """``value``, a mapping, or ``default`` where it is None or empty."""
    if value is None or (isinstance(value, dict) and not value):
        return default
    return check(key, value, dict)


def make_record_table(n: int = 50, seed: int = 0,
                      numeric_fields: dict[str, tuple[float, float]] | None = None,
                      categorical_fields: dict[str, list[str]] | None = None
                      ) -> RecordTable:
    """Fully populated random table (uniform numerics, uniform categories)."""
    check("n", n, int, "at least 1")
    check("seed", seed, int, "at least 0")
    numeric_fields = _fields("numeric_fields", numeric_fields, {
        "age": (20.0, 80.0), "hgb": (10.0, 17.0)})
    categorical_fields = _fields("categorical_fields", categorical_fields,
                                 {"sex": ["F", "M"]})
    for name, pair in numeric_fields.items():
        key = f"numeric_fields.{name}"
        bounds = [check(key, x, float) for x in check(key, pair, list)]
        if len(bounds) != 2 or bounds[0] > bounds[1]:
            _fail(key, "a [low, high] pair with low <= high", pair)
        if bounds[1] - bounds[0] == math.inf:
            _fail(key, "a [low, high] pair of finite width", pair)
    for name, values in categorical_fields.items():
        key = f"categorical_fields.{name}"
        if not check(key, values, list):
            _fail(key, "a non-empty list", values)
        if name in numeric_fields:
            raise EvaluationError(f"{key} is also a numeric field")
    categorical_fields = {name: [str(x) for x in values]
                          for name, values in categorical_fields.items()}
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
    table = defect_fixture(kind) == "table"
    if not isinstance(source, RecordTable if table else EmbeddingSet):
        sets = "record tables" if table else "embedding sets"
        raise EvaluationError(f"defect {kind!r} applies to {sets}")
    check("seed", seed, int, "at least 0")
    handler, _, spec = DEFECTS[kind]
    for key in {**spec, **params}:
        if key not in spec:
            raise EvaluationError(f"{key} is not a parameter of defect "
                                  f"{kind!r}")
        check(key, params.get(key), *spec[key])
    return handler(source, seed, **params)


def defect_fixture(kind) -> str:
    """The fixture (``"embedding"`` or ``"table"``) ``kind`` applies to."""
    if not isinstance(kind, str) or kind not in DEFECTS:
        _fail("kind", f"a defect kind ({', '.join(DEFECTS)})", kind)
    return DEFECTS[kind][1]


def _synthetic_ids(n: int) -> tuple[str, ...]:
    return tuple(f"s{i:05d}" for i in range(n))


def _mode_drop(real, seed, mode: str) -> DefectResult:
    del seed
    if real.subgroup is None or mode not in set(real.subgroup):
        _fail("mode", "a mode label of the source", mode)
    keep = [i for i, label in enumerate(real.subgroup) if label != mode]
    if not keep:
        _fail("mode", "one of two or more modes of the source", mode)
    kept = real.subset(keep)
    synthetic = EmbeddingSet(ids=_synthetic_ids(len(keep)), data=kept.data,
                             subgroup=kept.subgroup, region=kept.region)
    return DefectResult(synthetic, {
        "kind": "mode_drop", "mode": mode,
        "expected": {"dropped_rows": real.n - len(keep),
                     "effect": "recall and coverage drop below the "
                               "no-defect baseline"}})


def _duplicate_real(real, seed, fraction: float) -> DefectResult:
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
        _fail("field", "a numeric field of the source", field)
    values = table.floats(field).copy()
    populated = np.flatnonzero(~np.isnan(values))
    if not populated.size:
        _fail("field", "a field with a populated cell", field)
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
        _fail("name", "a field of the source", name)
    if table.m == 1:
        _fail("name", "one of two or more fields of the source", name)
    kept = [column for column in table.columns if column[0] != name]
    defective = RecordTable(kept, [table.column(other) for other, _ in kept])
    return DefectResult(defective, {
        "kind": "delete_field", "field": name,
        "expected": {"effect": "required-field proportion drops"}})


def _mask_cells(table, seed, fraction: float) -> DefectResult:
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
        _fail("subgroup", "a subgroup label of the source", subgroup)
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


_FRACTION, _POSITIVE = (float, "in (0, 1]"), (float, "above 0")
#: kind -> (handler, the fixture it applies to, its parameters, each with
#: the ``check`` arguments it must pass); every kind takes a seed as well.
DEFECTS = {
    "mode_drop": (_mode_drop, "embedding", {"mode": (str,)}),
    "duplicate_real": (_duplicate_real, "embedding", {"fraction": _FRACTION}),
    "out_of_range": (_out_of_range, "table", {
        "field": (str,), "fraction": _FRACTION, "magnitude": _POSITIVE}),
    "delete_field": (_delete_field, "table", {"name": (str,)}),
    "mask_cells": (_mask_cells, "table", {"fraction": _FRACTION}),
    "subgroup_skew": (_subgroup_skew, "embedding", {
        "subgroup": (str,), "noise_scale": _POSITIVE}),
}

#: fixture recipe section -> (the function that builds it, its file name)
FIXTURES = {"embedding": (make_gaussian_mixture, "real.csv"),
            "table": (make_record_table, "real_table.csv")}
