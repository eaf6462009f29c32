"""Evaluation configuration: the declarative plan a run executes.

Configs are written as YAML (JSON works too). Parsing is strict: unknown
keys are rejected so a typo cannot silently drop part of the plan.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass

from . import catalog
from .aggregate import DEFAULT_THRESHOLDS
from .constraint import (ConstraintRule, ConstraintRuleSet, parse_number,
                         rule_from_dict, rule_to_dict)
from .documents import dumps_canonical
from .errors import ConfigError

SEED_ENV_VAR = "SMDCARD_SEED"

AGGREGATION_MODES = ("arithmetic", "geometric")

@dataclass(frozen=True)
class DeriveSpec:
    fields: tuple[str, ...]
    quantile_margin: float


@dataclass(frozen=True)
class EvalConfig:
    """A parsed config; ``config_from_dict`` builds it and states every default."""

    metrics: tuple[str, ...]
    params: dict  # metric -> {key: parsed value}, only values off default
    id_column: str
    subgroup_column: str | None
    region_column: str | None
    table_schema: dict | None
    missing_sentinel: str
    real_table_path: str | None
    quasi_identifiers: tuple[str, ...]
    sensitive_column: str | None
    declared_privacy: dict
    constraint_rules: tuple[ConstraintRule, ...]
    constraint_derive: DeriveSpec | None
    required_fields: tuple[str, ...] | str | None  # tuple, "auto", or None
    populated_threshold: float
    bounds: dict
    weights: dict
    thresholds: dict
    aggregation: str
    seed: int | None
    pca_dim: int | None
    consistency_base: tuple[str, ...] | None
    bootstrap_replicates: int

    def param(self, metric: str, key: str):
        """A metric parameter's parsed value (an int, float or string of the
        kind its catalog row allows), else its default."""
        return self.params.get(metric, {}).get(
            key, catalog.descriptor(metric).default(key))

    def weight(self, metric: str) -> float:
        return float(self.weights.get(metric, 1.0))

    def effective_seed(self) -> int:
        if self.seed is not None:
            return self.seed
        env = os.environ.get(SEED_ENV_VAR)
        return 0 if env is None else _check(env, None, 0, SEED_ENV_VAR)


#: Top-level keys that each set the ``EvalConfig`` field of the same name.
_TOP_LEVEL_FIELDS = ("aggregation", "bounds", "metrics", "params", "seed",
                     "thresholds", "weights")

#: Config sections: each section's keys and the ``EvalConfig`` field each sets.
_SECTIONS = {
    "columns": {"id": "id_column", "subgroup": "subgroup_column",
                "region": "region_column"},
    "tables": {"real": "real_table_path", "schema": "table_schema",
               "missing_sentinel": "missing_sentinel"},
    "compliance": {"quasi_identifiers": "quasi_identifiers",
                   "sensitive_column": "sensitive_column",
                   "declared": "declared_privacy"},
    "constraints": {"rules": "constraint_rules", "derive": "constraint_derive"},
    "completeness": {"required_fields": "required_fields",
                     "populated_threshold": "populated_threshold"},
    "pca": {"target_dim": "pca_dim"},
    "consistency": {"base_metrics": "consistency_base",
                    "bootstrap_replicates": "bootstrap_replicates"},
}

DECLARED_KEYS = ("epsilon", "delta", "anonymization_method", "format_standard")


def _require_mapping(value, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping")
    return value


def _reject_unknown(mapping: dict, allowed, where: str) -> None:
    unknown = sorted(set(mapping).difference(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} under {where}")


def _section(raw: dict, name: str) -> dict:
    section = _require_mapping(raw.get(name), name)
    _reject_unknown(section, _SECTIONS[name], name)
    return section


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list")
    return value


def _names(value, where: str) -> tuple[str, ...]:
    return tuple(str(v) for v in _list(value, where))


def _name(section: dict, key: str, where: str, default: str) -> str:
    """A column name, or ``default`` when unset."""
    value = section.get(key, default)
    if not isinstance(value, str):
        raise ConfigError(f"{where}.{key} must be a name, got {value!r}")
    return value


def _optional_name(section: dict, key: str, where: str) -> str | None:
    """A column or file name, or None when unset."""
    value = section.get(key)
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{where}.{key} must be a name, got {value!r}")
    return value


def _sentinel(tables: dict) -> str:
    """The text of a missing cell: a string, or a number as ``str`` writes
    it. Cells are compared after stripping, so a sentinel with surrounding
    whitespace could never match one."""
    value = tables.get("missing_sentinel", "")
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError("tables.missing_sentinel must be a string or a "
                          f"number, got {value!r}")
    value = str(value)
    if value != value.strip():
        raise ConfigError("tables.missing_sentinel must not start or end "
                          f"with whitespace, got {value!r}")
    return value


def _scalars(mapping: dict, where: str) -> dict:
    """Reject nested values: the digest would sort a nested mapping."""
    for key, value in mapping.items():
        if isinstance(value, (dict, list)):
            raise ConfigError(f"{where}.{key} must be a single value")
    return dict(mapping)


def _check(value, default, allowed, where: str):
    """``value`` checked against ``allowed`` the way a metric parameter's
    catalog row states it (see ``catalog``)."""
    if value is None and default is None:
        return None
    if allowed is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a string, got {value!r}")
        return value
    if isinstance(allowed, tuple):
        if isinstance(allowed[0], int):
            value = parse_number(value, where, int)
        if value not in allowed:
            raise ConfigError(f"{where} must be one of {list(allowed)}, "
                              f"got {value!r}")
        return value
    value = parse_number(value, where, type(allowed))
    if value < allowed:
        raise ConfigError(f"{where} must be at least {allowed}, got {value!r}")
    return value


def config_from_dict(raw: dict) -> EvalConfig:
    raw = _require_mapping(raw, "config")
    _reject_unknown(raw, {*_TOP_LEVEL_FIELDS, *_SECTIONS}, "config")

    metrics_raw = raw.get("metrics")
    if not metrics_raw or not isinstance(metrics_raw, list):
        raise ConfigError("config must list at least one metric under metrics:")
    metrics = []
    for entry in metrics_raw:
        if not isinstance(entry, str):
            raise ConfigError(f"metric entries must be names, got {entry!r}")
        desc = catalog.descriptor(entry)
        if not desc.computable:
            raise ConfigError(
                f"metric {entry!r} is declaration-only; record it under "
                "compliance.declared instead of selecting it", code="E201")
        if entry in metrics:
            raise ConfigError(f"metric {entry!r} selected twice")
        metrics.append(entry)

    params = {}
    for name, given in _require_mapping(raw.get("params"), "params").items():
        rows = catalog.descriptor(name).params
        given = _require_mapping(given, f"params.{name}")
        _reject_unknown(given, [key for key, _, _ in rows], f"params.{name}")
        checked = {}
        for key, default, allowed in rows:
            checked[key] = value = _check(given.get(key, default), default,
                                          allowed, f"params.{name}.{key}")
            if value != default:  # a default sets nothing, so digests as unset
                params.setdefault(name, {})[key] = value
        # the RBF width means nothing to another kernel, so setting it
        # there would change the digest and not the value
        if checked.get("gamma") is not None and checked["kernel"] != "rbf":
            raise ConfigError(f"params.{name}.gamma applies only with kernel: "
                              f"rbf, not {checked['kernel']!r}")

    columns = _section(raw, "columns")

    tables = _section(raw, "tables")
    schema = tables.get("schema")
    if schema is not None:
        schema = _require_mapping(schema, "tables.schema")
        for col, kind in schema.items():
            if kind not in ("numeric", "categorical", "text"):
                raise ConfigError(f"tables.schema.{col}: unknown kind {kind!r}")

    compliance = _section(raw, "compliance")
    declared = _require_mapping(compliance.get("declared"), "compliance.declared")
    _reject_unknown(declared, DECLARED_KEYS, "compliance.declared")

    constraints = _section(raw, "constraints")
    rules = tuple(rule_from_dict(r) for r in
                  _list(constraints.get("rules") or [], "constraints.rules"))
    ConstraintRuleSet(rules)  # id uniqueness
    derive = None
    if constraints.get("derive") is not None:
        d = _require_mapping(constraints["derive"], "constraints.derive")
        _reject_unknown(d, DeriveSpec.__dataclass_fields__, "constraints.derive")
        if not d.get("fields"):
            raise ConfigError("constraints.derive needs a fields: list")
        derive = DeriveSpec(
            fields=_names(d["fields"], "constraints.derive.fields"),
            quantile_margin=parse_number(d.get("quantile_margin", 0.0),
                                         "constraints.derive.quantile_margin"))

    completeness = _section(raw, "completeness")
    required = completeness.get("required_fields")
    if required is not None and required != "auto":
        if not isinstance(required, list) or not required:
            raise ConfigError("completeness.required_fields must be a non-empty "
                              "list or \"auto\"")
        required = tuple(str(f) for f in required)
    populated_threshold = parse_number(
        completeness.get("populated_threshold", 1.0),
        "completeness.populated_threshold")
    if not (0.0 < populated_threshold <= 1.0):
        raise ConfigError("completeness.populated_threshold must be in (0, 1]")

    bounds = {}
    for name, pair in _require_mapping(raw.get("bounds"), "bounds").items():
        catalog.descriptor(name)
        if (not isinstance(pair, (list, tuple))) or len(pair) != 2:
            raise ConfigError(f"bounds.{name} must be a [lo, hi] pair")
        lo, hi = (parse_number(v, f"bounds.{name}") for v in pair)
        if not lo < hi:
            raise ConfigError(f"bounds.{name}: lo must be strictly below hi")
        bounds[name] = (lo, hi)

    weights = {}
    for name, w in _require_mapping(raw.get("weights"), "weights").items():
        catalog.descriptor(name)
        w = parse_number(w, f"weights.{name}")
        if w < 0:
            raise ConfigError(f"weights.{name} must be nonnegative")
        weights[name] = w

    thresholds = dict(DEFAULT_THRESHOLDS)
    thresholds_raw = _require_mapping(raw.get("thresholds"), "thresholds")
    _reject_unknown(thresholds_raw, DEFAULT_THRESHOLDS, "thresholds")
    thresholds.update({k: parse_number(v, f"thresholds.{k}")
                       for k, v in thresholds_raw.items()})
    if not thresholds["good"] > thresholds["moderate"]:
        raise ConfigError("thresholds not ordered: good must exceed moderate",
                          code="E202")

    aggregation = raw.get("aggregation", "arithmetic")
    if aggregation not in AGGREGATION_MODES:
        raise ConfigError(f"aggregation must be one of {AGGREGATION_MODES}")

    seed = _check(raw.get("seed"), None, 0, "seed")  # generators reject < 0

    pca_dim = _check(_section(raw, "pca").get("target_dim"), None, 1,
                     "pca.target_dim")

    consistency = _section(raw, "consistency")
    base = consistency.get("base_metrics")
    if base is not None:
        base = _names(base, "consistency.base_metrics")
        if not base:
            raise ConfigError("consistency.base_metrics must not be empty")
        for i, b in enumerate(base):
            catalog.descriptor(b)
            if b in base[:i]:
                raise ConfigError(f"consistency.base_metrics lists {b!r} "
                                  "twice")
    replicates = _check(consistency.get("bootstrap_replicates", 200), 200, 2,
                        "consistency.bootstrap_replicates")

    # weights: at least one positive weight per selected criterion
    selected_by_criterion: dict[str, list[str]] = {}
    for name in metrics:
        selected_by_criterion.setdefault(catalog.descriptor(name).criterion,
                                         []).append(name)
    for criterion, names in selected_by_criterion.items():
        if all(weights.get(n, 1.0) == 0.0 for n in names):
            raise ConfigError(f"criterion {criterion!r} has no positively "
                              "weighted metric")

    return EvalConfig(
        metrics=tuple(metrics),
        params=params,
        id_column=_name(columns, "id", "columns", "id"),
        subgroup_column=_optional_name(columns, "subgroup", "columns"),
        region_column=_optional_name(columns, "region", "columns"),
        table_schema=dict(schema) if schema else None,
        missing_sentinel=_sentinel(tables),
        real_table_path=_optional_name(tables, "real", "tables"),
        quasi_identifiers=_names(compliance.get("quasi_identifiers") or [],
                                 "compliance.quasi_identifiers"),
        sensitive_column=_optional_name(compliance, "sensitive_column",
                                        "compliance"),
        declared_privacy=_scalars(declared, "compliance.declared"),
        constraint_rules=rules,
        constraint_derive=derive,
        required_fields=required,
        populated_threshold=populated_threshold,
        bounds=bounds,
        weights=weights,
        thresholds=thresholds,
        aggregation=str(aggregation),
        seed=seed,
        pca_dim=pca_dim,
        consistency_base=base,
        bootstrap_replicates=replicates,
    )


def _plain(value):
    """A config value as plain data: tuples become lists, mappings are
    sorted, rules and the derive spec become their mappings."""
    if isinstance(value, ConstraintRule):
        return rule_to_dict(value)
    if isinstance(value, DeriveSpec):
        value = dataclasses.asdict(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in sorted(value.items())}
    return value


def config_to_dict(config: EvalConfig) -> dict:
    """Canonical mapping for digests and round trips (sorted keys)."""
    out = {key: _plain(getattr(config, key)) for key in _TOP_LEVEL_FIELDS}
    for section, keys in _SECTIONS.items():
        out[section] = {key: _plain(getattr(config, name))
                        for key, name in sorted(keys.items())}
    return dict(sorted(out.items()))


def config_digest(config: EvalConfig) -> str:
    payload = dumps_canonical(config_to_dict(config))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
