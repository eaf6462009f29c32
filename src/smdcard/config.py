"""Evaluation configuration: the declarative plan a run executes.

Configs are written as YAML (JSON works too). Parsing is strict: unknown
keys are rejected so a typo cannot silently drop part of the plan.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

from . import catalog
from .constraint import ConstraintRule, ConstraintRuleSet, rule_from_dict, rule_to_dict
from .errors import ConfigError

SEED_ENV_VAR = "SMDCARD_SEED"

DEFAULT_THRESHOLDS = {"good": 80.0, "moderate": 70.0}
AGGREGATION_MODES = ("arithmetic", "geometric")

@dataclass(frozen=True)
class DeriveSpec:
    fields: tuple[str, ...]
    quantile_margin: float = 0.0


@dataclass(frozen=True)
class EvalConfig:
    metrics: tuple[str, ...]
    params: dict = field(default_factory=dict)
    id_column: str = "id"
    subgroup_column: str | None = None
    region_column: str | None = None
    table_schema: dict | None = None
    missing_sentinel: str = ""
    real_table_path: str | None = None
    quasi_identifiers: tuple[str, ...] = ()
    sensitive_column: str | None = None
    declared_privacy: dict = field(default_factory=dict)
    constraint_rules: tuple[ConstraintRule, ...] = ()
    constraint_derive: DeriveSpec | None = None
    required_fields: tuple[str, ...] | str | None = None  # tuple, "auto", or None
    populated_threshold: float = 1.0
    bounds: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)
    thresholds: dict = field(default_factory=lambda: dict(DEFAULT_THRESHOLDS))
    aggregation: str = "arithmetic"
    seed: int | None = None
    pca_dim: int | None = None
    consistency_base: tuple[str, ...] | None = None
    bootstrap_replicates: int = 200

    def param(self, metric: str, key: str):
        """The configured value of a metric parameter, else its default."""
        return self.params.get(metric, {}).get(
            key, catalog.descriptor(metric).default(key))

    def weight(self, metric: str) -> float:
        return float(self.weights.get(metric, 1.0))

    def effective_seed(self) -> int:
        if self.seed is not None:
            return self.seed
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            try:
                return int(env)
            except ValueError:
                raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
        return 0


_TOP_LEVEL_KEYS = {
    "metrics", "params", "columns", "tables", "compliance", "constraints",
    "completeness", "bounds", "weights", "thresholds", "aggregation", "seed",
    "pca", "consistency",
}


def _require_mapping(value, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping")
    return value


def _reject_unknown(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} under {where}")


def config_from_dict(raw: dict) -> EvalConfig:
    raw = _require_mapping(raw, "config")
    _reject_unknown(raw, _TOP_LEVEL_KEYS, "config")

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

    params = _require_mapping(raw.get("params"), "params")
    for name, p in params.items():
        known = {key for key, _ in catalog.descriptor(name).params}
        _reject_unknown(_require_mapping(p, f"params.{name}"), known,
                        f"params.{name}")

    columns = _require_mapping(raw.get("columns"), "columns")
    _reject_unknown(columns, {"id", "subgroup", "region"}, "columns")

    tables = _require_mapping(raw.get("tables"), "tables")
    _reject_unknown(tables, {"real", "schema", "missing_sentinel"}, "tables")
    schema = tables.get("schema")
    if schema is not None:
        schema = _require_mapping(schema, "tables.schema")
        for col, kind in schema.items():
            if kind not in ("numeric", "categorical", "text"):
                raise ConfigError(f"tables.schema.{col}: unknown kind {kind!r}")

    compliance = _require_mapping(raw.get("compliance"), "compliance")
    _reject_unknown(compliance,
                    {"quasi_identifiers", "sensitive_column", "declared"},
                    "compliance")
    declared = _require_mapping(compliance.get("declared"), "compliance.declared")
    _reject_unknown(declared,
                    {"epsilon", "delta", "anonymization_method", "format_standard"},
                    "compliance.declared")

    constraints = _require_mapping(raw.get("constraints"), "constraints")
    _reject_unknown(constraints, {"rules", "derive"}, "constraints")
    rules = tuple(rule_from_dict(r) for r in constraints.get("rules", []) or [])
    ConstraintRuleSet(rules)  # id uniqueness
    derive = None
    if "derive" in constraints and constraints["derive"] is not None:
        d = _require_mapping(constraints["derive"], "constraints.derive")
        _reject_unknown(d, {"fields", "quantile_margin"}, "constraints.derive")
        if not d.get("fields"):
            raise ConfigError("constraints.derive needs a fields: list")
        derive = DeriveSpec(fields=tuple(str(f) for f in d["fields"]),
                            quantile_margin=float(d.get("quantile_margin", 0.0)))

    completeness = _require_mapping(raw.get("completeness"), "completeness")
    _reject_unknown(completeness, {"required_fields", "populated_threshold"},
                    "completeness")
    required = completeness.get("required_fields")
    if required is not None and required != "auto":
        if not isinstance(required, list) or not required:
            raise ConfigError("completeness.required_fields must be a non-empty "
                              "list or \"auto\"")
        required = tuple(str(f) for f in required)
    populated_threshold = float(completeness.get("populated_threshold", 1.0))
    if not (0.0 < populated_threshold <= 1.0):
        raise ConfigError("completeness.populated_threshold must be in (0, 1]")

    bounds_raw = _require_mapping(raw.get("bounds"), "bounds")
    bounds = {}
    for name, pair in bounds_raw.items():
        catalog.descriptor(name)
        if (not isinstance(pair, (list, tuple))) or len(pair) != 2:
            raise ConfigError(f"bounds.{name} must be a [lo, hi] pair")
        lo, hi = float(pair[0]), float(pair[1])
        if not lo < hi:
            raise ConfigError(f"bounds.{name}: lo must be strictly below hi")
        bounds[name] = (lo, hi)

    weights_raw = _require_mapping(raw.get("weights"), "weights")
    weights = {}
    for name, w in weights_raw.items():
        catalog.descriptor(name)
        w = float(w)
        if w < 0:
            raise ConfigError(f"weights.{name} must be nonnegative")
        weights[name] = w

    thresholds = dict(DEFAULT_THRESHOLDS)
    thresholds_raw = _require_mapping(raw.get("thresholds"), "thresholds")
    _reject_unknown(thresholds_raw, {"good", "moderate"}, "thresholds")
    thresholds.update({k: float(v) for k, v in thresholds_raw.items()})
    if not thresholds["good"] > thresholds["moderate"]:
        raise ConfigError("thresholds not ordered: good must exceed moderate",
                          code="E202")

    aggregation = raw.get("aggregation", "arithmetic")
    if aggregation not in AGGREGATION_MODES:
        raise ConfigError(f"aggregation must be one of {AGGREGATION_MODES}")

    seed = raw.get("seed")
    if seed is not None:
        seed = int(seed)

    pca = _require_mapping(raw.get("pca"), "pca")
    _reject_unknown(pca, {"target_dim"}, "pca")
    pca_dim = pca.get("target_dim")
    if pca_dim is not None:
        pca_dim = int(pca_dim)
        if pca_dim < 1:
            raise ConfigError("pca.target_dim must be positive")

    consistency = _require_mapping(raw.get("consistency"), "consistency")
    _reject_unknown(consistency, {"base_metrics", "bootstrap_replicates"},
                    "consistency")
    base = consistency.get("base_metrics")
    if base is not None:
        base = tuple(str(b) for b in base)
        for b in base:
            catalog.descriptor(b)
    replicates = int(consistency.get("bootstrap_replicates", 200))
    if replicates < 2:
        raise ConfigError("consistency.bootstrap_replicates must be >= 2")

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
        params={k: dict(v or {}) for k, v in params.items()},
        id_column=str(columns.get("id", "id")),
        subgroup_column=columns.get("subgroup"),
        region_column=columns.get("region"),
        table_schema=dict(schema) if schema else None,
        missing_sentinel=str(tables.get("missing_sentinel", "")),
        real_table_path=tables.get("real"),
        quasi_identifiers=tuple(str(q) for q in
                                compliance.get("quasi_identifiers", []) or []),
        sensitive_column=compliance.get("sensitive_column"),
        declared_privacy=dict(declared),
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


def config_to_dict(config: EvalConfig) -> dict:
    """Canonical mapping for digests and round trips (sorted keys)."""
    out: dict = {
        "aggregation": config.aggregation,
        "bounds": {k: [lo, hi] for k, (lo, hi) in sorted(config.bounds.items())},
        "columns": {"id": config.id_column,
                    "region": config.region_column,
                    "subgroup": config.subgroup_column},
        "completeness": {
            "populated_threshold": config.populated_threshold,
            "required_fields": (list(config.required_fields)
                                if isinstance(config.required_fields, tuple)
                                else config.required_fields),
        },
        "compliance": {
            "declared": dict(sorted(config.declared_privacy.items())),
            "quasi_identifiers": list(config.quasi_identifiers),
            "sensitive_column": config.sensitive_column,
        },
        "consistency": {
            "base_metrics": (list(config.consistency_base)
                             if config.consistency_base else None),
            "bootstrap_replicates": config.bootstrap_replicates,
        },
        "constraints": {
            "derive": ({"fields": list(config.constraint_derive.fields),
                        "quantile_margin": config.constraint_derive.quantile_margin}
                       if config.constraint_derive else None),
            "rules": [rule_to_dict(r) for r in config.constraint_rules],
        },
        "metrics": list(config.metrics),
        "params": {k: dict(sorted(v.items()))
                   for k, v in sorted(config.params.items())},
        "pca": {"target_dim": config.pca_dim},
        "seed": config.seed,
        "tables": {"missing_sentinel": config.missing_sentinel,
                   "real": config.real_table_path,
                   "schema": (dict(sorted(config.table_schema.items()))
                              if config.table_schema else None)},
        "thresholds": dict(sorted(config.thresholds.items())),
        "weights": dict(sorted(config.weights.items())),
    }
    return out


def config_digest(config: EvalConfig) -> str:
    from .ingest import dumps_canonical
    payload = dumps_canonical(config_to_dict(config))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
