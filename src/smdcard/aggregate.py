"""Metric results, normalization, per-criterion aggregation, verdicts, and
report assembly.

Raw metric values are mapped onto a 0-100 score by direction against
per-metric bounds, aggregated into one score per criterion (weighted
arithmetic or geometric mean), and classified against the verdict
thresholds (defaults: good at 80 and above, moderate in [70, 80), low
below 70 - configurable per application).

Undefined metrics are excluded with their weight renormalized away rather
than scored zero: a missing measurement is not evidence of poor quality. A
criterion left with no positively weighted defined metric is not
evaluated.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from . import catalog
from .catalog import MetricDescriptor
from .errors import InputError, PlanError

GEOMETRIC_FLOOR = 0.01
DEFAULT_THRESHOLDS = {"good": 80.0, "moderate": 70.0}


@dataclass(frozen=True)
class MetricResult:
    """One computed metric value with its diagnostics; where it was computed
    (its scope) is its key, and its 0-100 score is ``normalize``'s.

    ``value`` is a float, ``math.inf`` as an explicit sentinel, or None when
    the metric is undefined for the inputs (reason recorded in diagnostics).
    """

    descriptor: MetricDescriptor
    value: float | None
    diagnostics: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.value is not None:
            v = float(self.value)
            if v != v:  # NaN never allowed; undefined is expressed as None
                raise InputError(f"{self.descriptor.name}: NaN metric value")
            object.__setattr__(self, "value", v)
        object.__setattr__(self, "diagnostics", dict(self.diagnostics))

    @property
    def defined(self) -> bool:
        return self.value is not None


def make_result(name: str, value, **diagnostics) -> MetricResult:
    return MetricResult(catalog.descriptor(name), value, diagnostics)


def undefined_result(name: str, reason: str) -> MetricResult:
    return MetricResult(catalog.descriptor(name), None,
                        {"undefined_reason": reason})


def resolve_bounds(result: MetricResult, config) -> tuple[float, float] | None:
    """Config bounds, else the catalog's analytic range, else the
    data-dependent ``default_bounds`` the pipeline attached."""
    d = result.descriptor
    if d.name in config.bounds:
        return config.bounds[d.name]
    if d.static_bounds is not None:
        return d.static_bounds
    default = result.diagnostics.get("default_bounds")
    if default is not None:
        return float(default[0]), float(default[1])
    return None


def has_bounds_source(name: str, config) -> bool:
    """Plan-time check: will normalization find bounds for this metric?"""
    d = catalog.descriptor(name)
    return (name in config.bounds or d.static_bounds is not None
            or d.data_bounds or d.direction == "stat-sig")


def normalize(result: MetricResult, bounds: tuple[float, float] | None
              ) -> float | None:
    """A metric result's 0-100 score, None when it is unscored.

    maximize: 100*clamp((v-lo)/(hi-lo)); minimize: mirrored. Metrics scored
    by statistical significance map to 100*p (a high p-value means no
    detectable inconsistency). Infinite sentinels pin to the direction's
    best/worst end; undefined results are unscored.
    """
    if not result.defined:
        return None
    d = result.descriptor
    if d.direction == "stat-sig":
        p = result.diagnostics.get("p")
        if p is None:
            return None
        return 100.0 * min(max(float(p), 0.0), 1.0)
    direction = d.score_direction
    if math.isinf(result.value):
        best = result.value > 0 if direction == "maximize" else result.value < 0
        return 100.0 if best else 0.0
    if bounds is None:
        raise PlanError(f"metric {d.name!r} has no normalization bounds; "
                        "set bounds in the config or run calibrate")
    lo, hi = bounds
    if not lo < hi:
        raise PlanError(f"metric {d.name!r}: bounds must satisfy lo < hi")
    fraction = (result.value - lo) / (hi - lo)
    if direction == "minimize":
        fraction = 1.0 - fraction
    return 100.0 * min(max(fraction, 0.0), 1.0)


def aggregate_criterion(normalized: list[float], weights: list[float],
                        mode: str = "arithmetic") -> float:
    """Weighted mean of normalized scores; weights renormalize over the
    supplied (defined) values, whose total must be positive. Geometric mode
    floors values at 0.01 before the log so a single zero cannot erase the
    criterion."""
    if not normalized:
        raise PlanError("cannot aggregate an empty criterion")
    if len(weights) != len(normalized):
        raise PlanError("weights and values differ in length")
    total = sum(weights)
    if total <= 0:
        raise PlanError("cannot aggregate a criterion whose weights sum to 0")
    shares = [w / total for w in weights]
    if mode == "arithmetic":
        return sum(s * v for s, v in zip(shares, normalized))
    if mode == "geometric":
        log_sum = sum(s * math.log(max(v, GEOMETRIC_FLOOR))
                      for s, v in zip(shares, normalized))
        return math.exp(log_sum)
    raise PlanError(f"unknown aggregation mode {mode!r}")


def verdict(score: float | None, thresholds: dict) -> str:
    """good at/above the good threshold, moderate at/above the moderate
    threshold, low below it; None means the criterion was not evaluated."""
    if score is None:
        return "not evaluated"
    if score >= thresholds["good"]:
        return "good"
    if score >= thresholds["moderate"]:
        return "moderate"
    return "low"


# ---------------------------------------------------------------------------
# report assembly

_CATALOG_ORDER = {d.name: i for i, d in enumerate(catalog.CATALOG + catalog.EXTRAS)}


def _scope_sort_key(scope: str):
    kind_rank = {"global": 0, "region": 1, "subgroup": 2}
    kind, _, tag = scope.partition(":")
    return (kind_rank.get(kind, 3), tag)


def _value_to_json(value: float | None):
    if value is None:
        return None
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return float(value)


_NUMBER = (int, float)
_NUMBER_OR_NULL = (int, float, type(None))
#: the JSON types of the criterion and metric fields the card reads
_CRITERION = {"criterion": str, "score": _NUMBER_OR_NULL, "verdict": str,
              "excluded": int, "metrics": list}
_METRIC_ENTRY = {"name": str, "label": str, "direction": str,
                 "value": (int, float, str, type(None)),
                 "normalized": _NUMBER_OR_NULL}


def _typed(entry, types: dict, where: str):
    """``entry`` if each key of ``types`` holds one of its types (a bool is
    no number); else a KeyError or TypeError naming the field."""
    for key, kinds in types.items():
        value = entry[key]
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise TypeError(f"{where}.{key} has the wrong type: {value!r}")
    return entry


# Fields are declared in document order: ``dataclasses.asdict`` serializes.
@dataclass(frozen=True)
class CriterionBlock:
    criterion: str
    score: float | None
    verdict: str
    excluded: int
    metrics: tuple[dict, ...]


@dataclass(frozen=True)
class ScopeBlock:
    scope: str
    criteria: tuple[CriterionBlock, ...]


@dataclass(frozen=True)
class QualityReport:
    tool: dict
    seed: int
    config_digest: str
    thresholds: dict
    aggregation: str
    declared_privacy: dict
    scopes: tuple[ScopeBlock, ...]
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "QualityReport":
        """Rebuild a report; a missing or unknown key, or a field the card
        reads that holds the wrong JSON type, raises KeyError or TypeError."""
        _typed(raw, {"thresholds": dict, "declared_privacy": dict}, "report")
        _typed(raw["thresholds"], {"good": _NUMBER, "moderate": _NUMBER},
               "thresholds")
        scopes = []
        for i, s in enumerate(raw["scopes"]):
            criteria = []
            for j, c in enumerate(s["criteria"]):
                where = f"scopes[{i}].criteria[{j}]"
                for k, m in enumerate(_typed(c, _CRITERION, where)["metrics"]):
                    _typed(m, _METRIC_ENTRY, f"{where}.metrics[{k}]")
                criteria.append(CriterionBlock(**c))
            scopes.append(ScopeBlock(**dict(s, criteria=tuple(criteria))))
        return cls(**dict(raw, scopes=tuple(scopes)))

    def scope(self, name: str) -> ScopeBlock | None:
        for s in self.scopes:
            if s.scope == name:
                return s
        return None

    def criterion(self, name: str, scope: str = "global") -> CriterionBlock | None:
        block = self.scope(scope)
        if block is None:
            return None
        for c in block.criteria:
            if c.criterion == name:
                return c
        return None


def _clean_value(value):
    if isinstance(value, float):
        return _value_to_json(value)
    if isinstance(value, (list, tuple)):
        return [_clean_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _clean_value(v) for k, v in sorted(value.items())}
    return value


def assemble_report(results: dict[tuple[str, str], MetricResult], config,
                    seed: int, config_digest: str, tool: dict,
                    declared_privacy: dict | None = None,
                    notes: list[str] | None = None) -> QualityReport:
    """Normalize every result, aggregate per criterion per scope, and build
    the full report (raw values and aggregates, global plus every region
    and subgroup scope, config digest, seed record). ``results`` maps
    (scope, metric) to that metric's result in that scope."""
    by_scope: dict[str, dict[str, list[MetricResult]]] = {}
    for scope, name in sorted(results, key=lambda key: (
            _scope_sort_key(key[0]), _CATALOG_ORDER[key[1]])):
        r = results[scope, name]
        by_scope.setdefault(scope, {}).setdefault(
            r.descriptor.criterion, []).append(r)

    scope_blocks = []
    all_notes = list(notes or [])
    for scope, by_criterion in by_scope.items():
        criterion_blocks = []
        for criterion in catalog.CRITERIA:
            members = by_criterion.get(criterion)
            if not members:
                continue
            entries = []
            normalized_values = []
            weights = []
            excluded = 0
            for r in members:
                d = r.descriptor
                bounds = resolve_bounds(r, config)
                normalized = normalize(r, bounds)
                weight = config.weight(d.name)
                entries.append({
                    "name": d.name, "label": d.label,
                    "direction": d.direction,
                    "value": _value_to_json(r.value),
                    "normalized": normalized, "weight": weight,
                    "bounds": [float(bounds[0]), float(bounds[1])]
                    if bounds else None,
                    "excluded": normalized is None,
                    "diagnostics": _clean_value(r.diagnostics)})
                if normalized is None:
                    excluded += 1
                    reason = r.diagnostics.get("undefined_reason", "undefined")
                    all_notes.append(f"excluded {d.name} [{scope}]: {reason}")
                else:
                    normalized_values.append(normalized)
                    weights.append(weight)
            # the config's rule, applied after exclusion: no positive
            # weight, no score
            if sum(weights) > 0:
                score = aggregate_criterion(normalized_values, weights,
                                            config.aggregation)
            else:
                score = None
            criterion_blocks.append(CriterionBlock(
                criterion=criterion, score=score,
                verdict=verdict(score, config.thresholds),
                metrics=tuple(entries), excluded=excluded))
        scope_blocks.append(ScopeBlock(scope=scope,
                                       criteria=tuple(criterion_blocks)))

    return QualityReport(
        tool=tool, seed=seed, config_digest=config_digest,
        thresholds=dict(config.thresholds), aggregation=config.aggregation,
        scopes=tuple(scope_blocks), notes=tuple(all_notes),
        declared_privacy=dict(declared_privacy or {}))
