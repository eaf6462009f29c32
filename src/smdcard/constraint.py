"""Declarative constraint rules and their adherence metrics.

Rules express clinical/technical validity over record-table columns:

- ``range``: numeric field within [lo, hi] (either bound optional)
- ``allowed_set``: categorical/text field drawn from an allowed value set
- ``linear``: weighted sum of numeric fields vs a bound (``<=`` or ``>=``)
- ``implication``: when a categorical predicate holds, a consequent rule
  must hold (nesting depth capped at 2)

Rows with missing values in a rule's fields satisfy it vacuously; the
vacuous count is reported so silent gaps stay visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EvaluationError, PlanError
from .model import RecordTable

RULE_KINDS = ("range", "allowed_set", "linear", "implication")
SENSES = ("<=", ">=")


@dataclass(frozen=True)
class ConstraintRule:
    id: str
    kind: str
    severity: str = "info"
    field_name: str | None = None
    lo: float | None = None
    hi: float | None = None
    values: tuple[str, ...] = ()
    weights: tuple[tuple[str, float], ...] = ()
    bound: float = 0.0
    sense: str = "<="
    when_field: str | None = None
    when_values: tuple[str, ...] = ()
    consequent: "ConstraintRule | None" = None

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ConfigError(f"rule {self.id!r}: unknown kind {self.kind!r}")
        numbers = [self.lo, self.hi, self.bound] + [w for _, w in self.weights]
        if not all(math.isfinite(x) for x in numbers if x is not None):
            raise ConfigError(f"rule {self.id!r}: bounds and weights must be "
                              "finite numbers (omit min or max for an open end)")
        if self.kind == "range" and self.lo is None and self.hi is None:
            raise ConfigError(f"rule {self.id!r}: range needs at least one bound")
        if self.kind == "allowed_set" and not self.values:
            raise ConfigError(f"rule {self.id!r}: allowed_set needs values")
        if self.kind == "linear":
            if not self.weights:
                raise ConfigError(f"rule {self.id!r}: linear needs weights")
            if not any(w * w for _, w in self.weights):
                raise ConfigError(f"rule {self.id!r}: linear weights have "
                                  "zero norm, so the rule ignores the data")
            if self.sense not in SENSES:
                raise ConfigError(f"rule {self.id!r}: sense must be <= or >=")
        if self.kind == "implication":
            if self.when_field is None or not self.when_values:
                raise ConfigError(f"rule {self.id!r}: implication needs a "
                                  "categorical antecedent")
            if self.consequent is None:
                raise ConfigError(f"rule {self.id!r}: implication needs a consequent")
            if self._depth() > 2:
                raise ConfigError(f"rule {self.id!r}: implication nesting "
                                  "deeper than 2")

    def _depth(self) -> int:
        if self.kind != "implication":
            return 1
        return 1 + (self.consequent._depth() if self.consequent else 0)


@dataclass(frozen=True)
class ConstraintRuleSet:
    rules: tuple[ConstraintRule, ...]
    source: str = "declared"      # or "derived-from-reference"

    def __post_init__(self):
        ids = [r.id for r in self.rules]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate constraint rule ids")

    def __len__(self):
        return len(self.rules)


#: Config keys every rule accepts, and those each kind adds.
_COMMON_KEYS = ("id", "kind", "severity")
_KIND_KEYS = {
    "range": ("field", "min", "max"),
    "allowed_set": ("field", "values"),
    "linear": ("weights", "bound", "sense"),
    "implication": ("when", "then"),
}


def parse_number(value, where: str, kind=float):
    """``value`` as a finite ``kind`` (``int`` takes integral values only),
    or a ``ConfigError`` naming the config key. A boolean is not a number."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if (isinstance(value, bool) or not math.isfinite(number)
            or (kind is int and not number.is_integer())):
        noun = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{where} must be {noun}, got {value!r}")
    return kind(value if isinstance(value, int) else number)


def _rule_number(value, where: str) -> float:
    try:
        return parse_number(value, where)
    except ConfigError as exc:  # a rule bound or weight: add the open-end hint
        raise ConfigError(f"{exc} (omit min or max for an open end)") from None


def rule_from_dict(raw: dict, *, _parent: str | None = None) -> ConstraintRule:
    """Parse one rule from its config mapping (strict: unknown keys, and
    keys that belong to another kind, are rejected).

    A consequent takes its parent's id, so its errors name the rule."""
    if not isinstance(raw, dict):
        raise ConfigError(f"constraint rule must be a mapping, got {type(raw).__name__}")
    known = set(_COMMON_KEYS).union(*_KIND_KEYS.values())
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"constraint rule has unknown keys {unknown}")
    kind = raw.get("kind")
    rule_id = raw.get("id", _parent)
    if rule_id is None:
        raise ConfigError("constraint rule missing an id")
    if kind not in RULE_KINDS:
        raise ConfigError(f"constraint rule has unknown kind {kind!r}")
    where = f"constraint rule {str(rule_id)!r}"
    foreign = sorted(set(raw) - set(_COMMON_KEYS) - set(_KIND_KEYS[kind]))
    if foreign:
        raise ConfigError(f"{where}: key(s) {foreign} do not apply to a "
                          f"{kind} rule")

    common = dict(id=str(rule_id), kind=kind,
                  severity=str(raw.get("severity", "info")))
    if kind in ("range", "allowed_set") and "field" not in raw:
        raise ConfigError(f"{where}: {kind} needs a field")
    if kind == "range":
        lo, hi = (None if raw.get(key) is None
                  else _rule_number(raw[key], f"{where}: {key}")
                  for key in ("min", "max"))
        return ConstraintRule(**common, field_name=str(raw["field"]),
                              lo=lo, hi=hi)
    if kind == "allowed_set":
        values = raw.get("values", ())
        if not isinstance(values, list):
            raise ConfigError(f"{where}: values must be a list")
        return ConstraintRule(**common, field_name=str(raw["field"]),
                              values=tuple(str(v) for v in values))
    if kind == "linear":
        weights = raw.get("weights", {})
        if not isinstance(weights, dict):
            raise ConfigError("linear rule weights must map field -> weight")
        return ConstraintRule(
            **common,
            weights=tuple((str(k), _rule_number(v, f"{where}: weights.{k}"))
                          for k, v in weights.items()),
            bound=_rule_number(raw.get("bound", 0.0), f"{where}: bound"),
            sense=str(raw.get("sense", "<=")))
    when = raw.get("when")
    if not isinstance(when, dict) or "field" not in when:
        raise ConfigError("implication rule needs when: {field, equals|in}")
    if "equals" in when:
        when_values = (str(when["equals"]),)
    elif "in" in when and isinstance(when["in"], list):
        when_values = tuple(str(v) for v in when["in"])
    else:
        raise ConfigError("implication antecedent needs equals: or in: a list")
    extra = sorted(set(when) - {"field", "equals", "in"})
    if extra:
        raise ConfigError(f"implication antecedent has unknown keys {extra}")
    consequent = rule_from_dict(raw.get("then", {}), _parent=str(rule_id))
    return ConstraintRule(**common, when_field=str(when["field"]),
                          when_values=when_values, consequent=consequent)


def rule_to_dict(rule: ConstraintRule) -> dict:
    out: dict = {"id": rule.id, "kind": rule.kind, "severity": rule.severity}
    if rule.kind == "range":
        out["field"] = rule.field_name
        if rule.lo is not None:
            out["min"] = rule.lo
        if rule.hi is not None:
            out["max"] = rule.hi
    elif rule.kind == "allowed_set":
        out["field"] = rule.field_name
        out["values"] = list(rule.values)
    elif rule.kind == "linear":
        out["weights"] = dict(rule.weights)
        out["bound"] = rule.bound
        out["sense"] = rule.sense
    else:
        when: dict = {"field": rule.when_field}
        if len(rule.when_values) == 1:
            when["equals"] = rule.when_values[0]
        else:
            when["in"] = list(rule.when_values)
        out["when"] = when
        inner = rule_to_dict(rule.consequent)
        inner.pop("id", None)
        inner.pop("severity", None)
        out["then"] = inner
    return out


def validate_rules(table: RecordTable, rules: ConstraintRuleSet) -> None:
    """Plan-time check: every referenced field exists with a usable kind."""
    for rule in rules.rules:
        _validate_rule(table, rule)


def _validate_rule(table: RecordTable, rule: ConstraintRule) -> None:
    names = table.column_names
    if rule.kind in ("range", "allowed_set"):
        if rule.field_name not in names:
            raise PlanError(f"rule {rule.id!r} references unknown field "
                            f"{rule.field_name!r}")
        if rule.kind == "range" and table.kind(rule.field_name) != "numeric":
            raise PlanError(f"rule {rule.id!r}: range field "
                            f"{rule.field_name!r} is not numeric")
    elif rule.kind == "linear":
        for name, _ in rule.weights:
            if name not in names:
                raise PlanError(f"rule {rule.id!r} references unknown field {name!r}")
            if table.kind(name) != "numeric":
                raise PlanError(f"rule {rule.id!r}: linear field {name!r} "
                                "is not numeric")
    else:
        if rule.when_field not in names:
            raise PlanError(f"rule {rule.id!r} references unknown field "
                            f"{rule.when_field!r}")
        _validate_rule(table, rule.consequent)


def derive_range_rules(real: RecordTable, fields: list[str],
                       quantile_margin: float = 0.0) -> ConstraintRuleSet:
    """Range rules taken from the reference table's observed values.

    With margin q the observed range is widened outward by the distance from
    each extreme to the q / (1-q) quantile:

        lo = 2*min - Q(q),   hi = 2*max - Q(1-q)

    so q = 0 reproduces the exact observed range and larger q is strictly
    more permissive.
    """
    if not (0.0 <= quantile_margin < 0.5):
        raise ConfigError("quantile_margin must lie in [0, 0.5)")
    rules = []
    for name in fields:
        if name not in real.column_names or real.kind(name) != "numeric":
            raise PlanError(f"cannot derive a range rule for non-numeric or "
                            f"unknown field {name!r}")
        values = real.floats(name)
        values = values[~np.isnan(values)]
        if values.size == 0:
            raise EvaluationError(f"field {name!r} is entirely missing in the "
                                  "reference table")
        vmin, vmax = float(values.min()), float(values.max())
        q_lo = float(np.quantile(values, quantile_margin))
        q_hi = float(np.quantile(values, 1.0 - quantile_margin))
        rules.append(ConstraintRule(
            id=f"range:{name}", kind="range", field_name=name,
            lo=2.0 * vmin - q_lo, hi=2.0 * vmax - q_hi))
    return ConstraintRuleSet(tuple(rules), source="derived-from-reference")


def signed_distances(rule: ConstraintRule, table: RecordTable) -> np.ndarray:
    """The rule's outcome on every row of the table, one float per row.

    ``d > 0``: the row violates the rule by ``d``. ``d <= 0``: it satisfies
    the rule with margin ``|d|``. NaN: vacuous, an input cell is missing.
    ``-inf``: satisfied with no boundary to measure (inactive implication).
    Categorical rules sit at unit distance on either side of the boundary.
    """
    if rule.kind == "range":
        v = table.floats(rule.field_name)
        sides = []
        if rule.lo is not None:
            sides.append(rule.lo - v)
        if rule.hi is not None:
            sides.append(v - rule.hi)
        return np.maximum.reduce(sides)
    if rule.kind == "allowed_set":
        return 1.0 - 2.0 * _membership(table, rule.field_name, rule.values)
    if rule.kind == "linear":
        total = np.zeros(table.n)
        for name, w in rule.weights:
            total += w * table.floats(name)
        signed = total - rule.bound if rule.sense == "<=" else rule.bound - total
        norm = math.sqrt(sum(w * w for _, w in rule.weights))
        return np.where(signed > 0, 1.0, -1.0) * (np.abs(signed) / norm)
    active = _membership(table, rule.when_field, rule.when_values)
    return np.select([np.isnan(active), active == 1.0],
                     [active, signed_distances(rule.consequent, table)],
                     -np.inf)


def _membership(table: RecordTable, name: str, allowed) -> np.ndarray:
    """1.0 where a cell's text is in ``allowed``, 0.0 where not, NaN where
    the cell is missing."""
    codes, domain = table.codes(name)
    return np.array([float(v in allowed) for v in domain] + [math.nan])[codes]


def _distances(table: RecordTable, rules: ConstraintRuleSet) -> np.ndarray:
    """The (rules, rows) matrix of signed distances every metric reads."""
    validate_rules(table, rules)
    if table.n == 0:
        raise EvaluationError("constraint metrics are undefined on an empty "
                              "table")
    return np.array([signed_distances(rule, table) for rule in rules.rules]
                    ).reshape(len(rules), table.n)


def violation_rate(table: RecordTable, rules: ConstraintRuleSet):
    """Fraction of rows violating at least one rule, with per-rule counts."""
    d = _distances(table, rules)
    violated = d > 0
    violating_rows = int(violated.any(axis=0).sum())
    ids = [rule.id for rule in rules.rules]
    diagnostics = {
        "violating_rows": violating_rows,
        "per_rule_violations": dict(zip(ids, violated.sum(axis=1).tolist())),
        "per_rule_vacuous": dict(zip(ids, np.isnan(d).sum(axis=1).tolist())),
        "rule_count": len(rules),
    }
    return violating_rows / table.n, diagnostics


def violation_magnitude(table: RecordTable, rules: ConstraintRuleSet):
    """Mean, over violating rows, of the distance back to validity.

    Per row the distance combines the violated rules' residuals as an
    L2 norm (exact when the rules touch disjoint fields); categorical
    violations contribute unit magnitude.
    """
    d = _distances(table, rules)
    residuals = np.where(d > 0, d, 0.0)
    violated = (residuals > 0).any(axis=0)
    if not violated.any():
        return 0.0, {"violating_rows": 0}
    residuals = residuals[:, violated]
    # scale each row by the power of two above its largest residual: exact,
    # and the squares then neither overflow nor underflow to zero
    exponent = np.frexp(residuals.max(axis=0))[1]
    sq = np.zeros(exponent.size)
    for r in np.ldexp(residuals, -exponent):  # rule by rule: the sum's order
        sq += r * r                           # is part of its value
    magnitudes = np.ldexp(np.sqrt(sq), exponent)
    return float(np.mean(magnitudes)), {"violating_rows": magnitudes.size}


def margin_to_boundary(table: RecordTable, rules: ConstraintRuleSet):
    """Mean, over fully valid rows, of the distance to the nearest boundary.

    Undefined (None, with the reason "no valid bounded rows") when no row
    is valid or no rule bounds the valid rows. The diagnostics summarize
    the per-row distribution with fixed quantiles, so their size does not
    grow with the table.
    """
    d = _distances(table, rules)
    invalid = (d > 0).any(axis=0)
    # vacuous (NaN) cells drop out of fmin; unbounded ones (-inf) stay inf
    nearest = np.fmin.reduce(np.abs(d), axis=0, initial=np.inf)
    arr = nearest[~invalid & np.isfinite(nearest)]
    diagnostics = {
        "invalid_rows": int(invalid.sum()),
        "unbounded_rows": int((~invalid).sum()) - arr.size,
        "valid_rows": arr.size,
    }
    if not arr.size:
        diagnostics["undefined_reason"] = "no valid bounded rows"
        return None, diagnostics
    diagnostics["margin_min"] = float(arr.min())
    diagnostics["margin_max"] = float(arr.max())
    diagnostics["margin_median"] = float(np.median(arr))
    for q in (5, 25, 75, 95):
        diagnostics[f"margin_p{q:02d}"] = float(np.quantile(arr, q / 100))
    return float(arr.mean()), diagnostics
