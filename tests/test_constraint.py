import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smdcard.constraint import (SENSES, ConstraintRule, ConstraintRuleSet,
                                derive_range_rules, margin_to_boundary,
                                rule_from_dict, signed_distances,
                                violation_magnitude, violation_rate)
from smdcard.errors import ConfigError, EvaluationError, PlanError

from conftest import RowTable, table_from

COLUMNS = [("age", "numeric"), ("hgb", "numeric"), ("dx", "categorical")]


def _table(rows):
    return table_from(COLUMNS, rows)


def _range(rule_id, field, lo=None, hi=None):
    return ConstraintRule(id=rule_id, kind="range", field_name=field,
                          lo=lo, hi=hi)


class TestRuleParsing:
    def test_range_needs_a_bound(self):
        with pytest.raises(ConfigError, match="at least one bound"):
            ConstraintRule(id="r", kind="range", field_name="age")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            rule_from_dict({"id": "r", "kind": "range", "field": "age",
                            "min": 0, "typo": 1})

    @pytest.mark.parametrize("raw", [
        {"kind": "range", "field": "age", "max": 100,
         "when": {"field": "dx", "equals": "a"}},
        {"kind": "allowed_set", "field": "dx", "values": ["a"], "min": 0},
        {"kind": "linear", "weights": {"age": 1.0}, "field": "age"},
        {"kind": "implication", "when": {"field": "dx", "equals": "a"},
         "then": {"kind": "range", "field": "hgb", "max": 11,
                  "values": ["a"]}},
    ])
    def test_keys_of_another_kind_rejected(self, raw):
        with pytest.raises(ConfigError, match="'r'.*do not apply"):
            rule_from_dict({"id": "r", **raw})
        with pytest.raises(ConfigError, match="unknown kind 'bogus'"):
            rule_from_dict({"id": "r", **raw, "kind": "bogus"})

    def test_duplicate_ids_rejected(self):
        rule = _range("same", "age", lo=0.0)
        with pytest.raises(ConfigError, match="duplicate"):
            ConstraintRuleSet((rule, rule))

    @pytest.mark.parametrize("raw", [
        {"kind": "range", "field": "age", "max": math.inf},
        {"kind": "range", "field": "age", "min": -math.inf, "max": 10},
        {"kind": "range", "field": "age", "min": math.nan},
        {"kind": "linear", "weights": {"age": 1.0}, "bound": math.inf},
        {"kind": "linear", "weights": {"age": 1.0, "hgb": math.nan}},
        {"kind": "implication", "when": {"field": "dx", "equals": "a"},
         "then": {"kind": "range", "field": "hgb", "max": math.inf}},
    ])
    def test_non_finite_numbers_rejected(self, raw):
        with pytest.raises(ConfigError, match="'r'.*finite.*omit min or max"):
            rule_from_dict({"id": "r", **raw})

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ConfigError, match="'flat'.*zero norm"):
            rule_from_dict({"id": "flat", "kind": "linear",
                            "weights": {"age": 0.0, "hgb": -0.0},
                            "bound": 1.0})

    def test_unknown_field_rejected_at_plan_time(self):
        rules = ConstraintRuleSet((_range("r", "nope", lo=0.0),))
        with pytest.raises(PlanError, match="nope"):
            violation_rate(_table([(30.0, 12.0, "ok")]), rules)


class TestDeriveRangeRules:
    def test_observed_range(self):
        table = _table([(1.0, 10.0, "a"), (2.0, 11.0, "a"), (3.0, 12.0, "a")])
        rules = derive_range_rules(table, ["age"])
        assert rules.source == "derived-from-reference"
        assert rules.rules[0].id == "range:age"
        assert rules.rules[0].lo == 1.0
        assert rules.rules[0].hi == 3.0

    def test_quantile_margin_matches_brute_force_oracle(self):
        values = np.arange(0.0, 101.0)
        table = _table([(v, 10.0, "a") for v in values])
        rules = derive_range_rules(table, ["age"], quantile_margin=0.25)

        # manual linear-interpolation quantiles
        srt = sorted(values)
        def quantile(q):
            pos = q * (len(srt) - 1)
            lo_i = math.floor(pos)
            frac = pos - lo_i
            hi_i = min(lo_i + 1, len(srt) - 1)
            return srt[lo_i] * (1 - frac) + srt[hi_i] * frac
        expected_lo = 2 * min(srt) - quantile(0.25)
        expected_hi = 2 * max(srt) - quantile(0.75)
        assert rules.rules[0].lo == pytest.approx(expected_lo, abs=1e-9)
        assert rules.rules[0].hi == pytest.approx(expected_hi, abs=1e-9)

    def test_two_fields_two_rules(self):
        table = _table([(1.0, 10.0, "a"), (2.0, 11.0, "a")])
        rules = derive_range_rules(table, ["age", "hgb"])
        assert [r.id for r in rules.rules] == ["range:age", "range:hgb"]

    def test_all_missing_field_errors(self):
        table = _table([(None, 10.0, "a"), (None, 11.0, "a")])
        with pytest.raises(Exception, match="entirely missing"):
            derive_range_rules(table, ["age"])


class TestViolationRate:
    def test_two_of_ten(self):
        rows = [(float(v), 10.0, "a") for v in
                [1, 2, 3, 4, 5, 6, 7, 8, 50, 60]]
        rules = ConstraintRuleSet((_range("r", "age", lo=0.0, hi=10.0),))
        rate, diag = violation_rate(_table(rows), rules)
        assert rate == pytest.approx(0.2)
        assert diag["per_rule_violations"]["r"] == 2

    def test_all_valid_zero(self):
        rows = [(1.0, 10.0, "a"), (2.0, 11.0, "a")]
        rules = ConstraintRuleSet((_range("r", "age", lo=0.0, hi=10.0),))
        rate, _ = violation_rate(_table(rows), rules)
        assert rate == 0.0

    def test_compound_rules_match_brute_force(self):
        rules = ConstraintRuleSet((
            _range("age", "age", lo=18.0, hi=90.0),
            rule_from_dict({"id": "imp", "kind": "implication",
                            "when": {"field": "dx", "equals": "anemia"},
                            "then": {"kind": "range", "field": "hgb",
                                     "max": 11.0}}),
            rule_from_dict({"id": "lin", "kind": "linear",
                            "weights": {"age": 1.0, "hgb": 1.0},
                            "bound": 100.0, "sense": "<="}),
        ))
        rng = np.random.default_rng(8)
        rows = []
        for _ in range(12):
            rows.append((float(rng.uniform(10, 95)),
                         float(rng.uniform(8, 16)),
                         str(rng.choice(["anemia", "healthy"]))))
        table = _table(rows)
        rate, _ = violation_rate(table, rules)

        expected = 0
        for age, hgb, dx in rows:
            bad = not (18.0 <= age <= 90.0)
            if dx == "anemia" and hgb > 11.0:
                bad = True
            if age + hgb > 100.0:
                bad = True
            expected += bad
        assert rate == pytest.approx(expected / 12)

    def test_missing_antecedent_vacuous_and_flagged(self):
        rules = ConstraintRuleSet((
            rule_from_dict({"id": "imp", "kind": "implication",
                            "when": {"field": "dx", "equals": "anemia"},
                            "then": {"kind": "range", "field": "hgb",
                                     "max": 11.0}}),))
        table = _table([(30.0, 16.0, None)])
        rate, diag = violation_rate(table, rules)
        assert rate == 0.0
        assert diag["per_rule_vacuous"]["imp"] == 1

    def test_row_permutation_invariant(self):
        rows = [(float(v), 10.0, "a") for v in [1, 5, 50, 7, 80]]
        rules = ConstraintRuleSet((_range("r", "age", lo=0.0, hi=10.0),))
        forward, _ = violation_rate(_table(rows), rules)
        backward, _ = violation_rate(_table(rows[::-1]), rules)
        assert forward == backward

    @given(st.floats(0, 50), st.floats(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_widening_never_increases_rate(self, widen_lo, widen_hi):
        rows = [(float(v), 10.0, "a") for v in range(-5, 25)]
        base = ConstraintRuleSet((_range("r", "age", lo=0.0, hi=10.0),))
        wide = ConstraintRuleSet((_range("r", "age", lo=0.0 - widen_lo,
                                         hi=10.0 + widen_hi),))
        base_rate, _ = violation_rate(_table(rows), base)
        wide_rate, _ = violation_rate(_table(rows), wide)
        assert wide_rate <= base_rate


class TestViolationMagnitude:
    def test_range_overshoot(self):
        rules = ConstraintRuleSet((_range("r", "age", lo=0.0, hi=10.0),))
        value, _ = violation_magnitude(_table([(12.0, 10.0, "a")]), rules)
        assert value == pytest.approx(2.0)

    def test_no_violations_zero(self):
        rules = ConstraintRuleSet((_range("r", "age", lo=0.0, hi=10.0),))
        value, _ = violation_magnitude(_table([(5.0, 10.0, "a")]), rules)
        assert value == 0.0

    def test_halfspace_distance(self):
        rules = ConstraintRuleSet((rule_from_dict(
            {"id": "lin", "kind": "linear", "weights": {"age": 1.0, "hgb": 1.0},
             "bound": 10.0, "sense": "<="}),))
        value, _ = violation_magnitude(_table([(8.0, 6.0, "a")]), rules)
        assert value == pytest.approx(4.0 / math.sqrt(2.0))

    @pytest.mark.parametrize("scale", [1e-158, 1e158])
    def test_extreme_residuals_stay_finite_and_nonzero(self, scale):
        """Two residuals whose squares overflow (or underflow to zero)
        still combine to their L2 norm, not to inf (or 0)."""
        rules = ConstraintRuleSet((
            rule_from_dict({"id": "a", "kind": "linear",
                            "weights": {"age": scale}, "bound": -3.0,
                            "sense": "<="}),
            rule_from_dict({"id": "h", "kind": "linear",
                            "weights": {"hgb": scale}, "bound": -4.0,
                            "sense": "<="})))
        value, _ = violation_magnitude(_table([(0.0, 0.0, "a")]), rules)
        assert value == pytest.approx(5.0 / scale)

    def test_zero_rate_iff_zero_magnitude(self):
        rng = np.random.default_rng(13)
        rules = ConstraintRuleSet((_range("r", "age", lo=0.0, hi=10.0),))
        for _ in range(20):
            rows = [(float(rng.uniform(-5, 15)), 10.0, "a") for _ in range(8)]
            table = _table(rows)
            rate, _ = violation_rate(table, rules)
            magnitude, _ = violation_magnitude(table, rules)
            assert (rate == 0.0) == (magnitude == 0.0)


class TestMarginToBoundary:
    def test_near_bound(self):
        rules = ConstraintRuleSet((_range("r", "age", lo=0.0, hi=10.0),))
        value, _ = margin_to_boundary(_table([(9.0, 10.0, "a")]), rules)
        assert value == pytest.approx(1.0)

    def test_midpoint_takes_nearer_bound(self):
        rules = ConstraintRuleSet((_range("r", "age", lo=0.0, hi=10.0),))
        value, _ = margin_to_boundary(_table([(5.0, 10.0, "a")]), rules)
        assert value == pytest.approx(5.0)

    def test_multi_rule_minimum_matches_enumeration_oracle(self):
        rules = ConstraintRuleSet((
            _range("age", "age", lo=18.0, hi=90.0),
            _range("hgb", "hgb", lo=9.0, hi=17.0),
            rule_from_dict({"id": "lin", "kind": "linear",
                            "weights": {"age": 1.0, "hgb": 2.0},
                            "bound": 120.0, "sense": "<="}),
        ))
        rng = np.random.default_rng(3)
        rows = [(float(rng.uniform(20, 80)), float(rng.uniform(10, 16)), "a")
                for _ in range(10)]
        value, diag = margin_to_boundary(_table(rows), rules)

        per_row = []
        norm = math.sqrt(1.0 + 4.0)
        for age, hgb, _ in rows:
            margins = [age - 18.0, 90.0 - age, hgb - 9.0, 17.0 - hgb,
                       abs(age + 2 * hgb - 120.0) / norm]
            per_row.append(min(margins))
        assert value == pytest.approx(float(np.mean(per_row)), abs=1e-12)
        for q in (5, 25, 75, 95):
            assert diag[f"margin_p{q:02d}"] == pytest.approx(
                float(np.quantile(per_row, q / 100)), abs=1e-12)

    def test_all_rows_invalid_undefined(self):
        rules = ConstraintRuleSet((_range("r", "age", lo=0.0, hi=10.0),))
        value, diag = margin_to_boundary(_table([(50.0, 10.0, "a")]), rules)
        assert value is None
        assert diag["invalid_rows"] == 1
        assert diag["undefined_reason"] == "no valid bounded rows"


class TestSignedDistances:
    def test_allowed_set(self):
        rule = rule_from_dict({"id": "s", "kind": "allowed_set", "field": "dx",
                               "values": ["a", "b"]})
        table = _table([(1.0, 1.0, "c")])
        assert signed_distances(rule, table).tolist() == [1.0]

    def test_missing_value_vacuous(self):
        rule = _range("r", "age", lo=0.0)
        d = signed_distances(rule, _table([(None, 1.0, "a")]))
        assert np.isnan(d).tolist() == [True]

    def test_inactive_implication_unbounded(self):
        rule = rule_from_dict({"id": "imp", "kind": "implication",
                               "when": {"field": "dx", "equals": "anemia"},
                               "then": {"kind": "range", "field": "hgb",
                                        "max": 11.0}})
        d = signed_distances(rule, _table([(1.0, 16.0, "healthy")]))
        assert d.tolist() == [-math.inf]

    def test_boundary_margin_is_positive_zero(self):
        rules = ConstraintRuleSet((_range("r", "age", lo=0.0, hi=10.0),
                                   rule_from_dict({
                                       "id": "lin", "kind": "linear",
                                       "weights": {"hgb": 2.0}, "bound": 8.0})))
        for row in [(10.0, 1.0, "a"), (5.0, 4.0, "a")]:
            _, diag = margin_to_boundary(_table([row]), rules)
            assert diag["margin_min"] == 0.0
            assert math.copysign(1.0, diag["margin_min"]) == 1.0

    @pytest.mark.parametrize("metric", [violation_rate, violation_magnitude,
                                        margin_to_boundary])
    def test_empty_table_undefined(self, metric):
        rules = ConstraintRuleSet((_range("r", "age", lo=0.0),))
        with pytest.raises(EvaluationError, match="empty table"):
            metric(_table([]), rules)


# ---------------------------------------------------------------------------
# reference oracle: the per-row, per-rule evaluator the metrics replaced


@dataclass(frozen=True)
class _Outcome:
    status: str              # "satisfied" | "violated" | "vacuous"
    residual: float = 0.0    # distance beyond the boundary when violated
    margin: float | None = None  # distance to the boundary when satisfied


def _oracle_cell(table, row_idx, field_name):
    j = table.column_index(field_name)
    if table.missing_mask[row_idx, j]:
        return None
    return table.rows[row_idx][j]


def _oracle_rule(rule, table, row_idx):
    if rule.kind == "range":
        value = _oracle_cell(table, row_idx, rule.field_name)
        if value is None:
            return _Outcome("vacuous")
        v = float(value)
        below = (rule.lo - v) if rule.lo is not None else -math.inf
        above = (v - rule.hi) if rule.hi is not None else -math.inf
        overshoot = max(below, above)
        if overshoot > 0:
            return _Outcome("violated", residual=overshoot)
        margins = [abs(x) for x in (below, above) if x != -math.inf]
        return _Outcome("satisfied", margin=min(margins))
    if rule.kind == "allowed_set":
        value = _oracle_cell(table, row_idx, rule.field_name)
        if value is None:
            return _Outcome("vacuous")
        if str(value) in rule.values:
            return _Outcome("satisfied", margin=1.0)
        return _Outcome("violated", residual=1.0)
    if rule.kind == "linear":
        total = 0.0
        norm_sq = 0.0
        for name, w in rule.weights:
            value = _oracle_cell(table, row_idx, name)
            if value is None:
                return _Outcome("vacuous")
            total += w * float(value)
            norm_sq += w * w
        norm = math.sqrt(norm_sq)
        signed = (total - rule.bound) if rule.sense == "<=" else (rule.bound - total)
        distance = abs(signed) / norm if norm > 0 else 0.0
        if signed > 0:
            return _Outcome("violated", residual=distance)
        return _Outcome("satisfied", margin=distance)
    antecedent = _oracle_cell(table, row_idx, rule.when_field)
    if antecedent is None:
        return _Outcome("vacuous")
    if str(antecedent) not in rule.when_values:
        return _Outcome("satisfied", margin=None)  # inactive, unbounded
    return _oracle_rule(rule.consequent, table, row_idx)


def _oracle_violation_rate(table, rules):
    per_rule = {rule.id: 0 for rule in rules.rules}
    vacuous = {rule.id: 0 for rule in rules.rules}
    violating_rows = 0
    for i in range(table.n):
        hit = False
        for rule in rules.rules:
            outcome = _oracle_rule(rule, table, i)
            if outcome.status == "violated":
                per_rule[rule.id] += 1
                hit = True
            elif outcome.status == "vacuous":
                vacuous[rule.id] += 1
        if hit:
            violating_rows += 1
    return violating_rows / table.n, {
        "violating_rows": violating_rows,
        "per_rule_violations": per_rule,
        "per_rule_vacuous": vacuous,
        "rule_count": len(rules),
    }


def _oracle_violation_magnitude(table, rules):
    magnitudes = []
    for i in range(table.n):
        residuals = []
        for rule in rules.rules:
            outcome = _oracle_rule(rule, table, i)
            if outcome.status == "violated":
                residuals.append(outcome.residual)
        if residuals:
            # squared unscaled, a residual past 1e154 would overflow
            exponent = math.frexp(max(residuals))[1]
            sq = 0.0
            for r in residuals:
                sq += math.ldexp(r, -exponent) ** 2
            magnitudes.append(math.ldexp(math.sqrt(sq), exponent))
    if not magnitudes:
        return 0.0, {"violating_rows": 0}
    return float(np.mean(magnitudes)), {"violating_rows": len(magnitudes)}


def _oracle_margin_to_boundary(table, rules):
    margins = []
    invalid_rows = 0
    unbounded_rows = 0
    for i in range(table.n):
        row_margins = []
        violated = False
        for rule in rules.rules:
            outcome = _oracle_rule(rule, table, i)
            if outcome.status == "violated":
                violated = True
                break
            if outcome.status == "satisfied" and outcome.margin is not None:
                row_margins.append(outcome.margin)
        if violated:
            invalid_rows += 1
        elif row_margins:
            margins.append(min(row_margins))
        else:
            unbounded_rows += 1
    diagnostics = {"invalid_rows": invalid_rows,
                   "unbounded_rows": unbounded_rows,
                   "valid_rows": len(margins)}
    if not margins:
        diagnostics["undefined_reason"] = "no valid bounded rows"
        return None, diagnostics
    arr = np.asarray(margins)
    diagnostics["margin_min"] = float(arr.min())
    diagnostics["margin_max"] = float(arr.max())
    diagnostics["margin_median"] = float(np.median(arr))
    for q in (5, 25, 75, 95):
        diagnostics[f"margin_p{q:02d}"] = float(np.quantile(margins, q / 100))
    return float(arr.mean()), diagnostics


# integer-valued draws land exactly on the integer-valued bounds below
_numbers = st.one_of(st.integers(-4, 4).map(float),
                     st.floats(-5.0, 5.0, allow_nan=False))
_cells = st.tuples(st.one_of(st.none(), _numbers),
                   st.one_of(st.none(), _numbers),
                   st.one_of(st.none(), st.sampled_from(["a", "b", "c"])))
_fields = st.sampled_from(["age", "hgb"])
_bounds = st.one_of(st.none(), st.integers(-3, 3).map(float),
                    st.floats(-4.0, 4.0, allow_nan=False))


@st.composite
def _simple_rule(draw):
    kind = draw(st.sampled_from(["range", "allowed_set", "linear"]))
    if kind == "range":
        lo, hi = draw(_bounds), draw(_bounds)
        if lo is None and hi is None:
            lo = 0.0
        return {"kind": "range", "field": draw(_fields), "min": lo, "max": hi}
    if kind == "allowed_set":
        values = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1,
                               unique=True))
        return {"kind": "allowed_set", "field": "dx", "values": values}
    weights = draw(st.dictionaries(
        _fields, st.one_of(st.integers(-2, 2).map(float),
                           st.floats(-3.0, 3.0, allow_nan=False)),
        min_size=1).filter(lambda w: sum(v * v for v in w.values()) > 0))
    return {"kind": "linear", "weights": weights,
            "bound": draw(_numbers), "sense": draw(st.sampled_from(SENSES))}


@st.composite
def _rule_set(draw):
    raws = []
    for i in range(draw(st.integers(0, 4))):
        raw = draw(_simple_rule())
        if draw(st.booleans()):
            raw = {"kind": "implication",
                   "when": {"field": "dx", "in": draw(st.lists(
                       st.sampled_from(["a", "b", "c"]), min_size=1))},
                   "then": raw}
        raws.append({"id": f"r{i}", **{k: v for k, v in raw.items()
                                       if v is not None}})
    return ConstraintRuleSet(tuple(rule_from_dict(r) for r in raws))


@given(st.lists(_cells, min_size=1, max_size=12), _rule_set())
@settings(max_examples=300, deadline=None)
def test_metrics_equal_per_row_oracle(rows, rules):
    table, raw = _table(rows), RowTable(COLUMNS, rows)
    for metric, oracle in ((violation_rate, _oracle_violation_rate),
                           (margin_to_boundary, _oracle_margin_to_boundary)):
        # repr also tells 0.0 from -0.0, which the report prints differently
        assert repr(metric(table, rules)) == repr(oracle(raw, rules))
    value, diagnostics = violation_magnitude(table, rules)
    expected, expected_diagnostics = _oracle_violation_magnitude(raw, rules)
    assert diagnostics == expected_diagnostics
    # the oracle squares with libm pow, which is not always correctly
    # rounded; r * r is, so the two may differ in the last bits
    assert value == pytest.approx(expected, rel=4 * np.finfo(float).eps, abs=0)


# cell texts that a comma-joined or <U-array encoding would mangle
_TEXTS = ["a", "a,b", 'say "hi"', "x\x00", "x", "<missing>", ""]
_SET_COLUMNS = [("num", "numeric"), ("txt", "text"), ("cat", "categorical")]
_set_rows = st.lists(st.tuples(
    st.one_of(st.none(), st.sampled_from([0.0, -0.0, 1.0, 2.5])),
    st.one_of(st.none(), st.sampled_from(_TEXTS)),
    st.one_of(st.none(), st.sampled_from(["p", "q"]))), min_size=1,
    max_size=12)
_set_values = st.lists(st.sampled_from(_TEXTS + ["0.0", "-0.0", "1.0", "p"]),
                       min_size=1, unique=True)


@given(_set_rows, st.sampled_from(["num", "txt"]), _set_values, _set_values)
@settings(max_examples=200, deadline=None)
def test_set_rules_equal_per_row_oracle(rows, field, values, when_values):
    """allowed_set and implication distances, cell by cell, against the
    oracle, on numeric cells keyed by their text and on awkward text."""
    table, raw = table_from(_SET_COLUMNS, rows), RowTable(_SET_COLUMNS, rows)
    member = ConstraintRule(id="s", kind="allowed_set", field_name=field,
                            values=tuple(values))
    implied = ConstraintRule(id="i", kind="implication", when_field=field,
                             when_values=tuple(when_values),
                             consequent=ConstraintRule(
                                 id="i", kind="allowed_set", field_name="cat",
                                 values=("p",)))
    for rule in (member, implied):
        expected = []
        for i in range(raw.n):
            outcome = _oracle_rule(rule, raw, i)
            expected.append({"vacuous": math.nan, "violated": outcome.residual,
                             "satisfied": -math.inf if outcome.margin is None
                             else -outcome.margin}[outcome.status])
        assert repr(signed_distances(rule, table).tolist()) == repr(expected)
