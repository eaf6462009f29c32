import dataclasses

import pytest

from smdcard.config import (_SECTIONS, _TOP_LEVEL_FIELDS, SEED_ENV_VAR,
                            EvalConfig, config_digest, config_from_dict,
                            config_to_dict)
from smdcard.errors import ConfigError


def _minimal(**extra):
    raw = {"metrics": ["cosine_similarity"]}
    raw.update(extra)
    return config_from_dict(raw)


def test_minimal_config():
    cfg = _minimal()
    assert cfg.metrics == ("cosine_similarity",)
    assert cfg.weight("cosine_similarity") == 1.0


def test_declaration_only_metric_rejected():
    with pytest.raises(ConfigError, match="declaration-only"):
        _minimal(metrics=["differential_privacy_score"])


def test_duplicate_selection_rejected():
    with pytest.raises(ConfigError, match="twice"):
        _minimal(metrics=["cosine_similarity", "cosine_similarity"])


def test_unknown_param_key_rejected():
    with pytest.raises(ConfigError, match="params.precision"):
        _minimal(params={"precision": {"q": 3}})


def test_bounds_must_be_ordered():
    with pytest.raises(ConfigError, match="strictly below"):
        _minimal(bounds={"frechet_distance": [5, 5]})


def test_negative_weight_rejected():
    with pytest.raises(ConfigError, match="nonnegative"):
        _minimal(weights={"cosine_similarity": -1})


def test_all_zero_weights_for_criterion_rejected():
    with pytest.raises(ConfigError, match="no positively"):
        _minimal(weights={"cosine_similarity": 0})


def test_constraint_rules_parse():
    cfg = _minimal(constraints={"rules": [
        {"id": "r1", "kind": "range", "field": "age", "min": 0, "max": 120},
        {"id": "r2", "kind": "implication",
         "when": {"field": "dx", "equals": "anemia"},
         "then": {"kind": "range", "field": "hgb", "max": 11}},
    ]})
    assert len(cfg.constraint_rules) == 2
    assert cfg.constraint_rules[1].consequent.hi == 11


def test_implication_nesting_cap():
    with pytest.raises(ConfigError, match="nesting"):
        _minimal(constraints={"rules": [
            {"id": "deep", "kind": "implication",
             "when": {"field": "a", "equals": "x"},
             "then": {"kind": "implication",
                      "when": {"field": "b", "equals": "y"},
                      "then": {"kind": "implication",
                               "when": {"field": "c", "equals": "z"},
                               "then": {"kind": "range", "field": "v",
                                        "min": 0}}}},
        ]})


def test_seed_env_override(monkeypatch):
    cfg = _minimal()
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert cfg.effective_seed() == 0
    monkeypatch.setenv(SEED_ENV_VAR, "42")
    assert cfg.effective_seed() == 42
    assert _minimal(seed=7).effective_seed() == 7  # config wins


@pytest.mark.parametrize("value", ["-1", "1.5", "abc"])
def test_seed_env_must_be_a_nonnegative_integer(monkeypatch, value):
    monkeypatch.setenv(SEED_ENV_VAR, value)
    with pytest.raises(ConfigError, match=SEED_ENV_VAR):
        _minimal().effective_seed()


def test_digest_stable_and_sensitive():
    a = _minimal(seed=1)
    b = _minimal(seed=1)
    c = _minimal(seed=2)
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest(c)


def test_round_trip_through_dict():
    cfg = _minimal(seed=3, weights={"cosine_similarity": 2.0},
                   bounds={"frechet_distance": [0, 9]})
    again = config_from_dict({
        "metrics": list(cfg.metrics),
        "weights": dict(cfg.weights),
        "bounds": {k: list(v) for k, v in cfg.bounds.items()},
        "seed": cfg.seed,
    })
    assert config_to_dict(cfg) == config_to_dict(again)


@pytest.mark.parametrize("value", [None, ["id"], {"name": "id"}, 5, True])
def test_id_column_must_be_a_name(value):
    assert _minimal(columns={}).id_column == "id"
    assert _minimal(columns={"id": "pid"}).id_column == "pid"
    with pytest.raises(ConfigError,
                       match=r"^columns\.id must be a name") as exc:
        _minimal(columns={"id": value})
    assert exc.value.code == "E200"


@pytest.mark.parametrize("value", [None, True, False, ["NA"], {"x": 1},
                                   " NA ", "NA ", "\tNA", "NA\n"])
def test_missing_sentinel_must_be_a_bare_string_or_number(value):
    for given, text in (("", ""), ("NA", "NA"), ("N A", "N A"),
                        (-999, "-999"), (99.5, "99.5")):
        tables = {"missing_sentinel": given}
        assert _minimal(tables=tables).missing_sentinel == text
    assert _minimal().missing_sentinel == ""
    with pytest.raises(ConfigError,
                       match=r"^tables\.missing_sentinel must ") as exc:
        _minimal(tables={"missing_sentinel": value})
    assert exc.value.code == "E200"


#: A config that sets every section and every key, with rules of all four
#: kinds; its digest was recorded before the serializer was table-driven.
FULL = {
    "metrics": ["cosine_similarity", "precision", "vendi_score",
                "constraint_violation_rate", "required_field_proportion",
                "k_anonymity", "anova"],
    "params": {"vendi_score": {"kernel": "rbf", "gamma": 0.5},
               "precision": {"k": 4}},
    "columns": {"id": "pid", "subgroup": "site", "region": "zone"},
    "tables": {"real": "real.csv", "missing_sentinel": "NA",
               "schema": {"sex": "categorical", "age": "numeric",
                          "note": "text", "hgb": "numeric",
                          "dx": "categorical"}},
    "compliance": {"quasi_identifiers": ["sex", "age"],
                   "sensitive_column": "dx",
                   "declared": {"format_standard": "FHIR", "epsilon": 1,
                                "delta": 1e-05,
                                "anonymization_method": "k-anon"}},
    "constraints": {
        "rules": [
            {"id": "age", "kind": "range", "field": "age", "min": 0,
             "max": 120, "severity": "error"},
            {"id": "sex", "kind": "allowed_set", "field": "sex",
             "values": ["F", "M"]},
            {"id": "lin", "kind": "linear", "weights": {"hgb": 1, "age": 0.5},
             "bound": 80, "sense": ">="},
            {"id": "imp", "kind": "implication",
             "when": {"field": "dx", "in": ["anemia", "ckd"]},
             "then": {"kind": "range", "field": "hgb", "max": 11.5}},
            {"id": "imp1", "kind": "implication",
             "when": {"field": "sex", "equals": "M"},
             "then": {"kind": "allowed_set", "field": "dx",
                      "values": ["ckd"]}},
        ],
        "derive": {"fields": ["hgb", "age"], "quantile_margin": 0.05},
    },
    "completeness": {"required_fields": ["pid", "age"],
                     "populated_threshold": 0.9},
    "bounds": {"vendi_score": [1, 40], "precision": [0.0, 1.0]},
    "weights": {"vendi_score": 2, "cosine_similarity": 0.5},
    "thresholds": {"moderate": 60, "good": 85},
    "aggregation": "geometric",
    "seed": 5,
    "pca": {"target_dim": 3},
    "consistency": {"base_metrics": ["recall", "precision"],
                    "bootstrap_replicates": 12},
}

FULL_DIGEST = ("2663eb90366d653fd3750b1e92aba944"
               "0b2de5b9f6a60f7af1989b8b3c16176e")


def test_full_config_digest_golden():
    assert config_digest(config_from_dict(FULL)) == FULL_DIGEST


def test_full_config_round_trips_through_dict():
    cfg = config_from_dict(FULL)
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg
    assert config_digest(again) == FULL_DIGEST


def test_sections_name_every_config_field_once():
    named = list(_TOP_LEVEL_FIELDS)
    for keys in _SECTIONS.values():
        named.extend(keys.values())
    assert sorted(named) == sorted(f.name for f in dataclasses.fields(EvalConfig))
