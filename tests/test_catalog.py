import csv
import inspect
import pathlib
import re

import numpy as np
import pytest

from smdcard import catalog, compliance, congruence, coverage, runner
from smdcard.errors import ConfigError, EvaluationError
from smdcard.model import EmbeddingSet

GOLDEN = pathlib.Path(__file__).parent / "data" / "metric_catalog_golden.csv"
README = pathlib.Path(__file__).parents[1] / "README.md"

_DIRECTION = {"Maximize": "maximize", "Minimize": "minimize",
              "Stat. Sig.": "stat-sig"}
_SPACE = {"Embedding": "embedding", "Image": "image", "Metadata": "metadata",
          "Data Attribute": "data-attribute", "Documentation": "documentation",
          "Quality Metrics": "quality-metrics"}


def _golden_rows():
    with open(GOLDEN, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_catalog_matches_golden_row_for_row():
    golden = _golden_rows()
    rows = catalog.catalog_rows()
    assert len(rows) == len(golden)
    for descriptor, expected in zip(rows, golden):
        assert descriptor.label == expected["metric"]
        assert descriptor.criterion == expected["criterion"].lower()
        assert descriptor.space == _SPACE[expected["space"]]
        assert descriptor.arity == expected["binary"].lower()
        assert descriptor.direction == _DIRECTION[expected["direction"]]
        assert descriptor.image_only == (expected["image_metric"] == "Yes")


def test_names_unique_and_resolvable():
    names = [d.name for d in catalog.CATALOG + catalog.EXTRAS]
    assert len(set(names)) == len(names)
    for name in names:
        assert catalog.descriptor(name).name == name


def test_unknown_metric_raises():
    with pytest.raises(ConfigError):
        catalog.descriptor("no_such_metric")


def test_score_direction_defaults_to_direction():
    flipped = {d.name for d in catalog.CATALOG + catalog.EXTRAS
               if d.score_direction != d.direction}
    assert flipped == {"t_closeness", "nearest_invalid_datapoint"}


def test_criteria_cover_all_seven():
    assert {d.criterion for d in catalog.CATALOG} == set(catalog.CRITERIA)


def test_declaration_only_metric_not_selectable():
    assert "differential_privacy_score" not in catalog.selectable_names()
    assert "k_anonymity" in catalog.selectable_names()


def _allowed_text(allowed):
    if allowed is str:
        return "any string"
    if isinstance(allowed, tuple):
        return "one of " + ", ".join(f"`{v}`" for v in allowed)
    return f"{'integer' if isinstance(allowed, int) else 'number'} ≥ {allowed:g}"


def test_readme_parameter_table_matches_catalog():
    section = README.read_text(encoding="utf-8").split(
        "### Metric parameters", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| `([^`]+)` \| ([^|]+) \|",
                      section, re.M)
    expected = [(d.name, key, "null" if default is None else f"{default:g}"
                 if isinstance(default, float) else str(default),
                 _allowed_text(allowed))
                for d in catalog.CATALOG + catalog.EXTRAS
                for key, default, allowed in d.params]
    assert rows == expected


#: The public functions of each metric that take its parameters: the one
#: its ``runner._COMPUTE`` or ``runner._BLOCKS`` entry calls comes last,
#: after a block metric's single-set function, which no entry calls.
#: ``inception_score``'s ``probs_path`` is read by the command line, so its
#: function takes no parameter.
_PARAM_FUNCTIONS = {
    "earth_movers_distance": (congruence.wasserstein1,),
    "jensen_shannon_divergence": (congruence.jensen_shannon,
                                  congruence.jensen_shannon_replicates),
    "precision": (congruence.manifold_precision,),
    "recall": (coverage.manifold_recall, coverage.manifold_recall_replicates),
    "coverage": (coverage.manifold_coverage,),
    "convex_hull_volume": (coverage.convex_hull_volume,),
    "dpp_score": (coverage.dpp_logdet,),
    "vendi_score": (coverage.vendi_score,),
    "entropy_coverage": (coverage.embedding_entropy,
                         coverage.embedding_entropy_replicates),
    "rarity_score": (coverage.rarity_score,),
    "cluster_balance": (coverage.cluster_balance,),
    "re_identification_risk": (compliance.leakage_rate,),
}


def test_metric_function_defaults_equal_catalog_defaults():
    # a direct call with its defaults computes what evaluate computes
    with_params = {d.name for d in catalog.CATALOG + catalog.EXTRAS
                   if d.params and d.name != "inception_score"}
    assert set(_PARAM_FUNCTIONS) == with_params
    for name, functions in _PARAM_FUNCTIONS.items():
        entry = runner._COMPUTE.get(name) or runner._BLOCKS[name]
        assert functions[-1].__name__ in entry.__code__.co_names, name
        descriptor = catalog.descriptor(name)
        for function in functions:
            parameters = inspect.signature(function).parameters
            for key, _, _ in descriptor.params:
                assert (parameters[key].default
                        == descriptor.default(key)), (name, function, key)


#: The public functions of each binary embedding metric.
_BINARY_EMBEDDING_FUNCTIONS = {
    "cosine_similarity": (congruence.cosine_centroid,),
    "earth_movers_distance": (congruence.wasserstein1,),
    "jensen_shannon_divergence": (congruence.jensen_shannon,
                                  congruence.jensen_shannon_replicates),
    "frechet_distance": (congruence.frechet_distance,),
    "centroid_distance_congruence": (congruence.centroid_distance,),
    "precision": (congruence.manifold_precision,),
    "recall": (coverage.manifold_recall, coverage.manifold_recall_replicates),
    "coverage": (coverage.manifold_coverage,),
    "centroid_distance_coverage": (coverage.centroid_spread,),
    "rarity_score": (coverage.rarity_score,),
    "re_identification_risk": (compliance.leakage_rate,),
}


def test_binary_embedding_functions_listed():
    assert set(_BINARY_EMBEDDING_FUNCTIONS) == {
        d.name for d in catalog.REGISTRY.values()
        if d.source == catalog.SOURCE_EMBEDDING and d.arity == "binary"}


@pytest.mark.parametrize("function", [
    f for functions in _BINARY_EMBEDDING_FUNCTIONS.values()
    for f in functions], ids=lambda f: f.__name__)
def test_dimension_mismatch_is_one_evaluation_error(function):
    # a direct call, which no plan check guards, names both dimensions
    rng = np.random.default_rng(12)
    ids = tuple(str(i) for i in range(10))
    real = EmbeddingSet(ids, rng.normal(size=(10, 2)))
    synthetic = EmbeddingSet(ids, rng.normal(size=(10, 3)))
    with pytest.raises(EvaluationError,
                       match=r"^dimension mismatch: real d=2, synthetic d=3$"):
        function(real, synthetic)
