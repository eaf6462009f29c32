"""Golden end-to-end outputs: the report and the card in all three formats
for one small seeded fixture, compared byte for byte.

The fixture covers the global, region and subgroup scopes; all three
consistency metrics on two base metrics, with a subgroup too small for
``recall``; and the record-table metrics. It leaves out the metrics whose
last bits depend on the LAPACK build (Fréchet distance, Vendi, DPP, PCA).
"""

import pathlib

import numpy as np
import yaml

from smdcard.cli import main
from smdcard.harness import inject_defect, make_record_table
from smdcard.ingest import write_embeddings, write_record_table
from smdcard.model import EmbeddingSet

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"

SUBGROUPS = ("a",) * 14 + ("b",) * 12 + ("c",) * 11 + ("tiny",) * 3

CONFIG = {
    "metrics": ["cosine_similarity", "earth_movers_distance",
                "jensen_shannon_divergence", "precision", "recall",
                "coverage", "rarity_score", "variance_coverage",
                "entropy_coverage", "re_identification_risk",
                "constraint_violation_rate", "constraint_boundary_distance",
                "nearest_invalid_datapoint", "required_field_proportion",
                "missing_data_percentage", "k_anonymity", "l_diversity",
                "t_closeness", "metric_variance", "max_min_difference",
                "anova"],
    "columns": {"subgroup": "subgroup", "region": "region"},
    "tables": {"real": "real_table.csv",
               "schema": {"age": "numeric", "hgb": "numeric",
                          "sex": "categorical", "dx": "categorical"}},
    "compliance": {"quasi_identifiers": ["sex"], "sensitive_column": "dx",
                   "declared": {"epsilon": 2.0}},
    "constraints": {"derive": {"fields": ["age", "hgb"]}},
    "completeness": {"required_fields": "auto"},
    "consistency": {"base_metrics": ["recall", "jensen_shannon_divergence"],
                    "bootstrap_replicates": 6},
    "bounds": {"earth_movers_distance": [0, 4], "rarity_score": [0, 4],
               "variance_coverage": [0, 20], "entropy_coverage": [0, 5],
               "constraint_boundary_distance": [0, 20],
               "nearest_invalid_datapoint": [0, 20]},
    "seed": 13,
}

MANIFEST = {
    "general": {"name": "golden-fixture", "release_date": "2026-01-01",
                "dataset_size": "40 rows", "point_of_contact": "maintainers"},
    "generation": {"generation_method": "seeded Gaussian sampler",
                   "generation_parameters": {"seed": 13}},
    "usage": {"preprocessing_requirements": "none"},
    "ethical_legal": {"limitations": "toy data"},
}


def _embeddings(n: int, seed: int, shift: float) -> EmbeddingSet:
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, 4))
    data[:, 0] += shift * (np.arange(n) % 2)
    return EmbeddingSet(ids=tuple(f"e{seed}-{i}" for i in range(n)),
                        data=data, subgroup=SUBGROUPS[:n],
                        region=tuple("lesion" if i % 3 == 0 else "background"
                                     for i in range(n)))


def build_outputs(directory: pathlib.Path) -> dict[str, bytes]:
    """Write the fixture under ``directory``, run the CLI, and return the
    report and card bytes by golden file name."""
    fields = {"sex": ["F", "M"], "dx": ["a", "b", "c"]}
    real_table = make_record_table(60, seed=21, categorical_fields=fields)
    table = make_record_table(50, seed=22, categorical_fields=fields)
    table = inject_defect(table, "out_of_range", seed=23, field="age",
                          fraction=0.1, magnitude=5.0).dataset
    table = inject_defect(table, "mask_cells", seed=24,
                          fraction=0.05).dataset
    paths = {name: str(directory / name) for name in (
        "real.csv", "synthetic.csv", "real_table.csv", "table.csv",
        "config.yaml", "manifest.yaml", "report.json", "card.md",
        "card.html", "card.json")}
    write_embeddings(_embeddings(40, seed=31, shift=3.0), paths["real.csv"])
    write_embeddings(_embeddings(40, seed=32, shift=2.5),
                     paths["synthetic.csv"])
    write_record_table(real_table, paths["real_table.csv"])
    write_record_table(table, paths["table.csv"])
    for name, payload in (("config.yaml", CONFIG), ("manifest.yaml", MANIFEST)):
        with open(paths[name], "w", encoding="utf-8") as fh:
            yaml.safe_dump(payload, fh, sort_keys=True)

    assert main(["evaluate", "--real", paths["real.csv"],
                 "--synthetic", paths["synthetic.csv"],
                 "--table", paths["table.csv"], "--config", paths["config.yaml"],
                 "--out", paths["report.json"], "--workers", "2"]) == 0
    for fmt, name in (("md", "card.md"), ("html", "card.html"),
                      ("structured", "card.json")):
        assert main(["card", "--manifest", paths["manifest.yaml"],
                     "--report", paths["report.json"], "--format", fmt,
                     "--out", paths[name]]) == 0
    names = ("report.json", "card.md", "card.html", "card.json")
    return {name: pathlib.Path(paths[name]).read_bytes() for name in names}


def test_fixture_covers_what_the_golden_files_pin(tmp_path):
    import json
    outputs = build_outputs(tmp_path)
    report = json.loads(outputs["report.json"])
    scopes = [s["scope"] for s in report["scopes"]]
    assert scopes == ["global", "region:background", "region:lesion",
                      "subgroup:a", "subgroup:b", "subgroup:c",
                      "subgroup:tiny"]
    criteria = {c["criterion"]: c for c in report["scopes"][0]["criteria"]}
    consistency = {m["name"]: m for m in criteria["consistency"]["metrics"]}
    assert set(consistency) == {"metric_variance", "max_min_difference",
                                "anova"}
    anova = consistency["anova"]["diagnostics"]["per_base"]
    assert anova["recall"]["skipped"] == ["tiny"]
    assert anova["jensen_shannon_divergence"]["skipped"] == []
    assert all(m["value"] is not None for m in criteria["constraint"]["metrics"])


def test_report_and_card_bytes_match_golden(tmp_path):
    outputs = build_outputs(tmp_path)
    for name, payload in outputs.items():
        assert payload == (GOLDEN / name).read_bytes(), name
