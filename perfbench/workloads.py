"""Seeded fixtures, CLI command lines and output checks for each workload.

Every input is generated with ``smdcard.harness`` from the benchmark seed
and written to files; the program sees only those files, through its CLI.
Sizes are fixed per workload (``SIZES``); ``SMOKE_SIZES`` shrinks them for
the benchmark's own test.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from smdcard import harness, ingest
from smdcard.model import EmbeddingSet

TABLE_METRICS = (
    "constraint_violation_rate", "constraint_boundary_distance",
    "nearest_invalid_datapoint", "required_field_proportion",
    "missing_data_percentage", "k_anonymity", "l_diversity", "t_closeness",
)

#: Normalization bounds for the unbounded metrics; they only set scores.
BOUNDS = {
    "constraint_boundary_distance": [0.0, 50.0],
    "nearest_invalid_datapoint": [0.0, 50.0],
}

NUMERIC_FIELDS = {"age": (20.0, 80.0), "hgb": (10.0, 17.0),
                  "sbp": (90.0, 160.0), "bmi": (18.0, 35.0)}
CATEGORICAL_FIELDS = {"sex": ["F", "M"], "site": ["A", "B", "C", "D"],
                      "band": ["18-39", "40-59", "60-79", "80+"],
                      "dx": ["anemia", "asthma", "diabetes", "hypertension",
                             "none"]}
OUT_OF_RANGE = {"field": "age", "fraction": 0.05, "magnitude": 10.0}
MASK_FRACTION = 0.02

SIZES = {
    "subgroup_anova": {"real_rows": 600, "synthetic_rows": 600, "dim": 16,
                       "subgroups": 4, "replicates": 50},
    "record_table": {"table_rows": 20000, "embedding_rows": 200,
                     "embedding_dim": 4},
}
SMOKE_SIZES = {
    "subgroup_anova": {"real_rows": 120, "synthetic_rows": 120, "dim": 4,
                       "subgroups": 4, "replicates": 5},
    "record_table": {"table_rows": 400, "embedding_rows": 40,
                     "embedding_dim": 4},
}

MANIFEST = {
    "general": {"name": "perfbench-fixture",
                "dataset_modality": "numeric feature embeddings",
                "dataset_provenance": "smdcard.harness seeded sampler",
                "dataset_intended_use": "benchmarking only"},
    "generation": {"generation_method": "Gaussian mixture sampler"},
}


@dataclass(frozen=True)
class Prepared:
    """One workload's inputs on disk, its command lines and its checks.

    Command lines are templates: ``{out}`` stands for the directory a
    repetition writes its outputs to.
    """
    sizes: dict
    workers: int
    commands: tuple[tuple[str, ...], ...]
    output: str                      # report or bounds file inside {out}
    cards: tuple[str, ...]           # card files inside {out}
    expected: frozenset              # (scope, metric) pairs, or metric names
    serial: tuple[str, ...] | None   # the same evaluate with --workers 1
    table_expect: dict | None = None

    def argv(self, out_dir: Path) -> list[list[str]]:
        return [[a.format(out=out_dir) for a in cmd] for cmd in self.commands]

    def serial_argv(self, out_dir: Path) -> list[list[str]]:
        return [[a.format(out=out_dir) for a in self.serial]]


def _seed(seed: int, stream: int) -> int:
    return seed * 16 + stream


def _modes(count: int) -> list[dict]:
    return [{"mean": 4.0 * i, "scale": 1.0, "weight": 1.0}
            for i in range(count)]


def _write_yaml(path: Path, payload: dict) -> str:
    path.write_text(yaml.safe_dump(payload, sort_keys=True), encoding="utf-8")
    return str(path)


def _scoped(metrics, subgroups: int, global_only=()) -> frozenset:
    scopes = ["global"] + [f"subgroup:mode{i}" for i in range(subgroups)]
    return frozenset({(s, m) for s in scopes for m in metrics}
                     | {("global", m) for m in global_only})


def _card_commands(manifest: str, formats) -> list[tuple[str, ...]]:
    return [("card", "--manifest", manifest, "--report", "{out}/report.json",
             "--format", fmt, "--out", f"{{out}}/card.{fmt}")
            for fmt in formats]


def prepare(name: str, work: Path, seed: int, smoke: bool = False) -> Prepared:
    """Write the workload's inputs under ``work`` and describe its runs."""
    sizes = dict((SMOKE_SIZES if smoke else SIZES)[name])
    work.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[name](work, seed, sizes)


def _subgroup_anova(work: Path, seed: int, sizes: dict) -> Prepared:
    modes = _modes(sizes["subgroups"])
    real = harness.make_gaussian_mixture(sizes["real_rows"], sizes["dim"],
                                         modes, seed=_seed(seed, 1))
    pristine = harness.make_gaussian_mixture(sizes["synthetic_rows"],
                                             sizes["dim"], modes,
                                             seed=_seed(seed, 2))
    synthetic = harness.inject_defect(pristine, "subgroup_skew",
                                      seed=_seed(seed, 3), subgroup="mode1",
                                      noise_scale=0.5).dataset
    ingest.write_embeddings(real, str(work / "real.csv"))
    ingest.write_embeddings(synthetic, str(work / "synthetic.csv"))
    bases = ("jensen_shannon_divergence", "recall")
    consistency = ("anova", "max_min_difference")
    config = _write_yaml(work / "config.yaml", {
        "metrics": list(bases + consistency),
        "columns": {"subgroup": "subgroup"},
        "consistency": {"base_metrics": list(bases),
                        "bootstrap_replicates": sizes["replicates"]},
        "seed": seed})
    manifest = _write_yaml(work / "manifest.yaml", MANIFEST)
    workers = 2

    def evaluate(n_workers):
        return ("evaluate", "--real", str(work / "real.csv"),
                "--synthetic", str(work / "synthetic.csv"), "--config", config,
                "--out", "{out}/report.json", "--workers", str(n_workers))

    sizes["metrics"] = len(bases) + len(consistency)
    return Prepared(
        sizes=sizes, workers=workers,
        commands=(evaluate(workers), *_card_commands(manifest, ("md",))),
        output="report.json", cards=("card.md",),
        expected=_scoped(bases, sizes["subgroups"], consistency),
        serial=evaluate(1))


def _record_table(work: Path, seed: int, sizes: dict) -> Prepared:
    n = sizes["table_rows"]
    real_table = harness.make_record_table(
        n, seed=_seed(seed, 1), numeric_fields=NUMERIC_FIELDS,
        categorical_fields=CATEGORICAL_FIELDS)
    pristine = harness.make_record_table(
        n, seed=_seed(seed, 2), numeric_fields=NUMERIC_FIELDS,
        categorical_fields=CATEGORICAL_FIELDS)
    shifted = harness.inject_defect(pristine, "out_of_range",
                                    seed=_seed(seed, 3), **OUT_OF_RANGE)
    masked = harness.inject_defect(shifted.dataset, "mask_cells",
                                   seed=_seed(seed, 4), fraction=MASK_FRACTION)
    table = masked.dataset
    # Injected rows whose shifted cell is then masked become vacuous.
    j = table.column_index(OUT_OF_RANGE["field"])
    injected = [i for i in range(n)
                if shifted.dataset.rows[i][j] != pristine.rows[i][j]]
    vacuous = sum(bool(table.missing_mask[i, j]) for i in injected)
    table_expect = {
        "min_violation_rate": (OUT_OF_RANGE["fraction"] - 1.0 / n
                               - vacuous / n),
        "masked_cells": masked.descriptor["expected"]["masked_cells"],
        "cells": table.n * table.m,
    }
    ingest.write_record_table(real_table, str(work / "real_table.csv"))
    ingest.write_record_table(table, str(work / "synthetic_table.csv"))

    rows, dim = sizes["embedding_rows"], sizes["embedding_dim"]
    for stream, file_name in ((5, "real.csv"), (6, "synthetic.csv")):
        mix = harness.make_gaussian_mixture(rows, dim, _modes(1),
                                            seed=_seed(seed, stream))
        ingest.write_embeddings(EmbeddingSet(ids=mix.ids, data=mix.data),
                                str(work / file_name))

    schema = {**{k: "numeric" for k in NUMERIC_FIELDS},
              **{k: "categorical" for k in CATEGORICAL_FIELDS}}
    metrics = TABLE_METRICS + ("cosine_similarity",)
    config = _write_yaml(work / "config.yaml", {
        "metrics": list(metrics),
        "tables": {"real": "real_table.csv", "schema": schema},
        "compliance": {"quasi_identifiers": ["sex", "site", "band"],
                       "sensitive_column": "dx"},
        "constraints": {
            "rules": [
                {"id": "allowed:sex", "kind": "allowed_set", "field": "sex",
                 "values": ["F", "M"]},
                {"id": "lin:sbp_bmi", "kind": "linear",
                 "weights": {"sbp": 1.0, "bmi": 1.0}, "bound": 200.0,
                 "sense": "<="}],
            "derive": {"fields": list(NUMERIC_FIELDS)}},
        "completeness": {"required_fields": "auto"},
        "bounds": {k: v for k, v in BOUNDS.items() if k in metrics},
        "seed": seed})
    manifest = _write_yaml(work / "manifest.yaml", MANIFEST)
    evaluate = ("evaluate", "--real", str(work / "real.csv"),
                "--synthetic", str(work / "synthetic.csv"),
                "--table", str(work / "synthetic_table.csv"),
                "--config", config, "--out", "{out}/report.json")
    sizes["metrics"] = len(metrics)
    return Prepared(
        sizes=sizes, workers=1,
        commands=(evaluate, *_card_commands(manifest, ("md",))),
        output="report.json", cards=("card.md",),
        expected=frozenset(("global", m) for m in metrics),
        serial=None, table_expect=table_expect)


_BUILDERS = {"subgroup_anova": _subgroup_anova, "record_table": _record_table}


# ---------------------------------------------------------------------------
# output checks


def check_outputs(prep: Prepared, out_dir: Path) -> tuple[list[str], float]:
    """Check one repetition's outputs; returns (errors, defined ratio).

    The defined ratio is the share of report entries with a value.
    """
    try:
        payload = (out_dir / prep.output).read_bytes()
    except OSError as exc:
        return [f"{prep.output} missing: {exc}"], 0.0
    errors, entries = _report_entries(payload, prep.expected)
    if entries is None:
        return errors, 0.0
    digest = hashlib.sha256(payload).hexdigest()
    for card in prep.cards:
        try:
            text = (out_dir / card).read_text(encoding="utf-8")
        except OSError as exc:
            errors.append(f"{card} missing: {exc}")
            continue
        if digest not in text:
            errors.append(f"{card} does not embed the report digest")
    if prep.table_expect is not None:
        errors += _table_errors(entries, prep.table_expect)
    defined = sum(e["value"] is not None for e in entries.values())
    return errors, defined / max(1, len(entries))


def _report_entries(payload: bytes, expected: frozenset):
    try:
        report = json.loads(payload)
        entries = {}
        for scope in report["scopes"]:
            for criterion in scope["criteria"]:
                for entry in criterion["metrics"]:
                    entries[(scope["scope"], entry["name"])] = entry
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report does not parse: {exc!r}"], None
    errors = [f"report lacks {scope} {metric}"
              for scope, metric in sorted(expected - entries.keys())]
    for key in sorted(expected & entries.keys()):
        value = entries[key]["value"]
        if value is None:
            reason = entries[key].get("diagnostics", {}).get("undefined_reason")
            if not (isinstance(reason, str) and reason):
                errors.append(f"{key} is undefined without a reason")
        elif not (isinstance(value, (int, float)) and math.isfinite(value)):
            errors.append(f"{key} has a non-finite value {value!r}")
    return errors, entries


def _table_errors(entries: dict, expect: dict) -> list[str]:
    errors = []
    rate = entries.get(("global", "constraint_violation_rate"), {}).get("value")
    if rate is None or rate < expect["min_violation_rate"]:
        errors.append(f"violation rate {rate} is below the injected "
                      f"{expect['min_violation_rate']:.6f}")
    missing = entries.get(("global", "missing_data_percentage"),
                          {"value": None})
    cells = missing.get("diagnostics", {}).get("missing_cells")
    share = expect["masked_cells"] / expect["cells"]
    if (cells != expect["masked_cells"] or missing["value"] is None
            or not math.isclose(missing["value"], share, rel_tol=1e-8)):
        errors.append(f"missing share {missing['value']} ({cells} cells) does "
                      f"not match the {expect['masked_cells']} masked cells")
    return errors
