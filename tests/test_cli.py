import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

import smdcard
from smdcard import ingest
from smdcard.cli import main
from smdcard.harness import make_gaussian_mixture
from smdcard.model import EmbeddingSet

TWO_MODES = [{"mean": 0.0, "scale": 1.0, "weight": 0.5},
             {"mean": 6.0, "scale": 1.0, "weight": 0.5}]

CONFIG = {
    "metrics": ["cosine_similarity", "jensen_shannon_divergence",
                "frechet_distance", "recall", "vendi_score"],
    "bounds": {"frechet_distance": [0, 60]},
    "columns": {"subgroup": "subgroup"},
    "seed": 17,
}

MANIFEST = {
    "general": {"name": "cli-demo", "version_history": "v1",
                "attribution_licensing": "MIT",
                "point_of_contact": "a@b"},
    "generation": {"generation_method": "mixture sampler",
                   "training_validation_process": "none"},
    "usage": {"preprocessing_requirements": "none"},
    "ethical_legal": {"limitations": "toy data"},
    "reference_dataset": {"purpose": "demo"},
}


@pytest.fixture
def workspace(tmp_path):
    real = make_gaussian_mixture(90, 4, TWO_MODES, seed=91)
    synth = make_gaussian_mixture(80, 4, TWO_MODES, seed=92)
    paths = {
        "real": tmp_path / "real.csv",
        "synthetic": tmp_path / "synthetic.csv",
        "config": tmp_path / "config.yaml",
        "manifest": tmp_path / "manifest.yaml",
        "report": tmp_path / "report.json",
    }
    ingest.write_embeddings(real, str(paths["real"]))
    ingest.write_embeddings(synth, str(paths["synthetic"]))
    paths["config"].write_text(yaml.safe_dump(CONFIG))
    paths["manifest"].write_text(yaml.safe_dump(MANIFEST))
    return tmp_path, paths


def _evaluate_args(paths, out=None):
    return ["evaluate", "--real", str(paths["real"]),
            "--synthetic", str(paths["synthetic"]),
            "--config", str(paths["config"]),
            "--out", str(out or paths["report"])]


class TestEvaluate:
    def test_valid_run(self, workspace, capsys):
        _, paths = workspace
        assert main(_evaluate_args(paths)) == 0
        assert paths["report"].exists()
        out = capsys.readouterr().out
        assert "congruence" in out
        report = json.loads(paths["report"].read_text())
        assert report["seed"] == 17

    def test_rerun_byte_identical(self, workspace, tmp_path):
        _, paths = workspace
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(_evaluate_args(paths, out_a)) == 0
        assert main(_evaluate_args(paths, out_b)) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_missing_real_names_metric(self, workspace, capsys):
        _, paths = workspace
        code = main(["evaluate", "--synthetic", str(paths["synthetic"]),
                     "--config", str(paths["config"]),
                     "--out", str(paths["report"])])
        assert code == 2
        err = capsys.readouterr().err
        assert "frechet_distance" in err
        assert err.startswith("E")
        assert not paths["report"].exists()

    def test_validate_config_dry_run(self, workspace, capsys):
        _, paths = workspace
        code = main(_evaluate_args(paths) + ["--validate-config"])
        assert code == 0
        assert not paths["report"].exists()
        assert "plan ok" in capsys.readouterr().out

    def test_malformed_config_exit_2(self, workspace, capsys):
        tmp_path, paths = workspace
        bad = tmp_path / "bad.yaml"
        bad.write_text("metrics: [not_a_metric]\n")
        paths = dict(paths, config=bad)
        assert main(_evaluate_args(paths)) == 2
        assert "E20" in capsys.readouterr().err

    @pytest.mark.parametrize("override, key", [
        ({"seed": "abc"}, "seed"),
        ({"pca": {"target_dim": "x"}}, "pca.target_dim"),
        ({"weights": {"recall": "x"}}, "weights.recall"),
        ({"consistency": {"bootstrap_replicates": "x"}},
         "consistency.bootstrap_replicates"),
        ({"consistency": {"base_metrics": 5}}, "consistency.base_metrics"),
        ({"consistency": {"base_metrics": []}}, "consistency.base_metrics"),
        ({"completeness": {"populated_threshold": "x"}},
         "completeness.populated_threshold"),
        ({"bounds": {"frechet_distance": ["a", 1]}}, "bounds.frechet_distance"),
        ({"thresholds": {"good": "x"}}, "thresholds.good"),
        ({"constraints": {"derive": {"fields": ["age"],
                                     "quantile_margin": "x"}}},
         "constraints.derive.quantile_margin"),
        ({"constraints": {"rules": [{"id": "r", "kind": "range",
                                     "field": "age", "min": "x"}]}}, "min"),
        ({"constraints": {"rules": [{"id": "r", "kind": "range",
                                     "max": 1}]}}, "field"),
        ({"compliance": {"declared": {"epsilon": [1, 2]}}},
         "compliance.declared.epsilon"),
        ({"params": {"recall": {"k": {"n": 3}}}}, "params.recall.k"),
        ({"columns": {"subgroup": {"name": "subgroup"}}}, "columns.subgroup"),
        ({"compliance": {"quasi_identifiers": 5}},
         "compliance.quasi_identifiers"),
        ({"constraints": {"rules": 5}}, "constraints.rules"),
        ({"constraints": {"derive": {"fields": 5}}},
         "constraints.derive.fields"),
        ({"constraints": {"rules": [{"id": "r", "kind": "allowed_set",
                                     "field": "sex", "values": 5}]}},
         "values"),
        ({"params": {"jensen_shannon_divergence": {"bins": 0}}},
         "params.jensen_shannon_divergence.bins"),
        ({"params": {"re_identification_risk": {"tau": -1}}},
         "params.re_identification_risk.tau"),
        ({"params": {"precision": {"k": 0}}}, "params.precision.k"),
        ({"params": {"precision": {"k": -2}}}, "params.precision.k"),
        ({"params": {"precision": {"k": 2.7}}}, "params.precision.k"),
        ({"params": {"precision": {"k": None}}}, "params.precision.k"),
        ({"params": {"jensen_shannon_divergence": {"bins": 2.5}}},
         "params.jensen_shannon_divergence.bins"),
        ({"params": {"dpp_score": {"ridge": -1}}}, "params.dpp_score.ridge"),
        ({"params": {"vendi_score": {"kernel": "rbf", "gamma": -1}}},
         "params.vendi_score.gamma"),
        ({"params": {"vendi_score": {"kernel": "cosinee"}}},
         "params.vendi_score.kernel"),
        ({"params": {"earth_movers_distance": {"mode": "exact"}}},
         "params.earth_movers_distance.mode"),
        ({"seed": 2.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": -1}, "seed"),
        ({"pca": {"target_dim": 2.9}}, "pca.target_dim"),
        ({"consistency": {"bootstrap_replicates": 2.9}},
         "consistency.bootstrap_replicates"),
        ({"weights": {"recall": float("nan")}}, "weights.recall"),
        ({"weights": {"recall": float("inf")}}, "weights.recall"),
        ({"bounds": {"frechet_distance": [0, float("inf")]}},
         "bounds.frechet_distance"),
        ({"params": {"vendi_score": {"gamma": 0.5}}},
         "params.vendi_score.gamma"),
        ({"params": {"dpp_score": {"kernel": "cosine", "gamma": 2}}},
         "params.dpp_score.gamma"),
        ({"consistency": {"base_metrics": ["recall", "recall"]}},
         "consistency.base_metrics"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_malformed_config_value_exit_2(self, workspace, capsys,
                                           override, key):
        tmp_path, paths = workspace
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(dict(CONFIG, **override)))
        paths = dict(paths, config=bad)
        assert main(_evaluate_args(paths)) == 2
        err = capsys.readouterr().err
        assert err.startswith("E20") and key in err
        assert not paths["report"].exists()

    def test_validate_config_agrees_with_evaluate(self, workspace, capsys):
        # constraints.derive needs tables.real even when no constraint
        # metric is selected, since the derived rules are always built
        tmp_path, paths = workspace
        derive = tmp_path / "derive.yaml"
        derive.write_text(yaml.safe_dump(dict(
            CONFIG, constraints={"derive": {"fields": ["age"]}})))
        paths = dict(paths, config=derive)
        for extra in (["--validate-config"], []):
            assert main(_evaluate_args(paths) + extra) == 2
            err = capsys.readouterr().err
            assert err.startswith("E227") and "constraints.derive" in err
        assert not paths["report"].exists()

    def test_non_finite_rule_bound_exit_2(self, workspace, capsys):
        tmp_path, paths = workspace
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(CONFIG) + "constraints:\n  rules:\n"
                       "  - {id: age_cap, kind: range, field: age, max: .inf}\n")
        paths = dict(paths, config=bad)
        assert main(_evaluate_args(paths)) == 2
        err = capsys.readouterr().err
        assert "'age_cap'" in err and "finite" in err
        assert not paths["report"].exists()

    def test_parallel_run_identical(self, workspace, tmp_path):
        _, paths = workspace
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        assert main(_evaluate_args(paths, serial) + ["--workers", "1"]) == 0
        assert main(_evaluate_args(paths, parallel) + ["--workers", "4"]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_overflowing_histogram_range_gives_marker(self, tmp_path):
        # finite values whose pooled span overflows float64
        rng = np.random.default_rng(3)
        paths = {name: tmp_path / f"{name}.csv" for name in ("real",
                                                             "synthetic")}
        for name, path in paths.items():
            data = rng.uniform(-1.0, 1.0, size=(50, 1)) * 1.5e308
            ingest.write_embeddings(EmbeddingSet(
                tuple(str(i) for i in range(50)), data), str(path))
        paths["config"] = tmp_path / "config.yaml"
        paths["config"].write_text(yaml.safe_dump({
            "metrics": ["jensen_shannon_divergence", "entropy_coverage"],
            "bounds": {"entropy_coverage": [0, 5]}}))
        paths["report"] = tmp_path / "report.json"
        assert main(_evaluate_args(paths)) == 0
        report = json.loads(paths["report"].read_text())
        found = {m["name"]: (m["value"], m["diagnostics"])
                 for scope in report["scopes"] for c in scope["criteria"]
                 for m in c["metrics"]}
        marker = (None, {"undefined_reason": "pooled range overflows "
                                             "float64 in dimensions [0]"})
        assert found == {"jensen_shannon_divergence": marker,
                         "entropy_coverage": marker}

    def test_task_error_same_at_any_worker_count(self, workspace, capsys):
        tmp_path, paths = workspace
        probs = tmp_path / "probs.csv"
        probs.write_text("id,c0,c1\n0,0.5,0.5\n1,1.5,-0.5\n")
        config = tmp_path / "probs.yaml"
        config.write_text(yaml.safe_dump(dict(
            CONFIG, metrics=["cosine_similarity", "recall", "inception_score"],
            params={"inception_score": {"probs_path": str(probs)}})))
        paths = dict(paths, config=config)
        outcomes = []
        for workers in ("1", "2"):
            code = main(_evaluate_args(paths) + ["--workers", workers])
            outcomes.append((code, capsys.readouterr().err))
        assert outcomes[0] == (2, "E240: negative probability in row 1\n")
        assert outcomes[1] == outcomes[0]
        assert not paths["report"].exists()

    @pytest.mark.parametrize("name, body, message", [
        ("synthetic.jsonl", '{"id": "a", "subgroup": "g", '
                            '"features": [1.0, 2.0]}\n'
                            '{"id": "b", "subgroup": "g", '
                            '"features": [3.0]}\n',
         "row 2 has 1 features, expected 2"),
        ("synthetic.jsonl", '{"id": "a", "subgroup": "g", "features": 5}\n',
         "row 1: features must be a non-empty list of numbers"),
        ("synthetic.jsonl", '{"id": "a", "subgroup": "g", '
                            '"features": [true, false]}\n',
         "non-numeric cell at row 1 col 1: True"),
        ("synthetic.jsonl", '{"id": "a", "subgroup": "g", '
                            '"features": [1' + "0" * 5000 + ']}\n',
         "row 1: Exceeds the limit"),
        ("synthetic.csv", "id,subgroup,f0,f0,f2,f3\na,g,1,2,3,4\n",
         "header repeats column names ['f0']"),
        ("synthetic.csv", "id,subgroup,f0,f1,f2,g3\na,g,1,2,3,4\n",
         "missing ['f3'], not in the reference ['g3']"),
    ], ids=["jsonl_ragged", "jsonl_not_a_list", "jsonl_booleans",
            "jsonl_long_integer", "csv_repeated_name", "csv_other_names"])
    def test_malformed_embeddings_exit_2(self, workspace, capsys, name, body,
                                         message):
        tmp_path, paths = workspace
        bad = tmp_path / name
        bad.write_text(body)
        paths = dict(paths, synthetic=bad)
        assert main(_evaluate_args(paths)) == 2
        err = capsys.readouterr().err
        assert err.startswith("E21") and str(bad) in err and message in err
        assert not paths["report"].exists()

    def test_feature_columns_matched_by_name(self, workspace, tmp_path):
        # the synthetic file with its feature columns in another order
        # gives the report of the file in the reference's order
        tmp_ws, paths = workspace
        lines = paths["synthetic"].read_text().splitlines()
        order = [0, 1, 4, 2, 5, 3]  # id, subgroup, f2, f0, f3, f1
        shuffled = tmp_ws / "shuffled.csv"
        shuffled.write_text("".join(",".join(line.split(",")[j] for j in order)
                                    + "\n" for line in lines))
        assert shuffled.read_text().startswith("id,subgroup,f2,f0,f3,f1\n")
        reports = []
        for synthetic in (paths["synthetic"], shuffled):
            out = tmp_path / f"{synthetic.stem}.json"
            assert main(_evaluate_args(dict(paths, synthetic=synthetic),
                                       out)) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("ext", ["csv", "jsonl"])
    def test_byte_order_mark_gives_same_report(self, workspace, tmp_path,
                                               ext):
        tmp_ws, paths = workspace
        plain = {}
        for name in ("real", "synthetic"):
            if ext == "csv":
                plain[name] = paths[name]
                continue
            eset = ingest.read_embeddings(str(paths[name]),
                                          subgroup_column="subgroup")
            plain[name] = tmp_ws / f"{name}.jsonl"
            plain[name].write_text("".join(json.dumps({
                "id": eset.ids[i], "subgroup": eset.subgroup[i],
                "features": eset.data[i].tolist()}) + "\n"
                for i in range(eset.n)))
        marked = {}
        for name, path in plain.items():
            marked[name] = tmp_ws / f"bom_{path.name}"
            marked[name].write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        reports = []
        for files in (plain, marked):
            out = tmp_path / f"report_{len(reports)}.json"
            assert main(_evaluate_args(dict(paths, **files), out)) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_env_seed_used_when_config_omits(self, workspace, monkeypatch,
                                             tmp_path):
        tmp_path_ws, paths = workspace
        config = dict(CONFIG)
        config.pop("seed")
        free = tmp_path_ws / "config_noseed.yaml"
        free.write_text(yaml.safe_dump(config))
        paths = dict(paths, config=free)
        monkeypatch.setenv("SMDCARD_SEED", "99")
        out = tmp_path / "seeded.json"
        assert main(_evaluate_args(paths, out)) == 0
        assert json.loads(out.read_text())["seed"] == 99


class TestFullSurface:
    def test_reference_keeps_quoted_subgroup_column(self, tmp_path):
        # the subgroup header needs CSV quoting: "site, A"
        real = make_gaussian_mixture(40, 3, TWO_MODES, seed=93)
        synth = make_gaussian_mixture(40, 3, TWO_MODES, seed=94)
        for name, eset in (("real", real), ("synthetic", synth)):
            ingest.write_embeddings(eset, str(tmp_path / f"{name}.csv"))
            text = (tmp_path / f"{name}.csv").read_text()
            (tmp_path / f"{name}.csv").write_text(
                text.replace("id,subgroup,", 'id,"site, A",', 1))
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump({
            "metrics": ["cosine_similarity"],
            "columns": {"subgroup": "site, A"}, "seed": 3}))
        out = tmp_path / "report.json"
        assert main(["evaluate", "--real", str(tmp_path / "real.csv"),
                     "--synthetic", str(tmp_path / "synthetic.csv"),
                     "--config", str(config), "--out", str(out)]) == 0
        scopes = json.loads(out.read_text())["scopes"]
        subgroup = [s for s in scopes if s["scope"] == "subgroup:mode0"][0]
        entry = subgroup["criteria"][0]["metrics"][0]
        assert entry["value"] is not None, entry["diagnostics"]

    def test_jsonl_reads_the_configured_columns_as_csv_does(self, tmp_path):
        # the same data in both formats gives the same report: ids and
        # subgroups come from the configured keys, the unconfigured "id"
        # and "subgroup" keys are not read, and the reference file may omit
        # the subgroup
        real = make_gaussian_mixture(40, 3, TWO_MODES, seed=93)
        synth = make_gaussian_mixture(40, 3, TWO_MODES, seed=94)
        for name, eset in (("real", real), ("synthetic", synth)):
            labels = (("cohort", eset.subgroup),) if name == "synthetic" else ()
            with open(tmp_path / f"{name}.csv", "w") as fh:
                fh.write(",".join(["key", *(k for k, _ in labels), "f0", "f1",
                                   "f2"]) + "\n")
                for i in range(eset.n):
                    fh.write(",".join([eset.ids[i], *(v[i] for _, v in labels),
                                       *map(repr, eset.data[i].tolist())])
                             + "\n")
            with open(tmp_path / f"{name}.jsonl", "w") as fh:
                for i in range(eset.n):
                    fh.write(json.dumps({
                        "key": eset.ids[i], "id": "same", "subgroup": "x",
                        **{k: v[i] for k, v in labels},
                        "features": eset.data[i].tolist()}) + "\n")
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump({
            "metrics": ["cosine_similarity"],
            "columns": {"id": "key", "subgroup": "cohort"}, "seed": 3}))
        reports = []
        for ext in ("csv", "jsonl"):
            out = tmp_path / f"report_{ext}.json"
            assert main(["evaluate", "--real", str(tmp_path / f"real.{ext}"),
                         "--synthetic", str(tmp_path / f"synthetic.{ext}"),
                         "--config", str(config), "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert [s["scope"] for s in json.loads(reports[0])["scopes"]] == [
            "global", "subgroup:mode0", "subgroup:mode1"]

    def test_evaluate_with_table_images_and_probs(self, workspace, tmp_path):
        tmp_ws, paths = workspace
        rng = np.random.default_rng(7)

        from smdcard.harness import make_record_table
        table = make_record_table(40, seed=3)
        table_path = tmp_ws / "synth_table.csv"
        real_table_path = tmp_ws / "real_table.csv"
        ingest.write_record_table(table, str(table_path))
        ingest.write_record_table(make_record_table(50, seed=4),
                                  str(real_table_path))

        img_a = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
        img_b = np.clip(img_a + rng.integers(-6, 7, size=(16, 16)), 0,
                        255).astype(np.uint8)
        ingest.write_pgm(str(tmp_ws / "a.pgm"), img_a)
        ingest.write_pgm(str(tmp_ws / "b.pgm"), img_b)
        (tmp_ws / "pairs.csv").write_text("a.pgm,b.pgm\n")

        raw = rng.uniform(size=(30, 4))
        probs = raw / raw.sum(axis=1, keepdims=True)
        lines = ["id,c0,c1,c2,c3"]
        lines += [f"p{i}," + ",".join(repr(float(v)) for v in row)
                  for i, row in enumerate(probs)]
        (tmp_ws / "probs.csv").write_text("\n".join(lines) + "\n")

        config = dict(
            CONFIG,
            metrics=CONFIG["metrics"] + [
                "psnr", "ssim", "inception_score",
                "missing_data_percentage", "required_field_proportion",
                "constraint_violation_rate", "k_anonymity", "l_diversity",
                "t_closeness"],
            params={"inception_score": {"probs_path": "probs.csv"}},
            bounds=dict(CONFIG["bounds"], psnr=[10, 60]),
            tables={"real": "real_table.csv",
                    "schema": {"age": "numeric", "hgb": "numeric",
                               "sex": "categorical"}},
            compliance={"quasi_identifiers": ["sex"],
                        "sensitive_column": "hgb"},
            constraints={"derive": {"fields": ["age", "hgb"]}},
        )
        config_path = tmp_ws / "full.yaml"
        config_path.write_text(yaml.safe_dump(config))
        out = tmp_path / "full_report.json"
        code = main(["evaluate", "--real", str(paths["real"]),
                     "--synthetic", str(paths["synthetic"]),
                     "--table", str(table_path),
                     "--images", str(tmp_ws / "pairs.csv"),
                     "--config", str(config_path), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        global_scope = report["scopes"][0]
        names = {m["name"] for c in global_scope["criteria"]
                 for m in c["metrics"]}
        assert {"psnr", "ssim", "inception_score", "k_anonymity",
                "constraint_violation_rate"} <= names
        criteria = {c["criterion"]: c for c in global_scope["criteria"]}
        assert criteria["constraint"]["score"] is not None
        assert criteria["compliance"]["score"] is not None


class TestCard:
    def _make_report(self, paths):
        assert main(_evaluate_args(paths)) == 0

    def test_markdown_card(self, workspace, tmp_path):
        _, paths = workspace
        self._make_report(paths)
        out = tmp_path / "card.md"
        code = main(["card", "--manifest", str(paths["manifest"]),
                     "--report", str(paths["report"]),
                     "--format", "md", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.splitlines()[0].startswith("# Synthetic Medical Data Card")
        assert "## 1. Synthetic Data General Information" in text

    def test_html_card_single_file(self, workspace, tmp_path):
        _, paths = workspace
        self._make_report(paths)
        out = tmp_path / "card.html"
        assert main(["card", "--manifest", str(paths["manifest"]),
                     "--report", str(paths["report"]),
                     "--format", "html", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "src=" not in text  # no external assets
        assert text.count("<h2>") == 8

    def test_stale_report_exit_2(self, workspace, tmp_path, capsys):
        _, paths = workspace
        self._make_report(paths)
        digest = "0" * 64
        manifest = dict(MANIFEST, report_digest=digest)
        pinned = tmp_path / "pinned.yaml"
        pinned.write_text(yaml.safe_dump(manifest))
        out = tmp_path / "card.md"
        code = main(["card", "--manifest", str(pinned),
                     "--report", str(paths["report"]),
                     "--format", "md", "--out", str(out)])
        assert code == 2
        assert "E231" in capsys.readouterr().err
        assert not out.exists()

    def test_structured_round_trip(self, workspace, tmp_path):
        _, paths = workspace
        self._make_report(paths)
        out = tmp_path / "card.json"
        assert main(["card", "--manifest", str(paths["manifest"]),
                     "--report", str(paths["report"]),
                     "--format", "structured", "--out", str(out)]) == 0
        from smdcard.card import card_from_json, render_structured
        payload = out.read_bytes()
        assert render_structured(card_from_json(payload)) == payload


    @pytest.mark.parametrize("corrupt", [
        lambda report: {},
        lambda report: "not json",
        lambda report: dict(report, extra=1),
        lambda report: {k: v for k, v in report.items() if k != "notes"},
    ], ids=["empty", "not_json", "unknown_key", "missing_key"])
    def test_malformed_report_exit_2(self, workspace, tmp_path, capsys,
                                     corrupt):
        _, paths = workspace
        self._make_report(paths)
        bad = tmp_path / "bad_report.json"
        bad.write_text(json.dumps(corrupt(json.loads(
            paths["report"].read_text()))))
        out = tmp_path / "card.md"
        code = main(["card", "--manifest", str(paths["manifest"]),
                     "--report", str(bad), "--format", "md",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("E210") and str(bad) in err
        assert not out.exists()


class TestCalibrate:
    def test_bounds_file_written(self, workspace, tmp_path, capsys):
        _, paths = workspace
        out = tmp_path / "bounds.yaml"
        code = main(["calibrate", "--real", str(paths["real"]),
                     "--config", str(paths["config"]), "--out", str(out)])
        assert code == 0
        bounds = yaml.safe_load(out.read_text())["bounds"]
        assert set(bounds) == set(CONFIG["metrics"])
        lo, hi = bounds["frechet_distance"]
        assert 0.0 <= lo < 1.0

    def test_same_seed_identical_file(self, workspace, tmp_path):
        _, paths = workspace
        out_a = tmp_path / "a.yaml"
        out_b = tmp_path / "b.yaml"
        main(["calibrate", "--real", str(paths["real"]),
              "--config", str(paths["config"]), "--out", str(out_a)])
        main(["calibrate", "--real", str(paths["real"]),
              "--config", str(paths["config"]), "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_too_small_exit_2(self, workspace, tmp_path, capsys):
        tmp_ws, paths = workspace
        tiny = make_gaussian_mixture(3, 4, TWO_MODES, seed=1)
        tiny_path = tmp_ws / "tiny.csv"
        ingest.write_embeddings(tiny, str(tiny_path))
        code = main(["calibrate", "--real", str(tiny_path),
                     "--config", str(paths["config"]),
                     "--out", str(tmp_path / "b.yaml")])
        assert code == 2


RECIPE = {
    "embedding": {"n": 60, "d": 4, "seed": 7, "modes": TWO_MODES},
    "table": {"n": 30, "seed": 8,
              "numeric_fields": {"age": [20, 80]},
              "categorical_fields": {"sex": ["F", "M"]}},
    "defects": [
        {"kind": "mode_drop", "mode": "mode1"},
        {"kind": "duplicate_real", "fraction": 0.5, "seed": 2},
        {"kind": "mask_cells", "fraction": 0.1, "seed": 3},
    ],
}


class TestFixtures:
    def test_recipe_outputs(self, tmp_path):
        recipe = tmp_path / "recipe.yaml"
        recipe.write_text(yaml.safe_dump(RECIPE))
        out = tmp_path / "fixtures"
        assert main(["fixtures", "--recipe", str(recipe),
                     "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert "real.csv" in names
        assert "real_table.csv" in names
        assert "defects.json" in names
        assert any("mode_drop" in n for n in names)
        descriptors = json.loads((out / "defects.json").read_text())
        assert len(descriptors) == 3
        assert all("expected" in d for d in descriptors)

    def test_unknown_defect_kind_exit_2(self, tmp_path, capsys):
        recipe = tmp_path / "recipe.yaml"
        recipe.write_text(yaml.safe_dump(
            {"embedding": {"n": 10, "d": 2, "seed": 1, "modes": TWO_MODES},
             "defects": [{"kind": "gremlins"}]}))
        assert main(["fixtures", "--recipe", str(recipe),
                     "--out", str(tmp_path / "f")]) == 2
        assert "gremlins" in capsys.readouterr().err

    def test_rerun_identical(self, tmp_path):
        recipe = tmp_path / "recipe.yaml"
        recipe.write_text(yaml.safe_dump(RECIPE))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["fixtures", "--recipe", str(recipe), "--out", str(out_a)])
        main(["fixtures", "--recipe", str(recipe), "--out", str(out_b)])
        for name in sorted(p.name for p in out_a.iterdir()):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestExitCodes:
    def test_missing_input_file_exit_2(self, workspace, capsys):
        _, paths = workspace
        code = main(["evaluate", "--synthetic", "/nonexistent.csv",
                     "--config", str(paths["config"]),
                     "--out", str(paths["report"])])
        assert code == 2
        assert "E2" in capsys.readouterr().err

    def test_internal_error_exit_1(self, workspace, monkeypatch, capsys):
        _, paths = workspace
        import smdcard.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("simulated crash")
        monkeypatch.setattr(cli_mod, "run_evaluation", boom)
        assert main(_evaluate_args(paths)) == 1
        assert "E100" in capsys.readouterr().err

    def test_no_partial_output_on_failure(self, workspace, tmp_path):
        _, paths = workspace
        out = tmp_path / "never.json"
        main(["evaluate", "--synthetic", str(paths["synthetic"]),
              "--config", str(paths["config"]), "--out", str(out)])
        assert not out.exists()
        assert not list(tmp_path.glob(".smdcard-*"))


def test_cli_import_defers_scipy():
    src = os.path.dirname(os.path.dirname(smdcard.__file__))
    code = ("import sys, smdcard.cli; print([m for m in sys.modules if m in "
            "('scipy.optimize', 'scipy.special', 'scipy.spatial')])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"
