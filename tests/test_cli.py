import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

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

    @pytest.mark.parametrize("ext", ["csv", "jsonl"])
    def test_each_input_file_read_once(self, workspace, tmp_path,
                                       monkeypatch, ext):
        # the reference's header and rows come from one read, in evaluate
        # and in calibrate alike
        _, paths = workspace
        if ext == "jsonl":
            for name in ("real", "synthetic"):
                eset = ingest.read_embeddings(str(paths[name]),
                                              subgroup_column="subgroup")
                paths[name] = tmp_path / f"{name}.jsonl"
                paths[name].write_text("".join(json.dumps({
                    "id": eset.ids[i], "subgroup": eset.subgroup[i],
                    "features": eset.data[i].tolist()}) + "\n"
                    for i in range(eset.n)))
        reads = []
        read_text = ingest._read_text

        def counted(path, *args, **kwargs):
            reads.append(os.path.basename(path))
            return read_text(path, *args, **kwargs)
        monkeypatch.setattr(ingest, "_read_text", counted)
        assert main(_evaluate_args(paths)) == 0
        assert sorted(reads) == [f"real.{ext}", f"synthetic.{ext}"]
        reads.clear()
        assert main(["calibrate", "--real", str(paths["real"]),
                     "--config", str(paths["config"]),
                     "--out", str(tmp_path / "bounds.yaml")]) == 0
        assert reads == [f"real.{ext}"]

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

    def test_workers_start_no_process(self, workspace, tmp_path,
                                      monkeypatch):
        # ``--workers`` is accepted and selects nothing: an anova run at two
        # workers, on two CPUs, forks no process
        _, paths = workspace
        config = tmp_path / "anova.yaml"
        config.write_text(yaml.safe_dump(dict(
            CONFIG, metrics=CONFIG["metrics"] + ["anova"],
            consistency={"base_metrics": ["jensen_shannon_divergence",
                                          "recall"],
                         "bootstrap_replicates": 5})))
        paths = dict(paths, config=config)
        serial, two = tmp_path / "serial.json", tmp_path / "two.json"
        assert main(_evaluate_args(paths, serial) + ["--workers", "1"]) == 0

        def refuse():
            raise OSError("evaluate forked a process")
        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        assert main(_evaluate_args(paths, two) + ["--workers", "2"]) == 0
        assert two.read_bytes() == serial.read_bytes()

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

    @pytest.mark.parametrize("scale", [1e77, 1e80])
    def test_large_coordinates_exit_0(self, tmp_path, capsys, scale):
        # Fréchet read NaN at 1e77 (exit 2, blaming the input) and its
        # eigensolve did not converge at 1e80 (exit 1); the hull read 0.0
        rng = np.random.default_rng(51)
        paths = {"config": tmp_path / "config.yaml",
                 "report": tmp_path / "report.json"}
        for name in ("real", "synthetic"):
            paths[name] = tmp_path / f"{name}.csv"
            ingest.write_embeddings(EmbeddingSet(
                [f"{name}{i}" for i in range(20)],
                rng.standard_normal((20, 3)) * scale), str(paths[name]))
        paths["config"].write_text(yaml.safe_dump({
            "metrics": ["frechet_distance", "convex_hull_volume"],
            "bounds": {"frechet_distance": [0, 60],
                       "convex_hull_volume": [0, 10]}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(_evaluate_args(paths)) == 0
        assert capsys.readouterr().err == ""
        report = json.loads(paths["report"].read_text())
        metrics = {m["name"]: m for c in report["scopes"][0]["criteria"]
                   for m in c["metrics"]}
        assert metrics["frechet_distance"]["value"] > scale ** 2 / 10
        hull = metrics["convex_hull_volume"]
        assert hull["value"] > scale ** 3 and "degenerate" not in hull[
            "diagnostics"]

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

    @pytest.mark.parametrize("override, lines", [
        ({"constraints": {"derive": {"fields": ["sex", "bogus"]}}},
         [f"E229: constraints.derive.fields: {name!r} is not a numeric "
          "column of the reference table" for name in ("sex", "bogus")]),
        ({"compliance": {"quasi_identifiers": ["nope"]}},
         ["E229: compliance.quasi_identifiers: 'nope' is not a column of "
          "the record table"]),
        ({"metrics": ["cosine_similarity", "l_diversity", "t_closeness"],
          "compliance": {"quasi_identifiers": ["sex"],
                         "sensitive_column": "nope"}},
         ["E229: compliance.sensitive_column: 'nope' is not a column of "
          "the record table"]),
    ], ids=["derive_fields", "quasi_identifiers", "sensitive_column"])
    def test_validate_config_rejects_what_evaluate_rejects(
            self, workspace, capsys, override, lines):
        tmp_ws, paths = workspace
        from smdcard.harness import make_record_table
        ingest.write_record_table(make_record_table(40, seed=3),
                                  str(tmp_ws / "synth_table.csv"))
        ingest.write_record_table(make_record_table(50, seed=4),
                                  str(tmp_ws / "real_table.csv"))
        config = {**CONFIG, **{
            "metrics": ["cosine_similarity", "k_anonymity",
                        "constraint_violation_rate"],
            "tables": {"real": "real_table.csv",
                       "schema": {"age": "numeric", "hgb": "numeric",
                                  "sex": "categorical"}},
            "compliance": {"quasi_identifiers": ["sex"]},
            "constraints": {"derive": {"fields": ["age"]}}}, **override}
        paths["config"].write_text(yaml.safe_dump(config))
        args = _evaluate_args(paths) + ["--table",
                                        str(tmp_ws / "synth_table.csv")]
        for extra in (["--validate-config"], []):
            assert main(args + extra) == 2
            assert capsys.readouterr().err.splitlines() == lines
        assert not paths["report"].exists()


def _edited(report, edit):
    """``report`` after ``edit`` of its first global criterion."""
    edit(report["scopes"][0]["criteria"][0])
    return report


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
        lambda report: _edited(report, lambda c: c.update(score="high")),
        lambda report: _edited(report,
                               lambda c: c["metrics"][0].update(value=[1])),
        lambda report: _edited(report, lambda c: c["metrics"][0].pop("label")),
    ], ids=["empty", "not_json", "unknown_key", "missing_key",
            "mistyped_score", "mistyped_value", "metric_without_label"])
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
        # the other metrics keep their two analytic ends
        assert set(bounds) == {"frechet_distance", "vendi_score"}
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

    def test_bounded_metrics_only_exit_2(self, workspace, tmp_path, capsys):
        tmp_ws, paths = workspace
        config = tmp_ws / "recall.yaml"
        config.write_text(yaml.safe_dump(dict(CONFIG, metrics=["recall"],
                                              bounds={})))
        code = main(["calibrate", "--real", str(paths["real"]),
                     "--config", str(config), "--out", str(tmp_path / "b.yaml")])
        assert code == 2
        assert capsys.readouterr().err == (
            "E200: no selected embedding metric without two analytic ends "
            "gave a value on the reference self-splits; nothing to "
            "calibrate\n")

    def test_metric_without_a_value_on_any_split_exit_2(self, tmp_path,
                                                         capsys):
        # every self-split half has 20 rows, too few for k=25, so no
        # bounds could be suggested for rarity_score: the run fails, before
        # any bounds file is written
        real = make_gaussian_mixture(40, 3, TWO_MODES, seed=5)
        ingest.write_embeddings(EmbeddingSet(real.ids, real.data),
                                str(tmp_path / "real.csv"))
        (tmp_path / "config.yaml").write_text(yaml.safe_dump({
            "metrics": ["rarity_score", "variance_coverage"],
            "params": {"rarity_score": {"k": 25}}}))
        out = tmp_path / "bounds.yaml"
        assert main(["calibrate", "--real", str(tmp_path / "real.csv"),
                     "--config", str(tmp_path / "config.yaml"),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "E228: metric 'rarity_score' gave no finite value on any "
            "reference self-split: insufficient samples: k=25 out of range: "
            "reference set supports at most k=19 (self-match excluded)\n")
        assert not out.exists()

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


#: a valid recipe that uses every defect kind
FULL_RECIPE = {
    "embedding": {"n": 12, "d": 2, "seed": 1, "modes": [
        {"mean": 0.0, "scale": 1.0, "weight": 1.0},
        {"mean": [4.0, 4.0], "scale": 0.5, "weight": 2.0}]},
    "table": {"n": 10, "seed": 2, "numeric_fields": {"age": [20, 80]},
              "categorical_fields": {"sex": ["F", "M"]}},
    "defects": [
        {"kind": "mode_drop", "mode": "mode1"},
        {"kind": "duplicate_real", "fraction": 0.5, "seed": 3},
        {"kind": "subgroup_skew", "subgroup": "mode0", "noise_scale": 0.5},
        {"kind": "out_of_range", "field": "age", "fraction": 0.2,
         "magnitude": 5},
        {"kind": "delete_field", "name": "sex"},
        {"kind": "mask_cells", "fraction": 0.1, "seed": 4},
    ],
}
_ODD_VALUES = ("x", None, True, [], {}, [1], {"a": 1}, 1, 1.5, -2)


def _entries(node):
    """(container, key) of every mapping entry and list item under node."""
    keys = (node if isinstance(node, dict)
            else range(len(node)) if isinstance(node, list) else ())
    for key in keys:
        yield node, key
        yield from _entries(node[key])


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@st.composite
def _mutated_recipes(draw):
    """FULL_RECIPE with one to three mutations: a value dropped,
    duplicated in its list, retyped, made negative or non-finite, an
    unknown key added, or a defect given a bad parameter."""
    recipe = copy.deepcopy(FULL_RECIPE)
    for _ in range(draw(st.integers(1, 3))):
        entries = list(_entries(recipe))
        mutation = draw(st.sampled_from(
            ("drop", "duplicate", "retype", "negative", "non_finite",
             "unknown_key", "defect_param")))
        if mutation == "duplicate":
            entries = [(c, k) for c, k in entries if isinstance(c, list)]
        elif mutation in ("negative", "non_finite"):
            entries = [(c, k) for c, k in entries if _is_number(c[k])]
        elif mutation == "unknown_key":
            entries = [(c, k) for c, k in entries if isinstance(c[k], dict)]
        elif mutation == "defect_param":
            entries = [(c, k) for c, k in entries
                       if isinstance(c[k], dict) and "kind" in c[k]]
        if not entries:
            continue
        container, key = draw(st.sampled_from(entries))
        if mutation == "drop":
            del container[key]
        elif mutation == "duplicate":
            container.insert(key, copy.deepcopy(container[key]))
        elif mutation == "retype":
            # a copy: a later mutation must not edit _ODD_VALUES itself
            container[key] = copy.deepcopy(draw(st.sampled_from(_ODD_VALUES)))
        elif mutation == "negative":
            container[key] = -abs(container[key]) or -1
        elif mutation == "non_finite":
            container[key] = draw(st.sampled_from(
                (float("nan"), float("inf"), float("-inf"))))
        elif mutation == "unknown_key":
            container[key]["bogus"] = copy.deepcopy(
                draw(st.sampled_from(_ODD_VALUES)))
        else:
            param = draw(st.sampled_from(
                ("fraction", "magnitude", "noise_scale", "seed", "mode",
                 "subgroup", "field", "name")))
            container[key][param] = draw(st.sampled_from(
                (0, 2, -1, 0.5, "nope", "mode0", "age")))
    return recipe


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

    @pytest.mark.parametrize("text, message", [
        ("embedding: 5", "embedding must be dict, got 5"),
        ("defects: 5", "defects must be list, got 5"),
        ("embedding: {n: abc}", "embedding.n must be int, got 'abc'"),
        ("embedding: {n: 10, d: 2}\n"
         "defects: [{kind: mode_drop, mode: mode0, seed: x}]",
         "defects[0].seed must be int, got 'x'"),
        ("table: {numeric_fields: {age: 5}}",
         "table.numeric_fields.age must be list, got 5"),
        ("embedding: {n: 10, d: 2}\n"
         "defects: [{kind: mode_drop, mode: mode0, bogus: 1}]",
         "defects[0].bogus is not a parameter of defect 'mode_drop'"),
        ("defects: [{kind: mode_drop, mode: mode0}]",
         "defect 'mode_drop' needs an embedding fixture in the recipe"),
        ("embedding: {modes: [{scale: abc}]}",
         "embedding.modes[0].scale must be float, got 'abc'"),
        ("embedding: {modes: [{weight: x}]}",
         "embedding.modes[0].weight must be float, got 'x'"),
        ("embedding: {modes: [{mean: abc}]}",
         "embedding.modes[0].mean must be float, got 'abc'"),
        ("embedding: {d: 2, modes: [{mean: [1, 2, 3]}]}",
         "embedding.modes[0].mean must be a number or a list of 2 numbers, "
         "got [1, 2, 3]"),
        ("embedding: {modes: [{mean: .nan}]}",
         "embedding.modes[0].mean must be finite, got nan"),
        ("embedding: {modes: [{scale: -1}]}",
         "embedding.modes[0].scale must be at least 0, got -1"),
        ("embedding: {modes: [{weight: -1}]}",
         "embedding.modes[0].weight must be above 0, got -1"),
        ("embedding: {modes: [{bogus: 1}]}",
         "embedding.modes[0].bogus is not a recipe key (mean, scale, "
         "weight)"),
        ("embedding: {modes: []}",
         "embedding.modes must be a non-empty list, got []"),
        ("embedding: {seed: -1}", "embedding.seed must be at least 0, got -1"),
        ("table: {numeric_fields: {age: [5, 1]}}",
         "table.numeric_fields.age must be a [low, high] pair with "
         "low <= high, got [5, 1]"),
        ("table: {categorical_fields: {sex: []}}",
         "table.categorical_fields.sex must be a non-empty list, got []"),
        ("table: {n: -3}", "table.n must be at least 1, got -3"),
        ("table: {bogus: 1}", "table.bogus is not a recipe key (n, seed, "
         "numeric_fields, categorical_fields)"),
        ("table: {n: 3, numeric_fields: []}",
         "table.numeric_fields must be dict, got []"),
        ("table: {n: 3, categorical_fields: 0}",
         "table.categorical_fields must be dict, got 0"),
    ], ids=["embedding", "defects", "n", "seed", "numeric_field",
            "unknown_param", "no_embedding", "mode_scale", "mode_weight",
            "mode_mean", "mode_mean_length", "mode_mean_nan",
            "negative_scale", "negative_weight", "mode_key", "no_modes",
            "negative_seed", "reversed_field", "no_categories",
            "negative_n", "table_key", "numeric_fields_list",
            "categorical_fields_zero"])
    def test_malformed_recipe_value_exit_2(self, tmp_path, capsys, text,
                                           message):
        recipe = tmp_path / "recipe.yaml"
        recipe.write_text(text + "\n")
        assert main(["fixtures", "--recipe", str(recipe),
                     "--out", str(tmp_path / "f")]) == 2
        assert capsys.readouterr().err == f"E200: {recipe}: {message}\n"

    def test_rerun_identical(self, tmp_path):
        recipe = tmp_path / "recipe.yaml"
        recipe.write_text(yaml.safe_dump(RECIPE))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["fixtures", "--recipe", str(recipe), "--out", str(out_a)])
        main(["fixtures", "--recipe", str(recipe), "--out", str(out_b)])
        for name in sorted(p.name for p in out_a.iterdir()):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @given(recipe=_mutated_recipes())
    @settings(max_examples=80, deadline=None)
    def test_mutated_recipe_exit_0_or_2(self, recipe):
        # a recipe error names the recipe and leaves --out as it was
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "recipe.yaml")
            with open(path, "w") as fh:
                fh.write(yaml.safe_dump(recipe))
            out = os.path.join(tmp, "out")
            os.mkdir(out)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(["fixtures", "--recipe", path, "--out", out])
            assert code in (0, 2), err.getvalue()
            if code == 2:
                assert err.getvalue().startswith(f"E200: {path}: ")
                assert os.listdir(out) == []


class TestExitCodes:
    @pytest.mark.parametrize("target, code", [
        ("synthetic", "E210"), ("real", "E210"), ("config", "E200")])
    def test_non_utf8_input_exit_2_naming_file(self, workspace, capsys,
                                               target, code):
        _, paths = workspace
        path = paths[target]
        path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xe9", 1))
        assert main(_evaluate_args(paths)) == 2
        assert capsys.readouterr().err.startswith(
            f"{code}: {path}: line 2 is not UTF-8 text (byte 0xe9)")

    def test_oversize_cell_exit_2_naming_row(self, workspace, capsys):
        _, paths = workspace
        lines = paths["synthetic"].read_text().splitlines(keepends=True)
        lines[3] = "x" * 200_000 + lines[3]
        paths["synthetic"].write_text("".join(lines))
        assert main(_evaluate_args(paths)) == 2
        assert capsys.readouterr().err.startswith(
            f"E210: {paths['synthetic']}: row 4: field larger than field "
            "limit")

    def test_malformed_recipe_exit_2(self, tmp_path, capsys):
        recipe = tmp_path / "recipe.yaml"
        recipe.write_text("defects: [{kind: mode_drop}\n")
        assert main(["fixtures", "--recipe", str(recipe),
                     "--out", str(tmp_path / "f")]) == 2
        assert capsys.readouterr().err.startswith(f"E200: {recipe}: ")

    @pytest.mark.parametrize("text, line", [
        ('metrics: "cosine_similarity\n',
         "line 2, column 1: while scanning a quoted scalar: found "
         "unexpected end of stream"),
        ("metrics: [cosine_similarity]\n\0\n",
         "line 2, column 1: unacceptable character #x0000: "),
    ], ids=["unterminated_quote", "nul"])
    @pytest.mark.parametrize("document", ["config", "manifest", "recipe"])
    def test_yaml_syntax_error_is_one_line(self, workspace, capsys, text,
                                           line, document):
        # PyYAML's own message spans lines and names "<unicode string>"
        _, paths = workspace
        assert main(_evaluate_args(paths)) == 0
        capsys.readouterr()
        path = paths.get(document, paths["config"].with_name("recipe.yaml"))
        path.write_text(text)
        argv = {"config": _evaluate_args(paths),
                "manifest": ["card", "--manifest", str(path), "--report",
                             str(paths["report"]), "--format", "md",
                             "--out", str(path.with_name("card.md"))],
                "recipe": ["fixtures", "--recipe", str(path),
                           "--out", str(path.with_name("fixtures"))]}
        assert main(argv[document]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"E200: {path}: {line}")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("override", [
        {"tables": {"real": "a\0b", "schema": {"age": "numeric"}}},
        {"metrics": ["cosine_similarity", "inception_score"],
         "params": {"inception_score": {"probs_path": "a\0b"}}},
    ], ids=["tables_real", "probs_path"])
    def test_nul_in_a_configured_path_exit_2(self, workspace, capsys,
                                             override):
        # no file name holds a NUL byte; open() raised ValueError for one
        _, paths = workspace
        paths["config"].write_text(yaml.safe_dump({**CONFIG, **override}))
        assert main(_evaluate_args(paths)) == 2
        assert capsys.readouterr().err == (
            f"E210: {paths['config']}: 'a\\x00b' is not a file name\n")

    def test_missing_input_file_exit_2(self, workspace, capsys):
        _, paths = workspace
        code = main(["evaluate", "--synthetic", "/nonexistent.csv",
                     "--config", str(paths["config"]),
                     "--out", str(paths["report"])])
        assert code == 2
        assert "E2" in capsys.readouterr().err

    def test_internal_error_exit_1(self, workspace, monkeypatch, capsys):
        _, paths = workspace
        import smdcard.runner

        def boom(*args, **kwargs):
            raise RuntimeError("simulated crash")
        monkeypatch.setattr(smdcard.runner, "run_evaluation", boom)
        assert main(_evaluate_args(paths)) == 1
        assert "E100" in capsys.readouterr().err

    def test_no_partial_output_on_failure(self, workspace, tmp_path):
        _, paths = workspace
        out = tmp_path / "never.json"
        main(["evaluate", "--synthetic", str(paths["synthetic"]),
              "--config", str(paths["config"]), "--out", str(out)])
        assert not out.exists()
        assert not list(tmp_path.glob(".smdcard-*"))


def _loaded_by_cli_import(names, argv=None):
    """Which modules named in ``names``, or inside them, a fresh interpreter
    has loaded after ``import smdcard.cli`` and, given ``argv``, a
    ``smdcard.cli.main(argv)`` that returns 0."""
    src = os.path.dirname(os.path.dirname(smdcard.__file__))
    run = "" if argv is None else f"assert smdcard.cli.main({argv!r}) == 0; "
    inside = tuple(name + "." for name in names)
    code = (f"import sys, smdcard.cli; {run}print(sorted(m for m in "
            f"sys.modules if m in {tuple(names)!r} or m.startswith({inside!r})"
            "))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_defers_scipy():
    assert _loaded_by_cli_import(("scipy.optimize", "scipy.special",
                                  "scipy.spatial")) == "[]"


def test_anova_evaluate_loads_no_scipy(workspace, tmp_path):
    # the F test's p-value is computed in ``math``
    _, paths = workspace
    bases = ["jensen_shannon_divergence", "recall"]
    config = tmp_path / "anova.yaml"
    config.write_text(yaml.safe_dump({
        "metrics": bases + ["anova"], "columns": {"subgroup": "subgroup"},
        "consistency": {"base_metrics": bases, "bootstrap_replicates": 5},
        "seed": 17}))
    argv = _evaluate_args(dict(paths, config=config))
    assert _loaded_by_cli_import(("scipy",), argv) == "[]"
    report = json.loads(paths["report"].read_text())
    anova, = (metric for scope in report["scopes"]
              for criterion in scope["criteria"]
              for metric in criterion["metrics"] if metric["name"] == "anova")
    assert 0.0 < anova["diagnostics"]["p"] < 1.0


def test_cli_import_defers_orjson():
    assert _loaded_by_cli_import(("orjson",)) == "[]"


def test_cli_import_loads_no_numpy_or_yaml():
    assert _loaded_by_cli_import(("numpy", "scipy", "yaml", "orjson")) == "[]"


def test_card_loads_no_numpy(workspace, tmp_path):
    # rendering a finished report computes nothing
    _, paths = workspace
    assert main(_evaluate_args(paths)) == 0
    argv = ["card", "--manifest", str(paths["manifest"]), "--report",
            str(paths["report"]), "--format", "md",
            "--out", str(tmp_path / "card.md")]
    assert _loaded_by_cli_import(("numpy",), argv) == "[]"
    assert (tmp_path / "card.md").read_text().startswith(
        "# Synthetic Medical Data Card")


def test_package_exports_resolve():
    from smdcard import (EmbeddingSet, EvalConfig, MetricResult, RecordTable,
                         config_from_dict)
    assert (EmbeddingSet.__module__, RecordTable.__module__,
            EvalConfig.__module__, config_from_dict.__module__,
            MetricResult.__module__) == (
        "smdcard.model", "smdcard.model", "smdcard.config", "smdcard.config",
        "smdcard.aggregate")
    for name in smdcard.__all__:
        getattr(smdcard, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        smdcard.no_such_name


# ---------------------------------------------------------------------------
# Any one mutation of any one input gives exit 0 or 2, never an internal
# error, and each stderr line is one coded error.

#: command -> (its argv, with {d} for the run's directory; the files it
#: reads that a mutation may change)
_RUNS = {
    "evaluate": (["evaluate", "--real", "{d}/real.csv", "--synthetic",
                  "{d}/synthetic.jsonl", "--table", "{d}/table.csv",
                  "--images", "{d}/pairs.csv", "--config", "{d}/config.yaml",
                  "--out", "{d}/out.json"],
                 ("real.csv", "synthetic.jsonl", "table.csv",
                  "real_table.csv", "pairs.csv", "config.yaml")),
    "card": (["card", "--manifest", "{d}/manifest.yaml", "--report",
              "{d}/report.json", "--format", "md", "--out", "{d}/card.md"],
             ("manifest.yaml", "report.json")),
    "calibrate": (["calibrate", "--real", "{d}/real.csv", "--config",
                   "{d}/config.yaml", "--out", "{d}/bounds.yaml"],
                  ("real.csv", "config.yaml")),
    "fixtures": (["fixtures", "--recipe", "{d}/recipe.yaml", "--out",
                  "{d}/fixtures"], ("recipe.yaml",)),
}
_CELL = re.compile(r"[^,\n]+")
_RETYPED = ("x", "", "-1", "1e999", "nan", "[]", "{a: 1}", '"', "true",
            "null", "1.5")
_ERROR_LINE = re.compile(r"E\d{3}: ")


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """name -> bytes of the input files of a small valid run of every
    command in ``_RUNS``; each run exits 0 on them."""
    from smdcard.harness import make_record_table
    d = tmp_path_factory.mktemp("valid")
    real = make_gaussian_mixture(40, 3, TWO_MODES, seed=1)
    synth = make_gaussian_mixture(40, 3, TWO_MODES, seed=2)
    ingest.write_embeddings(real, str(d / "real.csv"))
    (d / "synthetic.jsonl").write_text("".join(
        json.dumps({"id": synth.ids[i], "subgroup": synth.subgroup[i],
                    "features": synth.data[i].tolist()}) + "\n"
        for i in range(synth.n)))
    ingest.write_record_table(make_record_table(30, seed=3),
                              str(d / "table.csv"))
    ingest.write_record_table(make_record_table(30, seed=4),
                              str(d / "real_table.csv"))
    image = np.arange(64, dtype=np.uint8).reshape(8, 8)
    ingest.write_pgm(str(d / "a.pgm"), image)
    ingest.write_pgm(str(d / "b.pgm"), image[::-1].copy())
    (d / "pairs.csv").write_text("a.pgm,b.pgm\n")
    (d / "config.yaml").write_text(yaml.safe_dump({
        "metrics": ["cosine_similarity", "recall", "frechet_distance",
                    "psnr", "missing_data_percentage", "k_anonymity"],
        "bounds": {"frechet_distance": [0, 60], "psnr": [0, 60]},
        "columns": {"subgroup": "subgroup"},
        "compliance": {"quasi_identifiers": ["sex"]},
        "tables": {"real": "real_table.csv",
                   "schema": {"age": "numeric", "hgb": "numeric",
                              "sex": "categorical"}},
        "seed": 3}))
    (d / "manifest.yaml").write_text(yaml.safe_dump(MANIFEST))
    (d / "recipe.yaml").write_text(yaml.safe_dump(RECIPE))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([a.format(d=d) for a in _RUNS["evaluate"][0]]) == 0
        (d / "out.json").rename(d / "report.json")
        for command in ("card", "calibrate", "fixtures"):
            assert main([a.format(d=d) for a in _RUNS[command][0]]) == 0
    return {name: (d / name).read_bytes()
            for name in ("real.csv", "synthetic.jsonl", "table.csv",
                         "real_table.csv", "pairs.csv", "a.pgm", "b.pgm",
                         "config.yaml", "manifest.yaml", "report.json",
                         "recipe.yaml")}


def _mutated(text: str, mutation: str, where: int, value: str) -> str:
    """``text`` after one ``mutation`` at ``where`` (taken modulo the
    positions there are): a cell, a run of characters between commas and
    line ends, dropped with its comma, duplicated or retyped to ``value``;
    the text truncated; or a BOM, CR or NUL inserted."""
    cells = [m.span() for m in _CELL.finditer(text)]
    if mutation in ("drop", "duplicate", "retype") and cells:
        a, b = cells[where % len(cells)]
        if mutation == "drop":
            if text[b:b + 1] == ",":
                b += 1
            elif text[a - 1:a] == ",":
                a -= 1
            return text[:a] + text[b:]
        if mutation == "duplicate":
            return text[:b] + "," + text[a:b] + text[b:]
        return text[:a] + value + text[b:]
    at = where % (len(text) + 1)
    if mutation == "truncate":
        return text[:at]
    insert = {"bom": "\ufeff", "cr": "\r", "nul": "\0"}.get(mutation, "")
    return text[:at] + insert + text[at:]


@given(run=st.sampled_from([(command, name) for command in sorted(_RUNS)
                            for name in _RUNS[command][1]]),
       mutation=st.sampled_from(("drop", "duplicate", "retype", "truncate",
                                 "bom", "cr", "nul")),
       where=st.integers(0, 10 ** 6), value=st.sampled_from(_RETYPED))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_mutated_input_exit_0_or_2_with_coded_lines(valid_inputs, run,
                                                    mutation, where, value):
    command, name = run
    argv = _RUNS[command][0]
    with tempfile.TemporaryDirectory() as tmp:
        for file, payload in valid_inputs.items():
            with open(os.path.join(tmp, file), "wb") as fh:
                fh.write(payload)
        text = _mutated(valid_inputs[name].decode("utf-8"), mutation, where,
                        value)
        with open(os.path.join(tmp, name), "wb") as fh:
            fh.write(text.encode("utf-8"))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main([a.format(d=tmp) for a in argv])
    assert code in (0, 2), err.getvalue()
    for line in err.getvalue().splitlines():
        assert _ERROR_LINE.match(line), err.getvalue()


# ---------------------------------------------------------------------------
# Validation branches, one row each: the files that differ from
# ``valid_inputs`` and the extra ``evaluate`` arguments in, exit 2 and the
# one coded stderr line out.

_SCHEMA = {"age": "numeric", "hgb": "numeric", "sex": "categorical"}


def _config(**entries) -> str:
    return yaml.safe_dump({"metrics": ["cosine_similarity"],
                           "columns": {"subgroup": "subgroup"}, **entries})


_TABLE, _IMAGES = ["--table", "{d}/table.csv"], ["--images", "{d}/pairs.csv"]
_BRANCHES = {
    "table_without_schema": (
        {}, _TABLE, "E200: a --table input needs tables.schema in the config"),
    "real_table_without_schema": (
        {"config.yaml": _config(tables={"real": "real_table.csv"})}, [],
        "E200: tables.real needs tables.schema in the config"),
    "table_metric_as_consistency_base": (
        {"config.yaml": _config(
            metrics=["cosine_similarity", "missing_data_percentage",
                     "metric_variance"],
            consistency={"base_metrics": ["missing_data_percentage"]},
            tables={"schema": _SCHEMA})}, _TABLE,
        "E227: consistency base metric 'missing_data_percentage' must be an "
        "embedding metric"),
    "config_is_a_list": (
        {"config.yaml": "- cosine_similarity\n"}, [],
        "E200: {d}/config.yaml: top level must be a mapping"),
    "empty_csv": ({"real.csv": ""}, [], "E210: {d}/real.csv: empty file"),
    "jsonl_row_not_an_object": (
        {"synthetic.jsonl": "[1, 2]\n"}, [],
        "E210: {d}/synthetic.jsonl: row 1 is not a JSON object"),
    "jsonl_row_without_features": (
        {"synthetic.jsonl": '{"id": "a"}\n'}, [],
        "E210: {d}/synthetic.jsonl: row 1 needs features"),
    "aggregation_median": (
        {"config.yaml": _config(aggregation="median")}, [],
        "E200: {d}/config.yaml: aggregation must be one of ('arithmetic', "
        "'geometric')"),
    "bounds_not_a_pair": (
        {"config.yaml": _config(bounds={"frechet_distance": [0]})}, [],
        "E200: {d}/config.yaml: bounds.frechet_distance must be a [lo, hi] "
        "pair"),
    "populated_threshold_0": (
        {"config.yaml": _config(completeness={"populated_threshold": 0})}, [],
        "E200: {d}/config.yaml: completeness.populated_threshold must be in "
        "(0, 1]"),
    "required_fields_empty": (
        {"config.yaml": _config(completeness={"required_fields": []})}, [],
        "E200: {d}/config.yaml: completeness.required_fields must be a "
        'non-empty list or "auto"'),
    "derive_without_fields": (
        {"config.yaml": _config(constraints={"derive": {}})}, [],
        "E200: {d}/config.yaml: constraints.derive needs a fields: list"),
    "allowed_set_without_values": (
        {"config.yaml": _config(constraints={"rules": [
            {"id": "r", "kind": "allowed_set", "field": "sex",
             "values": []}]})}, [],
        "E200: {d}/config.yaml: rule 'r': allowed_set needs values"),
    "linear_strict_sense": (
        {"config.yaml": _config(constraints={"rules": [
            {"id": "r", "kind": "linear", "weights": {"age": 1.0},
             "bound": 0.0, "sense": "<"}]})}, [],
        "E200: {d}/config.yaml: rule 'r': sense must be <= or >="),
    "params_not_a_mapping": (
        {"config.yaml": _config(params={"recall": 3})}, [],
        "E200: {d}/config.yaml: params.recall must be a mapping"),
    "numeric_probs_path": (
        {"config.yaml": _config(params={"inception_score": {
            "probs_path": 5}})}, [],
        "E200: {d}/config.yaml: params.inception_score.probs_path must be a "
        "string, got 5"),
    "no_metrics": (
        {"config.yaml": yaml.safe_dump({"seed": 1})}, [],
        "E200: {d}/config.yaml: config must list at least one metric under "
        "metrics:"),
    "unknown_schema_kind": (
        {"config.yaml": _config(tables={"schema": {"age": "date"}})}, _TABLE,
        "E200: {d}/config.yaml: tables.schema.age: unknown kind 'date'"),
    "image_manifest_of_blank_lines": (
        {"pairs.csv": "\n\n"}, _IMAGES,
        "E210: {d}/pairs.csv: no image pairs listed"),
    "graymap_bad_magic": (
        {"a.pgm": "P3\n2 2\n255\n1 2 3 4\n"}, _IMAGES,
        "E210: {d}/a.pgm: not a portable graymap (magic 'P3')"),
    "graymap_truncated_header": (
        {"a.pgm": "P2\n2 2\n"}, _IMAGES,
        "E210: {d}/a.pgm: truncated graymap header"),
    "graymap_malformed_header": (
        {"a.pgm": "P2\nx 2\n255\n1 2 3 4\n"}, _IMAGES,
        "E210: {d}/a.pgm: malformed graymap header"),
    "graymap_zero_width": (
        {"a.pgm": "P2\n0 2\n255\n"}, _IMAGES,
        "E210: {d}/a.pgm: invalid graymap dimensions or maxval"),
    # an ASCII pixel past uint8 was converted before its maxval check
    "graymap_pixel_past_its_container": (
        {"a.pgm": "P2\n2 2\n255\n1 2 3 256\n"}, _IMAGES,
        "E210: {d}/a.pgm: pixel exceeds declared maxval 255"),
}


@pytest.mark.parametrize("files, extra, line", _BRANCHES.values(),
                         ids=list(_BRANCHES))
def test_validation_branch_exit_2_with_one_line(valid_inputs, tmp_path, capsys,
                                                files, extra, line):
    for name, payload in valid_inputs.items():
        (tmp_path / name).write_bytes(payload)
    for name, text in {"config.yaml": _config(), **files}.items():
        (tmp_path / name).write_text(text)
    argv = ["evaluate", "--real", "{d}/real.csv", "--synthetic",
            "{d}/synthetic.jsonl", "--config", "{d}/config.yaml", "--out",
            "{d}/out.json", *extra]
    assert main([a.format(d=tmp_path) for a in argv]) == 2
    assert capsys.readouterr().err == line.format(d=tmp_path) + "\n"
    assert not (tmp_path / "out.json").exists()
