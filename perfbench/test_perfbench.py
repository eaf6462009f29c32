"""The benchmark's own test: smoke-size runs of every workload.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

sys.path.insert(0, str(BENCH_DIR))
import spans  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def test_declaration_follows_the_contract():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert DECLARED["command"] == ["python3", "perfbench/run.py"]
    names = [w["name"] for w in DECLARED["workloads"]]
    assert names == ["subgroup_anova", "record_table"]
    e2e = {m["name"]: m for m in DECLARED["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert all(set(m) == {"name", "unit", "better"}
               for m in DECLARED["per_layer"])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_declared_metric(trace):
    proc = _run("--workload", "all", "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    infos, results = lines[0::2], lines[1::2]
    assert [i["info"]["workload"] for i in infos] == [
        w["name"] for w in DECLARED["workloads"]]
    declared = {m["name"]: m["unit"] for m in
                DECLARED["per_layer" if trace == "1" else "end_to_end"]}
    for info, result in zip(infos, results):
        assert set(result) == RESULT_KEYS
        assert result["correct"] is True, info["info"]["errors"]
        assert result["failed"] == 0 and result["attempted"] >= 3
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert len(info["info"]["report_sha256"]) == 64


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "subgroup_anova", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_the_union_of_child_intervals():
    # a root span with two overlapping children on worker threads
    spans_ = [spans.Span(1, None, "cli", "main", 0.0, 10.0, None),
              spans.Span(2, 1, "runner", "run_evaluation", 1.0, 9.0,
                         {"tasks": 2, "workers": 2}),
              spans.Span(3, 2, "coverage", "manifold_recall", 2.0, 6.0, None),
              spans.Span(4, 2, "coverage", "manifold_recall", 4.0, 8.0, None),
              spans.Span(5, 3, "numerics", "knn_distances", 2.0, 5.0,
                         {"distance_pairs": 6, "sorted_elements": 6,
                          "matrix_bytes": 48})]
    figures = spans.summarize(spans_)
    assert figures["runner.busy_s"] == pytest.approx(8.0 - 6.0)
    assert figures["coverage.busy_s"] == pytest.approx(1.0 + 4.0)
    assert figures["numerics.busy_s"] == pytest.approx(3.0)
    assert figures["metric.recall.busy_s"] == pytest.approx(8.0)
    assert figures["runner.pool_util"] == pytest.approx(8.0 / (2 * 6.0))
    assert figures["trace.layer_share"] == pytest.approx(10.0 / 10.0)
    assert figures["numerics.distance_pairs"] == 6
