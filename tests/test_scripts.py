"""The scripts the README documents run to completion."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)


def test_run_demo_writes_report_and_cards(tmp_path):
    out = tmp_path / "demo"
    done = _run("run_demo.py", "--out", str(out), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
    for card in ("card.md", "card.html"):
        assert digest in (out / card).read_text(encoding="utf-8"), card


def test_defect_sweep_runs(tmp_path):
    done = _run("defect_sweep.py", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "(no defect baseline)" in done.stdout


def _load_bench_kernels(monkeypatch):
    # the script sets BLAS thread counts and its import path when loaded
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "bench_kernels", ROOT / "scripts" / "bench_kernels.py")
    bench = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(bench)
    return bench


def test_bench_kernels_captures_the_pooled_anova_tasks(monkeypatch):
    bench = _load_bench_kernels(monkeypatch)
    pooled = bench._pooled_tasks(*bench._anova_fixture())
    # 5 scopes x 2 metrics; each subgroup's two carry its replicate blocks
    assert len(pooled) == 10
    assert sum(len(replicates) > 0 for (_, _, replicates), _ in pooled) == 8


def _small_bench(monkeypatch):
    """The bench script at small sizes, each row timed by one call."""
    bench = _load_bench_kernels(monkeypatch)

    def one_call(call, scale, *repeats):
        call()
        return dict.fromkeys(("min", "q1", "median", "q3"), 0.0), 1
    monkeypatch.setattr(bench, "_spread", one_call)
    for name, value in (("TABLE_ROWS", 200), ("EMBEDDING_FILE_SIZE", (60, 4)),
                        ("CALIBRATE_SIZE", (51, 4)),
                        ("KNN_SIZES", ((50, 4),)),
                        ("KNN_LARGE_SIZE", (70, 4)),
                        ("NORTHSTAR_SIZE", (40, 4)),
                        ("NORTHSTAR_REPLICATES", 3)):
        monkeypatch.setattr(bench, name, value)
    return bench


def test_bench_kernels_writes_its_json_line_to_out(monkeypatch, tmp_path,
                                                   capsys):
    bench = _small_bench(monkeypatch)
    out = tmp_path / "bench.json"
    bench.main(["--out", str(out), "--northstar"])
    line = capsys.readouterr().out
    assert out.read_text(encoding="utf-8") == line
    written = json.loads(line)
    assert {"kernel_ms", "end_to_end_s", "repeats", "self_peak_rss_mb",
            "cli_peak_rss_mb", "cli_card_peak_rss_mb",
            "pooled_tasks"} <= written.keys()
    assert written["cli_peak_rss_mb"] > 0
    # rendering the card loads no numpy, so its process stays the smaller
    assert 0 < written["cli_card_peak_rss_mb"] < written["cli_peak_rss_mb"]
    assert {"read_record_table_200x8", "read_embeddings_60x4", "knn_50x4",
            "jsd_replicates_150x16"} <= written["kernel_ms"].keys()
    # the large knn row is opt-in
    assert "knn_70x4" not in written["kernel_ms"]
    assert {"cli_evaluate", "cli_card", "evaluate", "pool",
            "calibrate_51x4"} == written["end_to_end_s"].keys()
    northstar = written["northstar"]
    assert northstar["size"] == [40, 4] and northstar["replicates"] == 3
    assert northstar["peak_rss_mb"] > 0 and northstar["threads_2_wall_s"] > 0
    assert {"min", "q1", "median", "q3"} == northstar["wall_s"].keys()
    # one SHA-256 per BLAS thread count, not asserted equal (ROADMAP item 12)
    assert sorted(northstar["report_sha256"]) == ["1", "2"]
    assert all(len(h) == 64 for h in northstar["report_sha256"].values())


def test_bench_kernels_knn_large_adds_its_row(monkeypatch, capsys):
    bench = _small_bench(monkeypatch)
    bench.main(["--knn-large"])
    written = json.loads(capsys.readouterr().out)
    assert {"knn_50x4", "knn_70x4"} <= written["kernel_ms"].keys()
    assert written["repeats"]["knn_70x4"] == 1
    assert "northstar" not in written
