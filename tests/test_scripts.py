"""The scripts the README documents run to completion."""

import hashlib
import importlib.util
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


def test_bench_kernels_captures_the_pooled_anova_tasks(monkeypatch):
    # the script sets BLAS thread counts and its import path when loaded
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "bench_kernels", ROOT / "scripts" / "bench_kernels.py")
    bench = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(bench)
    pooled = bench._pooled_tasks(*bench._anova_fixture())
    # 5 scopes x 2 metrics; each subgroup's two carry its replicate blocks
    assert len(pooled) == 10
    assert sum(pairs is not None for (_, _, pairs), _ in pooled) == 8
