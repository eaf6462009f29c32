"""The scripts the README documents run to completion."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

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
