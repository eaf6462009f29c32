#!/usr/bin/env python3
"""Time the hot metric kernels on fixed seeded inputs.

Usage, from the root of a checkout:

    python3 scripts/bench_kernels.py

``knn`` is one recall kernel: ``kth_neighbor_distance`` on the synthetic
rows (k=3) and ``ball_query`` of the reference rows against those balls.
``jsd`` is ``jensen_shannon`` and ``entropy`` is ``embedding_entropy``.
``jsd_replicates`` is one block of 50 bootstrap replicates through
``jensen_shannon_replicates``, the unit a subgroup's replicate task
evaluates, and ``jsd_replicates_looped`` is the same 50 row sets as 50
``jensen_shannon`` calls on ``resample``d sets; the values are identical.
``recall_replicates`` is one such block through
``manifold_recall_replicates`` (the synthetic rows' neighbor window and the
reference-to-synthetic distances measured once, then one lookup per
replicate), and ``recall_replicates_looped`` the same 50 row sets as 50
``manifold_recall`` calls (k=3) on ``resample``d sets; again the values are
identical.
Each is timed at n rows by d dimensions per set; BLAS runs on one thread,
as in ``perfbench``. The end-to-end rows use a fixture shaped like
perfbench's ``subgroup_anova`` (600 rows by 16 dimensions per set, 4
subgroups, bases ``recall`` and ``jensen_shannon_divergence``, 50
replicates): ``evaluate_workers_N`` times ``run_evaluation`` at N workers,
and ``pool_workers_N`` times only its pool section, ``runner._run_tasks`` on
the task list that evaluation hands it, at N processes. These rows run
first, so the two peak RSS figures (MB) cover them alone: the evaluating
process's own (``RUSAGE_SELF``), which holds the tasks of the 1-worker
rows, and that of the largest forked worker (``RUSAGE_CHILDREN``). Prints one JSON
line: the median milliseconds per call of each kernel and size, the median
seconds of each end-to-end row, the repetition counts and the peaks.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from smdcard.config import config_from_dict  # noqa: E402
from smdcard.congruence import (jensen_shannon,  # noqa: E402
                                jensen_shannon_replicates)
from smdcard.coverage import (embedding_entropy,  # noqa: E402
                              manifold_recall, manifold_recall_replicates)
from smdcard.harness import make_gaussian_mixture  # noqa: E402
from smdcard.model import EmbeddingSet  # noqa: E402
from smdcard.numerics import ball_query, kth_neighbor_distance  # noqa: E402
from smdcard import runner  # noqa: E402
from smdcard.runner import EvaluationInputs, run_evaluation  # noqa: E402

KNN_SIZES = ((150, 16), (600, 16), (2000, 32))
HISTOGRAM_SIZES = ((150, 16),)
REPLICATE_SIZES = ((150, 16),)
REPLICATES = 50
EVALUATE_WORKERS = (1, 2)
MIN_REPEATS, MIN_SECONDS = 5, 0.5


def _pair(n: int, d: int):
    rng = np.random.default_rng(n * 1000 + d)
    real = rng.normal(size=(n, d))
    synth = rng.normal(loc=0.2, size=(n, d))
    ids = tuple(str(i) for i in range(n))
    return EmbeddingSet(ids, real), EmbeddingSet(ids, synth)


def _anova_fixture():
    """Inputs and config shaped like perfbench's ``subgroup_anova``."""
    modes = [{"mean": 4.0 * i, "scale": 1.0, "weight": 1.0} for i in range(4)]
    bases = ["jensen_shannon_divergence", "recall"]
    inputs = EvaluationInputs(
        synthetic=make_gaussian_mixture(600, 16, modes, seed=2),
        real=make_gaussian_mixture(600, 16, modes, seed=1))
    config = config_from_dict({
        "metrics": bases + ["anova", "max_min_difference"],
        "consistency": {"base_metrics": bases, "bootstrap_replicates": 50},
        "seed": 1})
    return inputs, config


def _pooled_tasks(inputs, config) -> list:
    """The (task, args) list ``run_evaluation`` hands ``runner._run_tasks``."""
    captured = []
    run_tasks = runner._run_tasks

    def capture(pooled, workers):
        captured.append(pooled)
        return run_tasks(pooled, workers)
    runner._run_tasks = capture
    try:
        run_evaluation(inputs, config)
    finally:
        runner._run_tasks = run_tasks
    return captured[0]


def _median_ms(call) -> tuple[float, int]:
    call()  # warm-up
    samples = []
    start = time.perf_counter()
    while len(samples) < MIN_REPEATS or time.perf_counter() - start < MIN_SECONDS:
        t = time.perf_counter()
        call()
        samples.append(time.perf_counter() - t)
    return statistics.median(samples) * 1e3, len(samples)


def main() -> None:
    medians, repeats, end_to_end = {}, {}, {}

    def record(kernel, n, d, call):
        key = f"{kernel}_{n}x{d}"
        medians[key], repeats[key] = _median_ms(call)

    inputs, config = _anova_fixture()
    pooled = _pooled_tasks(inputs, config)
    for workers in EVALUATE_WORKERS:
        for key, call in (
                (f"evaluate_workers_{workers}",
                 lambda: run_evaluation(inputs, config, workers=workers)),
                (f"pool_workers_{workers}",
                 lambda: runner._run_tasks(pooled, workers))):
            ms, repeats[key] = _median_ms(call)
            end_to_end[key] = ms / 1e3
    peak_kib = {who: resource.getrusage(which).ru_maxrss for who, which in (
        ("self", resource.RUSAGE_SELF), ("children", resource.RUSAGE_CHILDREN))}

    for n, d in KNN_SIZES:
        real, synth = _pair(n, d)
        record("knn", n, d, lambda: ball_query(
            real.data, synth.data, kth_neighbor_distance(synth.data, 3)))
    for n, d in HISTOGRAM_SIZES:
        real, synth = _pair(n, d)
        record("jsd", n, d, lambda: jensen_shannon(real, synth))
        record("entropy", n, d, lambda: embedding_entropy(synth))
    for n, d in REPLICATE_SIZES:
        real, synth = _pair(n, d)
        rng = np.random.default_rng(n)
        rows = [rng.integers(n, size=n) for _ in range(REPLICATES)]
        record("jsd_replicates", n, d,
               lambda: jensen_shannon_replicates(real, synth, rows))
        record("jsd_replicates_looped", n, d, lambda: [
            jensen_shannon(real, synth.resample(r)) for r in rows])
        record("recall_replicates", n, d,
               lambda: manifold_recall_replicates(real, synth, rows))
        record("recall_replicates_looped", n, d, lambda: [
            manifold_recall(real, synth.resample(r)) for r in rows])
    print(json.dumps({"median_ms": medians, "median_s": end_to_end,
                      "repeats": repeats,
                      "self_peak_rss_mb": peak_kib["self"] / 1024,
                      "children_peak_rss_mb": peak_kib["children"] / 1024,
                      "pooled_tasks": len(pooled),
                      "numpy": np.__version__,
                      "python": platform.python_version(),
                      "machine": platform.machine()}, sort_keys=True))


if __name__ == "__main__":
    main()
