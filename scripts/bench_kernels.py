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
Each is timed at n rows by d dimensions per set; BLAS runs on one thread,
as in ``perfbench``. One end-to-end row times ``run_evaluation`` on a fixture
shaped like perfbench's ``subgroup_anova`` (600 rows by 16 dimensions per
set, 4 subgroups, bases ``recall`` and ``jensen_shannon_divergence``, 50
replicates) at 1 and 2 workers. Prints one JSON line: the median
milliseconds per call of each kernel and size, the median seconds per
evaluation at each worker count, the repetition counts, and the peak RSS of
the largest worker process (``RUSAGE_CHILDREN``, MB).
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
from smdcard.coverage import embedding_entropy  # noqa: E402
from smdcard.harness import make_gaussian_mixture  # noqa: E402
from smdcard.model import EmbeddingSet  # noqa: E402
from smdcard.numerics import ball_query, kth_neighbor_distance  # noqa: E402
from smdcard.runner import EvaluationInputs, run_evaluation  # noqa: E402

KNN_SIZES = ((150, 16), (600, 16), (2000, 32))
HISTOGRAM_SIZES = ((150, 16),)
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
    medians, repeats = {}, {}

    def record(kernel, n, d, call):
        key = f"{kernel}_{n}x{d}"
        medians[key], repeats[key] = _median_ms(call)

    for n, d in KNN_SIZES:
        real, synth = _pair(n, d)
        record("knn", n, d, lambda: ball_query(
            real.data, synth.data, kth_neighbor_distance(synth.data, 3)))
    for n, d in HISTOGRAM_SIZES:
        real, synth = _pair(n, d)
        record("jsd", n, d, lambda: jensen_shannon(real, synth))
        record("entropy", n, d, lambda: embedding_entropy(synth))
        rng = np.random.default_rng(n)
        rows = [rng.integers(n, size=n) for _ in range(REPLICATES)]
        record("jsd_replicates", n, d,
               lambda: jensen_shannon_replicates(real, synth, rows))
        record("jsd_replicates_looped", n, d, lambda: [
            jensen_shannon(real, synth.resample(r)) for r in rows])
    inputs, config = _anova_fixture()
    evaluate_s = {}
    for workers in EVALUATE_WORKERS:
        key = f"evaluate_workers_{workers}"
        ms, repeats[key] = _median_ms(
            lambda: run_evaluation(inputs, config, workers=workers))
        evaluate_s[key] = ms / 1e3
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"median_ms": medians, "median_s": evaluate_s,
                      "repeats": repeats,
                      "children_peak_rss_mb": children_kib / 1024,
                      "numpy": np.__version__,
                      "python": platform.python_version(),
                      "machine": platform.machine()}, sort_keys=True))


if __name__ == "__main__":
    main()
