#!/usr/bin/env python3
"""Time the hot metric kernels on fixed seeded inputs.

Usage, from the root of a checkout:

    python3 scripts/bench_kernels.py

``knn`` is one recall kernel: ``kth_neighbor_distance`` on the synthetic
rows (k=3) and ``ball_query`` of the reference rows against those balls.
``jsd`` is ``jensen_shannon`` and ``entropy`` is ``embedding_entropy``.
Each is timed at n rows by d dimensions per set; BLAS runs on one thread,
as in ``perfbench``. Prints one JSON line: the median milliseconds per call
of each kernel and size, with the repetition counts.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from smdcard.congruence import jensen_shannon  # noqa: E402
from smdcard.coverage import embedding_entropy  # noqa: E402
from smdcard.model import EmbeddingSet  # noqa: E402
from smdcard.numerics import ball_query, kth_neighbor_distance  # noqa: E402

KNN_SIZES = ((150, 16), (600, 16), (2000, 32))
HISTOGRAM_SIZES = ((150, 16),)
MIN_REPEATS, MIN_SECONDS = 5, 0.5


def _pair(n: int, d: int):
    rng = np.random.default_rng(n * 1000 + d)
    real = rng.normal(size=(n, d))
    synth = rng.normal(loc=0.2, size=(n, d))
    ids = tuple(str(i) for i in range(n))
    return EmbeddingSet(ids, real), EmbeddingSet(ids, synth)


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
    print(json.dumps({"median_ms": medians, "repeats": repeats,
                      "numpy": np.__version__,
                      "python": platform.python_version(),
                      "machine": platform.machine()}, sort_keys=True))


if __name__ == "__main__":
    main()
