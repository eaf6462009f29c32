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
``entropy_replicates`` and ``entropy_replicates_looped`` are the same for
``embedding_entropy_replicates`` and ``embedding_entropy``.
``recall_replicates`` is one such block through
``manifold_recall_replicates`` (the synthetic rows' neighbor window and the
reference-to-synthetic distances measured once, then one lookup per
replicate), and ``recall_replicates_looped`` the same 50 row sets as 50
``manifold_recall`` calls (k=3) on ``resample``d sets; again the values are
identical. ``ball_hits`` is that block's membership test alone: the
reference rows against the 50 replicates' balls, radii given.
Each is timed at n rows by d dimensions per set; BLAS runs on one thread,
as in ``perfbench``. ``read_record_table`` reads a seeded record table of
n rows and d columns (4 numeric, 4 categorical, 2% of cells masked) shaped
like perfbench's ``record_table`` inputs, and ``read_embeddings`` a seeded
embedding file of n rows by d features with a subgroup column; both files
are written by ``ingest`` and so carry no quotes. The end-to-end rows use a
fixture shaped like perfbench's ``subgroup_anova`` (600 rows by 16
dimensions per set, 4 subgroups, bases ``recall`` and
``jensen_shannon_divergence``, 50 replicates): ``evaluate_workers_N``
times ``run_evaluation`` at N workers, and ``pool_workers_N`` times only
its pool section, ``runner._run_tasks`` on the task list that evaluation
hands it, at N processes. These rows run first, so the two peak RSS
figures (MB) cover them alone: the evaluating process's own
(``RUSAGE_SELF``), which holds the tasks of the 1-worker rows, and that of
the largest forked worker (``RUSAGE_CHILDREN``). ``calibrate`` times
``calibrate_bounds`` with every computable embedding metric on a seeded
reference of n rows by d dimensions; n is odd, so the two halves of each
split differ in length by one row. Prints one JSON line: the minimum,
quartiles and median of the milliseconds per call of each kernel and size
(``kernel_ms``) and of the seconds of each end-to-end row
(``end_to_end_s``), the repetition counts and the peaks.
Kernel rows repeat for at least 5 calls and 0.5 s; end-to-end rows, whose
calls fork and allocate, for at least 20 calls and 3 s.
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
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from smdcard.config import config_from_dict  # noqa: E402
from smdcard.congruence import (jensen_shannon,  # noqa: E402
                                jensen_shannon_replicates)
from smdcard.coverage import (embedding_entropy,  # noqa: E402
                              embedding_entropy_replicates,
                              manifold_recall, manifold_recall_replicates)
from smdcard import catalog, ingest  # noqa: E402
from smdcard.harness import (inject_defect,  # noqa: E402
                             make_gaussian_mixture, make_record_table)
from smdcard.model import EmbeddingSet  # noqa: E402
from smdcard.numerics import (ball_hits, ball_query,  # noqa: E402
                               kth_neighbor_distance, resampled_kth_distances)
from smdcard import runner  # noqa: E402
from smdcard.runner import EvaluationInputs, run_evaluation  # noqa: E402

KNN_SIZES = ((150, 16), (600, 16), (2000, 32))
HISTOGRAM_SIZES = ((150, 16),)
REPLICATE_SIZES = ((150, 16),)
REPLICATES = 50
EVALUATE_WORKERS = (1, 2)
TABLE_ROWS = 20000
NUMERIC_FIELDS = {"age": (20.0, 80.0), "hgb": (10.0, 17.0),
                  "sbp": (90.0, 160.0), "bmi": (18.0, 35.0)}
CATEGORICAL_FIELDS = {"sex": ["F", "M"], "site": ["A", "B", "C", "D"],
                      "band": ["18-39", "40-59", "60-79", "80+"],
                      "dx": ["anemia", "asthma", "diabetes", "hypertension",
                             "none"]}
EMBEDDING_FILE_SIZE = (600, 16)
CALIBRATE_SIZE = (1001, 16)
MIN_REPEATS, MIN_SECONDS = 5, 0.5
END_TO_END_REPEATS, END_TO_END_SECONDS = 20, 3.0


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


def _write_inputs(directory: str) -> dict:
    """The seeded input files of the reader rows; their paths by kernel."""
    table = inject_defect(
        make_record_table(TABLE_ROWS, seed=1, numeric_fields=NUMERIC_FIELDS,
                          categorical_fields=CATEGORICAL_FIELDS),
        "mask_cells", seed=2, fraction=0.02).dataset
    n, d = EMBEDDING_FILE_SIZE
    modes = [{"mean": 4.0 * i, "scale": 1.0, "weight": 1.0} for i in range(4)]
    paths = {"read_record_table": os.path.join(directory, "table.csv"),
             "read_embeddings": os.path.join(directory, "embeddings.csv")}
    ingest.write_record_table(table, paths["read_record_table"])
    ingest.write_embeddings(make_gaussian_mixture(n, d, modes, seed=3),
                            paths["read_embeddings"])
    return paths


def _spread(call, scale, min_repeats=MIN_REPEATS,
            min_seconds=MIN_SECONDS) -> tuple[dict, int]:
    """The minimum, quartiles and median of ``call``'s time, in seconds
    times ``scale``, and the repetition count."""
    call()  # warm-up
    samples = []
    start = time.perf_counter()
    while (len(samples) < min_repeats
           or time.perf_counter() - start < min_seconds):
        t = time.perf_counter()
        call()
        samples.append((time.perf_counter() - t) * scale)
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return ({"min": min(samples), "q1": q1, "median": median, "q3": q3},
            len(samples))


def main() -> None:
    kernels, repeats, end_to_end = {}, {}, {}

    def record(kernel, n, d, call):
        key = f"{kernel}_{n}x{d}"
        kernels[key], repeats[key] = _spread(call, 1e3)

    inputs, config = _anova_fixture()
    pooled = _pooled_tasks(inputs, config)
    for workers in EVALUATE_WORKERS:
        for key, call in (
                (f"evaluate_workers_{workers}",
                 lambda: run_evaluation(inputs, config, workers=workers)),
                (f"pool_workers_{workers}",
                 lambda: runner._run_tasks(pooled, workers))):
            end_to_end[key], repeats[key] = _spread(
                call, 1, END_TO_END_REPEATS, END_TO_END_SECONDS)
    peak_kib = {who: resource.getrusage(which).ru_maxrss for who, which in (
        ("self", resource.RUSAGE_SELF), ("children", resource.RUSAGE_CHILDREN))}

    n, d = CALIBRATE_SIZE
    reference = _pair(n, d)[0]
    embedding = config_from_dict({"metrics": [
        name for name in catalog.selectable_names()
        if catalog.descriptor(name).source == catalog.SOURCE_EMBEDDING]})
    key = f"calibrate_{n}x{d}"
    end_to_end[key], repeats[key] = _spread(
        lambda: runner.calibrate_bounds(reference, embedding), 1,
        END_TO_END_REPEATS, END_TO_END_SECONDS)

    with tempfile.TemporaryDirectory() as directory:
        paths = _write_inputs(directory)
        schema = {**dict.fromkeys(NUMERIC_FIELDS, "numeric"),
                  **dict.fromkeys(CATEGORICAL_FIELDS, "categorical")}
        record("read_record_table", TABLE_ROWS, len(schema),
               lambda: ingest.read_record_table(paths["read_record_table"],
                                                schema))
        record("read_embeddings", *EMBEDDING_FILE_SIZE,
               lambda: ingest.read_embeddings(paths["read_embeddings"],
                                              subgroup_column="subgroup"))
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
        record("entropy_replicates", n, d,
               lambda: embedding_entropy_replicates(synth, rows))
        record("entropy_replicates_looped", n, d, lambda: [
            embedding_entropy(synth.resample(r)) for r in rows])
        record("recall_replicates", n, d,
               lambda: manifold_recall_replicates(real, synth, rows))
        record("recall_replicates_looped", n, d, lambda: [
            manifold_recall(real, synth.resample(r)) for r in rows])
        radii = resampled_kth_distances(synth.data, rows, 3)
        record("ball_hits", n, d,
               lambda: ball_hits(real.data, synth.data, radii))
    print(json.dumps({"kernel_ms": kernels, "end_to_end_s": end_to_end,
                      "repeats": repeats,
                      "self_peak_rss_mb": peak_kib["self"] / 1024,
                      "children_peak_rss_mb": peak_kib["children"] / 1024,
                      "pooled_tasks": len(pooled),
                      "numpy": np.__version__,
                      "python": platform.python_version(),
                      "machine": platform.machine()}, sort_keys=True))


if __name__ == "__main__":
    main()
