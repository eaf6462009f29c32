#!/usr/bin/env python3
"""Time the hot metric kernels on fixed seeded inputs.

Usage, from the root of a checkout:

    python3 scripts/bench_kernels.py [--out PATH] [--northstar]

``knn`` is one recall kernel: ``kth_neighbor_distances`` on the synthetic
rows (k=3) and ``ball_query`` of the reference rows against those balls,
one set of radii.
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
identical. ``ball_query_replicates`` is that block's membership test
alone: one ``ball_query`` of the reference rows against the 50
replicates' balls, radii given by ``kth_neighbor_distances``.
Each is timed at n rows by d dimensions per set; BLAS runs on one thread,
as in ``perfbench``. Host speed drifts between runs, so compare two
checkouts by alternating runs of one with runs of the other.
``read_record_table`` reads a seeded record table of
n rows and d columns (4 numeric, 4 categorical, 2% of cells masked) shaped
like perfbench's ``record_table`` inputs, and ``read_embeddings`` a seeded
embedding file of n rows by d features with a subgroup column; both files
are written by ``ingest`` and so carry no quotes. The end-to-end rows use a
fixture shaped like perfbench's ``subgroup_anova`` (600 rows by 16
dimensions per set, 4 subgroups, bases ``recall`` and
``jensen_shannon_divergence``, 50 replicates): ``evaluate`` times
``run_evaluation``, and ``pool`` times only the tasks it runs before the
consistency metrics, each through ``runner._task_results``. These rows
run first, so the peak RSS (MB, ``RUSAGE_SELF``) covers them alone; every
task runs in this process. ``cli_evaluate`` times a fresh interpreter
that runs ``smdcard.cli.main`` ``evaluate`` on the same inputs and config,
written to files, so it alone counts start-up and imports; its children
are spawned before any other row runs, and ``cli_peak_rss_mb`` is the
largest child's own peak RSS (``VmHWM``, Linux), which, unlike
``ru_maxrss``, does not start from this process's RSS. ``cli_card`` times
a fresh interpreter that runs ``card --format md`` on the report
``cli_evaluate`` wrote and a one-field manifest, and
``cli_card_peak_rss_mb`` is its largest child's own peak RSS.
``calibrate`` times ``calibrate_bounds`` with every computable embedding
metric on a seeded reference of n rows by d dimensions; n is odd, so the
two halves of each split differ in length by one row. Prints one JSON
line: the minimum, quartiles and median of the milliseconds per call of
each kernel and size (``kernel_ms``) and of the seconds of each end-to-end
row (``end_to_end_s``), the repetition counts and the peaks; ``--out
PATH`` writes that line to PATH too.
Kernel rows repeat for at least 5 calls and 0.5 s, end-to-end rows for at
least 20 calls and 3 s.

``--northstar`` adds a ``northstar`` entry: the North-star run of ROADMAP
"State" (2000 rows by 32 dimensions per set, four modes at unit spacing,
every embedding metric selected and an ``anova`` base with 50 replicates,
bounds [0, 100] for each metric without another bounds source), run like
``cli_evaluate`` in fresh interpreters. After a warm-up, three runs at
``OPENBLAS_NUM_THREADS=1`` give the minimum and quartiles of its wall
time (``wall_s``) and the largest child's own peak RSS; one more run at
two threads gives ``threads_2_wall_s`` and ``threads_2_peak_rss_mb``.
``report_sha256`` is the SHA-256 of the report each thread count wrote,
``dumps_canonical(report.to_dict())``; the two may differ. A run takes
10-13 s on a 2-vCPU host, so the entry is opt-in.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from smdcard.config import config_from_dict  # noqa: E402
from smdcard.congruence import (jensen_shannon,  # noqa: E402
                                jensen_shannon_replicates)
from smdcard.coverage import (embedding_entropy,  # noqa: E402
                              embedding_entropy_replicates,
                              manifold_recall, manifold_recall_replicates)
from smdcard import catalog, ingest  # noqa: E402
from smdcard.aggregate import has_bounds_source  # noqa: E402
from smdcard.harness import (inject_defect,  # noqa: E402
                             make_gaussian_mixture, make_record_table)
from smdcard.model import EmbeddingSet  # noqa: E402
from smdcard.numerics import (ball_query,  # noqa: E402
                               kth_neighbor_distances)
from smdcard import runner  # noqa: E402
from smdcard.runner import EvaluationInputs, run_evaluation  # noqa: E402

KNN_SIZES = ((150, 16), (600, 16), (2000, 32))
HISTOGRAM_SIZES = ((150, 16),)
REPLICATE_SIZES = ((150, 16),)
REPLICATES = 50
TABLE_ROWS = 20000
NUMERIC_FIELDS = {"age": (20.0, 80.0), "hgb": (10.0, 17.0),
                  "sbp": (90.0, 160.0), "bmi": (18.0, 35.0)}
CATEGORICAL_FIELDS = {"sex": ["F", "M"], "site": ["A", "B", "C", "D"],
                      "band": ["18-39", "40-59", "60-79", "80+"],
                      "dx": ["anemia", "asthma", "diabetes", "hypertension",
                             "none"]}
EMBEDDING_FILE_SIZE = (600, 16)
CALIBRATE_SIZE = (1001, 16)
NORTHSTAR_SIZE = (2000, 32)
NORTHSTAR_REPLICATES = 50
MIN_REPEATS, MIN_SECONDS = 5, 0.5
END_TO_END_REPEATS, END_TO_END_SECONDS = 20, 3.0
ANOVA_BASES = ["jensen_shannon_divergence", "recall"]
ANOVA_CONFIG = {"metrics": ANOVA_BASES + ["anova", "max_min_difference"],
                "consistency": {"base_metrics": ANOVA_BASES,
                                "bootstrap_replicates": 50},
                "seed": 1}
CARD_MANIFEST = {"general": {"name": "bench-synthetic"}}
# Runs smdcard.cli.main(argv) and writes this process's own peak RSS (kB)
# as the last line of stderr.
CLI_CHILD = """
import sys
from smdcard.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status
               if line.startswith("VmHWM:")), file=sys.stderr)
sys.exit(code)
"""


def _pair(n: int, d: int):
    rng = np.random.default_rng(n * 1000 + d)
    real = rng.normal(size=(n, d))
    synth = rng.normal(loc=0.2, size=(n, d))
    ids = tuple(str(i) for i in range(n))
    return EmbeddingSet(ids, real), EmbeddingSet(ids, synth)


def _anova_fixture():
    """Inputs and config shaped like perfbench's ``subgroup_anova``."""
    modes = [{"mean": 4.0 * i, "scale": 1.0, "weight": 1.0} for i in range(4)]
    inputs = EvaluationInputs(
        synthetic=make_gaussian_mixture(600, 16, modes, seed=2),
        real=make_gaussian_mixture(600, 16, modes, seed=1))
    return inputs, config_from_dict(ANOVA_CONFIG)


def _cli_argv(directory: str, real: EmbeddingSet, synthetic: EmbeddingSet,
              raw: dict) -> list[str]:
    """``evaluate`` command line of ``real`` and ``synthetic`` against the
    config ``raw``, with subgroups from the ``subgroup`` column, written to
    files in ``directory``; the report path is last."""
    paths = {name: os.path.join(directory, name + ".csv")
             for name in ("real", "synthetic")}
    ingest.write_embeddings(real, paths["real"])
    ingest.write_embeddings(synthetic, paths["synthetic"])
    config = os.path.join(directory, "config.yaml")
    # written as JSON, which the YAML config reader accepts
    Path(config).write_text(json.dumps(
        {**raw, "columns": {"subgroup": "subgroup"}}), encoding="utf-8")
    return ["evaluate", "--real", paths["real"], "--synthetic",
            paths["synthetic"], "--config", config,
            "--out", os.path.join(directory, "report.json")]


def _northstar_argv(directory: str) -> list[str]:
    """``evaluate`` command line of the North-star run, written to files in
    ``directory``."""
    n, d = NORTHSTAR_SIZE
    modes = [{"mean": float(i), "scale": 1.0, "weight": 1.0}
             for i in range(4)]
    embedding = [name for name in catalog.selectable_names()
                 if catalog.descriptor(name).source
                 == catalog.SOURCE_EMBEDDING]
    raw = {"metrics": embedding + ["anova"],
           "consistency": {"base_metrics": embedding,
                           "bootstrap_replicates": NORTHSTAR_REPLICATES},
           "seed": 1}
    config = config_from_dict(raw)
    raw["bounds"] = {name: [0, 100] for name in embedding
                     if not has_bounds_source(name, config)}
    return _cli_argv(directory, make_gaussian_mixture(n, d, modes, seed=1),
                     make_gaussian_mixture(n, d, modes, seed=2), raw)


def _northstar() -> dict:
    """The ``northstar`` entry: fresh-interpreter North-star runs, three
    after a warm-up at one BLAS thread and one at two."""
    with tempfile.TemporaryDirectory() as directory:
        argv = _northstar_argv(directory)
        report = Path(argv[-1])
        peaks = []
        wall, runs = _spread(lambda: peaks.append(_run_cli(argv, "1")), 1,
                             3, 0)
        hashes = {"1": hashlib.sha256(report.read_bytes()).hexdigest()}
        start = time.perf_counter()
        peak_2 = _run_cli(argv, "2")
        wall_2 = time.perf_counter() - start
        hashes["2"] = hashlib.sha256(report.read_bytes()).hexdigest()
    return {"wall_s": wall, "runs": runs, "peak_rss_mb": max(peaks),
            "threads_2_wall_s": wall_2, "threads_2_peak_rss_mb": peak_2,
            "report_sha256": hashes, "size": list(NORTHSTAR_SIZE),
            "replicates": NORTHSTAR_REPLICATES}


def _run_cli(argv: list[str], threads: str | None = None) -> float:
    """Run ``CLI_CHILD`` on ``argv`` in a fresh interpreter, with BLAS on
    ``threads`` threads if given; its own peak RSS in MB."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    if threads is not None:
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    done = subprocess.run([sys.executable, "-c", CLI_CHILD, *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, check=True)
    return int(done.stderr.split()[-1]) / 1024


def _pooled_tasks(inputs, config) -> list:
    """The (task, args) list ``run_evaluation`` runs before the consistency
    metrics, each task (scope, metric, replicates), as
    ``runner._task_results`` receives them."""
    captured = []
    task_results = runner._task_results

    def capture(task, args):
        captured.append((task, args))
        return task_results(task, args)
    runner._task_results = capture
    try:
        run_evaluation(inputs, config)
    finally:
        runner._task_results = task_results
    return [(task, args) for task, args in captured
            if catalog.descriptor(task[1]).source
            != catalog.SOURCE_SUBGROUP_METRICS]


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


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", metavar="PATH",
                        help="also write the printed JSON line to PATH")
    parser.add_argument("--northstar", action="store_true",
                        help="also time the North-star evaluate run, five "
                             "fresh interpreters of 10-13 s each")
    args = parser.parse_args(argv)
    kernels, repeats, end_to_end, extra = {}, {}, {}, {}

    def record(kernel, n, d, call):
        key = f"{kernel}_{n}x{d}"
        kernels[key], repeats[key] = _spread(call, 1e3)

    cli_peaks, card_peaks = [], []
    inputs, config = _anova_fixture()
    with tempfile.TemporaryDirectory() as directory:
        argv = _cli_argv(directory, inputs.real, inputs.synthetic,
                         ANOVA_CONFIG)
        end_to_end["cli_evaluate"], repeats["cli_evaluate"] = _spread(
            lambda: cli_peaks.append(_run_cli(argv)), 1,
            END_TO_END_REPEATS, END_TO_END_SECONDS)
        manifest = os.path.join(directory, "manifest.yaml")
        Path(manifest).write_text(json.dumps(CARD_MANIFEST), encoding="utf-8")
        card_argv = ["card", "--manifest", manifest, "--report", argv[-1],
                     "--format", "md",
                     "--out", os.path.join(directory, "card.md")]
        end_to_end["cli_card"], repeats["cli_card"] = _spread(
            lambda: card_peaks.append(_run_cli(card_argv)), 1,
            END_TO_END_REPEATS, END_TO_END_SECONDS)
    if args.northstar:
        extra["northstar"] = _northstar()

    pooled = _pooled_tasks(inputs, config)
    for key, call in (
            ("evaluate", lambda: run_evaluation(inputs, config)),
            ("pool", lambda: [runner._task_results(*t) for t in pooled])):
        end_to_end[key], repeats[key] = _spread(
            call, 1, END_TO_END_REPEATS, END_TO_END_SECONDS)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

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
            real.data, synth.data, kth_neighbor_distances(synth.data, 3)))
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
        radii = kth_neighbor_distances(synth.data, 3, rows)
        record("ball_query_replicates", n, d,
               lambda: ball_query(real.data, synth.data, radii))
    line = json.dumps({"kernel_ms": kernels, "end_to_end_s": end_to_end,
                       "repeats": repeats,
                       "self_peak_rss_mb": peak_kib / 1024,
                       "cli_peak_rss_mb": max(cli_peaks),
                       "cli_card_peak_rss_mb": max(card_peaks),
                       "pooled_tasks": len(pooled),
                       "numpy": np.__version__,
                       "python": platform.python_version(),
                       "machine": platform.machine(), **extra},
                      sort_keys=True)
    print(line)
    if args.out is not None:
        Path(args.out).write_text(line + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
