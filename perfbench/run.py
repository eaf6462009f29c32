#!/usr/bin/env python3
"""smdcard benchmark: run the CLI on seeded fixtures, check, and time it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload subgroup_anova --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 0 --smoke

Workloads, metrics and units are declared in ``BENCHMARK.json``. A run
prints one JSON line of run information (sizes, versions, the report's
SHA-256, raw samples, errors) and then, as its last line, the result:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced; with ``--trace 1`` they
are the per-layer ones from separate traced repetitions. The exit status is
non-zero when any output check fails.

One attempted run is one execution of the workload's command lines; it
fails on a non-zero exit or a failed output check. The first execution in
the benchmark process is a warm-up and is checked but not timed.

``run_rel`` is the median, over the timed repetitions, of a repetition's
wall time divided by the wall time of the fixed reference computation in
``reference.py`` run right after it: the command's time in units of the
host's current speed. The raw wall times are in the information line as
``run_s_samples`` and ``run_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("subgroup_anova", "record_table")
# --workers is then the only source of parallelism.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_REPEATS = 5
MIN_TIMED = 3
MIN_TRACED = 2
CHILD_TIMEOUT_S = 170
KIB = 1024.0
IMPORT_PROBE = ("import time\nt = time.perf_counter()\nimport smdcard.cli\n"
                "print(time.perf_counter() - t)")


class Session:
    """Attempted and failed runs of one workload, with their errors."""

    def __init__(self, prep):
        self.prep = prep
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: dict[str, bytes] | None = None
        self.defined_ratio = 0.0

    def record(self, label: str, codes: list[int], out_dir: Path,
               prep=None) -> None:
        prep = prep or self.prep
        self.attempted += 1
        if any(codes):
            errors = [f"exit codes {codes}"]
        else:
            errors, self.defined_ratio = workloads.check_outputs(prep, out_dir)
            outputs = {f: (out_dir / f).read_bytes()
                       for f in (prep.output, *prep.cards)
                       if (out_dir / f).is_file()}
            if self.reference is None:
                self.reference = outputs
            errors += [f"{f} differs from the first run's"
                       for f in sorted(outputs)
                       if outputs[f] != self.reference.get(f)]
        if errors:
            self.failed += 1
            self.errors += [f"{label}: {e}" for e in errors]

    def error(self, message: str) -> None:
        self.errors.append(message)


def run_commands(argvs: list[list[str]], tracer=None) -> tuple[list[int], float]:
    """Run CLI command lines in this process; returns (codes, wall seconds)."""
    from smdcard import cli
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        if tracer is None:
            codes = [cli.main(argv) for argv in argvs]
        else:
            with tracer.installed(), tracer.span(spans.ROOT_LAYER, "main"):
                codes = [cli.main(argv) for argv in argvs]
        elapsed = time.perf_counter() - start
    return codes, elapsed


def measure_setup() -> list[float]:
    """Cold ``import smdcard.cli`` times, each in a fresh interpreter.

    One probe runs first untimed, so bytecode is cached as a user's would be.
    """
    samples = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        if i:
            samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def measure_rss(session: Session, out_dir: Path) -> float:
    """Peak RSS (MB = 2^20 bytes) of a child that runs the command lines."""
    out_dir.mkdir()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "rss_child.py"),
         json.dumps(session.prep.argv(out_dir))],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        session.record("memory child", [proc.returncode], out_dir)
        sys.stderr.write(proc.stderr)
        return 0.0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    session.record("memory child", result["codes"], out_dir)
    return result["maxrss_kb"] / KIB


def warm_up(session: Session, work: Path) -> tuple[list[list[str]], Path]:
    """One checked, untimed run; returns the command lines and output dir."""
    out = work / "out"
    out.mkdir()
    argv = session.prep.argv(out)
    codes, _ = run_commands(argv)
    session.record("warm-up", codes, out)
    return argv, out


def check_serial(session: Session, work: Path) -> None:
    """Compare the report with a --workers 1 run, where workers are > 1."""
    prep = session.prep
    if prep.serial is None:
        return
    serial_dir = work / "serial"
    serial_dir.mkdir()
    codes, _ = run_commands(prep.serial_argv(serial_dir))
    session.record("--workers 1 run", codes, serial_dir,
                   prep=dataclasses.replace(prep, cards=()))


def end_to_end(session: Session, work: Path, seconds: float) -> tuple[dict, dict]:
    setup = measure_setup()
    prep = session.prep
    argv, out = warm_up(session, work)
    times: list[float] = []
    refs: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_TIMED or time.perf_counter() < deadline:
        codes, elapsed = run_commands(argv)
        session.record(f"repetition {len(times) + 1}", codes, out)
        times.append(elapsed)
        refs.append(reference.seconds())
    check_serial(session, work)
    peak_mb = measure_rss(session, work / "rss")
    report = (session.reference or {}).get(prep.output, b"")
    metrics = {
        "setup_s": statistics.median(setup),
        "run_rel": statistics.median(t / r for t, r in zip(times, refs)),
        "peak_rss_mb": peak_mb,
        "output_kb": len(report) / KIB,
        "ok_ratio": (session.attempted - session.failed) / session.attempted,
    }
    return metrics, {"setup_s_samples": setup, "run_s_samples": times,
                     "run_s": statistics.median(times),
                     "reference_s_samples": refs}


def per_layer(session: Session, work: Path, seconds: float) -> tuple[dict, dict]:
    argv, out = warm_up(session, work)
    check_serial(session, work)
    plain: list[float] = []
    traced: list[float] = []
    figures: list[dict] = []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED or time.perf_counter() < deadline:
        codes, elapsed = run_commands(argv)
        session.record(f"untraced repetition {len(plain) + 1}", codes, out)
        plain.append(elapsed)
        tracer = spans.Tracer()
        codes, elapsed = run_commands(argv, tracer)
        session.record(f"traced repetition {len(traced) + 1}", codes, out)
        traced.append(elapsed)
        figures.append(spans.summarize(tracer.spans))
    for key in spans.COUNTS:
        if len({f[key] for f in figures}) > 1:
            session.error(f"count {key} differs between repetitions: "
                          f"{[f[key] for f in figures]}")
    metrics = {key: (figures[0][key] if key in spans.COUNTS
                     else statistics.median(f[key] for f in figures))
               for key in figures[0]}
    metrics["runner.defined_ratio"] = session.defined_ratio
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain))
    return metrics, {"untraced_run_s_samples": plain,
                     "traced_run_s_samples": traced}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, declared: dict) -> bool:
    import numpy
    import scipy
    work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        start = time.perf_counter()
        prep = workloads.prepare(name, work / "inputs", seed, smoke)
        fixture_s = time.perf_counter() - start
        session = Session(prep)
        measure = per_layer if trace else end_to_end
        values, samples = measure(session, work, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    units = declared["per_layer" if trace else "end_to_end"]
    if set(values) != set(units):
        raise RuntimeError(f"measured metrics {sorted(values)} differ from "
                           f"BENCHMARK.json {sorted(units)}")
    report = (session.reference or {}).get(prep.output, b"")
    info = {
        "workload": name, "seed": seed, "trace": int(trace), "smoke": smoke,
        "sizes": prep.sizes, "workers": prep.workers,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "thread_env": THREAD_ENV, "fixture_s": fixture_s,
        "report_sha256": hashlib.sha256(report).hexdigest(),
        **samples, "errors": session.errors,
    }
    correct = session.failed == 0 and not session.errors
    result = {
        "correct": correct, "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in sorted(values)},
    }
    for message in session.errors:
        print(f"{name}: {message}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (SRC / "smdcard" / "__init__.py").is_file():
        print(f"perfbench: no smdcard sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    declared_raw = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {kind: {m["name"]: m["unit"] for m in declared_raw[kind]}
                for kind in ("end_to_end", "per_layer")}

    os.environ.update(THREAD_ENV)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    # numpy reads the thread variables when it loads, so modules importing
    # it are imported only now.
    global reference, spans, workloads
    import reference
    import spans
    import workloads

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        ok &= run_workload(name, args.seed, args.seconds, bool(args.trace),
                           args.smoke, declared)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
