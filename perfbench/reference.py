"""A fixed reference computation that gauges the host's current speed.

On a shared host everything runs up to about 1.6 times slower for tens of
seconds at a time, longer than one benchmark run, so a plain wall time
mostly measures which phase the run fell into. The benchmark runs this
reference right after each timed repetition and reports the repetition's
time as a multiple of it. The code here never changes with the program, so
its time moves only with the machine.

The work mixes the two kinds the workloads do: per-record Python
comparisons on dicts, and dense numpy distance matrices that are sorted.
The cyclic garbage collector is paused meanwhile, so objects the program
keeps alive between repetitions do not slow the reference.
"""

from __future__ import annotations

import gc
import time

import numpy as np

_POINTS = np.random.default_rng(0).standard_normal((300, 16))


def _python_work() -> float:
    records = [{"a": float(i % 97), "b": float(i % 13), "c": "x" * (i % 3)}
               for i in range(20000)]
    total = 0.0
    for _ in range(15):
        for record in records:
            if record["a"] + record["b"] <= 100.0 and record["c"] != "xx":
                total += record["a"] - record["b"]
    return total


def _numpy_work() -> None:
    for _ in range(60):
        sq = (_POINTS * _POINTS).sum(axis=1)
        distances = sq[:, None] + sq[None, :] - 2.0 * (_POINTS @ _POINTS.T)
        np.sort(distances, axis=1)


def seconds() -> float:
    """Wall time of one pass of the reference work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _python_work()
        _numpy_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
