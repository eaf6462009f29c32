"""Outside-in layer tracing of smdcard.

The layers are the package's modules. ``Tracer.installed()`` replaces every
reference one smdcard module holds to a function of another layer module
(``from .numerics import knn_distances`` in ``coverage``, or the
``congruence`` module object ``runner`` calls through) with a wrapper that
records a span. Calls inside one module are not wrapped, so hot helpers
such as ``constraint.evaluate_rule`` cost nothing extra. The one exception
is ``runner.plan``, called once per evaluation, so that plan time shows.

Each thread keeps its own span stack. A span opened on a worker thread with
an empty stack takes as parent the installing thread's innermost open span,
which is the call that handed the work to the pool. Spans stay in memory;
``summarize`` turns them into per-layer figures at the end.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import os
import sys
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass

PACKAGE = "smdcard"
LAYERS = ("numerics", "consistency", "runner", "constraint", "ingest",
          "compliance", "completeness", "coverage", "congruence", "aggregate",
          "card")
ROOT_LAYER = "cli"

#: (layer, function) -> metric name, for the inclusive per-metric times of
#: the metrics the workloads select.
METRIC_FUNCTIONS = {
    ("congruence", "cosine_centroid"): "cosine_similarity",
    ("congruence", "jensen_shannon"): "jensen_shannon_divergence",
    ("coverage", "manifold_recall"): "recall",
    ("compliance", "k_anonymity"): "k_anonymity",
    ("compliance", "l_diversity"): "l_diversity",
    ("compliance", "t_closeness"): "t_closeness",
    ("constraint", "violation_rate"): "constraint_violation_rate",
    ("constraint", "violation_magnitude"): "constraint_boundary_distance",
    ("constraint", "margin_to_boundary"): "nearest_invalid_datapoint",
    ("completeness", "required_field_proportion"): "required_field_proportion",
    ("completeness", "missing_data_percentage"): "missing_data_percentage",
    ("consistency", "bootstrap_groups"): "anova",
    ("consistency", "one_way_anova"): "anova",
}
METRICS = tuple(sorted(set(METRIC_FUNCTIONS.values())))

MIB = float(1 << 20)


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float
    counts: dict | None


# ---------------------------------------------------------------------------
# counts computed from arguments at the call boundary


def _rows(x) -> int:
    return x.n if hasattr(x, "n") else len(x)


def _distance_counts(args, sort: bool) -> dict:
    first, second = list(args.values())[:2]
    pairs = _rows(first) * _rows(second)
    counts = {"distance_pairs": pairs, "matrix_bytes": 8 * pairs}
    if sort:
        counts["sorted_elements"] = pairs
    return counts


def _run_counts(args) -> dict:
    from smdcard import catalog
    inputs, config = args["inputs"], args["config"]
    synthetic = inputs.synthetic
    scopes = (1 + len(set(synthetic.region or ()))
              + len(set(synthetic.subgroup or ())))
    tasks = 0
    for name in config.metrics:
        source = catalog.descriptor(name).source
        if source == catalog.SOURCE_EMBEDDING:
            tasks += scopes
        elif source != catalog.SOURCE_SUBGROUP_METRICS:
            tasks += 1
    return {"tasks": tasks, "workers": max(1, args.get("workers", 1))}


def _file_bytes(args, key: str) -> dict:
    size = sum(os.path.getsize(v) for k, v in args.items()
               if "path" in k and isinstance(v, str) and os.path.isfile(v))
    return {key: size}


def _counter(layer: str, name: str):
    """The count function for one wrapped function, or None."""
    if layer == "numerics" and name == "pairwise_distances":
        return lambda args: _distance_counts(args, sort=False)
    if layer == "numerics" and name in ("knn_distances", "nearest_distances"):
        return lambda args: _distance_counts(args, sort=True)
    if layer == "consistency" and name == "bootstrap_groups":
        return lambda args: {"resamples": args["replicates"] * sum(
            v is not None for v in args["values_by_label"].values())}
    if layer == "constraint" and name in ("violation_rate",
                                          "violation_magnitude",
                                          "margin_to_boundary"):
        return lambda args: {"row_rule_evals":
                             args["table"].n * len(args["rules"].rules)}
    if layer == "runner" and name == "run_evaluation":
        return _run_counts
    if layer == "ingest" and name.startswith("read_"):
        return lambda args: _file_bytes(args, "bytes_read")
    if layer == "ingest" and (name.startswith("write_")
                              or name == "atomic_write"):
        return lambda args: _file_bytes(args, "bytes_written")
    return None


# ---------------------------------------------------------------------------
# the tracer


class _ModuleProxy:
    """Stands in for a layer module inside another module's namespace."""

    def __init__(self, module: types.ModuleType, wrap):
        self._module = module
        self._wrap = wrap
        self._wrapped: dict[str, object] = {}

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if not (isinstance(value, types.FunctionType)
                and value.__module__ == self._module.__name__):
            return value
        wrapped = self._wrapped.get(name)
        if wrapped is None:
            wrapped = self._wrapped[name] = self._wrap(value)
        return wrapped


class Tracer:
    """Spans of one traced run, recorded by the wrappers it installs."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._outer_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int | None, list[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._outer_stack[-1] if self._outer_stack else None
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        sid, parent, stack = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, layer, name, start, end, None))

    def wrap(self, fn, layer: str):
        name = fn.__name__
        count = _counter(layer, name)
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, stack = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = None
                if count is not None:
                    bound = signature.bind(*args, **kwargs)
                    counts = count(bound.arguments)
                self.spans.append(Span(sid, parent, layer, name, start, end,
                                       counts))
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every cross-layer reference in the package; undo on exit."""
        modules = {short: sys.modules[f"{PACKAGE}.{short}"] for short in LAYERS}
        layer_of = {m.__name__: short for short, m in modules.items()}
        patches = []
        for caller_name, caller in list(sys.modules.items()):
            if not caller_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(caller).items()):
                replacement = None
                if isinstance(value, types.ModuleType):
                    layer = layer_of.get(value.__name__)
                    if layer and value is not caller:
                        replacement = _ModuleProxy(
                            value, functools.partial(self.wrap, layer=layer))
                elif isinstance(value, types.FunctionType):
                    layer = layer_of.get(value.__module__)
                    if layer and value.__module__ != caller_name:
                        replacement = self.wrap(value, layer)
                if replacement is not None:
                    patches.append((caller, attr, value))
                    setattr(caller, attr, replacement)
        runner = modules["runner"]
        patches.append((runner, "plan", runner.plan))
        runner.plan = self.wrap(runner.plan, "runner")
        self._outer_stack = self._stack()
        try:
            yield self
        finally:
            for module, attr, value in reversed(patches):
                setattr(module, attr, value)


# ---------------------------------------------------------------------------
# per-layer figures


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of ``span`` that its children's intervals cover."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                       for c in children)
    covered = 0.0
    cur_start = cur_end = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_end is None or lo > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = lo, hi
        else:
            cur_end = max(cur_end, hi)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced repetition.

    ``busy_s`` is self time (a span's duration minus the part its child
    spans cover, on any thread); ``trace.layer_share`` is the named layers'
    busy time over the root span's duration.
    """
    by_id = {s.sid: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)

    def under(span: Span, layer: str) -> bool:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.layer == layer:
                return True
            parent = by_id.get(parent.parent)
        return False

    out = {f"{layer}.busy_s": 0.0 for layer in LAYERS}
    out.update({f"metric.{m}.busy_s": 0.0 for m in METRICS})
    totals = defaultdict(int)
    max_matrix = 0
    calls = 0
    plan_s = inclusive = 0.0
    tasks = []
    workers = 1
    roots = [s for s in spans if s.layer == ROOT_LAYER]
    for s in spans:
        duration = s.end - s.start
        if s.layer in LAYERS:
            out[f"{s.layer}.busy_s"] += duration - _covered(s, children[s.sid])
        metric = METRIC_FUNCTIONS.get((s.layer, s.name))
        if metric is not None:
            out[f"metric.{metric}.busy_s"] += duration
            if s.layer != "consistency" and not under(s, "consistency"):
                tasks.append(s)
        if s.layer == "numerics":
            calls += 1
        if s.layer == "consistency" and not under(s, "consistency"):
            inclusive += duration
        if s.layer == "runner" and s.name == "plan":
            plan_s += duration
        for key, value in (s.counts or {}).items():
            if key == "matrix_bytes":
                max_matrix = max(max_matrix, value)
            elif key == "workers":
                workers = max(workers, value)
            else:
                totals[key] += value
    phase = (max(s.end for s in tasks) - min(s.start for s in tasks)
             if tasks else 0.0)
    root_s = sum(s.end - s.start for s in roots)
    named = sum(out[f"{layer}.busy_s"] for layer in LAYERS)
    out.update({
        "numerics.calls": calls,
        "numerics.distance_pairs": totals["distance_pairs"],
        "numerics.sorted_elements": totals["sorted_elements"],
        "numerics.max_matrix_mb": max_matrix / MIB,
        "consistency.inclusive_s": inclusive,
        "consistency.resamples": totals["resamples"],
        "runner.plan_s": plan_s,
        "runner.tasks": totals["tasks"],
        "runner.pool_util": (sum(s.end - s.start for s in tasks)
                             / (workers * phase) if phase > 0 else 0.0),
        "constraint.row_rule_evals": totals["row_rule_evals"],
        "ingest.bytes_read": totals["bytes_read"],
        "ingest.bytes_written": totals["bytes_written"],
        "trace.layer_share": named / root_s if root_s > 0 else 0.0,
    })
    return out


#: Figures that are exact counts: they must repeat across repetitions.
COUNTS = ("numerics.calls", "numerics.distance_pairs",
          "numerics.sorted_elements", "numerics.max_matrix_mb",
          "consistency.resamples", "runner.tasks",
          "constraint.row_rule_evals", "ingest.bytes_read",
          "ingest.bytes_written")
