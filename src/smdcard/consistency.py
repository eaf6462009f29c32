"""Consistency statistics: stability of quality metrics across subgroups.

The consistency metrics are compute entries whose inputs are the other
tasks' results (``score``), so the runner runs them after its worker pool.
This module alone knows their base metrics, the bootstrap replicate tasks
``anova`` asks the pool for (``replicate_tasks``) and how each picks its
rows (``replicate_rows``), how the replicates are tested, which subgroups
a base skips, and that the worst base decides each metric.
"""

from __future__ import annotations

import functools
import hashlib
import math

import numpy as np

from . import catalog
from .aggregate import normalize, resolve_bounds
from .errors import EvaluationError


def base_metrics(config) -> tuple[str, ...]:
    """The configured base metrics, else every selected embedding metric."""
    if config.consistency_base is not None:
        return config.consistency_base
    return tuple(name for name in config.metrics
                 if catalog.descriptor(name).source == catalog.SOURCE_EMBEDDING)


def replicate_tasks(config) -> tuple[tuple[str, int], ...]:
    """(base metric, replicate index) of every replicate task each subgroup
    scope runs; only ``anova`` reads replicates."""
    if "anova" not in config.metrics:
        return ()
    return tuple((base, r) for r in range(config.bootstrap_replicates)
                 for base in base_metrics(config))


def replicate_rows(size: int, label: str, replicate: int, seed: int):
    """Rows of one replicate of subgroup ``label``: a bootstrap resample of
    its ``size`` synthetic rows, drawn from the seed ``task_seed`` derives.
    Indices point into the subgroup's rows, in file order, and may repeat."""
    rng = np.random.default_rng(task_seed(seed, label, replicate))
    return rng.integers(size, size=size)


def score(name: str, results: dict, config, labels) -> tuple:
    """(value, diagnostics) of one consistency metric. ``results`` maps
    (scope, metric, replicate) to the other tasks' results, replicate None
    outside the replicate tasks; ``labels`` are the synthetic subgroups."""
    return _SCORES[name](results, config, sorted(set(labels)))


def dispersion(values: list[float | None]):
    """Population variance and max-min spread of per-subgroup values.

    Undefined entries are excluded and counted; fewer than two defined
    values make the dispersion itself undefined.
    """
    defined = [float(v) for v in values if v is not None]
    excluded = len(values) - len(defined)
    if len(defined) < 2:
        return None, {"undefined_reason": "fewer than 2 defined subgroup values",
                      "excluded": excluded}
    arr = np.asarray(defined)
    out = {
        "variance": float(np.mean((arr - arr.mean()) ** 2)),
        "max_min_difference": float(arr.max() - arr.min()),
    }
    return out, {"excluded": excluded, "count": len(defined)}


def _spread(key: str, results: dict, config, labels: list[str]):
    """``key`` of the dispersion of each base's normalized subgroup scores;
    the largest across bases decides, per-base detail goes to diagnostics."""
    worst = None
    detail = {}
    excluded_total = 0
    for base in base_metrics(config):
        values = []
        for label in labels:
            result = results.get((f"subgroup:{label}", base, None))
            values.append(None if result is None else normalize(
                result, resolve_bounds(result, config)).normalized)
        stats, diag = dispersion(values)
        if stats is None:
            detail[base] = "undefined: " + diag.get("undefined_reason", "")
            continue
        excluded_total += diag.get("excluded", 0)
        detail[base] = stats[key]
        if worst is None or stats[key] > worst:
            worst = stats[key]
    diagnostics = {"per_base": detail, "subgroups": labels,
                   "scale": "normalized scores",
                   "excluded_subgroup_values": excluded_total}
    if worst is None:
        diagnostics["undefined_reason"] = ("fewer than 2 defined subgroup "
                                           "values")
    return worst, diagnostics


def _anova(results: dict, config, labels: list[str]):
    """Bootstrap one-way ANOVA per base metric; the most significant base
    decides. A subgroup with any undefined replicate is skipped."""
    tasks = replicate_tasks(config)
    worst = None  # (p, F, base)
    detail = {}
    for base in base_metrics(config):
        groups, used, skipped = [], [], []
        for label in labels:
            values = [results[(f"subgroup:{label}", base, r)].value
                      for b, r in tasks if b == base]
            if None in values:
                skipped.append(label)
            else:
                groups.append(np.asarray(values))
                used.append(label)
        if len(groups) < 2:
            detail[base] = "undefined: fewer than 2 usable subgroups"
            continue
        try:
            stats, diag = one_way_anova(groups)
        except EvaluationError as exc:
            detail[base] = f"undefined: {exc}"
            continue
        if stats is None:
            detail[base] = "undefined: " + diag.get("undefined_reason", "")
            continue
        detail[base] = {"F": stats["F"], "p": stats["p"],
                        "subgroups": used, "skipped": skipped}
        if worst is None or stats["p"] < worst[0]:
            worst = (stats["p"], stats["F"], base)
    diagnostics = {"per_base": detail, "subgroups": labels,
                   "replicates": config.bootstrap_replicates}
    if worst is None:
        diagnostics["undefined_reason"] = ("no base metric produced two "
                                           "usable subgroups")
        return None, diagnostics
    p_value, f_value, base = worst
    diagnostics["p"] = p_value
    diagnostics["worst_base"] = base
    return f_value, diagnostics


_SCORES = {
    "metric_variance": functools.partial(_spread, "variance"),
    "max_min_difference": functools.partial(_spread, "max_min_difference"),
    "anova": _anova,
}


def f_survival(f_value: float, df_between: int, df_within: int) -> float:
    """Upper tail of the F distribution via the regularized incomplete beta."""
    if f_value <= 0:
        return 1.0
    import scipy.special  # deferred: scipy dominates CLI start-up time
    x = df_within / (df_within + df_between * f_value)
    return float(scipy.special.betainc(df_within / 2.0, df_between / 2.0, x))


def one_way_anova(groups: list[np.ndarray]):
    """Standard one-way F test over the given sample groups.

    Returns ({"F": ..., "p": ...}, diagnostics). Degenerate spreads follow
    the 0/0-undefined and inf-sentinel conventions: no within- and no
    between-group variation is undefined; zero within with positive between
    is an infinite F with p = 0.
    """
    if len(groups) < 2:
        raise EvaluationError("ANOVA needs at least 2 groups")
    groups = [np.asarray(g, dtype=np.float64) for g in groups]
    if any(g.size < 2 for g in groups):
        raise EvaluationError("ANOVA needs at least 2 samples per group")
    n_total = sum(g.size for g in groups)
    grand = float(np.concatenate(groups).mean())
    ss_between = sum(g.size * (float(g.mean()) - grand) ** 2 for g in groups)
    ss_within = sum(float(np.sum((g - g.mean()) ** 2)) for g in groups)
    df_between = len(groups) - 1
    df_within = n_total - len(groups)
    diagnostics = {"df_between": df_between, "df_within": df_within,
                   "ss_between": ss_between, "ss_within": ss_within}
    if ss_within == 0.0 and ss_between == 0.0:
        return None, {**diagnostics,
                      "undefined_reason": "no variation within or between groups"}
    if ss_within == 0.0:
        return {"F": math.inf, "p": 0.0}, diagnostics
    ms_between = ss_between / df_between
    ms_within = ss_within / df_within
    f_value = ms_between / ms_within
    return {"F": f_value, "p": f_survival(f_value, df_between, df_within)}, \
        diagnostics


def task_seed(seed: int, label: str, replicate: int) -> int:
    """Derived seed for one (subgroup, replicate) bootstrap task.

    Stable across orderings and worker counts: seed XOR a hash of the task
    identity, so parallel execution cannot change results.
    """
    digest = hashlib.sha256(f"{label}|{replicate}".encode("utf-8")).digest()
    return (seed ^ int.from_bytes(digest[:8], "big")) & 0x7FFFFFFFFFFFFFFF
