"""Consistency statistics: stability of quality metrics across subgroups.

The consistency metrics are computed by ``spread`` and ``anova``, whose
inputs are the other tasks' results, so the runner runs their compute
entries after every other task. This module alone knows their base metrics,
which bases' subgroup values each metric reads (``unobserved_bases``), the
replicate blocks ``anova`` asks the runner for and the rows each replicate
draws, once for all bases (``replicate_tasks``), how the replicates are
tested, which subgroups a base skips, and that the worst base decides each
metric.
"""

from __future__ import annotations

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


def replicate_tasks(config, scope: str, n: int, seed: int) -> tuple:
    """(base metric, replicates) of each replicate block of ``scope``:
    every base shares ``replicates``, one array of rows into the scope's
    ``n`` synthetic rows per replicate, which the runner's task for that
    base runs after the set itself. Only ``anova`` reads replicates, of
    subgroups."""
    kind, _, label = scope.partition(":")
    if "anova" not in config.metrics or kind != "subgroup":
        return ()
    replicates = tuple(replicate_rows(n, label, r, seed)
                       for r in range(config.bootstrap_replicates))
    return tuple((base, replicates) for base in base_metrics(config))


def unobserved_bases(config) -> tuple[tuple[str, str], ...]:
    """(metric, base) for each selected consistency metric that reads a
    base's observed subgroup values, every one but ``anova``, and each base
    the config does not select, which no subgroup task computes."""
    return tuple((name, base) for name in config.metrics
                 if catalog.descriptor(name).source
                 == catalog.SOURCE_SUBGROUP_METRICS and name != "anova"
                 for base in base_metrics(config) if base not in config.metrics)


def replicate_rows(size: int, label: str, replicate: int, seed: int):
    """Rows of one replicate of subgroup ``label``: a bootstrap resample of
    its ``size`` synthetic rows, drawn from the seed ``task_seed`` derives.
    Indices point into the subgroup's rows, in file order, and may repeat."""
    rng = np.random.default_rng(task_seed(seed, label, replicate))
    return rng.integers(size, size=size)


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


def spread(key: str, results: dict, config, labels):
    """``key`` ("variance" or "max_min_difference") of the dispersion of
    each base's normalized subgroup scores; the largest across bases
    decides, per-base detail goes to diagnostics. ``results`` maps (scope,
    metric, replicate) to the other tasks' results; ``labels`` are the
    synthetic subgroup labels."""
    labels = sorted(set(labels))
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


def anova(results: dict, config, labels):
    """Bootstrap one-way ANOVA per base metric over the replicates in
    ``results``; the most significant base decides. ``results`` and
    ``labels`` are as in ``spread``. A subgroup with an undefined or absent
    replicate is skipped."""
    labels = sorted(set(labels))
    worst = None  # (p, F, base)
    detail = {}
    for base in base_metrics(config):
        groups, used, skipped = [], [], []
        for label in labels:
            replicates = [results.get((f"subgroup:{label}", base, r))
                          for r in range(config.bootstrap_replicates)]
            if any(r is None or r.value is None for r in replicates):
                skipped.append(label)
            else:
                groups.append(np.asarray([r.value for r in replicates]))
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

    Stable across task orderings: seed XOR a hash of the task identity, so
    the order the tasks run in cannot change results.
    """
    digest = hashlib.sha256(f"{label}|{replicate}".encode("utf-8")).digest()
    return (seed ^ int.from_bytes(digest[:8], "big")) & 0x7FFFFFFFFFFFFFFF
