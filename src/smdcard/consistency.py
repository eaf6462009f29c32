"""Consistency statistics: stability of quality metrics across subgroups.

Per-subgroup metric values come from the evaluation pipeline (each selected
base metric recomputed on the subgroup slices). This module quantifies their
dispersion and, with a one-way F test over bootstrap replicates, whether
between-subgroup differences are statistically significant. The runner
computes each replicate as an ordinary worker-pool task that resamples its
subgroup's rows from the seed ``task_seed`` derives.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import EvaluationError


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

