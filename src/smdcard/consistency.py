"""Consistency statistics: stability of quality metrics across subgroups.

The consistency metrics are computed by ``spread`` and ``anova``, whose
inputs are the other tasks' results, so the runner runs their compute
entries after every other task. This module alone knows their base metrics,
which bases' subgroup values each metric reads (``unobserved_bases``), the
replicate blocks ``anova`` asks the runner for and the rows each replicate
draws, once for all bases (``replicate_tasks``), how the replicates are
tested (a one-way F test whose p-value ``f_survival`` computes in ``math``,
so no evaluate loads scipy for it), which subgroups a base skips, and that
the worst base decides each metric.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from . import catalog
from .aggregate import normalize, resolve_bounds
from .errors import EvaluationError

_SMALLEST_NORMAL = 2.0 ** -1022
# BFRAC stops once a term moves its value by less than this, relative
_BFRAC_TOLERANCE = 1e-15


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
                result, resolve_bounds(result, config)))
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
    """Upper tail of the F distribution, in ``math`` alone: the regularized
    incomplete beta I_x(a, b), a = df_within/2, b = df_between/2, at
    x = df_within / (df_within + df_between·F). F ≤ 0 has tail 1 and
    F = inf tail 0.

    I_x(a, b) is x^a (1−x)^b / B(a, b) times DiDonato & Morris's continued
    fraction BFRAC (ACM TOMS 18:360–373, 1992), taken at or below the mean,
    where λ = a − (a+b)x ≥ 0, and through I_x(a, b) = 1 − I_{1−x}(b, a)
    above it. BFRAC starts from λ, computed from whichever of x and 1 − x
    keeps its digits; the A&S 26.5.8 fraction by Lentz's method starts from
    1 − (a+b)x/(a+1) instead and loses up to 1e-12 relative near the mean
    at df_within = 20,000. 1/B(a, b) = Γ(a+b) / (Γ(a) Γ(b)) is one
    correctly rounded quotient of integers, over π when a and b are both
    half-integers: Γ(a+b) / Γ(a) is a product of unit steps, after a half
    step Γ(a+½) / Γ(a) given by a central binomial coefficient when b is a
    half-integer, and Γ(b) a ratio of factorials. The powers go through
    logarithms only where they underflow.
    """
    if f_value <= 0:
        return 1.0
    x = df_within / (df_within + df_between * f_value)
    if not 0.0 < x < 1.0:
        # I_0 = 0 (F = inf) and I_1 = 1 (F too small to move x off 1); NaN
        # stays NaN
        return x
    # Γ(a + b) / Γ(a) = num / den: the steps a + j, j = 0 .. ⌊b⌋ - 1, from
    # a + 1/2 when b is a half-integer, times Γ(a + 1/2) / Γ(a) there
    steps, odd = divmod(df_between, 2)
    num = math.prod(range(df_within + odd, df_within + odd + 2 * steps, 2))
    den = 1 << steps
    if odd:
        k = df_within // 2
        central = math.comb(2 * k, k)
        if df_within % 2:  # Γ(k + 1) / Γ(k + 1/2) = 4^k / (C(2k, k) √π)
            num, den = num << 2 * k, den * central
        else:  # Γ(k + 1/2) / Γ(k) = k C(2k, k) √π / 4^k
            num, den = num * k * central, den << 2 * k
        # over Γ(b) = (2·steps)! √π / (4^steps · steps!)
        num <<= 2 * steps
        num *= math.factorial(steps)
        den *= math.factorial(2 * steps)
    else:  # over Γ(b) = (steps - 1)!
        den *= math.factorial(steps - 1)
    shift = num.bit_length() - den.bit_length()
    inv_beta = num / (den << shift) if shift >= 0 else (num << -shift) / den
    if df_within % 2 and df_between % 2:
        inv_beta /= math.pi
    # 1/B(a, b) = inv_beta · 2^shift
    a, b, y = df_within / 2, df_between / 2, 1.0 - x
    lam = a - (a + b) * x if a <= b else (a + b) * y - b
    flip = lam < 0
    if flip:
        a, b, x, y, lam = b, a, y, x, -lam
    power = x ** a * y ** b
    if power >= _SMALLEST_NORMAL:
        front = math.ldexp(power * inv_beta, shift)
    else:
        front = math.exp(a * math.log(x) + b * math.log(y)
                         + math.log(inv_beta) + shift * math.log(2.0))
    c, c0, c1, yp1 = 1.0 + lam, b / a, 1.0 + 1.0 / a, y + 1.0
    p, s, n = 1.0, a + 1.0, 0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    while True:
        n += 1
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        beta = n + w / s + (1.0 + t) / (c1 + t + t) * (c + n * yp1)
        p, s = 1.0 + t, s + 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= _BFRAC_TOLERANCE * r:
            break
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0
    tail = front * r
    return 1.0 - tail if flip else tail


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
