"""Evaluation pipeline: plan validation, scoped metric computation,
consistency analysis, and report assembly.

Scopes: the global view always runs; per-region scopes run when the
synthetic set carries region tags (local evaluation); per-subgroup scopes
run when it carries subgroup labels and feed the consistency criterion.
Binary metrics inside a region/subgroup scope compare against the reference
rows with the same tag; slices that fail a metric's preconditions yield
explicit undefined markers, never silent omission.

Every metric computation is one task: each metric in each scope, and each
bootstrap replicate of each ANOVA base metric in each subgroup scope.
Computation is pure and each replicate draws its rows from its own derived
seed, so tasks can run on a thread pool; results are keyed and sorted
before assembly, which keeps reports byte-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, catalog, completeness, compliance, congruence, \
    consistency, constraint, coverage
from .aggregate import (QualityReport, assemble_report, has_bounds_source,
                        normalize, resolve_bounds)
from .config import EvalConfig, config_digest
from .constraint import ConstraintRuleSet, derive_range_rules, validate_rules
from .errors import EvaluationError, PlanError
from .model import (EmbeddingSet, MetricResult, RecordTable, ValidationOutcome,
                    Violation, make_result, undefined_result, validate_inputs)
from .numerics import pca_fit

TOOL = {"name": "smdcard", "version": __version__}


@dataclass
class EvaluationInputs:
    synthetic: EmbeddingSet
    real: EmbeddingSet | None = None
    table: RecordTable | None = None
    real_table: RecordTable | None = None
    image_pairs: list | None = None          # [(real_img, synth_img, peak)]
    class_probs: np.ndarray | None = None


class PlanViolations(PlanError):
    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


def plan(inputs: EvaluationInputs, config: EvalConfig) -> ValidationOutcome:
    """Full plan validation: core input checks plus metric-source checks."""
    outcome = validate_inputs(inputs.real, inputs.synthetic, config)
    violations = list(outcome.violations)

    def add(code, message):
        violations.append(Violation(code, message))

    selected = [catalog.descriptor(name) for name in config.metrics]
    for d in selected:
        if d.source == catalog.SOURCE_TABLE and inputs.table is None:
            add("E227", f"metric {d.name!r} needs a record table (--table)")
        if d.source == catalog.SOURCE_IMAGE_PAIRS and inputs.image_pairs is None:
            add("E227", f"metric {d.name!r} needs paired images (--images)")
        if (d.source == catalog.SOURCE_CLASS_PROBS
                and inputs.class_probs is None):
            add("E227", f"metric {d.name!r} needs a class-probability matrix "
                        "(params.inception_score.probs_path)")
        if d.source == catalog.SOURCE_MANIFEST:
            add("E227", f"metric {d.name!r} is computed at card-build time "
                        "from the manifest, not by evaluate")
        if not has_bounds_source(d.name, config):
            add("E228", f"metric {d.name!r} has no normalization bounds; "
                        "add bounds in the config or run calibrate")

    needs = {n for d in selected for n in d.needs}
    if "quasi_identifiers" in needs and not config.quasi_identifiers:
        add("E227", "anonymity metrics need compliance.quasi_identifiers")
    if "sensitive_column" in needs and not config.sensitive_column:
        add("E227", "diversity/closeness metrics need "
                    "compliance.sensitive_column")
    if "constraint_rules" in needs:
        if not config.constraint_rules and config.constraint_derive is None:
            add("E227", "constraint metrics need constraints.rules or "
                        "constraints.derive")
        if config.constraint_derive is not None and inputs.real_table is None:
            add("E227", "constraints.derive needs a reference table "
                        "(tables.real)")

    if "required_fields" in needs:
        if config.required_fields in (None, "auto") and inputs.real_table is None:
            add("E227", "required_field_proportion needs "
                        "completeness.required_fields or a reference table")

    consistency_selected = [d for d in selected
                            if d.source == catalog.SOURCE_SUBGROUP_METRICS]
    if consistency_selected:
        if inputs.synthetic.subgroup is None:
            add("E227", "consistency metrics need a subgroup column on the "
                        "synthetic set")
        for base in _consistency_base(config):
            d = catalog.descriptor(base)
            if d.source != catalog.SOURCE_EMBEDDING:
                add("E227", f"consistency base metric {base!r} must be an "
                            "embedding metric")
            elif not has_bounds_source(base, config):
                add("E228", f"consistency base metric {base!r} has no "
                            "normalization bounds")

    if config.pca_dim is not None and config.pca_dim > inputs.synthetic.d:
        add("E229", f"pca.target_dim={config.pca_dim} exceeds d="
                    f"{inputs.synthetic.d}")

    if inputs.table is not None:
        try:
            validate_rules(inputs.table, ConstraintRuleSet(config.constraint_rules))
        except PlanError as exc:
            add("E229", str(exc))

    return ValidationOutcome(tuple(violations))


def _consistency_base(config: EvalConfig) -> tuple[str, ...]:
    if config.consistency_base is not None:
        return config.consistency_base
    return tuple(name for name in config.metrics
                 if catalog.descriptor(name).source == catalog.SOURCE_EMBEDDING)


# ---------------------------------------------------------------------------
# per-metric computation


@dataclass(frozen=True)
class _Args:
    """What a compute entry reads: one scope's embedding rows plus the
    run-wide inputs (table, rules, images, probabilities) where it has them."""
    real: EmbeddingSet | None
    synthetic: EmbeddingSet
    config: EvalConfig
    seed: int
    inputs: EvaluationInputs | None = None
    rules: ConstraintRuleSet | None = None
    required: tuple[str, ...] | None = None
    draw: int | None = None  # seed of a bootstrap resample of ``synthetic``


def _optional(cast, value):
    return None if value is None else cast(value)


def _frechet(a: _Args):
    if a.real.n < 2 or a.synthetic.n < 2:
        return None, {"undefined_reason": "insufficient samples (need at "
                                          "least 2 rows per set)"}
    return congruence.frechet_distance(a.real, a.synthetic)


def _count_bounds(result, top):
    """Attach [1, max(2, top)], the data-dependent bounds of a count-valued
    metric (``data_bounds`` in the catalog). ``top`` is the largest count
    the data allows, or the diagnostics key that holds it."""
    value, diagnostics = result
    if isinstance(top, str):
        top = diagnostics.get(top, 2)
    diagnostics["default_bounds"] = [1.0, float(max(2, top))]
    return value, diagnostics


def _nearest_invalid(a: _Args):
    value, diagnostics = constraint.margin_to_boundary(a.inputs.table, a.rules)
    if value is None:
        diagnostics.setdefault("undefined_reason", "no valid bounded rows")
    return value, diagnostics


#: name -> compute(args, params), params being the metric's resolved
#: parameters. Entries look their function up through the module at call
#: time, so anything that wraps module functions sees every call.
_COMPUTE = {
    "cosine_similarity": lambda a, p: congruence.cosine_centroid(
        a.real, a.synthetic),
    "earth_movers_distance": lambda a, p: congruence.wasserstein1(
        a.real, a.synthetic, mode=p["mode"]),
    "jensen_shannon_divergence": lambda a, p: congruence.jensen_shannon(
        a.real, a.synthetic, bins=_optional(int, p["bins"])),
    "frechet_distance": lambda a, p: _frechet(a),
    "centroid_distance_congruence": lambda a, p: congruence.centroid_distance(
        a.real, a.synthetic),
    "precision": lambda a, p: congruence.manifold_precision(
        a.real, a.synthetic, k=int(p["k"])),
    "recall": lambda a, p: coverage.manifold_recall(
        a.real, a.synthetic, k=int(p["k"])),
    "coverage": lambda a, p: coverage.manifold_coverage(
        a.real, a.synthetic, k=int(p["k"])),
    "centroid_distance_coverage": lambda a, p: coverage.centroid_spread(
        a.real, a.synthetic),
    "convex_hull_volume": lambda a, p: coverage.convex_hull_volume(
        a.synthetic, reduce_to=int(p["reduce_to"])),
    "dpp_score": lambda a, p: coverage.dpp_logdet(
        a.synthetic, kernel=p["kernel"], gamma=p["gamma"],
        ridge=float(p["ridge"])),
    "vendi_score": lambda a, p: _count_bounds(coverage.vendi_score(
        a.synthetic, kernel=p["kernel"], gamma=p["gamma"]), a.synthetic.n),
    "variance_coverage": lambda a, p: coverage.total_variance(a.synthetic),
    "entropy_coverage": lambda a, p: coverage.embedding_entropy(
        a.synthetic, bins=_optional(int, p["bins"])),
    "rarity_score": lambda a, p: coverage.rarity_score(
        a.real, a.synthetic, k=int(p["k"])),
    "cluster_balance": lambda a, p: coverage.cluster_balance(
        a.synthetic, k_clusters=_optional(int, p["k_clusters"]), seed=a.seed),
    "re_identification_risk": lambda a, p: compliance.leakage_rate(
        a.real, a.synthetic, tau=_optional(float, p["tau"])),
    "constraint_violation_rate": lambda a, p: constraint.violation_rate(
        a.inputs.table, a.rules),
    "constraint_boundary_distance": lambda a, p: constraint.violation_magnitude(
        a.inputs.table, a.rules),
    "nearest_invalid_datapoint": lambda a, p: _nearest_invalid(a),
    "required_field_proportion": lambda a, p:
        completeness.required_field_proportion(
            a.inputs.table, list(a.required or ()),
            populated_threshold=a.config.populated_threshold),
    "missing_data_percentage": lambda a, p:
        completeness.missing_data_percentage(a.inputs.table),
    "k_anonymity": lambda a, p: _count_bounds(compliance.k_anonymity(
        a.inputs.table, list(a.config.quasi_identifiers)), a.inputs.table.n),
    "l_diversity": lambda a, p: _count_bounds(compliance.l_diversity(
        a.inputs.table, list(a.config.quasi_identifiers),
        a.config.sensitive_column), "distinct_sensitive_values"),
    "t_closeness": lambda a, p: compliance.t_closeness(
        a.inputs.table, list(a.config.quasi_identifiers),
        a.config.sensitive_column),
    "psnr": lambda a, p: congruence.psnr_pairs(a.inputs.image_pairs),
    "ssim": lambda a, p: congruence.ssim_pairs(a.inputs.image_pairs),
    "inception_score": lambda a, p: _count_bounds(
        coverage.inception_style_score(a.inputs.class_probs), "classes"),
}


def _compute(name: str, args: _Args):
    params = {key: args.config.param(name, key)
              for key, _ in catalog.descriptor(name).params}
    return _COMPUTE[name](args, params)


def _metric_result(scope: str, name: str, args: _Args) -> MetricResult:
    """One metric in one scope. Embedding metrics turn precondition failures
    into "insufficient samples" markers and table metrics into plain
    undefined markers; image and probability errors propagate."""
    d = catalog.descriptor(name)
    embedding = d.source == catalog.SOURCE_EMBEDDING
    if args.draw is not None:
        args = replace(args, synthetic=_resample(args.synthetic, args.draw),
                       draw=None)
    if embedding and d.arity == "binary" and args.real is None:
        return undefined_result(name, "insufficient samples: no reference "
                                      "rows in this slice", scope=scope)
    try:
        value, diagnostics = _compute(name, args)
    except EvaluationError as exc:
        if embedding:
            return undefined_result(name, f"insufficient samples: {exc}",
                                    scope=scope)
        if d.source == catalog.SOURCE_TABLE:
            return undefined_result(name, str(exc))
        raise
    if value is None:
        diagnostics.setdefault("undefined_reason", "undefined")
    return MetricResult(d, value, scope, None, diagnostics)


def _resample(eset: EmbeddingSet, seed: int) -> EmbeddingSet:
    """Bootstrap resample of all rows: rows may repeat, so fresh ids replace
    the originals."""
    rows = np.random.default_rng(seed).integers(eset.n, size=eset.n)
    return EmbeddingSet(ids=tuple(f"b{i:06d}" for i in range(eset.n)),
                        data=eset.data[rows])


def _filter_by_label(eset: EmbeddingSet | None, attr: str, label: str):
    if eset is None:
        return None
    labels = getattr(eset, attr)
    if labels is None:
        return None
    idx = [i for i, v in enumerate(labels) if v == label]
    if not idx:
        return None
    return eset.subset(idx)


# ---------------------------------------------------------------------------
# consistency stage


def _consistency_results(inputs: EvaluationInputs, config: EvalConfig,
                         subgroup_results: dict, replicates: list):
    """One result per selected consistency metric, worst case across base
    metrics; per-base detail goes to diagnostics. ``replicates`` pairs each
    bootstrap task with its result."""
    selected = [n for n in config.metrics
                if catalog.descriptor(n).source == catalog.SOURCE_SUBGROUP_METRICS]
    if not selected:
        return []
    labels = sorted(set(inputs.synthetic.subgroup))
    bases = _consistency_base(config)
    per_base_normalized: dict[str, dict[str, float | None]] = {}
    for base in bases:
        values = {}
        for label in labels:
            result = subgroup_results.get((f"subgroup:{label}", base))
            if result is None or not result.defined:
                values[label] = None
                continue
            bounds = resolve_bounds(result, config)
            values[label] = normalize(result, bounds).normalized
        per_base_normalized[base] = values

    results = []
    for name in selected:
        if name in ("metric_variance", "max_min_difference"):
            key = "variance" if name == "metric_variance" else "max_min_difference"
            worst = None
            detail = {}
            excluded_total = 0
            for base, values in per_base_normalized.items():
                stats, diag = consistency.dispersion(list(values.values()))
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
                results.append(undefined_result(
                    name, "fewer than 2 defined subgroup values", **diagnostics))
            else:
                results.append(make_result(name, worst, **diagnostics))
        elif name == "anova":
            results.append(_anova_result(config, labels, bases, replicates))
    return results


def _anova_result(config: EvalConfig, labels: list[str],
                  bases: tuple[str, ...], replicates: list):
    """Bootstrap one-way ANOVA per base metric; keep the most significant.
    A subgroup with any undefined replicate is skipped."""
    samples: dict[tuple[str, str], list] = {}
    for (scope, base, _), result in replicates:
        samples.setdefault((base, scope), []).append(result.value)
    worst = None  # (p, F, base)
    detail = {}
    for base in bases:
        groups, used, skipped = [], [], []
        for label in labels:
            values = samples.get((base, f"subgroup:{label}"), [])
            if None in values:
                skipped.append(label)
            else:
                groups.append(np.asarray(values))
                used.append(label)
        if len(groups) < 2:
            detail[base] = "undefined: fewer than 2 usable subgroups"
            continue
        try:
            stats, diag = consistency.one_way_anova(groups)
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
        return undefined_result("anova", "no base metric produced "
                                         "two usable subgroups", **diagnostics)
    p_value, f_value, base = worst
    diagnostics["p"] = p_value
    diagnostics["worst_base"] = base
    return make_result("anova", f_value, **diagnostics)


# ---------------------------------------------------------------------------
# the pipeline


def run_evaluation(inputs: EvaluationInputs, config: EvalConfig,
                   workers: int = 1) -> QualityReport:
    outcome = plan(inputs, config)
    if not outcome.ok:
        raise PlanViolations(outcome.violations)

    seed = config.effective_seed()
    digest = config_digest(config)
    synthetic = inputs.synthetic
    real = inputs.real
    notes: list[str] = []

    if config.pca_dim is not None and config.pca_dim < synthetic.d:
        fit = (np.vstack([real.data, synthetic.data]) if real is not None
               else synthetic.data)
        basis = pca_fit(fit, config.pca_dim)
        synthetic = EmbeddingSet(synthetic.ids, basis.transform(synthetic.data),
                                 synthetic.subgroup, synthetic.region)
        if real is not None:
            real = EmbeddingSet(real.ids, basis.transform(real.data),
                                real.subgroup, real.region)
        notes.append(f"embeddings reduced to {config.pca_dim} shared "
                     f"principal components (explained ratio "
                     f"{sum(basis.explained_ratio):.6g})")
        if basis.padded:
            notes.append(f"projection padded {basis.padded} zero components "
                         "(rank deficiency)")
        inputs = replace(inputs, synthetic=synthetic, real=real)

    run_args = _Args(real, synthetic, config, seed, inputs,
                     _resolve_rules(inputs, config),
                     _resolve_required_fields(inputs, config))
    scopes = [("global", real, synthetic)]
    for attr in ("region", "subgroup"):
        for label in sorted(set(getattr(synthetic, attr) or ())):
            scopes.append((f"{attr}:{label}",
                           _filter_by_label(real, attr, label),
                           _filter_by_label(synthetic, attr, label)))

    embedding = [n for n in config.metrics
                 if catalog.descriptor(n).source == catalog.SOURCE_EMBEDDING]
    tasks = []  # (scope, name, args)
    for scope, real_slice, synth_slice in scopes:
        args = _Args(real_slice, synth_slice, config, seed)
        tasks.extend((scope, name, args) for name in embedding)
    tasks.extend(("global", name, run_args) for name in config.metrics
                 if name in _COMPUTE and name not in embedding)
    replicates = []  # (scope, base, args), one per bootstrap draw and base
    bases = _consistency_base(config) if "anova" in config.metrics else ()
    for scope, real_slice, synth_slice in scopes:
        if bases and scope.startswith("subgroup:"):
            label = scope[len("subgroup:"):]
            for r in range(config.bootstrap_replicates):
                args = _Args(real_slice, synth_slice, config, seed,
                             draw=consistency.task_seed(seed, label, r))
                replicates.extend((scope, base, args) for base in bases)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            computed = list(pool.map(lambda t: _metric_result(*t),
                                     tasks + replicates))
    else:
        computed = [_metric_result(*t) for t in tasks + replicates]
    results = {(t[0], t[1]): r for t, r in zip(tasks, computed)}

    all_results = list(results.values())
    if synthetic.subgroup:
        all_results.extend(_consistency_results(
            inputs, config, results,
            list(zip(replicates, computed[len(tasks):]))))

    rules = run_args.rules
    if len(rules):
        notes.append(f"constraint rules in effect: {len(rules)} "
                     f"({rules.source})")

    declared = compliance.declared_privacy_record(config)
    return assemble_report(all_results, config, seed, digest, dict(TOOL),
                           declared_privacy=declared, notes=notes)


def _resolve_rules(inputs: EvaluationInputs,
                   config: EvalConfig) -> ConstraintRuleSet:
    rules = list(config.constraint_rules)
    source = "declared"
    if config.constraint_derive is not None:
        if inputs.real_table is None:
            raise PlanError("constraints.derive needs a reference table")
        derived = derive_range_rules(inputs.real_table,
                                     list(config.constraint_derive.fields),
                                     config.constraint_derive.quantile_margin)
        rules.extend(derived.rules)
        source = "derived-from-reference" if not config.constraint_rules \
            else "declared"
    return ConstraintRuleSet(tuple(rules), source=source)


def _resolve_required_fields(inputs: EvaluationInputs,
                             config: EvalConfig) -> tuple[str, ...] | None:
    if isinstance(config.required_fields, tuple):
        return config.required_fields
    if inputs.real_table is not None:
        return inputs.real_table.column_names
    return None


# ---------------------------------------------------------------------------
# calibration

#: Seeded reference self-splits per calibration run.
_CALIBRATION_SPLITS = 5


def calibrate_bounds(real: EmbeddingSet, config: EvalConfig
                     ) -> dict[str, tuple[float, float]]:
    """Suggested normalization bounds from seeded reference self-splits.

    Each split halves the reference set (seeded shuffle); binary metrics run
    half against half, unary metrics run on each half. Observed values are
    padded outward by one observed spread plus a 5% magnitude cushion,
    clamped to analytic floors/ceilings.
    """
    if real.n < 4:
        raise PlanError("reference set too small to split (need at least 4 rows)")
    seed = config.effective_seed()
    values: dict[str, list[float]] = {}
    for r in range(_CALIBRATION_SPLITS):
        rng = np.random.default_rng(consistency.task_seed(seed, "calibrate", r))
        perm = rng.permutation(real.n)
        half = real.n // 2
        first = real.subset([int(i) for i in perm[:half]])
        second = real.subset([int(i) for i in perm[half:]])
        for name in config.metrics:
            d = catalog.descriptor(name)
            if d.source != catalog.SOURCE_EMBEDDING:
                continue
            try:
                if d.arity == "binary":
                    outputs = [_compute(name, _Args(first, second, config,
                                                    seed))]
                else:
                    outputs = [_compute(name, _Args(None, half_set, config,
                                                    seed))
                               for half_set in (first, second)]
            except EvaluationError:
                continue
            for value, _ in outputs:
                if value is not None and math.isfinite(value):
                    values.setdefault(name, []).append(float(value))
    bounds = {}
    for name, observed in sorted(values.items()):
        vmin, vmax = min(observed), max(observed)
        pad = (vmax - vmin) + max(1e-6, 0.05 * max(abs(vmin), abs(vmax)))
        lo, hi = vmin - pad, vmax + pad
        floor, ceiling = catalog.descriptor(name).range
        if floor is not None:
            lo = max(lo, floor)
        if ceiling is not None:
            hi = min(hi, ceiling)
        if not lo < hi:
            hi = lo + 1.0
        bounds[name] = (lo, hi)
    return bounds
