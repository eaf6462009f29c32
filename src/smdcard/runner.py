"""Evaluation pipeline: plan validation, scoped metric computation,
consistency analysis, and report assembly.

Scopes: the global view always runs; per-region scopes run when the
synthetic set carries region tags (local evaluation); per-subgroup scopes
run when it carries subgroup labels and feed the consistency criterion.
Binary metrics inside a region/subgroup scope compare against the reference
rows with the same tag; slices that fail a metric's preconditions yield
explicit undefined markers, never silent omission.

Every metric computation is one task, keyed (scope, metric, replicate):
each metric in each scope, and each replicate task ``consistency`` asks for
in each subgroup scope, whose rows ``consistency`` also picks. Computation
is pure and each replicate's rows come from its own derived seed, so tasks
run on a thread pool. The consistency metrics are compute entries too; they
read the other tasks' results, so they run once the pool is done. Results
are keyed and sorted before assembly, which keeps reports byte-identical
for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, catalog, completeness, compliance, congruence, \
    consistency, constraint, coverage
from .aggregate import QualityReport, assemble_report, has_bounds_source
from .config import EvalConfig, config_digest
from .constraint import ConstraintRuleSet, derive_range_rules, validate_rules
from .errors import EvaluationError, PlanError
from .model import (EmbeddingSet, MetricResult, RecordTable, ValidationOutcome,
                    Violation, undefined_result, validate_inputs)
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
        for base in consistency.base_metrics(config):
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


# ---------------------------------------------------------------------------
# per-metric computation


@dataclass(frozen=True)
class _Args:
    """What a compute entry reads: one scope's embedding rows plus the
    run-wide inputs (table, rules, images, probabilities) where it has them,
    and for the consistency metrics the other tasks' ``results``, keyed by
    (scope, metric, replicate)."""
    real: EmbeddingSet | None
    synthetic: EmbeddingSet
    config: EvalConfig
    seed: int
    inputs: EvaluationInputs | None = None
    rules: ConstraintRuleSet | None = None
    required: tuple[str, ...] | None = None
    results: dict | None = None


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
    **{d.name: lambda a, p, name=d.name: consistency.score(
        name, a.results, a.config, a.synthetic.subgroup)
       for d in catalog.REGISTRY.values()
       if d.source == catalog.SOURCE_SUBGROUP_METRICS},
}


def _compute(name: str, args: _Args):
    params = {key: args.config.param(name, key)
              for key, _ in catalog.descriptor(name).params}
    return _COMPUTE[name](args, params)


def _metric_result(task: tuple, args: _Args) -> MetricResult:
    """One task: a metric in a scope, on a replicate's rows when the task
    has a replicate index. Embedding metrics turn precondition failures into
    "insufficient samples" markers and table metrics into plain undefined
    markers; image and probability errors propagate."""
    scope, name, replicate = task
    d = catalog.descriptor(name)
    embedding = d.source == catalog.SOURCE_EMBEDDING
    if replicate is not None:
        rows = consistency.replicate_rows(
            args.synthetic.n, scope.partition(":")[2], replicate, args.seed)
        args = replace(args, synthetic=replace(
            args.synthetic, data=args.synthetic.data[rows]))
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

    results = {}  # (scope, metric, replicate) -> MetricResult
    run_args = _Args(real, synthetic, config, seed, inputs,
                     _resolve_rules(inputs, config),
                     _resolve_required_fields(inputs, config), results)
    scopes = [("global", real, synthetic)]
    for attr in ("region", "subgroup"):
        for label in sorted(set(getattr(synthetic, attr) or ())):
            scopes.append((f"{attr}:{label}",
                           _filter_by_label(real, attr, label),
                           _filter_by_label(synthetic, attr, label)))

    embedding = [n for n in config.metrics
                 if catalog.descriptor(n).source == catalog.SOURCE_EMBEDDING]
    replicates = consistency.replicate_tasks(config)
    tasks = []  # (task, args); the task is (scope, metric, replicate)
    for scope, real_slice, synth_slice in scopes:
        args = _Args(real_slice, synth_slice, config, seed, inputs)
        tasks.extend(((scope, name, None), args) for name in embedding)
        if replicates and scope.startswith("subgroup:"):
            # a replicate's rows may repeat, so positional ids replace the
            # originals; each replicate task only swaps in its drawn rows
            resampled = replace(args, synthetic=EmbeddingSet(
                ids=tuple(f"b{i:06d}" for i in range(synth_slice.n)),
                data=synth_slice.data))
            tasks.extend(((scope, base, r), resampled) for base, r in replicates)
    tasks.extend((("global", name, None), run_args) for name in config.metrics
                 if name not in embedding)

    # the consistency metrics read ``results``, so they run after the pool
    pooled = [(task, args) for task, args in tasks if catalog.descriptor(
        task[1]).source != catalog.SOURCE_SUBGROUP_METRICS]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            computed = list(pool.map(lambda t: _metric_result(*t), pooled))
    else:
        computed = [_metric_result(*t) for t in pooled]
    results.update(zip((task for task, _ in pooled), computed))
    results.update((task, _metric_result(task, args)) for task, args in tasks
                   if task not in results)

    rules = run_args.rules
    if len(rules):
        notes.append(f"constraint rules in effect: {len(rules)} "
                     f"({rules.source})")

    declared = compliance.declared_privacy_record(config)
    return assemble_report([result for (_, _, replicate), result
                            in results.items() if replicate is None],
                           config, seed, digest, dict(TOOL),
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
