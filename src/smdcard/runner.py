"""Evaluation pipeline: plan validation, scoped metric computation,
consistency analysis, and report assembly. ``plan`` raises one
``PlanViolations`` carrying every failed check as a coded ``PlanError``.

Scopes: the global view always runs; per-region scopes run when the
synthetic set carries region tags (local evaluation); per-subgroup scopes
run when it carries subgroup labels and feed the consistency criterion.
Binary metrics inside a region/subgroup scope compare against the reference
rows with the same tag; slices that fail a metric's preconditions yield
explicit undefined markers, never silent omission.

Each metric has one row, in ``_COMPUTE`` or in ``_BLOCKS``, the one place
that says how it is computed; the runner holds no code for any one
metric, and a metric's undefined cases live in its own function. A
compute entry gets its metric's parameters as the config parsed them;
``plan`` checks them against the data. The unit of work is a task,
(scope, metric, replicates): a metric on its scope's synthetic set, then
on each replicate draw, an index array of the set's length into its rows,
each read against the whole reference in the task's ``_Args``; a drawn
reference is that ``_Args.real``. ``_task_results`` is the one runner
of them all, and returns a task's results keyed (scope, metric, None) for
the set, then (scope, metric, r) for replicate r: a result holds only its
value and diagnostics, and its scope is its key. It has one rule: a
``_BLOCKS`` metric runs every task as one block led by the set itself,
and a ``_COMPUTE`` metric runs on the set, then on each ``resample``d
replicate. A subgroup's task for each base metric carries the replicate
block ``consistency`` asks for; every other task has none.
``run_evaluation`` runs each scope's tasks in the evaluate process, then
the run-wide metrics in config order: the consistency metrics among them
have compute rows too, and read the subgroup tasks' results.
``assemble_report`` takes each reported set result keyed (scope, metric),
so a report's bytes depend only on the inputs and the config, and a
failing run raises the error of its first failing task.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, catalog, completeness, compliance, congruence, \
    consistency, constraint, coverage
from .aggregate import (MetricResult, QualityReport, assemble_report,
                        has_bounds_source, undefined_result)
from .config import EvalConfig, config_digest
from .constraint import ConstraintRuleSet, derive_range_rules, validate_rules
from .errors import EvaluationError, PlanError
from .model import EmbeddingSet, RecordTable
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
    """Every failed plan check, in check order, each a coded ``PlanError``."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(f"{v.code}: {v}" for v in self.violations))


def plan(inputs: EvaluationInputs, config: EvalConfig) -> None:
    """The plan's checks that need the data: returns when every one passes,
    else raises one ``PlanViolations`` carrying every failed check."""
    violations: list[PlanError] = []

    def add(code, message):
        violations.append(PlanError(message, code=code))

    real, synthetic = inputs.real, inputs.synthetic
    for label, eset in (("synthetic", synthetic), ("real", real)):
        if eset is None:
            continue
        bad = np.argwhere(~np.isfinite(eset.data))
        if bad.size:
            i, j = (int(x) for x in bad[0])
            add("E222", f"{label} set has a non-finite value at id "
                        f"{eset.ids[i]!r}, column {j}")
        for attr in ("subgroup", "region"):
            labels = getattr(eset, attr)
            if labels is not None and any(v == "" for v in labels):
                add("E223", f"{label} set has an empty {attr} label")

    if real is not None and real.d != synthetic.d:
        add("E225", f"dimension mismatch: real d={real.d}, "
                    f"synthetic d={synthetic.d}")

    selected = [catalog.descriptor(name) for name in config.metrics]
    for d in selected:
        if (real is None and d.arity == "binary"
                and d.source == catalog.SOURCE_EMBEDDING):
            add("E224", f"metric {d.name!r} requires a reference set")
        reference = {"real": real, "synthetic": synthetic}.get(d.knn_on)
        k = config.param(d.name, "k")
        if reference is not None and k > reference.n - 1:
            add("E226", f"metric {d.name!r}: k={k} exceeds the "
                        f"{d.knn_on} set's limit of {reference.n - 1}")
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
    if ("constraint_rules" in needs and not config.constraint_rules
            and config.constraint_derive is None):
        add("E227", "constraint metrics need constraints.rules or "
                    "constraints.derive")
    if config.constraint_derive is not None and inputs.real_table is None:
        add("E227", "constraints.derive needs a reference table (tables.real)")
    elif config.constraint_derive is not None:
        for name in config.constraint_derive.fields:
            if (name not in inputs.real_table.column_names
                    or inputs.real_table.kind(name) != "numeric"):
                add("E229", f"constraints.derive.fields: {name!r} is not a "
                            "numeric column of the reference table")
    if "quasi_identifiers" in needs and inputs.table is not None:
        for name in config.quasi_identifiers:
            if name not in inputs.table.column_names:
                add("E229", f"compliance.quasi_identifiers: {name!r} is not "
                            "a column of the record table")
    if ("sensitive_column" in needs and inputs.table is not None
            and config.sensitive_column
            and config.sensitive_column not in inputs.table.column_names):
        add("E229", f"compliance.sensitive_column: "
                    f"{config.sensitive_column!r} is not a column of the "
                    "record table")

    if "required_fields" in needs:
        if config.required_fields in (None, "auto") and inputs.real_table is None:
            add("E227", "required_field_proportion needs "
                        "completeness.required_fields or a reference table")

    if any(d.source == catalog.SOURCE_SUBGROUP_METRICS for d in selected):
        if synthetic.subgroup is None:
            add("E227", "consistency metrics need a subgroup column on the "
                        "synthetic set")
        for base in consistency.base_metrics(config):
            if catalog.descriptor(base).source != catalog.SOURCE_EMBEDDING:
                add("E227", f"consistency base metric {base!r} must be an "
                            "embedding metric")
        for name, base in consistency.unobserved_bases(config):
            add("E227", f"metric {name!r} reads the subgroup values of base "
                        f"metric {base!r}, which metrics does not select")

    if config.pca_dim is not None and config.pca_dim > synthetic.d:
        add("E229", f"pca.target_dim={config.pca_dim} exceeds d={synthetic.d}")

    if inputs.table is not None:
        try:
            validate_rules(inputs.table, ConstraintRuleSet(config.constraint_rules))
        except PlanError as exc:
            add("E229", str(exc))
    if violations:
        raise PlanViolations(violations)


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


#: name -> compute(args, params), params being the metric's parsed
#: parameters keyed as the metric function's keywords, so an entry passes
#: them on as ``**p``. Entries look their function up through the module at
#: call time, so anything that wraps module functions sees every call.
_COMPUTE = {
    "cosine_similarity": lambda a, p: congruence.cosine_centroid(
        a.real, a.synthetic),
    "earth_movers_distance": lambda a, p: congruence.wasserstein1(
        a.real, a.synthetic, **p),
    "frechet_distance": lambda a, p: congruence.frechet_distance(
        a.real, a.synthetic),
    "centroid_distance_congruence": lambda a, p: congruence.centroid_distance(
        a.real, a.synthetic),
    "precision": lambda a, p: congruence.manifold_precision(
        a.real, a.synthetic, **p),
    "coverage": lambda a, p: coverage.manifold_coverage(
        a.real, a.synthetic, **p),
    "centroid_distance_coverage": lambda a, p: coverage.centroid_spread(
        a.real, a.synthetic),
    "convex_hull_volume": lambda a, p: coverage.convex_hull_volume(
        a.synthetic, **p),
    "dpp_score": lambda a, p: coverage.dpp_logdet(a.synthetic, **p),
    "vendi_score": lambda a, p: coverage.vendi_score(a.synthetic, **p),
    "variance_coverage": lambda a, p: coverage.total_variance(a.synthetic),
    "rarity_score": lambda a, p: coverage.rarity_score(
        a.real, a.synthetic, **p),
    "cluster_balance": lambda a, p: coverage.cluster_balance(
        a.synthetic, **p, seed=a.seed),
    "re_identification_risk": lambda a, p: compliance.leakage_rate(
        a.real, a.synthetic, **p),
    "constraint_violation_rate": lambda a, p: constraint.violation_rate(
        a.inputs.table, a.rules),
    "constraint_boundary_distance": lambda a, p: constraint.violation_magnitude(
        a.inputs.table, a.rules),
    "nearest_invalid_datapoint": lambda a, p: constraint.margin_to_boundary(
        a.inputs.table, a.rules),
    "required_field_proportion": lambda a, p:
        completeness.required_field_proportion(
            a.inputs.table, list(a.required or ()),
            populated_threshold=a.config.populated_threshold),
    "missing_data_percentage": lambda a, p:
        completeness.missing_data_percentage(a.inputs.table),
    "k_anonymity": lambda a, p: compliance.k_anonymity(
        a.inputs.table, list(a.config.quasi_identifiers)),
    "l_diversity": lambda a, p: compliance.l_diversity(
        a.inputs.table, list(a.config.quasi_identifiers),
        a.config.sensitive_column),
    "t_closeness": lambda a, p: compliance.t_closeness(
        a.inputs.table, list(a.config.quasi_identifiers),
        a.config.sensitive_column),
    "psnr": lambda a, p: congruence.psnr_pairs(a.inputs.image_pairs),
    "ssim": lambda a, p: congruence.ssim_pairs(a.inputs.image_pairs),
    "inception_score": lambda a, p: coverage.inception_style_score(
        a.inputs.class_probs),
    "metric_variance": lambda a, p: consistency.spread(
        "variance", a.results, a.config, a.synthetic.subgroup),
    "max_min_difference": lambda a, p: consistency.spread(
        "max_min_difference", a.results, a.config, a.synthetic.subgroup),
    "anova": lambda a, p: consistency.anova(
        a.results, a.config, a.synthetic.subgroup),
}


#: name -> block(args, params, rows): a metric on many draws in one pass,
#: one (value, diagnostics) per index array in ``rows``, all of one length,
#: each drawing ``args.synthetic`` against all of ``args.real``. A metric
#: here has no ``_COMPUTE`` row.
_BLOCKS = {
    "jensen_shannon_divergence": lambda a, p, rows:
        congruence.jensen_shannon_replicates(a.real, a.synthetic, rows, **p),
    "recall": lambda a, p, rows: coverage.manifold_recall_replicates(
        a.real, a.synthetic, rows, **p),
    "entropy_coverage": lambda a, p, rows:
        coverage.embedding_entropy_replicates(a.synthetic, rows, **p),
}


def _params(name: str, config: EvalConfig) -> dict:
    return {key: config.param(name, key)
            for key, _, _ in catalog.descriptor(name).params}


def _compute(name: str, args: _Args):
    return _COMPUTE[name](args, _params(name, args.config))


def _results(name: str, args: _Args, compute,
             count: int = 1) -> list[MetricResult]:
    """``compute()``'s ``count`` (value, diagnostics) pairs as results of
    ``name``, with the catalog's ``data_bounds``. Embedding
    metrics turn precondition failures into "insufficient samples"
    markers, one per result, and table metrics into plain undefined
    markers; image and probability errors propagate."""
    d = catalog.descriptor(name)
    embedding = d.source == catalog.SOURCE_EMBEDDING
    if embedding and d.arity == "binary" and args.real is None:
        return [undefined_result(name, "insufficient samples: no reference "
                                       "rows in this slice")] * count
    try:
        outputs = compute()
    except EvaluationError as exc:
        if embedding:
            return [undefined_result(name,
                                     f"insufficient samples: {exc}")] * count
        if d.source == catalog.SOURCE_TABLE:
            return [undefined_result(name, str(exc))]
        raise
    results = []
    for value, diagnostics in outputs:
        if d.data_bounds:
            rows = (args.inputs.table if d.source == catalog.SOURCE_TABLE
                    else args.synthetic).n
            top = rows if d.data_bounds == "rows" else diagnostics.get(
                d.data_bounds, 2)
            diagnostics["default_bounds"] = [1.0, float(max(2, top))]
        if value is None:
            diagnostics.setdefault("undefined_reason", "undefined")
        results.append(MetricResult(d, value, diagnostics))
    return results


def _task_results(task: tuple, args: _Args) -> dict[tuple, MetricResult]:
    """A metric on ``args.synthetic``, then on each of ``task``'s
    replicates, index arrays of the set's length, each against the whole
    ``args.real``, which is where a drawn reference goes. A ``_BLOCKS``
    metric runs them as one block, the set itself as the draw of every row
    once; any other runs on the set, then on each ``resample``d draw. The
    results are keyed (scope, metric, None) for the set itself, then
    (scope, metric, r) for replicate r."""
    scope, name, replicates = task
    if name in _BLOCKS:
        rows = [np.arange(args.synthetic.n), *replicates]
        results = _results(name, args, lambda: _BLOCKS[name](
            args, _params(name, args.config), rows), len(rows))
    else:
        results = _results(name, args, lambda: [_compute(name, args)])
        for drawn in replicates:  # one drawn set at a time
            one = replace(args, synthetic=args.synthetic.resample(drawn))
            results += _results(name, one, lambda: [_compute(name, one)])
    keys = [(scope, name, r) for r in (None, *range(len(replicates)))]
    return dict(zip(keys, results))


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


def run_evaluation(inputs: EvaluationInputs, config: EvalConfig
                   ) -> QualityReport:
    plan(inputs, config)
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
    for scope, real_slice, synth_slice in scopes:
        args = _Args(real_slice, synth_slice, config, seed, inputs)
        blocks = dict(consistency.replicate_tasks(config, scope,
                                                  synth_slice.n, seed))
        for name in dict.fromkeys([*embedding, *blocks]):
            results.update(_task_results((scope, name, blocks.get(name, ())),
                                         args))
    for name in config.metrics:
        if name not in embedding:
            results.update(_task_results(("global", name, ()), run_args))

    rules = run_args.rules
    if len(rules):
        notes.append(f"constraint rules in effect: {len(rules)} "
                     f"({rules.source})")

    declared = compliance.declared_privacy_record(config)
    # an ``anova`` base outside ``metrics`` reports nothing
    return assemble_report({(scope, name): result for (scope, name, replicate),
                            result in results.items() if replicate is None
                            and name in config.metrics},
                           config, seed, digest, dict(TOOL),
                           declared_privacy=declared, notes=notes)


def _resolve_rules(inputs: EvaluationInputs,
                   config: EvalConfig) -> ConstraintRuleSet:
    rules = list(config.constraint_rules)
    source = "declared"
    if config.constraint_derive is not None:
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
    """Suggested normalization bounds from seeded reference self-splits,
    for the selected embedding metrics without two analytic ends: a metric
    with both keeps its analytic range.

    Each split halves the reference set (seeded shuffle); binary metrics run
    half against half and unary metrics on each half alone, every one a
    task with no replicates. Observed values are padded outward by one
    observed spread plus a 5% magnitude cushion, clamped to the analytic
    floor. ``PlanViolations`` carries an E228 for each metric with no
    finite value on any split, naming its first undefined reason.
    """
    if real.n < 4:
        raise PlanError("reference set too small to split (need at least 4 rows)")
    seed = config.effective_seed()
    splits = []
    for r in range(_CALIBRATION_SPLITS):
        rng = np.random.default_rng(consistency.task_seed(seed, "calibrate", r))
        perm = rng.permutation(real.n)
        splits.append((perm[:real.n // 2], perm[real.n // 2:]))
    values: dict[str, list[float]] = {}
    undefined: list[PlanError] = []
    for name in config.metrics:
        d = catalog.descriptor(name)
        if d.source != catalog.SOURCE_EMBEDDING or d.static_bounds is not None:
            continue
        # one split's halves at a time
        halves = ((real.resample(a), real.resample(b)) for a, b in splits)
        pairs = halves if d.arity == "binary" else (
            (None, half) for pair in halves for half in pair)
        results = [result for pair in pairs for result in _task_results(
            ("global", name, ()), _Args(*pair, config, seed)).values()]
        values[name] = [r.value for r in results
                        if r.value is not None and math.isfinite(r.value)]
        if not values[name]:
            reason = results[0].diagnostics.get("undefined_reason", "inf")
            undefined.append(PlanError(
                f"metric {name!r} gave no finite value on any reference "
                f"self-split: {reason}", code="E228"))
    if undefined:
        raise PlanViolations(undefined)
    bounds = {}
    for name, observed in sorted(values.items()):
        vmin, vmax = min(observed), max(observed)
        pad = (vmax - vmin) + max(1e-6, 0.05 * max(abs(vmin), abs(vmax)))
        lo, hi = vmin - pad, vmax + pad
        floor = catalog.descriptor(name).range[0]
        if floor is not None:
            lo = max(lo, floor)
        if not lo < hi:
            hi = lo + 1.0
        bounds[name] = (lo, hi)
    return bounds
