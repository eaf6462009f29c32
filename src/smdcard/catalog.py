"""Metric catalog: one descriptor per supported metric.

The catalog rows double as machine-readable documentation of each metric:
which criterion it scores, the space it operates in, whether it needs a
reference set (binary) or runs on the synthetic set alone (unary), and the
optimization direction used when turning raw values into 0-100 scores.

``direction`` is the published optimization goal; ``score_direction`` is the
direction actually applied during normalization. They differ only where the
published goal is expressed on an inverted scale (t-closeness: the raw
distance shrinks as compliance improves; boundary margin: larger margins mean
safer data).

Each row is also the one home of a metric's static facts: its parameters,
its analytic value range (normalization bounds when both ends are known,
the calibration clamp otherwise), the top of its data bounds [1, top],
which set's kNN radii limit ``k``, and which run inputs the plan must find
before the metric can run (``needs``). How a metric is computed lives in
its one row of ``runner._COMPUTE`` or ``runner._BLOCKS``, consistency
metrics included, because the metric modules import this one; when it is
undefined, in the metric function.
A parameter is ``(key, default, allowed)``: ``allowed`` is an int or float
(a number of that type at least that), a tuple (one of its values) or
``str`` (any string); ``null`` is allowed where the default is None. The
config parser checks each value against its row, and the compute entry
passes the parsed values as the metric function's keywords.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError

CRITERIA = (
    "congruence",
    "coverage",
    "constraint",
    "completeness",
    "compliance",
    "comprehension",
    "consistency",
)

# What input feeds the metric at evaluation time.
SOURCE_EMBEDDING = "embedding"
SOURCE_IMAGE_PAIRS = "image-pairs"
SOURCE_CLASS_PROBS = "class-probs"
SOURCE_TABLE = "table"
SOURCE_MANIFEST = "manifest"
SOURCE_SUBGROUP_METRICS = "subgroup-metrics"


@dataclass(frozen=True)
class MetricDescriptor:
    name: str          # unique identifier, used in configs and reports
    label: str         # catalog display label (not unique across criteria)
    criterion: str
    space: str
    arity: str         # "unary" | "binary"
    direction: str     # "maximize" | "minimize" | "stat-sig"
    image_only: bool
    source: str = SOURCE_EMBEDDING
    score_direction: str = ""   # defaults to `direction`
    computable: bool = True     # False: declaration-only, never computed
    params: tuple[tuple[str, object, object], ...] = ()  # key, default, allowed
    range: tuple[float | None, float | None] = (None, None)  # analytic lo, hi
    data_bounds: str | None = None  # [1, top]: "rows" or diagnostics key
    knn_on: str | None = None   # "real" | "synthetic": whose kNN radii cap k
    # config inputs the plan requires: "quasi_identifiers",
    # "sensitive_column", "constraint_rules", "required_fields"
    needs: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.score_direction:
            object.__setattr__(self, "score_direction", self.direction)

    def default(self, key: str):
        return {k: default for k, default, _ in self.params}.get(key)

    @property
    def static_bounds(self) -> tuple[float, float] | None:
        """The analytic range when both ends are known."""
        return None if None in self.range else self.range


def _d(name, label, criterion, space, arity, direction, image_only, **kw):
    return MetricDescriptor(name, label, criterion, space, arity, direction,
                            image_only, **kw)


KERNEL = ("kernel", "cosine", ("cosine", "rbf"))
GAMMA = ("gamma", None, 0.0)  # RBF width; None: 1/d

UNIT = (0.0, 1.0)
SIGNED_UNIT = (-1.0, 1.0)
NONNEGATIVE = (0.0, None)

#: Catalog rows, in canonical order. Tests pin this against a golden table.
CATALOG: tuple[MetricDescriptor, ...] = (
    # congruence
    _d("cosine_similarity", "Cosine Similarity", "congruence",
       "embedding", "binary", "maximize", False, range=SIGNED_UNIT),
    _d("earth_movers_distance", "Earth Mover's Distance", "congruence",
       "embedding", "binary", "minimize", False, range=NONNEGATIVE,
       params=(("mode", "per-dimension-average",
               ("per-dimension-average", "exact-matching")),)),
    _d("jensen_shannon_divergence", "Jensen-Shannon Divergence", "congruence",
       "embedding", "binary", "minimize", False, range=UNIT,
       params=(("bins", None, 1),)),
    _d("psnr", "Peak Signal-to-Noise Ratio", "congruence",
       "image", "binary", "maximize", True, source=SOURCE_IMAGE_PAIRS,
       range=NONNEGATIVE),
    _d("ssim", "Structural Similarity Index", "congruence",
       "image", "binary", "maximize", True, source=SOURCE_IMAGE_PAIRS,
       range=SIGNED_UNIT),
    _d("frechet_distance", "Fréchet Inception Distance", "congruence",
       "embedding", "binary", "minimize", True, range=NONNEGATIVE),
    _d("centroid_distance_congruence", "Distance to Centroid", "congruence",
       "embedding", "binary", "minimize", False, range=NONNEGATIVE),
    _d("precision", "Precision", "congruence",
       "embedding", "binary", "maximize", False, range=UNIT,
       params=(("k", 3, 1),), knn_on="real"),
    # coverage
    _d("inception_score", "Inception Score", "coverage",
       "image", "unary", "maximize", True, source=SOURCE_CLASS_PROBS,
       params=(("probs_path", None, str),), data_bounds="classes"),
    _d("recall", "Recall", "coverage",
       "embedding", "binary", "maximize", False, range=UNIT,
       params=(("k", 3, 1),), knn_on="synthetic"),
    _d("coverage", "Coverage", "coverage",
       "embedding", "binary", "maximize", False, range=UNIT,
       params=(("k", 5, 1),), knn_on="real"),
    _d("centroid_distance_coverage", "Distance to Centroid", "coverage",
       "embedding", "binary", "maximize", False, range=NONNEGATIVE),
    _d("convex_hull_volume", "Convex Hull Volume", "coverage",
       "embedding", "unary", "maximize", False, range=NONNEGATIVE,
       params=(("reduce_to", 3, (1, 2, 3)),)),
    _d("dpp_score", "Determinantal Point Processes Score", "coverage",
       "embedding", "unary", "maximize", False,
       params=(KERNEL, GAMMA, ("ridge", 1e-9, 0.0))),
    _d("vendi_score", "Vendi Score", "coverage",
       "embedding", "unary", "maximize", False, range=(1.0, None),
       params=(KERNEL, GAMMA), data_bounds="rows"),
    _d("variance_coverage", "Variance", "coverage",
       "embedding", "unary", "maximize", False, range=NONNEGATIVE),
    _d("entropy_coverage", "Entropy", "coverage",
       "embedding", "unary", "maximize", False, params=(("bins", None, 1),)),
    _d("rarity_score", "Rarity Score", "coverage",
       "embedding", "binary", "minimize", False, range=NONNEGATIVE,
       params=(("k", 3, 1),), knn_on="real"),
    _d("cluster_balance", "Clustering-Based Metrics", "coverage",
       "embedding", "unary", "maximize", False, range=UNIT,
       params=(("k_clusters", None, 2),)),
    # constraint (published space is "embedding"; evaluation runs on the
    # attribute table, where the rule geometry lives)
    _d("nearest_invalid_datapoint", "Nearest Invalid Datapoint", "constraint",
       "embedding", "binary", "minimize", False, source=SOURCE_TABLE,
       score_direction="maximize", needs=("constraint_rules",)),
    _d("constraint_boundary_distance", "Distance to Constraint Boundary",
       "constraint", "embedding", "binary", "minimize", False,
       source=SOURCE_TABLE, needs=("constraint_rules",)),
    _d("constraint_violation_rate", "Constraint Violation Rate", "constraint",
       "embedding", "binary", "minimize", False, source=SOURCE_TABLE,
       range=UNIT, needs=("constraint_rules",)),
    # completeness
    _d("required_field_proportion", "Proportion of Required Fields",
       "completeness", "metadata", "binary", "maximize", False,
       source=SOURCE_TABLE, range=UNIT, needs=("required_fields",)),
    _d("missing_data_percentage", "Missing Data Percentage", "completeness",
       "metadata", "binary", "minimize", False, source=SOURCE_TABLE,
       range=UNIT),
    # compliance
    _d("differential_privacy_score", "Differential Privacy Score",
       "compliance", "data-attribute", "unary", "minimize", False,
       source=SOURCE_MANIFEST, computable=False),
    _d("k_anonymity", "K-Anonymity Level", "compliance",
       "data-attribute", "unary", "maximize", False, source=SOURCE_TABLE,
       data_bounds="rows", needs=("quasi_identifiers",)),
    _d("l_diversity", "L-Diversity Score", "compliance",
       "data-attribute", "unary", "maximize", False, source=SOURCE_TABLE,
       data_bounds="distinct_sensitive_values",
       needs=("quasi_identifiers", "sensitive_column")),
    _d("t_closeness", "T-Closeness Level", "compliance",
       "data-attribute", "unary", "maximize", False, source=SOURCE_TABLE,
       score_direction="minimize", range=UNIT,
       needs=("quasi_identifiers", "sensitive_column")),
    # comprehension
    _d("documentation_clarity", "Documentation Clarity Score", "comprehension",
       "documentation", "unary", "maximize", False, source=SOURCE_MANIFEST,
       range=(1.0, 10.0)),
    # consistency (scored on normalized 0-100 subgroup values)
    _d("metric_variance", "Variance", "consistency",
       "quality-metrics", "unary", "minimize", False,
       source=SOURCE_SUBGROUP_METRICS, range=(0.0, 2500.0)),
    _d("max_min_difference", "Maximum-Minimum Difference", "consistency",
       "quality-metrics", "unary", "minimize", False,
       source=SOURCE_SUBGROUP_METRICS, range=(0.0, 100.0)),
    _d("anova", "Analysis of Variance", "consistency",
       "quality-metrics", "unary", "stat-sig", False,
       source=SOURCE_SUBGROUP_METRICS),
)

#: Additional computed metrics kept outside the pinned catalog table.
EXTRAS: tuple[MetricDescriptor, ...] = (
    _d("re_identification_risk", "Re-identification Risk", "compliance",
       "embedding", "binary", "minimize", False, range=UNIT,
       params=(("tau", None, 0.0),)),
)

REGISTRY: dict[str, MetricDescriptor] = {d.name: d for d in CATALOG + EXTRAS}
assert len(REGISTRY) == len(CATALOG) + len(EXTRAS), "descriptor names collide"


def descriptor(name: str) -> MetricDescriptor:
    try:
        return REGISTRY[name]
    except KeyError:
        raise ConfigError(f"unknown metric {name!r}", code="E201") from None


def catalog_rows() -> tuple[MetricDescriptor, ...]:
    """The pinned catalog, in canonical order."""
    return CATALOG


def selectable_names() -> tuple[str, ...]:
    return tuple(d.name for d in CATALOG + EXTRAS if d.computable)
