"""smdcard: quality evaluation and report cards for synthetic medical data.

The library scores a synthetic dataset against a reference dataset along
seven criteria (congruence, coverage, constraint, completeness, compliance,
comprehension, consistency), aggregates metric values into per-criterion
verdicts, and renders the results as a machine- and human-readable dataset
card.
"""

from .catalog import CATALOG, MetricDescriptor, descriptor
from .config import EvalConfig, config_from_dict
from .errors import (CardError, ConfigError, EvaluationError, InputError,
                     PlanError, SmdError)
from .model import EmbeddingSet, MetricResult, RecordTable

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "CardError",
    "ConfigError",
    "EmbeddingSet",
    "EvalConfig",
    "EvaluationError",
    "InputError",
    "MetricDescriptor",
    "MetricResult",
    "PlanError",
    "RecordTable",
    "SmdError",
    "config_from_dict",
    "descriptor",
    "__version__",
]
