"""smdcard: quality evaluation and report cards for synthetic medical data.

The library scores a synthetic dataset against a reference dataset along
seven criteria (congruence, coverage, constraint, completeness, compliance,
comprehension, consistency), aggregates metric values into per-criterion
verdicts, and renders the results as a machine- and human-readable dataset
card.
"""

import importlib

from .aggregate import MetricResult
from .catalog import CATALOG, MetricDescriptor, descriptor
from .errors import (CardError, ConfigError, EvaluationError, InputError,
                     PlanError, SmdError)

__version__ = "0.1.0"

#: name -> its module, imported on first use (PEP 562): these modules load
#: numpy, which ``import smdcard.cli`` and ``smdcard card`` do not need
_LAZY = {"EvalConfig": "config", "config_from_dict": "config",
         "EmbeddingSet": "model", "RecordTable": "model"}

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


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
