"""Completeness metrics: presence of required fields and records."""

from __future__ import annotations

from .errors import EvaluationError
from .model import RecordTable


def required_field_proportion(table: RecordTable, required: list[str],
                              populated_threshold: float = 1.0):
    """Fraction of required fields that exist and are populated.

    A field counts as present when it exists as a column and is non-missing
    in at least ``populated_threshold`` of rows (default: every row).
    """
    if not required:
        raise EvaluationError("required field list is empty")
    if table.n == 0:
        raise EvaluationError("required field proportion is undefined on an "
                              "empty table")
    names = set(table.column_names)
    per_field = {}
    present = 0
    for field in required:
        if field not in names:
            per_field[field] = "absent"
            continue
        j = table.column_index(field)
        populated = 1.0 - float(table.missing_mask[:, j].sum()) / table.n
        if populated >= populated_threshold:
            per_field[field] = "present"
            present += 1
        else:
            per_field[field] = f"underpopulated ({populated:.4f})"
    value = present / len(required)
    return value, {"per_field": per_field,
                   "populated_threshold": populated_threshold}


def missing_data_percentage(table: RecordTable):
    """Masked cells over total cells, in [0, 1]."""
    total = table.n * table.m
    if total == 0:
        raise EvaluationError("missing data percentage is undefined on an "
                              "empty table")
    missing = int(table.missing_mask.sum())
    return missing / total, {"missing_cells": missing, "cells": total}
