"""Core data model: embedding sets and record tables.

All containers are immutable after construction; numpy buffers are marked
read-only so instances can be shared freely between tasks.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import EvaluationError, InputError

COLUMN_KINDS = ("numeric", "categorical", "text")


def _frozen_array(values, dtype=np.float64, ndim=None) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise InputError(f"expected a {ndim}-dimensional array, got {arr.ndim}")
    arr.setflags(write=False)
    return arr


def check_unique_ids(ids, where: str = "") -> None:
    """Reject repeated ids, naming the lexicographically smallest one."""
    counts = Counter(ids)
    if len(counts) != len(ids):
        dup = min(i for i, c in counts.items() if c > 1)
        raise InputError(f"{where}duplicate id {dup!r}")


@dataclass(frozen=True)
class EmbeddingSet:
    """n rows of d-dimensional feature coordinates with per-row identifiers.

    Optional per-row ``subgroup`` labels drive consistency breakdowns;
    optional ``region`` tags drive local (per-region) evaluation.
    """

    ids: tuple[str, ...]
    data: np.ndarray
    subgroup: tuple[str, ...] | None = None
    region: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(str(i) for i in self.ids))
        object.__setattr__(self, "data", _frozen_array(self.data, ndim=2))
        n, d = self.data.shape
        if n < 1 or d < 1:
            raise InputError("embedding set needs at least one row and one column")
        if len(self.ids) != n:
            raise InputError(f"{len(self.ids)} ids for {n} rows")
        check_unique_ids(self.ids)
        for attr in ("subgroup", "region"):
            labels = getattr(self, attr)
            if labels is not None:
                labels = tuple(str(v) for v in labels)
                if len(labels) != n:
                    raise InputError(f"{attr} has {len(labels)} entries for {n} rows")
                object.__setattr__(self, attr, labels)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    def resample(self, rows) -> "EmbeddingSet":
        """A draw without labels: row i is this set's row ``rows[i]``, for 1
        to n indices that may repeat. The ids are this set's first m, so
        they name positions; they were checked when this set was built, so
        this re-checks nothing and copies the rows once."""
        rows = np.asarray(rows, dtype=np.intp)
        if rows.ndim != 1 or not 1 <= len(rows) <= self.n:
            raise InputError(f"a draw from {self.n} rows takes 1 to {self.n} "
                             f"row indices, got shape {rows.shape}")
        drawn = copy.copy(self)
        data = self.data[rows]
        data.setflags(write=False)
        object.__setattr__(drawn, "ids", self.ids[:len(rows)])
        object.__setattr__(drawn, "data", data)
        object.__setattr__(drawn, "subgroup", None)
        object.__setattr__(drawn, "region", None)
        return drawn

    def subset(self, indices: Iterable[int]) -> "EmbeddingSet":
        idx = list(indices)
        if not idx:
            raise InputError("cannot take an empty subset of an embedding set")
        return EmbeddingSet(
            ids=tuple(self.ids[i] for i in idx),
            data=self.data[idx],
            subgroup=tuple(self.subgroup[i] for i in idx) if self.subgroup else None,
            region=tuple(self.region[i] for i in idx) if self.region else None,
        )


def check_dims(real: EmbeddingSet, synthetic: EmbeddingSet) -> None:
    """Every binary embedding metric's first check: one dimension d."""
    if real.d != synthetic.d:
        raise EvaluationError(f"dimension mismatch: real d={real.d}, "
                              f"synthetic d={synthetic.d}")


class _FirstSeen(dict):
    """label -> code: -1 for each missing label, then 0, 1, ... in the
    order labels are first looked up; a lookup of a new label that is not a
    string is an error."""

    def __init__(self, missing):
        super().__init__(dict.fromkeys(missing, -1))
        self.n_missing = len(self)

    def __missing__(self, label):
        if not isinstance(label, str):
            raise InputError("categorical and text cells must be strings "
                             "or None")
        code = self[label] = len(self) - self.n_missing
        return code


class LabelCoder:
    """Codes label cells, block by block as they are read, into their
    sorted distinct labels, -1 at cells whose text is in ``missing``.

    Each cell is hashed once: ``add`` looks it up in one first-seen
    label -> code dict, and ``codes`` remaps every code by its label's rank
    in the sorted domain once, after the last block. ``RecordTable`` takes
    a coder as a coded column."""

    def __init__(self, missing=(None,)):
        self._index = _FirstSeen(missing)
        self._blocks: list[np.ndarray] = []

    def __len__(self) -> int:
        return sum(map(len, self._blocks))

    def add(self, cells) -> None:
        self._blocks.append(np.fromiter(map(self._index.__getitem__, cells),
                                        np.intp, len(cells)))

    def codes(self) -> tuple[np.ndarray, tuple[str, ...]]:
        """(read-only codes, sorted domain) of every cell added so far."""
        labels = list(self._index)[self._index.n_missing:]
        order = sorted(range(len(labels)), key=labels.__getitem__)
        rank = np.full(len(labels) + 1, -1, dtype=np.intp)  # code -1 stays
        rank[order] = np.arange(len(labels))
        codes = rank[np.concatenate([*self._blocks, np.empty(0, np.intp)])]
        codes.setflags(write=False)
        return codes, tuple(labels[i] for i in order)


def _encode(cells) -> tuple[np.ndarray, tuple[str, ...]]:
    """Codes of a coded column, or of string cells with None missing, into
    their sorted distinct values; missing is -1."""
    if not isinstance(cells, LabelCoder):
        coder = LabelCoder()
        coder.add(cells)
        cells = coder
    return cells.codes()


@dataclass(frozen=True, eq=False)
class RecordTable:
    """Typed tabular records, stored column by column.

    ``columns`` is an ordered tuple of (name, kind) with kind in
    numeric / categorical / text; ``cells`` holds one sequence per column,
    with None (or NaN, in a numeric column) marking a missing cell, or, for
    a categorical or text column, a ``LabelCoder`` its cells were coded by.

    This class alone knows how cells are encoded. A numeric column is a
    read-only float64 array with NaN at missing cells (``floats``). Any
    column also reads as int codes into its sorted distinct cell strings,
    with -1 at missing cells (``codes``).
    """

    columns: tuple[tuple[str, str], ...]
    cells: InitVar[Sequence[Sequence[Any]]]
    n: int = field(init=False)
    _data: tuple = field(init=False, repr=False)

    def __post_init__(self, cells):
        cols = tuple((str(n), str(k)) for n, k in self.columns)
        object.__setattr__(self, "columns", cols)
        names = [n for n, _ in cols]
        if len(set(names)) != len(names):
            raise InputError("duplicate column names in record table")
        for name, kind in cols:
            if kind not in COLUMN_KINDS:
                raise InputError(f"column {name!r} has unknown kind {kind!r}")
        if len(cells) != len(cols):
            raise InputError(f"{len(cells)} cell columns for {len(cols)} "
                             "declared columns")
        n = len(cells[0]) if cells else 0
        for name, col in zip(names, cells):
            if len(col) != n:
                raise InputError(f"column {name!r} has {len(col)} cells, "
                                 f"expected {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_data", tuple(
            _frozen_array(col) if kind == "numeric" else _encode(col)
            for (_, kind), col in zip(cols, cells)))

    @property
    def m(self) -> int:
        return len(self.columns)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.columns)

    def column_index(self, name: str) -> int:
        for j, (n, _) in enumerate(self.columns):
            if n == name:
                return j
        raise InputError(f"no column named {name!r}")

    def kind(self, name: str) -> str:
        return self.columns[self.column_index(name)][1]

    def floats(self, name: str) -> np.ndarray:
        """A numeric column as read-only float64, NaN at missing cells."""
        if self.kind(name) != "numeric":
            raise InputError(f"column {name!r} is not numeric")
        return self._data[self.column_index(name)]

    def codes(self, name: str) -> tuple[np.ndarray, tuple[str, ...]]:
        """A column as (codes, domain): read-only int codes into the sorted
        distinct cell strings, -1 at missing cells.

        Numeric cells key on their ``str``, so -0.0 and 0.0 stay distinct.
        """
        if self.kind(name) != "numeric":
            return self._data[self.column_index(name)]
        values = self.floats(name)
        present = ~np.isnan(values)
        # distinct bit patterns are distinct floats, and so distinct strings
        bits, inverse = np.unique(values[present].view(np.int64),
                                  return_inverse=True)
        rank, domain = _encode(list(map(str, bits.view(np.float64).tolist())))
        codes = np.full(self.n, -1, dtype=np.intp)
        codes[present] = rank[inverse]
        return _frozen_array(codes, dtype=np.intp), domain

    def column(self, name: str) -> list:
        """A column's cells: floats or strings, None where missing."""
        if self.kind(name) == "numeric":
            values = self.floats(name)
            return np.where(np.isnan(values), None, values.astype(object)).tolist()
        codes, domain = self.codes(name)
        return np.array(domain + (None,), dtype=object)[codes].tolist()

    @cached_property
    def missing_mask(self) -> np.ndarray:
        """(n, m) read-only boolean mask of missing cells (derived)."""
        return _frozen_array([np.isnan(data) if kind == "numeric" else data[0] < 0
                              for (_, kind), data in zip(self.columns, self._data)],
                             dtype=bool).reshape(self.m, self.n).T

    @cached_property
    def rows(self) -> tuple[tuple[Any, ...], ...]:
        """Read-only row view (derived): one tuple of ``column`` cells per row."""
        return tuple(zip(*map(self.column, self.column_names)))
