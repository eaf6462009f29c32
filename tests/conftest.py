import contextlib

import numpy as np
import pytest
from hypothesis import strategies as st

from smdcard import numerics
from smdcard.harness import make_gaussian_mixture, make_record_table
from smdcard.model import EmbeddingSet, RecordTable
from smdcard.runner import PlanViolations, plan


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def gaussian_pair():
    """Reference and synthetic samples from the same 2-mode mixture."""
    modes = [{"mean": 0.0, "scale": 1.0, "weight": 0.5},
             {"mean": 6.0, "scale": 1.0, "weight": 0.5}]
    real = make_gaussian_mixture(120, 5, modes, seed=11)
    synth = make_gaussian_mixture(100, 5, modes, seed=22)
    return real, synth


@pytest.fixture
def identity_pair():
    """Synthetic set that is an exact copy of the reference set."""
    real = make_gaussian_mixture(150, 4, [{"mean": 0.0, "scale": 1.0,
                                           "weight": 1.0}], seed=5)
    synth = EmbeddingSet(ids=tuple(f"s{i}" for i in range(real.n)),
                         data=real.data.copy())
    return real, synth


@pytest.fixture
def small_table():
    return make_record_table(40, seed=7)


def embedding_from(rows, prefix="p") -> EmbeddingSet:
    data = np.asarray(rows, dtype=np.float64)
    return EmbeddingSet(ids=tuple(f"{prefix}{i}" for i in range(len(data))),
                        data=data)


def plan_messages(inputs, config) -> list[str]:
    """The ``E<code>: <message>`` line of each check ``runner.plan`` fails,
    in check order, as the CLI prints them; none when the plan is ok."""
    try:
        plan(inputs, config)
    except PlanViolations as exc:
        return [f"{error.code}: {error}" for error in exc.violations]
    return []


def table_from(columns, rows) -> RecordTable:
    """A record table from row tuples, transposed into its columns."""
    return RecordTable(tuple(columns),
                       [[row[j] for row in rows] for j in range(len(columns))])


class RowTable:
    """Rows exactly as given, with None at missing cells: the per-row view
    the reference oracles read, independent of how RecordTable encodes."""

    def __init__(self, columns, rows):
        self.columns = tuple(columns)
        self.rows = tuple(tuple(row) for row in rows)
        self.n = len(self.rows)
        self.missing_mask = np.array(
            [[cell is None for cell in row] for row in self.rows],
            dtype=bool).reshape(self.n, len(self.columns))

    def column_index(self, name):
        return [n for n, _ in self.columns].index(name)


def difference_distances(a, b):
    """Every distance from rows of ``a`` to rows of ``b`` by the explicit
    difference formula, in one unblocked matrix: the brute-force reference
    the kNN primitives must match bit for bit."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


ADVERSARIAL_CASES = ("offset", "ties", "copies", "huge", "tiny")

_BLOCK_NAMES = ("_BLOCK_ELEMENTS", "_GRAM_ELEMENTS", "_GRAM_MIN_ROWS")
# numerics' (_BLOCK_ELEMENTS, _GRAM_ELEMENTS, _GRAM_MIN_ROWS) for a few
# dozen rows: one-row Gram blocks, blocks at the row floor, cache-sized
# blocks, and the defaults (one block)
GRAM_BLOCKS = ((1, 1, 1), (numerics._BLOCK_ELEMENTS, 1, 3),
               (numerics._BLOCK_ELEMENTS, 200, 1),
               tuple(getattr(numerics, name) for name in _BLOCK_NAMES))
# each of the three sampled on its own, from small values and its default
block_sizes = st.tuples(
    st.sampled_from([1, 20, numerics._BLOCK_ELEMENTS]),
    st.sampled_from([1, 20, numerics._GRAM_ELEMENTS]),
    st.sampled_from([1, 3, numerics._GRAM_MIN_ROWS]))


@contextlib.contextmanager
def blocked(sizes):
    """Run with numerics' (_BLOCK_ELEMENTS, _GRAM_ELEMENTS,
    _GRAM_MIN_ROWS) set to ``sizes``; the block sizes change no bit."""
    defaults = [getattr(numerics, name) for name in _BLOCK_NAMES]
    for name, value in zip(_BLOCK_NAMES, sizes):
        setattr(numerics, name, value)
    try:
        yield
    finally:
        for name, value in zip(_BLOCK_NAMES, defaults):
            setattr(numerics, name, value)


def adversarial_sets(case, d, seed=0):
    """(real, synthetic) coordinate arrays that stress a distance filter:
    a 1e8 common offset, integer ties, copied rows in and across the sets,
    coordinates near 1e160 (squares overflow) and near 1e-170 (squares
    underflow)."""
    rng = np.random.default_rng(seed)
    if case == "ties":
        real = rng.integers(-2, 3, size=(40, d)).astype(np.float64)
        synth = rng.integers(-2, 3, size=(30, d)).astype(np.float64)
    else:
        scale = {"offset": 1.0, "copies": 1.0, "huge": 1e160,
                 "tiny": 1e-170}[case]
        real = rng.normal(size=(40, d)) * scale
        synth = rng.normal(size=(30, d)) * scale
        if case == "offset":
            real, synth = real + 1e8, synth + 1e8
    real[30:] = real[:10]
    synth[:10] = real[rng.integers(0, 40, size=10)]
    return real, synth
