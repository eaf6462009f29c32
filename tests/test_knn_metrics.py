"""The five kNN-manifold metrics against a brute-force per-pair oracle, and
their memory bound."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smdcard import compliance, congruence, coverage, numerics
from smdcard.compliance import leakage_rate
from smdcard.congruence import manifold_precision
from smdcard.coverage import manifold_coverage, manifold_recall, rarity_score
from smdcard.errors import EvaluationError

from conftest import (ADVERSARIAL_CASES, adversarial_sets,
                      difference_distances, embedding_from)


# ---------------------------------------------------------------------------
# oracle: one math.dist per pair, closed balls, self excluded by index


def _radii(pts, k):
    n = len(pts)
    if k < 1 or k > n - 1:
        raise EvaluationError(f"k={k} out of range: reference set supports "
                              f"at most k={n - 1} (self-match excluded)")
    return [sorted(math.dist(pts[i], pts[j]) for j in range(n) if j != i)[k - 1]
            for i in range(n)]


def _containing(point, centers, radii):
    """Radii of the closed balls that contain ``point``."""
    return [r for c, r in zip(centers, radii) if math.dist(point, c) <= r]


def _fraction_inside(query, centers, k):
    radii = _radii(centers, k)
    inside = sum(1 for q in query if _containing(q, centers, radii))
    return inside / len(query), {"k": k, "inside": inside}


def oracle_precision(real, synth, k):
    return _fraction_inside(synth, real, k)


def oracle_recall(real, synth, k):
    return _fraction_inside(real, synth, k)


def oracle_coverage(real, synth, k):
    radii = _radii(real, k)
    inside = sum(1 for c, r in zip(real, radii)
                 if any(math.dist(s, c) <= r for s in synth))
    return inside / len(real), {"k": k, "inside": inside}


def oracle_rarity(real, synth, k):
    radii = _radii(real, k)
    scores = [min(found) for s in synth
              if (found := _containing(s, real, radii))]
    diagnostics = {"k": k, "out_of_manifold_fraction":
                   1.0 - len(scores) / len(synth)}
    if not scores:
        return None, {**diagnostics,
                      "undefined_reason": "no synthetic point falls inside "
                                          "the reference manifold"}
    return float(np.mean(scores)), diagnostics


def oracle_leakage(real, synth, tau):
    if tau is None:
        if len(real) < 2:
            raise EvaluationError("defaulting tau needs at least 2 reference "
                                  "rows")
        tau = float(np.percentile(_radii(real, 1), 1.0))
    hits = sum(1 for s in synth if any(math.dist(s, c) <= tau for c in real))
    return hits / len(synth), {"tau": float(tau), "hits": hits}


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except EvaluationError as exc:
        return f"error: {exc}"


@st.composite
def _sets(draw):
    """Integer coordinates (exact squared sums, many ties) with copied rows
    (zero radii) in both sets, k up to one past the larger limit, and a
    distance block size from one row to all rows."""
    d = draw(st.integers(1, 3))
    coords = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    real = draw(st.lists(coords, min_size=1, max_size=9))
    real += [real[i] for i in draw(st.lists(st.integers(0, len(real) - 1),
                                            max_size=3))]
    synth = draw(st.lists(coords, min_size=0, max_size=9))
    synth += [real[i] for i in draw(st.lists(st.integers(0, len(real) - 1),
                                             min_size=0 if synth else 1,
                                             max_size=4))]
    k = draw(st.integers(1, max(len(real), len(synth))))
    tau = draw(st.sampled_from([None, 0.0, 0.5, 1.0, 2.0, math.inf]))
    block = draw(st.sampled_from([1, 20, numerics._BLOCK_ELEMENTS]))
    return (np.array(real, dtype=np.float64),
            np.array(synth, dtype=np.float64), k, tau, block)


@given(_sets())
@settings(max_examples=300, deadline=None)
def test_five_metrics_equal_per_pair_oracle(sets):
    real, synth, k, tau, block = sets
    r, s = embedding_from(real, "r"), embedding_from(synth, "s")
    pairs = [(manifold_precision, oracle_precision, k),
             (manifold_recall, oracle_recall, k),
             (manifold_coverage, oracle_coverage, k),
             (rarity_score, oracle_rarity, k),
             (leakage_rate, oracle_leakage, tau)]
    default_block = numerics._BLOCK_ELEMENTS
    numerics._BLOCK_ELEMENTS = block
    try:
        for metric, oracle, param in pairs:
            assert (_outcome(metric, r, s, param)
                    == _outcome(oracle, real.tolist(), synth.tolist(), param))
    finally:
        numerics._BLOCK_ELEMENTS = default_block


def _reference_kth(data, k, rows=None):
    """The set's own radii, ``(1, n)``; the metrics draw no rows."""
    assert rows is None
    dist = difference_distances(data, data)
    np.fill_diagonal(dist, np.inf)
    return np.partition(dist, k - 1, axis=1)[None, :, k - 1]


def _reference_ball(query, centers, radii):
    inside = difference_distances(query, centers) <= radii[:, None, :]
    return (np.where(inside, radii[:, None, :], np.inf).min(axis=2),
            inside.any(axis=(0, 1)))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("d", [1, 16, 64])
@pytest.mark.parametrize("case", ADVERSARIAL_CASES)
def test_five_metrics_equal_difference_formula_on_adversarial_sets(
        case, d, monkeypatch):
    real, synth = adversarial_sets(case, d, seed=100 + d)
    r, s = embedding_from(real, "r"), embedding_from(synth, "s")
    calls = [(metric, k) for k in (1, 3, 5) for metric in (
        manifold_precision, manifold_recall, manifold_coverage, rarity_score)]
    calls += [(leakage_rate, tau) for tau in (None, 0.0, math.inf)]
    got = [_outcome(metric, r, s, param) for metric, param in calls]
    for module in (compliance, congruence, coverage):
        monkeypatch.setattr(module, "kth_neighbor_distances", _reference_kth)
        monkeypatch.setattr(module, "ball_query", _reference_ball)
    assert got == [_outcome(metric, r, s, param) for metric, param in calls]


@pytest.mark.parametrize("metric, param", [
    (manifold_precision, 3), (manifold_recall, 3), (manifold_coverage, 5),
    (rarity_score, 3), (leakage_rate, None)])
def test_memory_bounded_by_block_not_n_squared(metric, param):
    n = 3000
    rng = np.random.default_rng(8)
    real = embedding_from(rng.normal(size=(n, 4)), "r")
    synth = embedding_from(rng.normal(size=(n, 4)), "s")
    tracemalloc.start()
    try:
        metric(real, synth, param)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 2


def test_memory_flat_in_n_when_every_pair_is_refined():
    """A radius above every pair distance sends every pair to the exact
    refine; the peak still stays at the block's size as n doubles."""
    peaks = []
    for n in (2000, 4000):
        rng = np.random.default_rng(10)
        real = embedding_from(rng.normal(size=(n, 4)), "r")
        synth = embedding_from(rng.normal(size=(n, 4)), "s")
        tracemalloc.start()
        try:
            assert leakage_rate(real, synth, 1e300)[0] == 1.0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0]


def test_recall_block_memory_bounded_by_block_not_n_squared():
    n = 3000
    rng = np.random.default_rng(9)
    real = embedding_from(rng.normal(size=(n, 4)), "r")
    synth = embedding_from(rng.normal(size=(n, 4)), "s")
    rows = [rng.integers(0, n, size=n) for _ in range(50)]
    tracemalloc.start()
    try:
        coverage.manifold_recall_replicates(real, synth, rows, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 2


@st.composite
def _recall_blocks(draw):
    """A recall block: integer ties, rows equidistant from a centre row,
    coordinates near 1e154 (squares overflow), a 1e8 common offset, or
    coordinates near 1e-160 (squares underflow), with copied pool rows;
    unequal reference and pool sizes; draws of the pool, either bootstrap
    draws all of one length from 1 to the pool's size, one of them a single
    row repeated, or permutations of the pool, which draw each row once and
    so take the k-wide window; k from 1 to one past the pool's limit; and
    a neighbor window down to none, so that lookups overflow it."""
    d = draw(st.integers(1, 3))
    m, n_real = draw(st.integers(2, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    family = draw(st.sampled_from(["ties", "sphere", "huge", "offset",
                                   "tiny"]))
    if family == "ties":
        synth, real = (rng.integers(-2, 3, size=(n, d)).astype(np.float64)
                       for n in (m, n_real))
    elif family == "sphere":
        # the centre and its 2d unit neighbors, all at distance 1 from it
        centre = rng.integers(-2, 3, size=d).astype(np.float64)
        shell = np.vstack((centre, centre + np.eye(d), centre - np.eye(d)))
        synth, real = (shell[rng.integers(0, len(shell), size=n)]
                       for n in (m, n_real))
    else:
        scale, shift = {"huge": (1e154, 0.0), "offset": (1.0, 1e8),
                        "tiny": (1e-160, 0.0)}[family]
        synth, real = (rng.normal(size=(n, d)) * scale + shift
                       for n in (m, n_real))
    for i, j in draw(st.lists(st.tuples(st.integers(0, m - 1),
                                        st.integers(0, m - 1)), max_size=3)):
        synth[i] = synth[j]
    sets = draw(st.integers(1, 6))
    if draw(st.booleans()):
        draws = [rng.permutation(m) for _ in range(sets)]
    else:
        size = draw(st.integers(1, m))
        draws = [rng.integers(0, m, size=size) for _ in range(sets)]
        draws.append(np.full(size, draw(st.integers(0, m - 1))))
    k = draw(st.integers(1, m))
    window = draw(st.sampled_from([0, 1, numerics._WINDOW_PER_K]))
    block = draw(st.sampled_from([1, 20, numerics._BLOCK_ELEMENTS]))
    return real, synth, draws, k, window, block


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@given(_recall_blocks())
@settings(max_examples=300, deadline=None)
def test_recall_block_equals_single_sets(inputs):
    """Each replicate of a recall block is repr-equal to ``manifold_recall``
    on ``resample(rows)``, at any neighbor window and block size; a k the
    pool cannot support raises the single set's error."""
    real, synth, draws, k, window, block = inputs
    r, s = embedding_from(real, "r"), embedding_from(synth, "s")
    want = [_outcome(manifold_recall, r, s.resample(x), k) for x in draws]
    defaults = numerics._WINDOW_PER_K, numerics._BLOCK_ELEMENTS
    numerics._WINDOW_PER_K, numerics._BLOCK_ELEMENTS = window, block
    try:
        got = coverage.manifold_recall_replicates(r, s, draws, k)
    except EvaluationError as exc:
        assert want == [f"error: {exc}"] * len(draws)
    else:
        assert [repr(v) for v in got] == want
    finally:
        numerics._WINDOW_PER_K, numerics._BLOCK_ELEMENTS = defaults


@pytest.mark.parametrize("n", [6, 40])
def test_window_is_k_wide_only_when_every_row_is_drawn_once(monkeypatch, n):
    """A whole set, or permutations of it, ask ``nearest_neighbors`` for k
    columns, what the set's own k-th neighbor needs; a block with one
    bootstrap draw asks for the wider lookup window, and its whole-set row
    equals the set's own radii."""
    widths = []
    nearest = numerics.nearest_neighbors

    def spy(data, width):
        widths.append(width)
        return nearest(data, width)
    monkeypatch.setattr(numerics, "nearest_neighbors", spy)
    rng = np.random.default_rng(n)
    data = rng.normal(size=(n, 4))
    k = 3
    whole = numerics.kth_neighbor_distances(data, k)
    permuted = numerics.kth_neighbor_distances(
        data, k, [rng.permutation(n), np.arange(n)])
    block = numerics.kth_neighbor_distances(
        data, k, [np.arange(n), rng.integers(0, n, size=n)])
    assert widths == [k, k, min(n - 1, numerics._WINDOW_PER_K * (k + 1))]
    assert whole.shape == (1, n)
    assert np.array_equal(permuted, np.vstack((whole, whole)))
    assert np.array_equal(block[0], whole[0])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@given(st.sampled_from(ADVERSARIAL_CASES), st.sampled_from([1, 16, 64]),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 5),
       st.sampled_from([1, 20, numerics._BLOCK_ELEMENTS]))
@settings(max_examples=150, deadline=None)
def test_ball_query_equals_unfiltered_comparison(case, d, seed, sets, block):
    """Each set of ``ball_query`` equals the difference formula's distances
    compared with every radius of that set, a NaN radius being no ball,
    and ``occupied`` their union over sets, on the sets that stress the
    Gram filter; the radii sit on, just inside or just outside pair
    distances, at zero, negative, with an overflowing square and
    non-finite."""
    real, synth = adversarial_sets(case, d, seed=seed % 1000)
    rng = np.random.default_rng(seed)
    distances = difference_distances(real, synth)
    picked = distances[rng.integers(0, len(real), size=(sets, len(synth))),
                       np.arange(len(synth))]
    radii = rng.choice([0.0, -1.0, 1e200, np.nan, np.inf], size=picked.shape)
    kind = rng.integers(0, 5, size=picked.shape)
    radii = np.where(kind == 1, picked, radii)
    radii = np.where(kind == 2, np.nextafter(picked, -np.inf), radii)
    radii = np.where(kind == 3, np.nextafter(picked, np.inf), radii)
    default_block = numerics._BLOCK_ELEMENTS
    numerics._BLOCK_ELEMENTS = block
    try:
        smallest, occupied = numerics.ball_query(real, synth, radii)
    finally:
        numerics._BLOCK_ELEMENTS = default_block
    assert smallest.shape == (sets, len(real))
    union = np.zeros(len(synth), dtype=bool)
    for got, r in zip(smallest, radii):
        inside = distances <= r
        want = np.where(inside, r, np.inf).min(axis=1)
        assert got.tobytes() == want.tobytes()
        union |= inside.any(axis=0)
    assert np.array_equal(occupied, union)
