"""Geometry and histogram utilities shared by the metric modules.

Everything here is exact (no approximate neighbor indexes) and deterministic;
randomized callers pass explicit seeds and record them.

Every distance's final bits come from one formula, ``_exact_distance``:
``sqrt(sum((a - b)**2))`` over the coordinate axis. ``pairwise_distances``
applies it to every pair. The kNN primitives (``nearest_neighbors``,
``ball_query``) apply it only to the pairs a Gram filter cannot decide
(Johnson, Douze & Jegou 2017, https://arxiv.org/abs/1702.08734):

- Filter: both sets are centred on the centers' mean, and one BLAS product
  per row block gives approximate squared distances
  ``q = |a|^2 + |b|^2 - 2 a.b`` (the norms ride along as two extra
  columns, so the product is the whole filter).
- Bound: ``|q - s| <= 8 (d + 4) (u (|a_i| + max|b|)^2 + eta)``, where ``s``
  is the exact formula's squared sum, ``u = 2**-53`` and ``eta = 2**-1074``.
  Summed to first order, the (d + 2)-term product (the dot-product bound of
  Higham 2002, *Accuracy and Stability of Numerical Algorithms*, 3.1), the
  norms, the centring and the formula's own rounding stay within
  ``(3d + 6) u (|a_i| + |b_j|)^2``; ``eta`` covers gradual underflow. The
  factor 8 leaves more than twice that, and the surplus, at least
  ``31 u (|a_i| + |b_j|)^2``, also covers the rounding of ``r * r`` and of
  the final square root when ``q`` is compared with a squared radius.
- Refine: a pair is recomputed exactly when the bound cannot order it: the
  neighbor window ``q <= q_w + 2 err`` of the w nearest rows, or ``q``
  within the bound of a squared ball radius. A non-finite ``q``, bound or
  squared radius always refines.

``nearest_neighbors`` gives each row's w nearest other rows, exact
distances ascending; ``kth_neighbor_distance`` reads column k - 1 of the
window of width k. A bootstrap replicate is a multiset of its pool's rows,
so ``resampled_kth_distances`` finds every replicate's k-th neighbor
distances by lookup in one window per pool: along each row's window, the
cumulative count of the replicate's draws of those rows reaches k at the
radius, and a row whose window runs out first reads its full distance row.
``ball_hits`` then decides every replicate's closed-ball membership from
one set of exact query-to-pool distances.

So the filter only chooses which pairs reach the exact formula, never a
result's bits: results do not depend on BLAS, its thread count or the block
size. ``_BLOCK_ELEMENTS`` is the one memory bound: it caps rows x m of a
Gram block and rows x m x d of a ``pairwise_distances`` difference block,
and the refine gathers at most that many coordinates at a time. It also
caps replicates x m x (w + 1) of the window lookups and replicates x rows x
m of the ``ball_hits`` comparison against a query-to-pool row block, so a
replicate block needs no m x m table. A stack of bootstrap row sets binned
together (``stacked_row_sets``) holds at most a sixteenth of it in its
pooled histogram sample.

The histograms of ``jensen_shannon_divergence`` and ``entropy_coverage``
come from one kernel, ``dimension_histograms``, that bins every (row set,
dimension) row of a stack in one pass with ``np.histogram``'s arithmetic;
a single set is the stack of one. A row whose pooled span or interquartile
range overflows float64 is flagged, and its set is undefined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError


_BLOCK_ELEMENTS = 1 << 20  # cap on the elements of any temporary block
FD_MIN_BINS, FD_MAX_BINS = 8, 64  # clamp of the Freedman-Diaconis bin count
SMOOTHING_MASS = 1e-12  # added to every histogram bin before a divergence
_U = 2.0 ** -53  # unit roundoff of float64
_ETA = 2.0 ** -1074  # smallest subnormal: absolute error of an underflow
_WINDOW_PER_K = 4  # window of resampled_kth_distances: rows per unit of k+1


def _quiet():
    """Overflow in the filter only sends pairs to the exact refine."""
    return np.errstate(over="ignore", invalid="ignore")


def _exact_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between ``a`` and ``b`` (broadcast) over the
    last axis, from explicit coordinate differences: the formula every
    distance here takes its bits from."""
    diff = np.subtract(a, b)
    np.multiply(diff, diff, out=diff)
    return np.sqrt(np.sum(diff, axis=-1))


def _distance_blocks(a: np.ndarray, b: np.ndarray):
    """Yield ``(start, stop, block)``: exact Euclidean distances from rows
    ``a[start:stop]`` to every row of ``b``; the block size bounds memory
    and changes no bit."""
    n_a, d = a.shape
    rows_per_block = max(1, _BLOCK_ELEMENTS // max(1, b.shape[0] * d))
    for start in range(0, n_a, rows_per_block):
        stop = min(start + rows_per_block, n_a)
        yield start, stop, _exact_distance(a[start:stop, None, :], b[None, :, :])


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance matrix between rows of ``a`` and ``b``."""
    out = np.empty((a.shape[0], b.shape[0]))
    for start, stop, block in _distance_blocks(a, b):
        out[start:stop] = block
    return out


class _GramFilter:
    """Approximate squared distances from ``query`` rows to ``centers``,
    in row blocks of at most ``_BLOCK_ELEMENTS`` entries, each with the
    per-row bound on its distance from the exact formula's squared sum."""

    def __init__(self, query: np.ndarray, centers: np.ndarray):
        self.query, self.centers = query, centers
        with _quiet():
            mean = centers.mean(axis=0)
            xq, xc = query - mean, centers - mean
            nq = np.einsum("ij,ij->i", xq, xq)
            nc = np.einsum("ij,ij->i", xc, xc)
            # q = [-2x, |x|^2, 1] . [y, 1, |y|^2]: the whole filter is one
            # product, and scaling by -2 is exact
            self._lhs = np.column_stack((-2.0 * xq, nq, np.ones(nq.size)))
            self._rhs = np.column_stack((xc, np.ones(nc.size), nc))
            reach = np.sqrt(nq) + np.sqrt(nc).max()
            self.bound = 8.0 * (query.shape[1] + 4) * (_U * (reach * reach)
                                                        + _ETA)

    def blocks(self):
        """Yield ``(start, stop, q)`` for query rows ``start:stop``."""
        n, m = self.query.shape[0], self.centers.shape[0]
        rows_per_block = max(1, _BLOCK_ELEMENTS // max(1, m))
        for start in range(0, n, rows_per_block):
            stop = min(start + rows_per_block, n)
            with _quiet():
                q = self._lhs[start:stop] @ self._rhs.T
            yield start, stop, q

    def refine(self, start: int, rows: np.ndarray, cols: np.ndarray):
        """Exact distances of the pairs (query row ``start + rows``, center
        ``cols``), gathered at most ``_BLOCK_ELEMENTS`` coordinates at a
        time."""
        out = np.empty(rows.size)
        step = max(1, _BLOCK_ELEMENTS // self.query.shape[1])
        for s in range(0, rows.size, step):
            out[s:s + step] = _exact_distance(
                self.query[start + rows[s:s + step]],
                self.centers[cols[s:s + step]])
        return out


def _check_k(n: int, k: int) -> None:
    if k < 1 or k > n - 1:
        raise EvaluationError(
            f"k={k} out of range: reference set supports at most k={n - 1} "
            "(self-match excluded)")


def nearest_neighbors(data: np.ndarray, width: int):
    """Each row's ``width`` nearest other rows, self excluded by index (a
    copied row is a neighbor at distance 0): ``(distances, indices)``,
    both ``(n, width)``, each row's exact distances ascending and ties in
    index order. Needs ``width <= n - 1``."""
    n = data.shape[0]
    gram = _GramFilter(data, data)
    distances = np.empty((n, width))
    indices = np.empty((n, width), dtype=np.intp)
    for start, stop, q in gram.blocks():
        own = (np.arange(stop - start), np.arange(start, stop))
        q[own] = np.inf
        q_w = np.partition(q, width - 1, axis=1)[:, width - 1]
        # every pair at or below the exact width-th distance has
        # q <= q_w + 2 err
        with _quiet():
            limit = q_w + 2.0 * gram.bound[start:stop]
        limit[~np.isfinite(limit)] = np.inf
        candidate = (q <= limit[:, None]) | ~np.isfinite(q)
        candidate[own] = False
        rows, cols = np.divmod(np.flatnonzero(candidate), n)
        exact = gram.refine(start, rows, cols)
        # rows come ascending, so each row's candidates keep their place
        order = np.lexsort((cols, exact, rows))
        first = np.searchsorted(rows, np.arange(stop - start))
        take = order[first[:, None] + np.arange(width)]
        distances[start:stop], indices[start:stop] = exact[take], cols[take]
    return distances, indices


def kth_neighbor_distance(data: np.ndarray, k: int) -> np.ndarray:
    """Each row's distance to its k-th nearest other row (self excluded by
    index, so a copied row is a neighbor at distance 0)."""
    _check_k(data.shape[0], k)
    return nearest_neighbors(data, k)[0][:, k - 1]


def resampled_kth_distances(data: np.ndarray, rows, k: int) -> np.ndarray:
    """``kth_neighbor_distance(data[r], k)`` for each index array ``r`` in
    ``rows`` (bootstrap draws of n = len(data) rows), by source row: entry
    (s, p) is the radius of every copy of row p in set s, NaN where set s
    does not draw p.

    A drawn row's radius is the k-th smallest of its distances to the pool
    rows, each counted as often as set s draws its row, and its own extra
    copies as zeros. Column 0 of the window is the row itself at distance
    0, then its ``_WINDOW_PER_K * (k + 1)`` nearest other rows; the radius
    is the first window distance where the cumulative draw counts reach k.
    Every row outside the window lies at least as far as the window's last
    entry, so that distance is the exact k-th one; a row whose window holds
    fewer than k drawn neighbors reads its full distance row instead."""
    n = data.shape[0]
    _check_k(n, k)
    distances, neighbors = nearest_neighbors(
        data, min(n - 1, _WINDOW_PER_K * (k + 1)))
    window = np.column_stack((np.zeros(n), distances))
    out = np.empty((len(rows), n))
    step = max(1, _BLOCK_ELEMENTS // window.size)
    for start in range(0, len(rows), step):
        drawn = np.stack(rows[start:start + step])
        sets = drawn.shape[0]
        counts = np.bincount((drawn + n * np.arange(sets)[:, None]).ravel(),
                             minlength=sets * n).reshape(sets, n)
        weights = np.concatenate((counts[:, :, None] - 1,
                                  counts[:, neighbors]), axis=2)
        reached = np.cumsum(weights, axis=2) >= k
        radii = window[np.arange(n), reached.argmax(axis=2)]
        _full_row_radii(data, counts, k, radii,
                        (counts > 0) & ~reached[:, :, -1])
        radii[counts == 0] = np.nan
        out[start:start + sets] = radii
    return out


def _full_row_radii(data, counts, k, radii, pending):
    """Fill ``radii[s, p]`` where ``pending`` from row p's full distance row,
    weighted by ``counts[s]`` as ``resampled_kth_distances`` weighs its
    window; the distance blocks bound the rows held at once."""
    sets, ps = np.nonzero(pending.T)[::-1]
    unique = np.unique(ps)
    for start, stop, block in _distance_blocks(data[unique], data):
        order = np.argsort(block, axis=1)
        for j, p in enumerate(unique[start:stop]):
            drawn = sets[ps == p]
            weights = counts[drawn]
            weights[:, p] -= 1
            reached = np.cumsum(weights[:, order[j]], axis=1) >= k
            radii[drawn, p] = block[j, order[j, reached.argmax(axis=1)]]


def ball_query(query: np.ndarray, centers: np.ndarray, radii: np.ndarray):
    """Closed-ball membership of ``query`` rows in balls ``(centers, radii)``.

    Returns ``(smallest, occupied)``: per query row, the smallest radius
    among the balls that contain it (inf when none does); per ball, whether
    any query row falls inside it.
    """
    gram = _GramFilter(query, centers)
    with _quiet():
        squared = radii * radii
    # q + err below ``lo`` is surely inside, q - err above ``hi`` surely
    # outside; a non-finite squared radius decides nothing, and a negative
    # radius is never surely inside
    finite = np.isfinite(squared)
    lo = np.where(finite & (radii >= 0), squared, -np.inf)
    hi = np.where(finite, squared, np.inf)
    smallest = np.empty(query.shape[0])
    occupied = np.zeros(centers.shape[0], dtype=bool)
    for start, stop, q in gram.blocks():
        err = gram.bound[start:stop, None]
        inside = q < lo - err
        undecided = ~(inside | (q > hi + err)) | ~np.isfinite(q)
        rows, cols = np.divmod(np.flatnonzero(undecided), centers.shape[0])
        inside[rows, cols] = gram.refine(start, rows, cols) <= radii[cols]
        smallest[start:stop] = np.where(inside, radii, np.inf).min(axis=1)
        occupied |= inside.any(axis=0)
    return smallest, occupied


def ball_hits(query: np.ndarray, centers: np.ndarray,
              radii: np.ndarray) -> np.ndarray:
    """Per row s of ``radii`` (sets, centers), whether each ``query`` row
    lies in a closed ball ``(centers[p], radii[s, p])`` of finite radius; a
    NaN radius is no ball. This is ``np.isfinite(smallest)`` of
    ``ball_query`` on the balls of each set, as ``(sets, n_query)``. The
    exact distances come in ``_distance_blocks``' row blocks, and each
    comparison of a block against a slice of the sets stays within
    ``_BLOCK_ELEMENTS``."""
    finite = np.where(np.isfinite(radii), radii, np.nan)
    out = np.empty((radii.shape[0], query.shape[0]), dtype=bool)
    for start, stop, block in _distance_blocks(query, centers):
        step = max(1, _BLOCK_ELEMENTS // block.size)
        for s in range(0, finite.shape[0], step):
            out[s:s + step, start:stop] = (
                block <= finite[s:s + step, None, :]).any(axis=2)
    return out


@dataclass(frozen=True)
class PcaBasis:
    mean: np.ndarray
    components: np.ndarray        # (target_dim, d), zero rows where padded
    explained_ratio: tuple[float, ...]
    padded: int                   # components added as zeros past the rank

    def transform(self, data: np.ndarray) -> np.ndarray:
        return (data - self.mean) @ self.components.T


def pca_fit(data: np.ndarray, target_dim: int) -> PcaBasis:
    """Principal-component basis of mean-centered ``data``.

    Sign convention: the largest-magnitude loading of each component is made
    positive (first occurrence wins on ties), so the basis is reproducible.
    Rank deficiency below ``target_dim`` pads with zero components.
    """
    data = np.asarray(data, dtype=np.float64)
    n, d = data.shape
    if not (1 <= target_dim <= d):
        raise EvaluationError(f"target_dim={target_dim} must be in [1, {d}]")
    mean = data.mean(axis=0)
    centered = data - mean
    cov = (centered.T @ centered) / max(n - 1, 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals, kind="stable")[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]

    total = float(eigvals.sum())
    rank_tol = max(total, 1.0) * 1e-12
    rank = int(np.sum(eigvals > rank_tol))

    components = np.zeros((target_dim, d))
    usable = min(target_dim, rank)
    for i in range(usable):
        vec = eigvecs[:, i]
        pivot = int(np.argmax(np.abs(vec)))
        if vec[pivot] < 0:
            vec = -vec
        components[i] = vec
    ratios = tuple(float(v / total) if total > 0 else 0.0
                   for v in eigvals[:target_dim])
    if len(ratios) < target_dim:
        ratios = ratios + (0.0,) * (target_dim - len(ratios))
    return PcaBasis(mean=mean, components=components,
                    explained_ratio=ratios, padded=target_dim - usable)


def w1_distance_1d(x: np.ndarray, y: np.ndarray) -> float:
    """1-D Wasserstein-1 distance between two empirical distributions.

    Merged-CDF formulation, exact for unequal sample counts: integrate
    |F_x - F_y| over the pooled support.
    """
    x = np.sort(np.asarray(x, dtype=np.float64))
    y = np.sort(np.asarray(y, dtype=np.float64))
    if x.size == 0 or y.size == 0:
        raise EvaluationError("empty sample in 1-D transport distance")
    pooled = np.concatenate([x, y])
    pooled.sort(kind="stable")
    deltas = np.diff(pooled)
    cdf_x = np.searchsorted(x, pooled[:-1], side="right") / x.size
    cdf_y = np.searchsorted(y, pooled[:-1], side="right") / y.size
    return float(np.sum(np.abs(cdf_x - cdf_y) * deltas))


def stacked_row_sets(data: np.ndarray, rows=None, shared: int = 0):
    """Yield ``(sets, n, d)`` stacks of the row sets ``data[r]``, one per
    index array ``r`` in ``rows`` (all of one length n), or ``data`` itself
    as one set when ``rows`` is None. A stack holds as many sets as keep
    its pooled histogram sample, with ``shared`` more rows per set, within
    ``_BLOCK_ELEMENTS // 16`` elements (the histogram kernel holds several
    temporaries of that size), and at least one."""
    if rows is None:
        yield data[None]
        return
    per_set = (len(rows[0]) + shared) * data.shape[1]
    step = max(1, (_BLOCK_ELEMENTS // 16) // max(1, per_set))
    for start in range(0, len(rows), step):
        yield data[np.stack(rows[start:start + step])]


def _sorted_quantile(ordered: np.ndarray, q: float) -> np.ndarray:
    """The q-quantile of each row of ``ordered``, whose rows are sorted
    ascending: ``np.percentile(ordered, 100 * q, axis=1)`` by its "linear"
    method, read from the two order statistics around the virtual index
    (n - 1) q with numpy's interpolation arithmetic, so without the
    partition numpy would run on rows already in order. A zero may come
    out with the other sign."""
    n = ordered.shape[1]
    virtual = (n - 1) * q
    below = math.floor(virtual)
    if below >= n - 1:
        return ordered[:, -1].copy()
    a, b = ordered[:, below], ordered[:, below + 1]
    t = virtual - below
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def dimension_histograms(samples, bins: int | None = None):
    """Histogram masses per row set and dimension, on the pooled range.

    ``samples`` are stacks shaped ``(sets, n_i, d)``; a stack of one set is
    shared by every set of the others. Row (s, j) of the kernel pools
    dimension j of set s of every sample, and each row is counted as
    ``np.histogram(values, b, range=(lo, hi))`` counts it, pooled min and
    max as the range: edges by ``np.linspace``'s arithmetic, bin indices by
    ``np.histogram``'s, with its correction against the edges, so bins are
    ``[e_i, e_i+1)`` and the last bin is closed. The bin count b is
    ``bins``, else the Freedman-Diaconis rule on the pooled values, clamped
    to ``[FD_MIN_BINS, FD_MAX_BINS]``. Returns ``(masses, bin_counts)``:
    one ``(sets, d, B)`` mass array per sample, B the largest bin count,
    zero past each row's own count; and the ``(sets, d)`` bin counts, 0
    where the pooled values are constant and -1 where their span or
    interquartile range overflows float64 (all masses 0 in both cases).
    """
    if bins is not None and bins < 1:
        raise EvaluationError(f"bins={bins} must be at least 1")
    sets = max(s.shape[0] for s in samples)
    d = samples[0].shape[2]
    sizes = [s.shape[1] for s in samples]
    pooled = np.concatenate([np.broadcast_to(
        s.transpose(0, 2, 1), (sets, d, n)) for s, n in zip(samples, sizes)],
        axis=2).reshape(sets * d, sum(sizes))
    # sorted rows give the range, and make the quartiles' selection cheap
    ordered = np.sort(pooled, axis=1)
    lo, hi = ordered[:, 0], ordered[:, -1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        span = hi - lo
        overflow = ~np.isfinite(span)
        if bins is None:
            q75, q25 = (_sorted_quantile(ordered, q) for q in (0.75, 0.25))
            iqr = q75 - q25
            overflow |= ~np.isfinite(iqr)
            width = 2.0 * iqr * pooled.shape[1] ** (-1.0 / 3.0)
            fd = np.clip(np.ceil(span / width), FD_MIN_BINS, FD_MAX_BINS)
            counts = np.where((iqr > 0) & ~overflow, fd, FD_MIN_BINS
                              ).astype(np.intp)
        else:
            counts = np.full(lo.shape, bins, dtype=np.intp)
    # an overflowed row is binned as a constant one, then flagged
    counts[(lo == hi) | overflow] = 0
    rows, top = counts.size, int(counts.max())
    slots = max(top, 1)  # constant rows count into one bin, then drop it
    b = np.maximum(counts, 1)[:, None]
    # np.linspace(lo, hi, b + 1): arange x step + lo, or, where the step
    # underflows to 0, arange / b x delta + lo; the last edge is hi
    delta = np.where(counts > 0, span, 1.0)[:, None]
    steps = np.arange(slots + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        step = delta / b
        edges = np.where(step == 0, steps / b * delta, steps * step)
        edges += lo[:, None]
        edges[np.arange(rows), b[:, 0]] = hi
        index = ((pooled - lo[:, None]) / delta * b).astype(np.intp)
    # np.histogram's bin index: a value on the last edge goes to the last
    # bin, then one bin down or up where the quotient missed the edges (the
    # clip only acts on the flagged rows, where hi - lo overflowed); indices
    # run over the flat edges, so that bin i of row r is r * (slots + 1) + i
    np.clip(index, 0, b, out=index)
    index[index == b] -= 1
    first = (np.arange(rows) * (slots + 1))[:, None]
    index += first
    flat = edges.ravel()
    index -= pooled < flat[index]
    index += (pooled >= flat[index + 1]) & (index != first + b - 1)
    # one bincount: sample k's bins follow those of the samples before it
    index += np.repeat(np.arange(len(samples)) * edges.size, sizes)
    tallies = np.bincount(index.ravel(), minlength=len(samples) * edges.size
                          ).reshape(len(samples), rows, slots + 1)
    tallies = tallies[:, :, :top]
    tallies[:, counts == 0] = 0
    masses = tuple((t / n).reshape(sets, d, top)
                   for t, n in zip(tallies, sizes))
    counts[overflow] = -1
    return masses, counts.reshape(sets, d)


def _by_length(lengths: np.ndarray):
    """Yield ``(length, rows)`` for each positive length in ``lengths``,
    ``rows`` the mask of the rows that have it."""
    for length in np.unique(lengths[lengths > 0]):
        yield int(length), lengths == length


def jsd_rows(p: np.ndarray, q: np.ndarray, bin_counts: np.ndarray):
    """``jsd_masses(p[..., :b], q[..., :b])`` of each row, b its entry of
    ``bin_counts``, and 0.0 where that is 0. Rows that share a bin count
    reduce together as one (rows, b) matrix along its contiguous last
    axis, so each sum rounds as ``jsd_masses``'s own."""
    p = p.reshape(bin_counts.size, -1)
    q = q.reshape(bin_counts.size, -1)
    out = np.zeros(bin_counts.size)
    for b, rows in _by_length(bin_counts.ravel()):
        sp = p[rows, :b] + SMOOTHING_MASS
        sp /= sp.sum(axis=1, keepdims=True)
        sq = q[rows, :b] + SMOOTHING_MASS
        sq /= sq.sum(axis=1, keepdims=True)
        m = 0.5 * (sp + sq)
        out[rows] = (0.5 * np.sum(sp * np.log2(sp / m), axis=1)
                     + 0.5 * np.sum(sq * np.log2(sq / m), axis=1))
    return out.reshape(bin_counts.shape)


def entropy_rows(p: np.ndarray, bin_counts: np.ndarray):
    """``shannon_entropy`` of each row of masses, shaped as ``bin_counts``;
    0.0 for a constant dimension, whose masses are all 0. Rows with the
    same number of nonzero masses reduce together as one matrix of those
    masses, in order, so each sum rounds as ``shannon_entropy``'s own."""
    p = p.reshape(bin_counts.size, -1)
    nonzero = p > 0
    lengths = nonzero.sum(axis=1)
    out = np.zeros(bin_counts.size)
    for k, rows in _by_length(lengths):
        nz = p[rows][nonzero[rows]].reshape(-1, k)
        out[rows] = -np.sum(nz * np.log(nz), axis=1)
    return out.reshape(bin_counts.shape)


def dimension_means(values: np.ndarray, bin_counts: np.ndarray,
                    with_bins: bool):
    """(value, diagnostics) of each set's row of per-dimension ``values``:
    their mean, the values, with ``with_bins`` the bin counts, and the
    constant dimensions (bin count 0) when there are any. A set with a
    dimension whose pooled spread overflows (bin count -1) is undefined."""
    out = []
    for row, counts in zip(values, bin_counts):
        overflow = np.flatnonzero(counts < 0).tolist()
        if overflow:
            out.append((None, {"undefined_reason": "pooled range overflows "
                                                   "float64 in dimensions "
                                                   f"{overflow}"}))
            continue
        diagnostics = {"per_dimension": row.tolist()}
        if with_bins:
            diagnostics["bins"] = counts.tolist()
        constant = np.flatnonzero(counts == 0).tolist()
        if constant:
            diagnostics["constant_dimensions"] = constant
        out.append((float(np.mean(row)), diagnostics))
    return out


def smooth_masses(p: np.ndarray) -> np.ndarray:
    """Add ``SMOOTHING_MASS`` to every bin, then renormalize."""
    p = p + SMOOTHING_MASS
    return p / p.sum()


def jsd_masses(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence between two mass vectors, base-2 logs.

    Bounded by 1; zero exactly when the inputs match. Empty bins receive
    ``SMOOTHING_MASS`` before renormalization.
    """
    p = smooth_masses(np.asarray(p, dtype=np.float64))
    q = smooth_masses(np.asarray(q, dtype=np.float64))
    m = 0.5 * (p + q)
    kl_pm = float(np.sum(p * np.log2(p / m)))
    kl_qm = float(np.sum(q * np.log2(q / m)))
    return 0.5 * kl_pm + 0.5 * kl_qm


def shannon_entropy(p: np.ndarray) -> float:
    """Entropy of a mass vector in nats; zero-mass bins contribute nothing."""
    p = np.asarray(p, dtype=np.float64)
    nz = p[p > 0]
    return float(-np.sum(nz * np.log(nz)))
