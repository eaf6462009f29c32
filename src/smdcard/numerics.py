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
- Refine: both kernels recompute exactly the pairs with ``~(q > limit)``,
  those the bound cannot place beyond the limit: ``q_w + 2 err`` for the
  neighbor window of the w nearest rows, ``q_w`` the row's w-th smallest
  ``q``, and, for a ball, its center's largest squared radius plus the
  bound. So a NaN ``q`` and a NaN or +inf limit always refine. A +inf
  ``q`` needs the positive terms P of the product to pass the largest
  double, and P <= (|a_i| + |b_j|)^2 <= reach^2, reach = |a_i| + max|b|.
  If reach^2 overflows, the bound is inf and the pair is refined anyway.
  Otherwise the negative terms are at most reach^2 - P, so the pair's
  exact squared distance is within rounding of the largest double, and
  any ball or window that could hold it has a limit that overflows to
  inf. A -inf ``q`` needs the negative terms, at most 2 |a_i| |b_j|, to
  pass the largest double, so reach^2 overflows and its limit is inf or
  NaN.

``nearest_neighbors`` gives each row's w nearest other rows, exact
distances ascending. Every k-th neighbor radius comes from one kernel,
``kth_neighbor_distances``, for a set itself or for each bootstrap
replicate of a pool, a multiset of its rows: it walks one window per pool
column by column, adding each column's draw counts to (sets, rows) running
counts, and a row's radius is the column where its count reaches k; the
walk stops once every drawn row has its radius, and a row whose window
runs out first reads its full distance row. The window is k wide when
every set draws each row once, as a set itself does, and
``_WINDOW_PER_K * (k + 1)`` wide otherwise. ``ball_query`` decides
closed-ball membership for one set of radii or a whole replicate block
through one Gram filter: a pair lying outside its center's largest ball is
outside every set's ball, and only the other pairs take an exact distance,
compared with each set's radius.

So the filter only chooses which pairs reach the exact formula, never a
result's bits: results do not depend on BLAS, its thread count or the block
size. ``_BLOCK_ELEMENTS`` is the one memory bound: it caps rows x m of a
Gram block and rows x m x d of a ``pairwise_distances`` difference block,
and the refine gathers at most that many coordinates at a time. It also
caps replicates x m of the window walk's running counts and sets x
candidate pairs of the ``ball_query`` comparison, so a replicate block
needs no m x m table. It caps replicates x d x (N + B) of a histogram
slice too, N the pooled rows and B the most bins a row can take.

The histograms of ``jensen_shannon_divergence`` and ``entropy_coverage``
come from one kernel, ``dimension_histograms``, that gives every
(replicate, dimension) row ``np.histogram``'s counts. A bootstrap
replicate is its draw counts (``draw_counts``), and a single set draws
each row once: each dimension of the pooled rows is sorted once per call,
a set's range and Freedman-Diaconis quartiles are order statistics read
by bisection over its running draw counts, and its bin tallies are
running counts at its edges, placed in the sorted columns by
``searchsorted``. Where that could differ from ``np.histogram``'s
quotient-then-correct index (subnormal or few-ulp bin steps, repeated
edges), a row takes that index for each sorted value instead. A row
whose pooled span or interquartile range overflows float64 is flagged,
and its set is undefined.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError


_BLOCK_ELEMENTS = 1 << 20  # cap on the elements of any temporary block
FD_MIN_BINS, FD_MAX_BINS = 8, 64  # clamp of the Freedman-Diaconis bin count
SMOOTHING_MASS = 1e-12  # added to every histogram bin before a divergence
_U = 2.0 ** -53  # unit roundoff of float64
_ETA = 2.0 ** -1074  # smallest subnormal: absolute error of an underflow
_WINDOW_PER_K = 4  # radius window of drawn sets: rows per unit of k+1


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
            candidate = ~(q > (q_w + 2.0 * gram.bound[start:stop])[:, None])
        candidate[own] = False
        rows, cols = np.divmod(np.flatnonzero(candidate), n)
        exact = gram.refine(start, rows, cols)
        # rows come ascending, so each row's candidates keep their place;
        # within a row ``flatnonzero`` gives the columns ascending and
        # lexsort is stable, so ties stay in index order without a cols key
        order = np.lexsort((exact, rows))
        first = np.searchsorted(rows, np.arange(stop - start))
        take = order[first[:, None] + np.arange(width)]
        distances[start:stop], indices[start:stop] = exact[take], cols[take]
    return distances, indices


def kth_neighbor_distances(data: np.ndarray, k: int, rows=None) -> np.ndarray:
    """Each row's distance to its k-th nearest other row, in the set itself
    (``rows`` None) or in ``data[r]`` for each index array ``r`` in ``rows``
    (draws of one length m <= n = len(data)): ``(sets, n)`` by source row,
    entry (s, p) the radius of every copy of row p in set s, NaN where set s
    does not draw p. A copied row is a neighbor at distance 0.

    A drawn row's radius is the k-th smallest of its distances to the pool
    rows, each counted as often as set s draws its row, and its own extra
    copies as zeros: the first window distance where the running draw
    counts reach k. The window is the row's k nearest other rows when every
    set draws each row exactly once, else its ``_WINDOW_PER_K * (k + 1)``
    nearest. It is walked column by column over (sets, n) running counts,
    and the walk stops once every drawn row has reached k. Every row
    outside the window lies at least as far as the window's last entry, so
    that distance is the exact k-th one; a row whose window holds fewer
    than k drawn neighbors reads its full distance row instead, which only
    a walk that ends with rows pending pays for."""
    n = data.shape[0]
    # the set itself is the draw of every row once
    counts = draw_counts([np.arange(n)] if rows is None else rows, n)
    _check_k(int(counts[0].sum()), k)
    once = (counts == 1).all()
    distances, neighbors = nearest_neighbors(
        data, k if once else min(n - 1, _WINDOW_PER_K * (k + 1)))
    out = np.empty(counts.shape)
    step = max(1, _BLOCK_ELEMENTS // n)
    for start in range(0, counts.shape[0], step):
        drawn = counts[start:start + step]
        running = drawn - 1
        radii = np.where(running >= k, 0.0, np.nan)
        pending = (drawn > 0) & (running < k)
        for j in range(neighbors.shape[1]):
            running += drawn[:, neighbors[:, j]]
            reached = pending & (running >= k)
            np.copyto(radii, distances[:, j], where=reached)
            pending &= ~reached
            if not pending.any():
                break
        else:
            _full_row_radii(data, drawn, k, radii, pending)
        out[start:start + drawn.shape[0]] = radii
    return out


def _full_row_radii(data, counts, k, radii, pending):
    """Fill ``radii[s, p]`` where ``pending`` from row p's full distance row,
    weighted by ``counts[s]`` as ``kth_neighbor_distances`` weighs its
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
    """Closed-ball membership of ``query`` rows in the balls ``(centers[p],
    radii[s, p])`` of each set s, ``radii`` being ``(sets, centers)``; a NaN
    radius is no ball.

    Returns ``(smallest, occupied)``: ``(sets, n_query)``, the smallest
    radius of set s among the balls that contain each query row (inf when
    none does); and ``(centers,)``, whether any set's ball at that center
    contains a query row.

    One Gram filter serves every set: a pair whose ``q`` lies more than the
    bound above its center's largest squared radius is outside every ball,
    and every other pair (a non-finite ``q``, bound or squared radius
    included) takes its exact distance, compared with each set's radius in
    slices that keep sets x candidates within ``_BLOCK_ELEMENTS``."""
    with _quiet():
        top = np.fmax.reduce(radii, axis=0, initial=-np.inf)
        hi = np.where(top >= 0, top * top, -np.inf)
    gram = _GramFilter(query, centers)
    smallest = np.full((radii.shape[0], query.shape[0]), np.inf)
    occupied = np.zeros(centers.shape[0], dtype=bool)
    for start, stop, q in gram.blocks():
        with _quiet():
            candidate = ~(q > hi + gram.bound[start:stop, None])
        rows, cols = np.divmod(np.flatnonzero(candidate), centers.shape[0])
        exact = gram.refine(start, rows, cols)
        # a pair lies in some set's ball exactly when in its largest one
        occupied[cols[exact <= top[cols]]] = True
        # rows come ascending: each query row's candidates are one run
        first = np.flatnonzero(np.diff(rows, prepend=-1))
        step = max(1, _BLOCK_ELEMENTS // max(1, rows.size))
        for s in range(0, radii.shape[0], step):
            held = radii[s:s + step, cols]
            smallest[s:s + step, start + rows[first]] = np.minimum.reduceat(
                np.where(exact <= held, held, np.inf), first, axis=1)
        # free this block's pairs before the next block's product
        del rows, cols, exact, held
    return smallest, occupied


def unit_scaled(*arrays: np.ndarray) -> tuple[int, list[np.ndarray]]:
    """(e, ``arrays`` times 2^-e), e >= 0 the least that brings every
    |coordinate| below 1: a kernel on the scaled rows, exact in float64,
    overflows only where its result, ``scaled_back``, does."""
    top = max(float(np.abs(a).max(initial=0.0)) for a in arrays)
    e = max(0, math.frexp(top)[1])
    return e, [np.ldexp(a, -e) for a in arrays]


def scaled_back(value: float, exponent: int) -> float:
    """``value`` times 2^exponent, an infinity where that overflows."""
    try:
        return math.ldexp(value, exponent)
    except OverflowError:
        return math.copysign(math.inf, value)


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
    Rank deficiency below ``target_dim`` pads with zero components; an
    eigenvalue at most 1e-12 of the covariance's trace counts as zero, so
    the rank is the same in any units.
    """
    data = np.asarray(data, dtype=np.float64)
    n, d = data.shape
    if not (1 <= target_dim <= d):
        raise EvaluationError(f"target_dim={target_dim} must be in [1, {d}]")
    mean = data.mean(axis=0)
    _, (centered,) = unit_scaled(data - mean)  # the covariance times 2^-2e
    cov = (centered.T @ centered) / max(n - 1, 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals, kind="stable")[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]

    total = float(eigvals.sum())
    rank = int(np.sum(eigvals > total * 1e-12))

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


def draw_counts(rows, n: int) -> np.ndarray:
    """``(sets, n)``: how often each index array of ``rows`` (all of one
    length) draws each of n rows. A bootstrap replicate is the multiset it
    draws, so these counts describe it fully."""
    drawn = np.stack(rows)
    sets = drawn.shape[0]
    return np.bincount((drawn + n * np.arange(sets)[:, None]).ravel(),
                       minlength=sets * n).reshape(sets, n)


def _linear_quantile(order_statistic, n: int, q: float) -> np.ndarray:
    """The q-quantile of n values whose k-th smallest (0-based) is
    ``order_statistic(k)``: ``np.percentile(values, 100 * q)`` by its
    "linear" method, from the two order statistics around the virtual
    index (n - 1) q with numpy's interpolation arithmetic, so without the
    partition numpy would run. A zero may come out with the other sign."""
    virtual = (n - 1) * q
    below = math.floor(virtual)
    if below >= n - 1:
        return order_statistic(n - 1)
    a, b = order_statistic(below), order_statistic(below + 1)
    t = virtual - below
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _running_counts(counts: np.ndarray, order: np.ndarray,
                    total: int) -> np.ndarray:
    """The running sums of ``counts`` (sets, n) along the sorted columns
    ``order`` (d, n), flattened after a leading 0, row (s, j) r = s d + j:
    row r's first p sorted values weigh ``out[r n + p] - r total``, each row
    of ``counts`` summing to ``total``, and ``out`` never falls, so one
    ``searchsorted`` finds a weight in every row."""
    sets, (d, n) = counts.shape[0], order.shape
    out = np.empty(sets * d * n + 1, dtype=np.intp)
    out[0] = 0
    body = out[1:].reshape(sets, d, n)
    # mode "clip" writes straight into out; every index is in range
    np.take(counts, order, axis=1, out=body, mode="clip")
    body[:, :, 0] += (np.arange(sets * d) * total).reshape(sets, d)
    np.cumsum(body, axis=2, out=body)
    return out


def dimension_histograms(samples, bins: int | None = None):
    """Histogram masses per replicate and dimension, on the pooled range.

    ``samples`` are ``(rows, counts)`` pairs: ``rows`` an ``(n_i, d)``
    array, and ``counts`` None for each row once, else ``(sets, n_i)`` draw
    counts (``draw_counts``), one bootstrap replicate per set and every set
    of one total. Row (s, j) pools dimension j of every sample, each row
    weighted by its count in set s (a sample without counts is shared by
    every set), and is counted as ``np.histogram(values, b, range=(lo,
    hi))`` counts it, pooled min and max as the range: edges by
    ``np.linspace``'s arithmetic, bins ``[e_i, e_i+1)`` and the last bin
    closed. The bin count b is ``bins``, else the Freedman-Diaconis rule
    on the pooled values, clamped to ``[FD_MIN_BINS, FD_MAX_BINS]``.
    Returns ``(masses, bin_counts)``: one ``(sets, d, B)`` mass array per
    sample, B the largest bin count, zero past each row's own count; and
    the ``(sets, d)`` bin counts, 0 where the pooled values are constant
    and -1 where their span or interquartile range overflows float64 (all
    masses 0 in both cases).

    Each column of the pooled rows is sorted once, and every set, a single
    one too, is only its counts along the sorted columns
    (``_drawn_histograms``), in slices of sets that keep every temporary
    within ``_BLOCK_ELEMENTS``.
    """
    if bins is not None and bins < 1:
        raise EvaluationError(f"bins={bins} must be at least 1")
    columns = np.concatenate([rows.T for rows, _ in samples], axis=1)
    d, n = columns.shape
    bounds = list(itertools.accumulate((rows.shape[0] for rows, _ in samples),
                                       initial=0))
    totals = [last - first if counts is None else int(counts[0].sum())
              for (_, counts), first, last
              in zip(samples, bounds, bounds[1:])]
    # the order of equal values changes no count, range or quartile
    order = np.argsort(columns, axis=1)
    support = columns[np.arange(d)[:, None], order]
    sets = max(1 if counts is None else counts.shape[0]
               for _, counts in samples)
    slots = FD_MAX_BINS if bins is None else bins
    step = max(1, _BLOCK_ELEMENTS // (d * (n + slots + 2)))
    parts = []
    for start in range(0, sets, step):
        stop = min(start + step, sets)
        own = []
        for (_, counts), first, last in zip(samples, bounds, bounds[1:]):
            weights = np.zeros((1 if counts is None else stop - start, n),
                               dtype=np.intp)
            weights[:, first:last] = (1 if counts is None
                                      else counts[start:stop])
            own.append(weights)
        parts.append(_drawn_histograms(support, order, own, totals, bins))
    bin_counts = np.concatenate([counts for _, counts in parts])
    top = max(int(bin_counts.max()), 0)
    masses = tuple(np.zeros((bin_counts.shape[0], d, top)) for _ in samples)
    start = 0
    for tallies, counts in parts:
        stop = start + counts.shape[0]
        for out, tally, total in zip(masses, tallies, totals):
            out[start:stop, :, :tally.shape[2]] = tally[..., :top] / total
        start = stop
    return masses, bin_counts


def _bin_edges(order_statistic, total: int, bins: int | None):
    """``(counts, overflow, lo, delta, edges)`` of the rows whose k-th
    smallest pooled value (0-based) is ``order_statistic(k)``, of
    ``total``: bin counts (0 for a constant or overflowed row), the rows
    whose span or interquartile range overflows, the range start and span
    (1.0 where unbinned), and ``np.linspace(lo, hi, b + 1)``'s edges, b
    the bin count or 1, padded to one width."""
    lo, hi = order_statistic(0), order_statistic(total - 1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        span = hi - lo
        overflow = ~np.isfinite(span)
        if bins is None:
            q75, q25 = (_linear_quantile(order_statistic, total, q)
                        for q in (0.75, 0.25))
            iqr = q75 - q25
            overflow |= ~np.isfinite(iqr)
            width = 2.0 * iqr * total ** (-1.0 / 3.0)
            fd = np.clip(np.ceil(span / width), FD_MIN_BINS, FD_MAX_BINS)
            counts = np.where((iqr > 0) & ~overflow, fd, FD_MIN_BINS
                              ).astype(np.intp)
        else:
            counts = np.full(lo.shape, bins, dtype=np.intp)
    # an overflowed row is binned as a constant one, then flagged
    counts[(lo == hi) | overflow] = 0
    slots = max(int(counts.max()), 1)
    b = np.maximum(counts, 1)[:, None]
    # np.linspace(lo, hi, b + 1): arange x step + lo, or, where the step
    # underflows to 0, arange / b x delta + lo; the last edge is hi
    delta = np.where(counts > 0, span, 1.0)[:, None]
    steps = np.arange(slots + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        step = delta / b
        edges = np.where(step == 0, steps / b * delta, steps * step)
        edges += lo[:, None]
        edges[np.arange(lo.size), b[:, 0]] = hi
    return counts, overflow, lo, delta, edges


def _quotient_index(x, lo, delta, b, edges):
    """``np.histogram``'s bin index of each value of ``x`` (rows, m), as an
    index into ``edges.ravel()``, so that bin i of row r is r (B + 1) + i:
    the quotient ``(x - lo) / delta * b``, a value on the last edge in the
    last bin, then one bin down or up where the quotient missed the edges.
    A value outside [lo, hi], which has no weight where it occurs, is only
    kept inside its row."""
    with np.errstate(over="ignore", invalid="ignore"):
        index = ((x - lo[:, None]) / delta * b).astype(np.intp)
    np.clip(index, 0, b, out=index)
    index[index == b] -= 1
    first = (np.arange(x.shape[0]) * edges.shape[1])[:, None]
    index += first
    flat = edges.ravel()
    index -= x < flat[index]
    index += (x >= flat[index + 1]) & (index != first + b - 1)
    np.clip(index, first, first + b - 1, out=index)
    return index


def _drawn_histograms(support, order, own, totals, bins):
    """Per sample, the ``(sets, d, B)`` tallies of a slice of sets, and
    their ``(sets, d)`` bin counts, unbinned rows emptied and overflowed
    ones flagged -1: ``order`` (d, N) sorts each column of the pooled rows
    into ``support``, and ``own[i]`` holds sample i's counts of the pooled
    rows in each set, zero outside its own rows (one shared row where it
    counts each row once), ``totals[i]`` their sum.

    lo, hi and the Freedman-Diaconis quartiles are order statistics of the
    weighted pooled values, read by bisection over their running counts.
    Each bin's tally is the count below its upper edge less that below its
    lower edge, each edge placed in its sorted column by ``searchsorted``.
    That is ``np.histogram``'s count wherever its quotient index
    ``(x - lo) / (hi - lo) * b`` lands within one bin of the right one,
    which it then corrects against the edges. The edges' rounding stays
    below 8 u max(|lo|, |hi|) (u = 2**-53), so the quotient does land there
    wherever the bin step exceeds 2**40 ulps of max(|lo|, |hi|) and is at
    least 2**-1000 (no gradual underflow), and the edges rise. A row that
    fails one of these takes ``_quotient_index`` for each of its sorted
    values, tallied with the same counts by ``np.bincount``."""
    sets = max(weights.shape[0] for weights in own)
    d, n = order.shape
    rows = sets * d
    total = sum(totals)
    dims = np.tile(np.arange(d), sets)
    base = np.arange(rows) * n
    pooled = _running_counts(sum(own), order, total)
    # the ranks of lo, hi and the values around each quartile, all found by
    # one bisection: the first position where a row's running count passes
    ranks = sorted({min(math.floor((total - 1) * q) + i, total - 1)
                    for q in (0.0, 0.25, 0.75, 1.0) for i in (0, 1)})
    at = np.searchsorted(pooled, (np.arange(rows) * total)[:, None] + ranks,
                         side="right") - 1 - base[:, None]
    counts, overflow, lo, delta, edges = _bin_edges(
        dict(zip(ranks, support[dims[:, None], at].T)).get, total, bins)
    slots = edges.shape[1] - 1
    b = np.maximum(counts, 1)[:, None]
    steps = np.arange(slots + 1)
    hi = edges[np.arange(rows), b[:, 0]]
    with np.errstate(over="ignore", invalid="ignore"):
        step = delta[:, 0] / b[:, 0]
        rising = ((np.diff(edges, axis=1) > 0) | (steps[1:] > b)).all(axis=1)
        reach = np.maximum(np.abs(lo), np.abs(hi))
        searched = (rising & (step >= 2.0 ** -1000)
                    & (step > 2.0 ** 40 * np.spacing(reach)))
    # sorted position of each edge; the edges from b on take every value,
    # so the last bin is closed and the bins past it are empty
    at = np.empty((sets, d, slots + 1), dtype=np.intp)
    for j in range(d):
        at[:, j] = support[j].searchsorted(edges[j::d])
    at = at.reshape(rows, slots + 1)
    at[steps >= b] = n
    # each sample's tally but the last's, which is the pooled one less them
    rest = np.diff(pooled[at + base[:, None]], axis=1)
    tallies = []
    for weights, weight in zip(own[:-1], totals):
        # a shared sample's running counts have one row per dimension
        mine = dims if weights.shape[0] == 1 else np.arange(rows)
        below = _running_counts(weights, order, weight)[
            at + (mine * n)[:, None]]
        tallies.append(np.diff(below, axis=1))
        rest -= tallies[-1]
    tallies.append(rest)
    quotient = np.flatnonzero((counts > 0) & ~searched)
    if quotient.size:
        index = _quotient_index(support[dims[quotient]], lo[quotient],
                                delta[quotient], b[quotient],
                                edges[quotient])
        sorted_rows = order[dims[quotient]]
        for tally, weights in zip(tallies, own):
            drawn = weights[(quotient // d % weights.shape[0])[:, None],
                            sorted_rows]
            tally[quotient] = np.bincount(
                index.ravel(), drawn.ravel(), quotient.size * (slots + 1)
            ).reshape(quotient.size, slots + 1)[:, :-1]
    for tally in tallies:
        tally[counts == 0] = 0
    counts[overflow] = -1
    return ([t.reshape(sets, d, slots) for t in tallies],
            counts.reshape(sets, d))


def _by_length(lengths: np.ndarray):
    """``(order, runs)``: ``order`` sorts the rows by ``lengths``, stably,
    and ``runs`` holds ``(length, start, stop)`` for each positive length,
    its rows being ``order[start:stop]``."""
    order = np.argsort(lengths, kind="stable")
    ordered = lengths[order]
    cuts = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist(),
            ordered.size]
    return order, [(int(ordered[start]), start, stop)
                   for start, stop in zip(cuts, cuts[1:])
                   if start < stop and ordered[start] > 0]


def jsd_rows(p: np.ndarray, q: np.ndarray, bin_counts: np.ndarray):
    """``jsd_masses(p[..., :b], q[..., :b])`` of each row, b its entry of
    ``bin_counts``, and 0.0 where that is 0. p and q are stacked as one
    (rows, 2, B) array sorted by bin count, so the rows that share a bin
    count are smoothed and reduced together as one (rows, 2, b) block,
    each sum along its contiguous last axis rounding as ``jsd_masses``'s
    own."""
    lengths = bin_counts.ravel()
    order, runs = _by_length(lengths)
    pq = np.stack((p.reshape(lengths.size, -1), q.reshape(lengths.size, -1)),
                  axis=1)[order]
    out = np.zeros(lengths.size)
    for b, start, stop in runs:
        smooth = pq[start:stop, :, :b] + SMOOTHING_MASS
        smooth /= smooth.sum(axis=2, keepdims=True)
        m = smooth[:, 0] + smooth[:, 1]
        m *= 0.5
        terms = smooth / m[:, None]
        np.log2(terms, out=terms)
        terms *= smooth
        half = 0.5 * terms.sum(axis=2)
        out[order[start:stop]] = half[:, 0] + half[:, 1]
    return out.reshape(bin_counts.shape)


def entropy_rows(p: np.ndarray, bin_counts: np.ndarray):
    """``shannon_entropy`` of each row of masses, shaped as ``bin_counts``;
    0.0 for a constant dimension, whose masses are all 0. The rows are
    sorted by their number of nonzero masses, so the rows with k of them
    hold one run of k-wide rows of the nonzero masses, in order; each
    term is taken once for all rows, and each run's sums round as
    ``shannon_entropy``'s own."""
    p = p.reshape(bin_counts.size, -1)
    order, runs = _by_length((p > 0).sum(axis=1))
    ordered = p[order]
    masses = ordered[ordered > 0]
    terms = np.log(masses)
    terms *= masses
    out = np.zeros(bin_counts.size)
    at = 0
    for k, start, stop in runs:
        end = at + (stop - start) * k
        out[order[start:stop]] = -terms[at:end].reshape(-1, k).sum(axis=1)
        at = end
    return out.reshape(bin_counts.shape)


def dimension_means(values: np.ndarray, bin_counts: np.ndarray,
                    with_bins: bool):
    """(value, diagnostics) of each set's row of per-dimension ``values``:
    their mean, the values, with ``with_bins`` the bin counts, and the
    constant dimensions (bin count 0) when there are any. A set with a
    dimension whose pooled spread overflows (bin count -1) is undefined.
    Each mean is ``np.mean`` of its row: a reduction along the contiguous
    last axis sums each row as the row alone would be summed."""
    out = []
    for row, counts, mean in zip(values.tolist(), bin_counts.tolist(),
                                 values.mean(axis=1).tolist()):
        overflow = [j for j, c in enumerate(counts) if c < 0]
        if overflow:
            out.append((None, {"undefined_reason": "pooled range overflows "
                                                   "float64 in dimensions "
                                                   f"{overflow}"}))
            continue
        diagnostics = {"per_dimension": row}
        if with_bins:
            diagnostics["bins"] = counts
        constant = [j for j, c in enumerate(counts) if c == 0]
        if constant:
            diagnostics["constant_dimensions"] = constant
        out.append((mean, diagnostics))
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
