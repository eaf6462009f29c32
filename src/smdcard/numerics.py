"""Geometry and histogram utilities shared by the metric modules.

Everything here is exact (no approximate neighbor indexes) and deterministic;
randomized callers pass explicit seeds and record them.

Every distance's final bits come from one formula, ``_exact_distance``:
``sqrt(sum((a - b)**2))`` over the coordinate axis. ``pairwise_distances``
applies it to every pair. The kNN primitives (``kth_neighbor_distance``,
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
  k-th neighbor window ``q <= q_k + 2 err``, or ``q`` within the bound of a
  squared ball radius. A non-finite ``q``, bound or squared radius always
  refines.

So the filter only chooses which pairs reach the exact formula, never a
result's bits: results do not depend on BLAS, its thread count or the block
size. ``_BLOCK_ELEMENTS`` is the one memory bound: it caps rows x m of a
Gram block and rows x m x d of a ``pairwise_distances`` difference block,
and the refine gathers at most that many coordinates at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError


_BLOCK_ELEMENTS = 1 << 20  # cap on the elements of any temporary block
FD_MIN_BINS, FD_MAX_BINS = 8, 64  # clamp of the Freedman-Diaconis bin count
SMOOTHING_MASS = 1e-12  # added to every histogram bin before a divergence
_U = 2.0 ** -53  # unit roundoff of float64
_ETA = 2.0 ** -1074  # smallest subnormal: absolute error of an underflow


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


def kth_neighbor_distance(data: np.ndarray, k: int) -> np.ndarray:
    """Each row's distance to its k-th nearest other row (self excluded by
    index, so a copied row is a neighbor at distance 0)."""
    n = data.shape[0]
    if k < 1 or k > n - 1:
        raise EvaluationError(
            f"k={k} out of range: reference set supports at most k={n - 1} "
            "(self-match excluded)")
    gram = _GramFilter(data, data)
    out = np.empty(n)
    for start, stop, q in gram.blocks():
        own = (np.arange(stop - start), np.arange(start, stop))
        q[own] = np.inf
        q_k = np.partition(q, k - 1, axis=1)[:, k - 1]
        # every pair at or below the exact k-th distance has q <= q_k + 2 err
        limit = q_k + 2.0 * gram.bound[start:stop]
        limit[~np.isfinite(limit)] = np.inf
        candidate = (q <= limit[:, None]) | ~np.isfinite(q)
        candidate[own] = False
        rows, cols = np.divmod(np.flatnonzero(candidate), n)
        exact = gram.refine(start, rows, cols)
        ordered = exact[np.lexsort((exact, rows))]
        first = np.searchsorted(rows, np.arange(stop - start))
        out[start:stop] = ordered[first + k - 1]
    return out


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


def dimension_histograms(samples, bins: int | None = None):
    """Per-dimension histogram masses of each sample in ``samples`` (arrays
    with the same columns) on the pooled range of each dimension.

    Each column is sorted once and counted by ``searchsorted`` against the
    ``np.linspace`` edges ``np.histogram`` uses, under its rule: bins are
    ``[e_i, e_i+1)`` and the last bin is closed. The bin count is ``bins``,
    else the Freedman-Diaconis rule on the pooled values, clamped to
    ``[FD_MIN_BINS, FD_MAX_BINS]``. Returns ``(masses, bin_counts)``:
    ``masses[j]`` holds one mass vector per sample, or is None where the
    pooled dimension is constant (bin count 0).
    """
    if bins is not None and bins < 1:
        raise EvaluationError(f"bins={bins} must be at least 1")
    ordered = [np.sort(s.T) for s in samples]
    pooled = ordered[0] if len(ordered) == 1 else np.concatenate(ordered, axis=1)
    lo = np.min([o[:, 0] for o in ordered], axis=0)
    hi = np.max([o[:, -1] for o in ordered], axis=0)
    if bins is None:
        q75, q25 = np.percentile(pooled, [75, 25], axis=1)
        iqr = q75 - q25
        width = 2.0 * iqr * pooled.shape[1] ** (-1.0 / 3.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            fd = np.clip(np.ceil((hi - lo) / width), FD_MIN_BINS, FD_MAX_BINS)
        counts = np.where(iqr > 0, fd, FD_MIN_BINS).astype(int).tolist()
    else:
        counts = [bins] * lo.size
    masses, bin_counts = [], []
    for j, b in enumerate(counts):
        if lo[j] == hi[j]:
            masses.append(None)
            bin_counts.append(0)
            continue
        edges = np.linspace(lo[j], hi[j], b + 1)
        per_sample = []
        for o in ordered:
            below = np.searchsorted(o[j], edges)  # values below each edge
            below[-1] = o.shape[1]  # the last bin is closed
            per_sample.append(np.diff(below) / o.shape[1])
        masses.append(tuple(per_sample))
        bin_counts.append(b)
    return masses, bin_counts


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
