"""Geometry and histogram utilities shared by the metric modules.

Everything here is exact (no approximate neighbor indexes) and deterministic;
randomized callers pass explicit seeds and record them. kNN balls are read
in streamed distance row blocks, so their memory is bounded by the block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError


_BLOCK_ELEMENTS = 1 << 20  # cap on the temporary (rows x m x d) difference block
FD_MIN_BINS, FD_MAX_BINS = 8, 64  # clamp of the Freedman-Diaconis bin count
SMOOTHING_MASS = 1e-12  # added to every histogram bin before a divergence


def _distance_blocks(a: np.ndarray, b: np.ndarray):
    """Yield ``(start, stop, block)``: exact Euclidean distances from rows
    ``a[start:stop]`` to every row of ``b``.

    Computed from explicit coordinate differences (no dot-product shortcut,
    so no cancellation); the block size bounds memory and changes no bit.
    """
    n_a, d = a.shape
    rows_per_block = max(1, _BLOCK_ELEMENTS // max(1, b.shape[0] * d))
    for start in range(0, n_a, rows_per_block):
        stop = min(start + rows_per_block, n_a)
        diff = a[start:stop, None, :] - b[None, :, :]
        yield start, stop, np.sqrt(np.sum(diff * diff, axis=2))


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance matrix between rows of ``a`` and ``b``."""
    out = np.empty((a.shape[0], b.shape[0]))
    for start, stop, block in _distance_blocks(a, b):
        out[start:stop] = block
    return out


def kth_neighbor_distance(data: np.ndarray, k: int) -> np.ndarray:
    """Each row's distance to its k-th nearest other row (self excluded by
    index, so a copied row is a neighbor at distance 0)."""
    n = data.shape[0]
    if k < 1 or k > n - 1:
        raise EvaluationError(
            f"k={k} out of range: reference set supports at most k={n - 1} "
            "(self-match excluded)")
    out = np.empty(n)
    for start, stop, block in _distance_blocks(data, data):
        np.fill_diagonal(block[:, start:stop], np.inf)
        out[start:stop] = np.partition(block, k - 1, axis=1)[:, k - 1]
    return out


def ball_query(query: np.ndarray, centers: np.ndarray, radii: np.ndarray):
    """Closed-ball membership of ``query`` rows in balls ``(centers, radii)``.

    Returns ``(smallest, occupied)``: per query row, the smallest radius
    among the balls that contain it (inf when none does); per ball, whether
    any query row falls inside it.
    """
    smallest = np.empty(query.shape[0])
    occupied = np.zeros(centers.shape[0], dtype=bool)
    for start, stop, block in _distance_blocks(query, centers):
        inside = block <= radii
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


def freedman_diaconis_bins(values: np.ndarray) -> int:
    """Bin count via the Freedman–Diaconis rule, clamped to
    [FD_MIN_BINS, FD_MAX_BINS]."""
    values = np.asarray(values, dtype=np.float64)
    span = float(values.max() - values.min()) if values.size else 0.0
    if span <= 0:
        return FD_MIN_BINS
    q75, q25 = np.percentile(values, [75, 25])
    iqr = float(q75 - q25)
    if iqr <= 0:
        return FD_MIN_BINS
    width = 2.0 * iqr * values.size ** (-1.0 / 3.0)
    bins = int(np.ceil(span / width)) if width > 0 else FD_MAX_BINS
    return max(FD_MIN_BINS, min(FD_MAX_BINS, bins))


def histogram_masses(values: np.ndarray, lo: float, hi: float,
                     bins: int) -> np.ndarray:
    """Probability masses of ``values`` over ``bins`` equal bins on [lo, hi]."""
    counts, _ = np.histogram(values, bins=bins, range=(lo, hi))
    return counts / values.size


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
