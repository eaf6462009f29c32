"""Coverage metrics: diversity and novelty of the synthetic set.

Support-overlap metrics (recall, coverage, rarity) use k-nearest-neighbor
balls with closed-ball membership, matching the congruence-side precision
construction. Kernel metrics (Vendi, DPP) default to cosine similarity with
a forced unit diagonal; rows with zero norm keep similarity 0 to everything
else and are flagged.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EvaluationError
from .model import EmbeddingSet, check_dims
from .numerics import (ball_query, dimension_histograms, dimension_means,
                       draw_counts, entropy_rows, kth_neighbor_distances,
                       pairwise_distances, pca_fit, scaled_back,
                       shannon_entropy, unit_scaled)


def manifold_recall(real: EmbeddingSet, synthetic: EmbeddingSet, k: int = 3):
    """Fraction of reference points inside at least one synthetic kNN ball."""
    return manifold_recall_replicates(real, synthetic, None, k)[0]


def manifold_recall_replicates(real: EmbeddingSet, synthetic: EmbeddingSet,
                               rows=None, k: int = 3):
    """``manifold_recall(real, synthetic.resample(r), k)`` for each index
    array ``r`` in ``rows``, or of ``synthetic`` itself when ``rows`` is
    None: the synthetic rows' neighbor distances and the
    reference-to-synthetic distances are measured once for the whole block,
    and each row set looks its balls up in them."""
    check_dims(real, synthetic)
    radii = kth_neighbor_distances(synthetic.data, k, rows)
    smallest, _ = ball_query(real.data, synthetic.data, radii)
    return [(float(inside.mean()), {"k": k, "inside": int(inside.sum())})
            for inside in np.isfinite(smallest)]


def manifold_coverage(real: EmbeddingSet, synthetic: EmbeddingSet, k: int = 5):
    """Fraction of reference points whose own reference kNN ball contains a
    synthetic point."""
    check_dims(real, synthetic)
    _, inside = ball_query(synthetic.data, real.data,
                           kth_neighbor_distances(real.data, k))
    return float(inside.mean()), {"k": k, "inside": int(inside.sum())}


def convex_hull_volume(synthetic: EmbeddingSet, reduce_to: int = 3):
    """Volume of the synthetic set's convex hull (spread in feature space).

    Dimensions above ``reduce_to`` are first projected onto the synthetic
    set's principal components (an exact eigensolve). Exact hull volume at
    1-3 dimensions, undefined past float64 (``unit_scaled``); degenerate
    point sets yield 0 with a flag.
    """
    diagnostics: dict = {}
    data = synthetic.data
    dim = synthetic.d
    if dim > reduce_to:
        basis = pca_fit(data, reduce_to)
        data = basis.transform(data)
        diagnostics["reduced_to"] = reduce_to
        diagnostics["explained_ratio"] = list(basis.explained_ratio)
        dim = reduce_to
    if dim > 3:
        raise EvaluationError("exact hull volume supports at most 3 dimensions; "
                              "lower reduce_to")
    e, (data,) = unit_scaled(data)
    volume = scaled_back(_hull_volume(data, diagnostics), dim * e)
    if math.isinf(volume):
        diagnostics["undefined_reason"] = "hull volume overflows float64"
        return None, diagnostics
    return volume, diagnostics


def _hull_volume(data: np.ndarray, diagnostics: dict) -> float:
    dim = data.shape[1]
    if dim == 1:
        return float(data.max() - data.min())
    if data.shape[0] < dim + 1:
        diagnostics["degenerate"] = True
        return 0.0
    import scipy.spatial  # deferred: scipy dominates CLI start-up time
    try:
        hull = scipy.spatial.ConvexHull(data)
    except scipy.spatial.QhullError:
        diagnostics["degenerate"] = True
        return 0.0
    return float(hull.volume)


def _similarity_kernel(data: np.ndarray, kernel: str, gamma: float | None,
                       diagnostics: dict) -> np.ndarray:
    if kernel == "cosine":
        _, (data,) = unit_scaled(data)  # no squared norm overflows
        norms = np.linalg.norm(data, axis=1)
        zero_rows = int(np.sum(norms == 0.0))
        if zero_rows:
            diagnostics["zero_norm_rows"] = zero_rows
        safe = np.where(norms == 0.0, 1.0, norms)
        unit = data / safe[:, None]
        k = unit @ unit.T
        np.fill_diagonal(k, 1.0)
        return k
    if kernel == "rbf":
        if gamma is None:
            gamma = 1.0 / data.shape[1]
        sq = pairwise_distances(data, data) ** 2
        return np.exp(-gamma * sq)
    raise EvaluationError(f"unknown kernel {kernel!r}")


def vendi_score(synthetic: EmbeddingSet, kernel: str = "cosine",
                gamma: float | None = None):
    """Effective diversity count: exp of the Shannon entropy (natural log)
    of the eigenvalues of K/n. Ranges from 1 (all rows alike) to n
    (mutually orthogonal rows)."""
    diagnostics: dict = {"kernel": kernel}
    k = _similarity_kernel(synthetic.data, kernel, gamma, diagnostics)
    eigvals = np.linalg.eigvalsh(k / synthetic.n)
    eigvals = eigvals[eigvals > 1e-12]
    value = float(np.exp(shannon_entropy(eigvals)))
    diagnostics["retained_eigenvalues"] = int(eigvals.size)
    return value, diagnostics


def dpp_logdet(synthetic: EmbeddingSet, kernel: str = "cosine",
               gamma: float | None = None, ridge: float = 1e-9):
    """Log-determinant of the ridged similarity kernel.

    Duplicated rows pull the value toward the ridge floor instead of -inf.
    """
    diagnostics: dict = {"kernel": kernel, "ridge": ridge}
    k = _similarity_kernel(synthetic.data, kernel, gamma, diagnostics)
    sign, logdet = np.linalg.slogdet(k + ridge * np.eye(synthetic.n))
    if sign <= 0:
        return None, {**diagnostics,
                      "undefined_reason": "kernel determinant not positive"}
    return float(logdet), diagnostics


def total_variance(synthetic: EmbeddingSet):
    """Trace of the unbiased sample covariance."""
    if synthetic.n < 2:
        return None, {"undefined_reason": "variance needs at least 2 rows"}
    centered = synthetic.data - synthetic.data.mean(axis=0)
    value = float(np.sum(centered * centered) / (synthetic.n - 1))
    return value, {}


def embedding_entropy(synthetic: EmbeddingSet, bins: int | None = None):
    """Mean per-dimension histogram entropy in nats.

    Binning matches the divergence metrics (Freedman-Diaconis, floor 8,
    cap 64) on each dimension's own range; constant dimensions contribute 0.
    """
    return embedding_entropy_replicates(synthetic, None, bins)[0]


def embedding_entropy_replicates(synthetic: EmbeddingSet, rows=None,
                                 bins: int | None = None):
    """``embedding_entropy(synthetic.resample(r), bins)`` for each index
    array ``r`` in ``rows``, or of ``synthetic`` itself when ``rows`` is
    None: one (value, diagnostics) per row set. Each row set is its draw
    counts, so the block sorts each dimension of the set once."""
    counts = None if rows is None else draw_counts(rows, synthetic.n)
    (p,), bin_counts = dimension_histograms(((synthetic.data, counts),), bins)
    return dimension_means(entropy_rows(p, bin_counts), bin_counts,
                           with_bins=False)


def rarity_score(real: EmbeddingSet, synthetic: EmbeddingSet, k: int = 3):
    """Mean radius of the smallest reference kNN ball containing each
    synthetic point; points outside every ball are excluded from the mean
    and reported as the out-of-manifold fraction."""
    check_dims(real, synthetic)
    (smallest,), _ = ball_query(synthetic.data, real.data,
                                kth_neighbor_distances(real.data, k))
    scores = smallest[np.isfinite(smallest)]
    out_fraction = 1.0 - scores.size / synthetic.n
    diagnostics = {"k": k, "out_of_manifold_fraction": out_fraction}
    if not scores.size:
        return None, {**diagnostics,
                      "undefined_reason": "no synthetic point falls inside "
                                          "the reference manifold"}
    return float(np.mean(scores)), diagnostics


def cluster_balance(synthetic: EmbeddingSet, k_clusters: int | None = None,
                    seed: int = 0):
    """Occupancy balance of a deterministic k-means clustering, in [0, 1].

    Score is the entropy of the cluster-size distribution over ln(k).
    Default k: min(10, n // 5), at least 2.
    """
    n = synthetic.n
    if k_clusters is None:
        k_clusters = max(2, min(10, n // 5))
    if k_clusters < 2:
        raise EvaluationError("cluster balance needs at least 2 clusters")
    if n < 2 * 2:
        return None, {"undefined_reason": "too few rows to cluster"}
    if n < k_clusters:
        return None, {"undefined_reason": f"{n} rows cannot fill "
                                          f"{k_clusters} clusters"}
    _, (data,) = unit_scaled(synthetic.data)  # the same labels, no overflow
    labels, iterations = _kmeans(data, k_clusters, seed)
    sizes = np.bincount(labels, minlength=k_clusters)
    masses = sizes / n
    value = shannon_entropy(masses) / math.log(k_clusters)
    diagnostics = {"k_clusters": k_clusters, "sizes": [int(s) for s in sizes],
                   "iterations": iterations, "seed": seed}
    return float(value), diagnostics


_KMEANS_MAX_ITER = 100
_KMEANS_REL_TOL = 1e-6  # stop once inertia improves by less than this share


def _kmeans(data: np.ndarray, k: int, seed: int):
    """Deterministic Lloyd iterations with farthest-point seeding.

    The first center is drawn with the seeded generator; each further center
    is the point with maximal squared distance to its nearest chosen center
    (ties to the lowest row index). Assignment ties also go to the lowest
    center index.
    """
    rng = np.random.default_rng(seed)
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[int(rng.integers(n))]
    closest_sq = np.sum((data - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        centers[c] = data[int(np.argmax(closest_sq))]
        closest_sq = np.minimum(closest_sq,
                                np.sum((data - centers[c]) ** 2, axis=1))
    inertia = math.inf
    labels = np.zeros(n, dtype=int)
    iterations = 0
    for iterations in range(1, _KMEANS_MAX_ITER + 1):
        d2 = ((data[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        new_inertia = float(d2[np.arange(n), labels].sum())
        for c in range(k):
            members = data[labels == c]
            if members.size:
                centers[c] = members.mean(axis=0)
        if inertia - new_inertia <= _KMEANS_REL_TOL * max(new_inertia, 1e-300):
            inertia = new_inertia
            break
        inertia = new_inertia
    return labels, iterations


PROBABILITY_TOLERANCE = 1e-6  # allowed |row sum - 1| of class probabilities


def inception_style_score(class_probs: np.ndarray):
    """exp(mean KL(row || marginal)) over a row-stochastic class-probability
    matrix (natural log). 1 when every row matches the marginal; up to the
    class count for distinct one-hot rows."""
    probs = np.asarray(class_probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] < 1:
        raise EvaluationError("class probabilities must form an n x c matrix")
    if np.any(probs < 0):
        row = int(np.argwhere(probs < 0)[0][0])
        raise EvaluationError(f"negative probability in row {row}")
    sums = probs.sum(axis=1)
    bad = np.where(np.abs(sums - 1.0) > PROBABILITY_TOLERANCE)[0]
    if bad.size:
        raise EvaluationError(f"row {int(bad[0])} does not sum to 1 "
                              f"(sum={sums[bad[0]]:.9g})")
    marginal = probs.mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(probs > 0, probs / marginal[None, :], 1.0)
        kl = np.sum(np.where(probs > 0, probs * np.log(ratios), 0.0), axis=1)
    value = float(np.exp(kl.mean()))
    return value, {"classes": int(probs.shape[1]), "rows": int(probs.shape[0])}


def centroid_spread(real: EmbeddingSet, synthetic: EmbeddingSet):
    """Mean distance from synthetic points to the reference centroid
    (spread proxy; contrast with the congruence-side centroid distance)."""
    check_dims(real, synthetic)
    mu_r = real.data.mean(axis=0)
    dists = np.linalg.norm(synthetic.data - mu_r, axis=1)
    return float(dists.mean()), {}
