"""Congruence metrics: distributional and perceptual alignment between the
synthetic set and the reference set.

Embedding-space metrics take two EmbeddingSets of matching dimension. The
image metrics (PSNR/SSIM) are reference-based and take explicitly paired
grayscale images; unpaired image sets simply skip them.

Each function returns ``(value, diagnostics)``; a value of None marks the
metric undefined for the inputs (reason in diagnostics), ``math.inf`` is the
explicit sentinel for a perfect reference match in PSNR.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EvaluationError
from .model import EmbeddingSet, check_dims
from .numerics import (ball_query, dimension_histograms, dimension_means,
                       draw_counts, jsd_rows, kth_neighbor_distances,
                       pairwise_distances, scaled_back, unit_scaled,
                       w1_distance_1d)

EXACT_MATCHING_LIMIT = 512
FRECHET_REGULARIZATION = 1e-6  # ridge added to both covariances
SSIM_WINDOW = 8  # side of the square SSIM patches


def cosine_centroid(real: EmbeddingSet, synthetic: EmbeddingSet):
    """Cosine of the angle between the two dataset mean vectors, taken on
    ``unit_scaled`` rows: no squared norm overflows, and no bit changes."""
    check_dims(real, synthetic)
    _, (rows_r, rows_s) = unit_scaled(real.data, synthetic.data)
    mu_r = rows_r.mean(axis=0)
    mu_s = rows_s.mean(axis=0)
    norm_r = float(np.linalg.norm(mu_r))
    norm_s = float(np.linalg.norm(mu_s))
    if norm_r == 0.0 or norm_s == 0.0:
        which = "real" if norm_r == 0.0 else "synthetic"
        return None, {"undefined_reason": f"{which} centroid is the zero vector"}
    value = float(np.dot(mu_r, mu_s) / (norm_r * norm_s))
    return max(-1.0, min(1.0, value)), {}


def wasserstein1(real: EmbeddingSet, synthetic: EmbeddingSet,
                 mode: str = "per-dimension-average"):
    """Transport distance between the two samples.

    per-dimension-average: mean over dimensions of the exact 1-D W1 distance.
    exact-matching: min-cost perfect matching under Euclidean ground distance
    (equal sample counts, n <= 512).
    """
    check_dims(real, synthetic)
    if mode == "per-dimension-average":
        per_dim = [w1_distance_1d(real.data[:, j], synthetic.data[:, j])
                   for j in range(real.d)]
        return float(np.mean(per_dim)), {"per_dimension": per_dim}
    if mode == "exact-matching":
        if real.n != synthetic.n:
            raise EvaluationError(
                "exact-matching transport needs equal sample counts "
                f"(got {real.n} vs {synthetic.n}); use per-dimension-average")
        if real.n > EXACT_MATCHING_LIMIT:
            raise EvaluationError(
                f"exact-matching transport is capped at n={EXACT_MATCHING_LIMIT}")
        import scipy.optimize  # deferred: scipy dominates CLI start-up time
        cost = pairwise_distances(real.data, synthetic.data)
        rows, cols = scipy.optimize.linear_sum_assignment(cost)
        value = float(cost[rows, cols].mean())
        return value, {"matched": int(rows.size)}
    raise EvaluationError(f"unknown transport mode {mode!r}")


def jensen_shannon(real: EmbeddingSet, synthetic: EmbeddingSet,
                   bins: int | None = None):
    """Mean per-dimension Jensen-Shannon divergence, base-2 logs.

    Histograms share the pooled per-dimension range. The bin count defaults
    to the Freedman-Diaconis rule on the pooled values (floor 8, cap 64);
    constant pooled dimensions contribute 0 and are flagged.
    """
    return jensen_shannon_replicates(real, synthetic, None, bins)[0]


def jensen_shannon_replicates(real: EmbeddingSet, synthetic: EmbeddingSet,
                              rows=None, bins: int | None = None):
    """``jensen_shannon(real, synthetic.resample(r), bins)`` for each index
    array ``r`` in ``rows``, or of ``synthetic`` itself when ``rows`` is
    None: one (value, diagnostics) per row set. Each row set is its draw
    counts, so the block sorts each dimension of the two sets once."""
    check_dims(real, synthetic)
    counts = None if rows is None else draw_counts(rows, synthetic.n)
    (p, q), bin_counts = dimension_histograms(
        ((real.data, None), (synthetic.data, counts)), bins)
    return dimension_means(jsd_rows(p, q, bin_counts), bin_counts,
                           with_bins=True)


def _sqrt_psd(matrix: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition (negatives clamped)."""
    sym = 0.5 * (matrix + matrix.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    eigvals = np.clip(eigvals, 0.0, None)
    return (eigvecs * np.sqrt(eigvals)) @ eigvecs.T


def frechet_distance(real: EmbeddingSet, synthetic: EmbeddingSet):
    """Distance between Gaussian moment fits of the two sets.

    ||mu_r - mu_s||^2 + Tr(S_r + S_s - 2 (S_r S_s)^(1/2)), with the cross
    term evaluated through the symmetrized product
    (S_r^(1/2) S_s S_r^(1/2))^(1/2) for numerical stability. Covariances are
    regularized with ``FRECHET_REGULARIZATION * I``; a negative residue
    within 1e-8 is clamped to zero. Undefined (None) when a set has fewer
    than 2 rows, as a covariance needs two, or past float64 (``unit_scaled``).
    """
    check_dims(real, synthetic)
    if real.n < 2 or synthetic.n < 2:
        return None, {"undefined_reason": "insufficient samples (need at "
                                          "least 2 rows per set)"}
    # scaled down only: the ridge is in data units, so rows scaled up by
    # 2^-e need it 2^-2e times larger, which swamps or overflows at 2^-300
    e, (rows_r, rows_s) = unit_scaled(real.data, synthetic.data,
                                      down_only=True)
    mu_r = rows_r.mean(axis=0)
    mu_s = rows_s.mean(axis=0)
    d = real.d
    ridge = math.ldexp(FRECHET_REGULARIZATION, -2 * e) * np.eye(d)
    cov_r = _sample_cov(rows_r) + ridge
    cov_s = _sample_cov(rows_s) + ridge

    root_r = _sqrt_psd(cov_r)
    inner = root_r @ cov_s @ root_r
    eigvals = np.linalg.eigvalsh(0.5 * (inner + inner.T))
    clamped = float(-eigvals.min()) if eigvals.min() < 0 else 0.0
    cross = float(np.sum(np.sqrt(np.clip(eigvals, 0.0, None))))

    shift = float(np.sum((mu_r - mu_s) ** 2))
    value = scaled_back(shift + float(np.trace(cov_r) + np.trace(cov_s))
                        - 2.0 * cross, 2 * e)
    if math.isinf(value):
        return None, {"undefined_reason": "distance overflows float64"}
    diagnostics = {"regularization": FRECHET_REGULARIZATION,
                   "mean_shift_sq": scaled_back(shift, 2 * e)}
    if clamped > 0:  # an eigenvalue of a product of two covariances
        diagnostics["clamped_eigenvalue"] = scaled_back(clamped, 4 * e)
    if value < 0:
        if value < -1e-8:
            diagnostics["negative_residue"] = value
        value = 0.0
    small = min(real.n, synthetic.n)
    if small < d + 1:
        diagnostics["singular_covariance"] = True
    return value, diagnostics


def _sample_cov(data: np.ndarray) -> np.ndarray:
    return np.cov(data, rowvar=False).reshape(data.shape[1], data.shape[1])


def manifold_precision(real: EmbeddingSet, synthetic: EmbeddingSet, k: int = 3):
    """Fraction of synthetic points inside at least one reference kNN ball.

    Ball radius: distance from a reference point to its kth reference
    neighbor (self excluded); membership uses closed balls.
    """
    check_dims(real, synthetic)
    (smallest,), _ = ball_query(synthetic.data, real.data,
                                kth_neighbor_distances(real.data, k))
    inside = np.isfinite(smallest)
    return float(inside.mean()), {"k": k, "inside": int(inside.sum())}


def centroid_distance(real: EmbeddingSet, synthetic: EmbeddingSet):
    """Euclidean distance between the dataset centroids."""
    check_dims(real, synthetic)
    mu_r = real.data.mean(axis=0)
    mu_s = synthetic.data.mean(axis=0)
    return float(np.linalg.norm(mu_r - mu_s)), {}


# ---------------------------------------------------------------------------
# paired image metrics


def _pair_ok(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape


def psnr_pairs(pairs: list[tuple[np.ndarray, np.ndarray, int]]):
    """Mean peak signal-to-noise ratio in dB over explicitly paired images.

    Peak is the container maximum (255 or 65535). Pairs with identical
    pixels have infinite PSNR; they are excluded from the mean and counted
    as ``identical_pairs`` (the value is the inf sentinel only when every
    usable pair is identical). Mismatched pairs are skipped and flagged.
    """
    values = []
    identical = 0
    skipped = 0
    for a, b, peak in pairs:
        if not _pair_ok(a, b):
            skipped += 1
            continue
        diff = a.astype(np.float64) - b.astype(np.float64)
        mse = float(np.mean(diff * diff))
        if mse == 0.0:
            identical += 1
            continue
        values.append(10.0 * math.log10(peak * peak / mse))
    diagnostics = {"pairs": len(pairs), "identical_pairs": identical,
                   "skipped_pairs": skipped}
    usable = len(values) + identical
    if usable == 0:
        return None, {**diagnostics,
                      "undefined_reason": "no usable image pairs"}
    if not values:
        return math.inf, diagnostics
    return float(np.mean(values)), diagnostics


def ssim_pairs(pairs: list[tuple[np.ndarray, np.ndarray, int]]):
    """Mean structural similarity over explicitly paired images.

    Sliding ``SSIM_WINDOW`` x ``SSIM_WINDOW`` patches at stride 1 (fully
    inside the image), population moments per patch, stabilizers
    C1=(0.01*peak)^2 and C2=(0.03*peak)^2.
    """
    values = []
    skipped = 0
    for a, b, peak in pairs:
        if not _pair_ok(a, b) or min(a.shape) < SSIM_WINDOW:
            skipped += 1
            continue
        values.append(_ssim_single(a.astype(np.float64), b.astype(np.float64),
                                   peak))
    diagnostics = {"pairs": len(pairs), "skipped_pairs": skipped}
    if not values:
        return None, {**diagnostics,
                      "undefined_reason": "no usable image pairs"}
    return float(np.mean(values)), diagnostics


def _ssim_single(a: np.ndarray, b: np.ndarray, peak: int) -> float:
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    wa = np.lib.stride_tricks.sliding_window_view(a, (SSIM_WINDOW,) * 2)
    wb = np.lib.stride_tricks.sliding_window_view(b, (SSIM_WINDOW,) * 2)
    mu_a = wa.mean(axis=(-2, -1))
    mu_b = wb.mean(axis=(-2, -1))
    da = wa - mu_a[..., None, None]
    db = wb - mu_b[..., None, None]
    var_a = (da * da).mean(axis=(-2, -1))
    var_b = (db * db).mean(axis=(-2, -1))
    cov = (da * db).mean(axis=(-2, -1))
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))
