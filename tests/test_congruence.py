import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from smdcard import congruence
from smdcard.errors import EvaluationError

from conftest import embedding_from


class TestCosineCentroid:
    def test_identical_sets(self, gaussian_pair):
        real, _ = gaussian_pair
        value, _ = congruence.cosine_centroid(real, real)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_centroids(self):
        real = embedding_from([[1.0, 0.0], [1.0, 0.0]])
        synth = embedding_from([[0.0, 1.0], [0.0, 1.0]], prefix="s")
        value, _ = congruence.cosine_centroid(real, synth)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_centroids(self):
        real = embedding_from([[1.0, 0.0]])
        synth = embedding_from([[-1.0, 0.0]], prefix="s")
        value, _ = congruence.cosine_centroid(real, synth)
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_zero_centroid_undefined(self):
        real = embedding_from([[1.0, 0.0], [-1.0, 0.0]])
        synth = embedding_from([[1.0, 1.0]], prefix="s")
        value, diag = congruence.cosine_centroid(real, synth)
        assert value is None
        assert "zero" in diag["undefined_reason"]

    @pytest.mark.parametrize("k", [0, 300, 510, 520, 1000])
    def test_power_of_two_scale_keeps_the_cosine(self, k):
        # the squared norms overflowed from 2^512 on, where it read 1.0
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((20, 3)), rng.standard_normal((20, 3))
        base = congruence.cosine_centroid(embedding_from(a),
                                          embedding_from(b, "s"))
        assert base[0] == pytest.approx(0.7928, abs=1e-4)
        assert congruence.cosine_centroid(
            embedding_from(np.ldexp(a, k)),
            embedding_from(np.ldexp(b, k), "s")) == base


class TestWasserstein:
    def test_identical_sets_zero_both_modes(self, identity_pair):
        real, synth = identity_pair
        for mode in ("per-dimension-average", "exact-matching"):
            value, _ = congruence.wasserstein1(real, synth, mode=mode)
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_point_masses(self):
        real = embedding_from([[0.0]])
        synth = embedding_from([[1.0]], prefix="s")
        for mode in ("per-dimension-average", "exact-matching"):
            value, _ = congruence.wasserstein1(real, synth, mode=mode)
            assert value == pytest.approx(1.0)

    def test_sorted_quantile_pairing(self):
        real = embedding_from([[0.0], [1.0]])
        synth = embedding_from([[0.0], [2.0]], prefix="s")
        value, _ = congruence.wasserstein1(real, synth)
        assert value == pytest.approx(0.5)

    def test_exact_matching_equals_permutation_brute_force(self):
        rng = np.random.default_rng(9)
        real = embedding_from(rng.normal(size=(7, 3)))
        synth = embedding_from(rng.normal(size=(7, 3)), prefix="s")
        value, _ = congruence.wasserstein1(real, synth, mode="exact-matching")

        cost = np.linalg.norm(real.data[:, None] - synth.data[None, :], axis=2)
        best = min(sum(cost[i, p[i]] for i in range(7)) / 7.0
                   for p in itertools.permutations(range(7)))
        assert value == pytest.approx(best, abs=1e-12)

    def test_exact_matching_unequal_counts_error(self):
        real = embedding_from([[0.0], [1.0]])
        synth = embedding_from([[0.0]], prefix="s")
        with pytest.raises(EvaluationError, match="per-dimension-average"):
            congruence.wasserstein1(real, synth, mode="exact-matching")

    def test_exact_matching_size_cap(self):
        rng = np.random.default_rng(1)
        big = embedding_from(rng.normal(size=(513, 1)))
        other = embedding_from(rng.normal(size=(513, 1)), prefix="s")
        with pytest.raises(EvaluationError, match="512"):
            congruence.wasserstein1(big, other, mode="exact-matching")

    def test_symmetry(self, gaussian_pair):
        real, synth = gaussian_pair
        a, _ = congruence.wasserstein1(real, synth)
        b, _ = congruence.wasserstein1(synth, real)
        assert a == pytest.approx(b, abs=1e-12)


class TestJensenShannon:
    def test_identical_sets_zero(self, identity_pair):
        real, synth = identity_pair
        value, _ = congruence.jensen_shannon(real, synth)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_support_reaches_bound(self):
        real = embedding_from([[float(i)] for i in range(16)])
        synth = embedding_from([[float(i) + 1000.0] for i in range(16)],
                               prefix="s")
        value, _ = congruence.jensen_shannon(real, synth)
        assert value == pytest.approx(1.0, abs=1e-8)

    def test_bernoulli_masses_match_closed_form(self):
        # 2 bins: masses {0.5, 0.5} vs {0.9, 0.1}
        real = embedding_from([[0.0]] * 5 + [[1.0]] * 5)
        synth = embedding_from([[0.0]] * 9 + [[1.0]] * 1, prefix="s")
        value, _ = congruence.jensen_shannon(real, synth, bins=2)

        eps = 1e-12
        p = (np.array([0.5, 0.5]) + eps) / (1 + 2 * eps)
        q = (np.array([0.9, 0.1]) + eps) / (1 + 2 * eps)
        m = 0.5 * (p + q)
        expected = 0.5 * np.sum(p * np.log2(p / m)) \
            + 0.5 * np.sum(q * np.log2(q / m))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_constant_dimension_contributes_zero(self):
        real = embedding_from([[1.0, 0.0], [1.0, 1.0]])
        synth = embedding_from([[1.0, 5.0], [1.0, 6.0]], prefix="s")
        value, diag = congruence.jensen_shannon(real, synth, bins=4)
        assert diag["constant_dimensions"] == [0]
        assert diag["per_dimension"][0] == 0.0

    def test_monotone_under_progressive_shift(self):
        rng = np.random.default_rng(17)
        base = rng.normal(size=(60, 1))
        real = embedding_from(base)
        previous = -1.0
        for shift in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
            synth = embedding_from(base + shift, prefix="s")
            value, _ = congruence.jensen_shannon(real, synth, bins=16)
            assert value >= previous - 1e-12
            previous = value


class TestFrechet:
    def test_self_distance_zero(self, gaussian_pair):
        real, _ = gaussian_pair
        value, _ = congruence.frechet_distance(real, real)
        assert value <= 1e-6

    def test_equal_covariance_mean_shift(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(80, 6))
        shifted = base.copy()
        shifted[:, 0] += 3.0
        value, _ = congruence.frechet_distance(embedding_from(base),
                                               embedding_from(shifted, "s"))
        assert value == pytest.approx(9.0, abs=1e-6)

    def test_matches_independent_sqrtm_oracle(self):
        rng = np.random.default_rng(2024)
        a = rng.normal(size=(200, 5)) @ np.diag([2.0, 1.5, 1.0, 0.7, 0.3])
        b = rng.normal(loc=0.3, size=(200, 5))
        value, _ = congruence.frechet_distance(embedding_from(a),
                                               embedding_from(b, "s"))

        mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
        cov_a = np.cov(a, rowvar=False) + 1e-6 * np.eye(5)
        cov_b = np.cov(b, rowvar=False) + 1e-6 * np.eye(5)
        cross = scipy.linalg.sqrtm(cov_a @ cov_b).real
        expected = (np.sum((mu_a - mu_b) ** 2)
                    + np.trace(cov_a + cov_b - 2 * cross))
        assert value == pytest.approx(expected, rel=1e-6)

    def test_symmetric(self, gaussian_pair):
        real, synth = gaussian_pair
        ab, _ = congruence.frechet_distance(real, synth)
        ba, _ = congruence.frechet_distance(synth, real)
        assert ab == pytest.approx(ba, rel=1e-9, abs=1e-9)

    def test_singular_covariance_flagged(self):
        real = embedding_from([[0.0, 0.0], [1.0, 1.0]])
        synth = embedding_from([[0.5, 0.5], [1.5, 1.5]], prefix="s")
        value, diag = congruence.frechet_distance(real, synth)
        assert diag["singular_covariance"] is True
        assert value >= 0.0

    @pytest.mark.parametrize("rows", [(1, 3), (3, 1), (1, 1)],
                             ids=["real", "synthetic", "both"])
    def test_one_row_set_undefined(self, rows):
        rng = np.random.default_rng(5)
        real = embedding_from(rng.normal(size=(rows[0], 2)))
        synth = embedding_from(rng.normal(size=(rows[1], 2)), prefix="s")
        assert congruence.frechet_distance(real, synth) == (None, {
            "undefined_reason": "insufficient samples (need at least 2 rows "
                                "per set)"})

    @pytest.mark.parametrize("k", [256, 266, 510])
    def test_large_coordinates_scale_the_distance(self, k):
        # 2^256 is about 1e77, where the distance was NaN, and 2^266 about
        # 1e80, where the eigensolve did not converge; the rows are taken
        # times 2^-e and the distance scaled back by 2^2e
        rng = np.random.default_rng(49)
        a, b = rng.normal(size=(20, 3)), rng.normal(size=(20, 3))
        value, diag = congruence.frechet_distance(
            embedding_from(np.ldexp(a, k)),
            embedding_from(np.ldexp(b, k), "s"))
        base, base_diag = congruence.frechet_distance(embedding_from(a),
                                                      embedding_from(b, "s"))
        assert value == pytest.approx(math.ldexp(base, 2 * k), rel=1e-4)
        assert diag["mean_shift_sq"] == math.ldexp(base_diag["mean_shift_sq"],
                                                   2 * k)

    def test_distance_past_float64_undefined(self):
        rng = np.random.default_rng(50)
        a, b = rng.normal(size=(20, 3)), rng.normal(size=(20, 3))
        assert congruence.frechet_distance(
            embedding_from(np.ldexp(a, 600)),
            embedding_from(np.ldexp(b, 600), "s")) == (None, {
                "undefined_reason": "distance overflows float64"})


class TestPrecision:
    def test_identical_sets_one(self, identity_pair):
        real, synth = identity_pair
        value, _ = congruence.manifold_precision(real, synth)
        assert value == 1.0

    def test_far_cluster_zero(self):
        rng = np.random.default_rng(6)
        real = embedding_from(rng.normal(size=(30, 3)))
        synth = embedding_from(rng.normal(size=(25, 3)) + 1e6, prefix="s")
        value, _ = congruence.manifold_precision(real, synth)
        assert value == 0.0

    def test_matches_brute_force_sphere_membership(self):
        rng = np.random.default_rng(15)
        real_pts = rng.normal(size=(40, 2))
        synth_pts = rng.normal(scale=1.5, size=(30, 2))
        k = 3
        value, _ = congruence.manifold_precision(embedding_from(real_pts),
                                                 embedding_from(synth_pts, "s"),
                                                 k=k)
        # oracle: explicit double loop
        radii = []
        for i in range(40):
            dists = sorted(math.dist(real_pts[i], real_pts[j])
                           for j in range(40) if j != i)
            radii.append(dists[k - 1])
        inside = 0
        for s in synth_pts:
            if any(math.dist(s, real_pts[i]) <= radii[i] for i in range(40)):
                inside += 1
        assert value == pytest.approx(inside / 30)

    def test_interior_synthetic_scores_one(self):
        grid = [[float(x), float(y)] for x in range(5) for y in range(5)]
        real = embedding_from(grid)
        synth = embedding_from([[2.0 + dx * 0.1, 2.0 + dy * 0.1]
                                for dx in range(3) for dy in range(3)],
                               prefix="s")
        value, _ = congruence.manifold_precision(real, synth, k=3)
        assert value == 1.0

    def test_asymmetric_by_construction(self):
        tight = embedding_from([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1],
                                [0.1, 0.1]])
        spread = embedding_from([[0.0, 0.0], [50.0, 0.0], [0.0, 50.0],
                                 [50.0, 50.0]], prefix="s")
        ab, _ = congruence.manifold_precision(tight, spread, k=2)
        ba, _ = congruence.manifold_precision(spread, tight, k=2)
        assert ab != ba


class TestCentroidDistance:
    def test_identical_zero(self, identity_pair):
        real, synth = identity_pair
        value, _ = congruence.centroid_distance(real, synth)
        assert value == 0.0

    def test_three_four_five(self):
        real = embedding_from([[0.0, 0.0]])
        synth = embedding_from([[3.0, 4.0]], prefix="s")
        value, _ = congruence.centroid_distance(real, synth)
        assert value == pytest.approx(5.0)

    def test_translation_consistent_with_direct_mean(self, gaussian_pair):
        real, synth = gaussian_pair
        value, _ = congruence.centroid_distance(real, synth)
        direct = np.linalg.norm(real.data.mean(axis=0) - synth.data.mean(axis=0))
        assert value == pytest.approx(direct, abs=1e-12)

        shifted = embedding_from(synth.data + np.array([2.0, 0, 0, 0, 0]), "t")
        shifted_value, _ = congruence.centroid_distance(real, shifted)
        direct_shifted = np.linalg.norm(real.data.mean(axis=0)
                                        - shifted.data.mean(axis=0))
        assert shifted_value == pytest.approx(direct_shifted, abs=1e-12)


class TestPsnr:
    def test_identical_images_inf_sentinel(self):
        img = np.full((16, 16), 100, dtype=np.uint8)
        value, diag = congruence.psnr_pairs([(img, img.copy(), 255)])
        assert math.isinf(value)
        assert diag["identical_pairs"] == 1

    def test_unit_mse_8bit(self):
        a = np.full((10, 10), 100, dtype=np.uint8)
        b = np.full((10, 10), 101, dtype=np.uint8)
        value, _ = congruence.psnr_pairs([(a, b, 255)])
        assert value == pytest.approx(20 * math.log10(255), abs=1e-9)

    def test_mismatched_pair_skipped(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        b = np.zeros((5, 5), dtype=np.uint8)
        c = np.ones((4, 4), dtype=np.uint8)
        value, diag = congruence.psnr_pairs([(a, b, 255), (a, c, 255)])
        assert diag["skipped_pairs"] == 1
        assert value == pytest.approx(20 * math.log10(255), abs=1e-9)


class TestSsim:
    def test_identical_images_one(self):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
        value, _ = congruence.ssim_pairs([(img, img.copy(), 255)])
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(99)
        a = rng.integers(0, 256, size=(32, 32)).astype(np.float64)
        b = np.clip(a + rng.normal(scale=12.0, size=(32, 32)), 0, 255)
        value, _ = congruence.ssim_pairs([(a, b, 255)])

        c1 = (0.01 * 255) ** 2
        c2 = (0.03 * 255) ** 2
        scores = []
        for i in range(32 - 8 + 1):
            for j in range(32 - 8 + 1):
                wa = a[i:i + 8, j:j + 8]
                wb = b[i:i + 8, j:j + 8]
                mu_a, mu_b = np.mean(wa), np.mean(wb)
                var_a, var_b = np.var(wa), np.var(wb)
                cov = np.mean((wa - mu_a) * (wb - mu_b))
                scores.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                              / ((mu_a ** 2 + mu_b ** 2 + c1)
                                 * (var_a + var_b + c2)))
        assert value == pytest.approx(np.mean(scores), abs=1e-9)
