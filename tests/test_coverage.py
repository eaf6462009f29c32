import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smdcard import coverage
from conftest import embedding_from


class TestRecallCoverage:
    def test_identical_sets_perfect(self, identity_pair):
        real, synth = identity_pair
        recall, _ = coverage.manifold_recall(real, synth)
        cov, _ = coverage.manifold_coverage(real, synth)
        assert recall == 1.0
        assert cov == 1.0

    def test_far_collapsed_synthetic_zero(self):
        rng = np.random.default_rng(12)
        real = embedding_from(rng.normal(size=(40, 3)))
        collapsed = np.tile([1e6, 1e6, 1e6], (10, 1))
        collapsed += rng.normal(scale=1e-3, size=collapsed.shape)
        synth = embedding_from(collapsed, prefix="s")
        recall, _ = coverage.manifold_recall(real, synth)
        cov, _ = coverage.manifold_coverage(real, synth)
        assert recall == 0.0
        assert cov == 0.0

    def test_single_covered_mode_matches_brute_force(self):
        rng = np.random.default_rng(30)
        mode_a = rng.normal(size=(30, 2))
        mode_b = rng.normal(loc=40.0, size=(30, 2))
        real_pts = np.vstack([mode_a, mode_b])
        synth_pts = rng.normal(scale=1.1, size=(25, 2))  # covers mode A only
        real = embedding_from(real_pts)
        synth = embedding_from(synth_pts, prefix="s")
        k = 3
        recall, _ = coverage.manifold_recall(real, synth, k=k)

        radii = []
        for i in range(25):
            dists = sorted(math.dist(synth_pts[i], synth_pts[j])
                           for j in range(25) if j != i)
            radii.append(dists[k - 1])
        inside = sum(
            1 for r in real_pts
            if any(math.dist(r, synth_pts[i]) <= radii[i] for i in range(25)))
        assert recall == pytest.approx(inside / 60)
        assert 0.3 <= recall <= 0.7  # about the covered mode's share

    def test_dropping_a_mode_strictly_lowers_both(self):
        rng = np.random.default_rng(31)
        mode_a = rng.normal(size=(40, 2))
        mode_b = rng.normal(loc=8.0, size=(40, 2))
        real = embedding_from(np.vstack([mode_a, mode_b]))
        full = embedding_from(np.vstack([mode_a + 0.05, mode_b - 0.05]),
                              prefix="s")
        partial = embedding_from(mode_a + 0.05, prefix="t")
        recall_full, _ = coverage.manifold_recall(real, full)
        recall_partial, _ = coverage.manifold_recall(real, partial)
        cov_full, _ = coverage.manifold_coverage(real, full)
        cov_partial, _ = coverage.manifold_coverage(real, partial)
        assert recall_partial < recall_full
        assert cov_partial < cov_full


class TestConvexHull:
    def test_unit_square(self):
        square = embedding_from([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                 [0.0, 1.0]])
        value, _ = coverage.convex_hull_volume(square)
        assert value == 1.0

    def test_triangle(self):
        tri = embedding_from([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        value, _ = coverage.convex_hull_volume(tri)
        assert value == pytest.approx(0.5)

    def test_matches_monte_carlo_oracle(self):
        rng = np.random.default_rng(44)
        pts = rng.uniform(size=(200, 3))
        value, _ = coverage.convex_hull_volume(embedding_from(pts))

        # rejection sampling against the exact facet test
        import scipy.spatial
        hull = scipy.spatial.Delaunay(pts)
        samples = rng.uniform(size=(200_000, 3))
        inside = (hull.find_simplex(samples) >= 0).mean()
        assert value == pytest.approx(float(inside), rel=0.02)

    def test_degenerate_collapses_to_zero(self):
        line = embedding_from([[float(i), float(i)] for i in range(5)])
        value, diag = coverage.convex_hull_volume(line)
        assert value == 0.0
        assert diag["degenerate"] is True

    def test_high_dim_reduces_first(self):
        rng = np.random.default_rng(45)
        pts = rng.normal(size=(50, 8))
        value, diag = coverage.convex_hull_volume(embedding_from(pts),
                                                  reduce_to=3)
        assert value > 0
        assert diag["reduced_to"] == 3

    @pytest.mark.parametrize("k", [1, 100, 340])
    def test_power_of_two_scale_scales_the_volume_exactly(self, k):
        # the hull is taken on the rows times 2^-e and scaled back: from
        # about 1e77 on it read 0.0 with a degenerate flag
        rng = np.random.default_rng(46)
        for d in (1, 2, 3):
            pts = rng.normal(size=(20, d))
            value, _ = coverage.convex_hull_volume(embedding_from(pts))
            scaled, diag = coverage.convex_hull_volume(
                embedding_from(np.ldexp(pts, k)))
            assert scaled == math.ldexp(value, d * k), d
            assert "degenerate" not in diag

    @pytest.mark.parametrize("k", [-20, -30])
    def test_small_scale_keeps_the_rank(self, k):
        # the rank tolerance was floored at 1e-12 in data units, so the
        # projection padded zero components and the volume read 0.0
        pts = np.random.default_rng(46).normal(size=(20, 8))
        value, _ = coverage.convex_hull_volume(embedding_from(pts))
        scaled, diag = coverage.convex_hull_volume(
            embedding_from(np.ldexp(pts, k)))
        assert scaled == pytest.approx(math.ldexp(value, 3 * k), rel=1e-9)
        assert "degenerate" not in diag

    def test_volume_past_float64_undefined(self):
        pts = np.ldexp(np.random.default_rng(47).normal(size=(20, 3)), 400)
        assert coverage.convex_hull_volume(embedding_from(pts)) == (None, {
            "undefined_reason": "hull volume overflows float64"})

    def test_huge_coordinates_in_a_child_interpreter(self):
        # qhull died of SIGSEGV at 1e154, and the 8-dimensional projection
        # raised LinAlgError: a child keeps a regression to this one test
        code = (
            "import numpy as np\n"
            "from smdcard import coverage\n"
            "from smdcard.model import EmbeddingSet\n"
            "rng = np.random.default_rng(48)\n"
            "for d, reduce_to in ((3, 3), (8, 3), (8, 1)):\n"
            "    rows = rng.standard_normal((20, d)) * 1e154\n"
            "    value, diag = coverage.convex_hull_volume(EmbeddingSet(\n"
            "        list(map(str, range(20))), rows), reduce_to=reduce_to)\n"
            "    print(value is None, diag.get('undefined_reason'),\n"
            "          value is None or 1e154 < value < 1e156)\n")
        src = os.path.dirname(os.path.dirname(coverage.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=300,
                             env=dict(os.environ, PYTHONPATH=src))
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout.splitlines() == [
            "True hull volume overflows float64 True"] * 2 + [
            "False None True"]


class TestVendi:
    def test_identical_rows_one(self):
        es = embedding_from([[1.0, 2.0]] * 6)
        value, _ = coverage.vendi_score(es)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_rows_n(self):
        es = embedding_from(np.eye(7))
        value, _ = coverage.vendi_score(es)
        assert value == pytest.approx(7.0, abs=1e-9)

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(70)
        pts = rng.normal(size=(10, 4))
        value, _ = coverage.vendi_score(embedding_from(pts))

        # oracle: explicit cosine kernel + general eigensolve
        unit = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        k = np.array([[float(np.dot(unit[i], unit[j])) for j in range(10)]
                      for i in range(10)])
        np.fill_diagonal(k, 1.0)
        eig = np.linalg.eigvals(k / 10).real
        eig = eig[eig > 1e-12]
        expected = math.exp(-np.sum(eig * np.log(eig)))
        assert value == pytest.approx(expected, abs=1e-9)

    def test_duplication_invariance(self):
        rng = np.random.default_rng(71)
        pts = rng.normal(size=(12, 3))
        v1, _ = coverage.vendi_score(embedding_from(pts))
        v2, _ = coverage.vendi_score(embedding_from(np.vstack([pts, pts])))
        assert v1 == pytest.approx(v2, abs=1e-6)

    @given(st.integers(2, 12), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_range_invariant(self, n, seed):
        rng = np.random.default_rng(seed)
        es = embedding_from(rng.normal(size=(n, 3)))
        value, _ = coverage.vendi_score(es)
        assert 1.0 - 1e-9 <= value <= n + 1e-9


class TestDpp:
    def test_orthogonal_rows_logdet_zero(self):
        es = embedding_from(np.eye(6))
        value, _ = coverage.dpp_logdet(es)
        assert abs(value) <= 1e-6

    def test_duplicate_pair_closed_form(self):
        es = embedding_from([[1.0, 0.0], [1.0, 0.0]])
        ridge = 1e-9
        value, _ = coverage.dpp_logdet(es, ridge=ridge)
        assert value == pytest.approx(math.log(ridge * (2 + ridge)), rel=1e-6)

        distinct = embedding_from([[1.0, 0.0], [0.9, 0.1]])
        value_distinct, _ = coverage.dpp_logdet(distinct, ridge=ridge)
        assert value < value_distinct

    def test_matches_pure_python_lu_oracle(self):
        # d >= n keeps the cosine kernel full rank, so the two determinant
        # routes agree tightly
        rng = np.random.default_rng(81)
        pts = rng.normal(size=(20, 25))
        ridge = 1e-9
        value, _ = coverage.dpp_logdet(embedding_from(pts), ridge=ridge)

        unit = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        kernel = unit @ unit.T
        np.fill_diagonal(kernel, 1.0)
        m = [[float(kernel[i, j]) + (ridge if i == j else 0.0)
              for j in range(20)] for i in range(20)]
        # LU with partial pivoting, by hand
        det_sign, log_det = 1.0, 0.0
        for col in range(20):
            pivot = max(range(col, 20), key=lambda r: abs(m[r][col]))
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det_sign = -det_sign
            diag = m[col][col]
            det_sign = math.copysign(det_sign, diag * det_sign)
            log_det += math.log(abs(diag))
            for r in range(col + 1, 20):
                factor = m[r][col] / diag
                for c in range(col, 20):
                    m[r][c] -= factor * m[col][c]
        assert value == pytest.approx(log_det, abs=1e-8)


class TestRbfKernel:
    """Vendi and DPP on the RBF kernel against a direct n x n oracle."""

    @staticmethod
    def _oracle(pts, gamma):
        sq = np.array([[float(np.sum((a - b) ** 2)) for b in pts]
                       for a in pts])
        return np.exp(-(1.0 / pts.shape[1] if gamma is None else gamma) * sq)

    @pytest.mark.parametrize("gamma", [None, 0.3])
    def test_vendi_matches_oracle(self, gamma):
        pts = np.random.default_rng(90).normal(size=(12, 3))
        value, _ = coverage.vendi_score(embedding_from(pts), kernel="rbf",
                                        gamma=gamma)
        eig = np.linalg.eigvalsh(self._oracle(pts, gamma) / 12)
        eig = eig[eig > 1e-12]
        assert value == pytest.approx(math.exp(-np.sum(eig * np.log(eig))),
                                      rel=1e-9)

    @pytest.mark.parametrize("gamma", [None, 0.3])
    def test_dpp_matches_oracle(self, gamma):
        pts = np.random.default_rng(91).normal(size=(12, 3))
        value, _ = coverage.dpp_logdet(embedding_from(pts), kernel="rbf",
                                       gamma=gamma, ridge=1e-6)
        sign, logdet = np.linalg.slogdet(self._oracle(pts, gamma)
                                         + 1e-6 * np.eye(12))
        assert sign > 0
        assert value == pytest.approx(logdet, abs=1e-7)


class TestVarianceEntropy:
    def test_identical_points_zero(self):
        es = embedding_from([[2.0, 2.0]] * 5)
        var, _ = coverage.total_variance(es)
        ent, _ = coverage.embedding_entropy(es)
        assert var == 0.0
        assert ent == 0.0

    def test_uniform_bins_reach_log_k(self):
        es = embedding_from([[0.5 + i] for i in range(8)])
        value, _ = coverage.embedding_entropy(es, bins=8)
        assert value == pytest.approx(math.log(8), abs=1e-9)

    def test_two_bin_closed_form(self):
        # masses {0.25, 0.75} over 2 bins
        es = embedding_from([[0.0]] * 1 + [[1.0]] * 3)
        value, _ = coverage.embedding_entropy(es, bins=2)
        expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_variance_is_covariance_trace(self, gaussian_pair):
        real, _ = gaussian_pair
        value, _ = coverage.total_variance(real)
        assert value == pytest.approx(
            float(np.trace(np.cov(real.data, rowvar=False))), rel=1e-12)

    def test_single_row_variance_undefined(self):
        es = embedding_from([[1.0, 2.0]])
        value, diag = coverage.total_variance(es)
        assert value is None
        assert "undefined_reason" in diag

    def test_duplication_changes_variance_within_dof_bound(self):
        rng = np.random.default_rng(90)
        pts = rng.normal(size=(25, 3))
        v1, _ = coverage.total_variance(embedding_from(pts))
        v2, _ = coverage.total_variance(embedding_from(np.vstack([pts, pts])))
        assert v2 == pytest.approx(v1 * (2 * 25 - 2) / (2 * 25 - 1), rel=1e-12)
        assert abs(v2 - v1) <= v1 / 25


class TestRarity:
    def test_circle_grid_equals_mean_radius(self):
        # uniformly spaced points on a circle: every kNN radius is equal, so
        # the smallest containing ball is each point's own
        angles = np.linspace(0, 2 * math.pi, 24, endpoint=False)
        pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        real = embedding_from(pts)
        synth = embedding_from(pts.copy(), prefix="s")
        value, diag = coverage.rarity_score(real, synth, k=3)

        radii = []
        for i in range(24):
            dists = sorted(math.dist(pts[i], pts[j])
                           for j in range(24) if j != i)
            radii.append(dists[2])
        assert value == pytest.approx(float(np.mean(radii)), abs=1e-12)
        assert diag["out_of_manifold_fraction"] == 0.0

    def test_dense_center_scores_lower_than_sparse_fringe(self):
        rng = np.random.default_rng(100)
        dense = rng.normal(scale=0.2, size=(60, 2))
        sparse = rng.normal(loc=6.0, scale=2.0, size=(20, 2))
        real = embedding_from(np.vstack([dense, sparse]))
        at_center = embedding_from([[0.0, 0.0]], prefix="c")
        at_fringe = embedding_from([[6.0, 6.0]], prefix="f")
        center_score, _ = coverage.rarity_score(real, at_center, k=3)
        fringe_score, _ = coverage.rarity_score(real, at_fringe, k=3)
        assert center_score < fringe_score

    def test_all_outside_undefined(self):
        real = embedding_from([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                               [1.0, 1.0]])
        synth = embedding_from([[500.0, 500.0]], prefix="s")
        value, diag = coverage.rarity_score(real, synth, k=2)
        assert value is None
        assert diag["out_of_manifold_fraction"] == 1.0


@pytest.mark.parametrize("k", [0, 300, 510, 520, 1000,
                               -20, -300, -540, -1000])
def test_cosine_kernel_and_kmeans_keep_their_value_at_any_scale(k):
    # on unit-scaled rows, exact in float64: unscaled, the squares overflow
    # from about 2^510 on (Vendi read 20.0, DPP 2e-8, the balance 0.424),
    # and underflow below about 2^-537 (Vendi 20.0, DPP 2e-8, balance -0.0)
    pts = np.random.default_rng(0).standard_normal((40, 3))[20:]
    base, scaled = embedding_from(pts), embedding_from(np.ldexp(pts, k))
    for metric in (coverage.vendi_score, coverage.dpp_logdet,
                   coverage.cluster_balance):
        assert metric(scaled) == metric(base), metric.__name__
    assert coverage.vendi_score(base)[0] == pytest.approx(2.914, abs=1e-3)


class TestClusterBalance:
    def test_two_equal_blobs_perfect(self):
        rng = np.random.default_rng(55)
        blob_a = rng.normal(size=(20, 2))
        blob_b = rng.normal(loc=50.0, size=(20, 2))
        es = embedding_from(np.vstack([blob_a, blob_b]))
        value, diag = coverage.cluster_balance(es, k_clusters=2, seed=3)
        assert value == pytest.approx(1.0)
        assert sorted(diag["sizes"]) == [20, 20]

    def test_outlier_closed_form(self):
        rng = np.random.default_rng(56)
        blob = rng.normal(scale=0.5, size=(49, 2))
        outlier = np.array([[1000.0, 1000.0]])
        es = embedding_from(np.vstack([blob, outlier]))
        value, diag = coverage.cluster_balance(es, k_clusters=2, seed=0)
        p = np.array([49 / 50, 1 / 50])
        expected = float(-(p * np.log(p)).sum() / math.log(2))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_seeded_rerun_identical(self, gaussian_pair):
        real, _ = gaussian_pair
        v1, d1 = coverage.cluster_balance(real, seed=9)
        v2, d2 = coverage.cluster_balance(real, seed=9)
        assert v1 == v2
        assert d1["sizes"] == d2["sizes"]

    def test_too_small_undefined(self):
        es = embedding_from([[0.0], [1.0], [2.0]])
        value, diag = coverage.cluster_balance(es)
        assert value is None


class TestInceptionStyle:
    def test_rows_equal_marginal_one(self):
        probs = np.tile([0.2, 0.3, 0.5], (8, 1))
        value, _ = coverage.inception_style_score(probs)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_distinct_one_hot_rows_reach_n(self):
        probs = np.eye(5)
        value, _ = coverage.inception_style_score(probs)
        assert value == pytest.approx(5.0, rel=1e-12)

    def test_matches_direct_kl_oracle(self):
        rng = np.random.default_rng(61)
        raw = rng.uniform(size=(20, 4))
        probs = raw / raw.sum(axis=1, keepdims=True)
        value, _ = coverage.inception_style_score(probs)

        marginal = probs.mean(axis=0)
        kls = []
        for row in probs:
            kls.append(sum(p * math.log(p / m)
                           for p, m in zip(row, marginal) if p > 0))
        assert value == pytest.approx(math.exp(np.mean(kls)), abs=1e-9)

    def test_non_stochastic_row_names_index(self):
        probs = np.array([[0.5, 0.5], [0.9, 0.3]])
        with pytest.raises(Exception, match="row 1"):
            coverage.inception_style_score(probs)


class TestCentroidSpread:
    def test_synthetic_at_centroid_zero(self):
        real = embedding_from([[1.0, 1.0], [-1.0, -1.0]])
        synth = embedding_from([[0.0, 0.0]], prefix="s")
        value, _ = coverage.centroid_spread(real, synth)
        assert value == 0.0

    def test_circle_radius(self):
        real = embedding_from([[0.0, 0.0]])
        angles = np.linspace(0, 2 * math.pi, 12, endpoint=False)
        synth = embedding_from(
            np.stack([3 * np.cos(angles), 3 * np.sin(angles)], axis=1),
            prefix="s")
        value, _ = coverage.centroid_spread(real, synth)
        assert value == pytest.approx(3.0, abs=1e-12)

    def test_matches_direct_mean_oracle(self, gaussian_pair):
        real, synth = gaussian_pair
        value, _ = coverage.centroid_spread(real, synth)
        mu = real.data.mean(axis=0)
        expected = float(np.mean([np.linalg.norm(row - mu)
                                  for row in synth.data]))
        assert value == pytest.approx(expected, abs=1e-12)
