import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smdcard import numerics
from smdcard.errors import EvaluationError
from smdcard.numerics import (ball_query, freedman_diaconis_bins,
                              histogram_masses, jsd_masses,
                              kth_neighbor_distance, pairwise_distances,
                              pca_fit, shannon_entropy, w1_distance_1d)

from conftest import embedding_from


class TestKnn:
    def test_coincident_point_self_allowed(self):
        ref = np.array([[0.0, 0.0], [3.0, 4.0]])
        query = np.array([[0.0, 0.0]])
        smallest, occupied = ball_query(query, ref, np.zeros(2))
        assert smallest[0] == 0.0
        assert occupied.tolist() == [True, False]

    def test_three_four_five_triangle(self):
        ref = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert kth_neighbor_distance(ref, 1)[0] == 5.0

    def test_matches_exhaustive_sort_oracle_exactly(self):
        # integer coordinates keep the squared sums exact, so both routes
        # must agree bit for bit
        rng = np.random.default_rng(77)
        pts = rng.integers(-50, 50, size=(100, 5)).astype(np.float64)

        oracle = np.empty((100, 3))
        for i in range(100):
            dists = sorted(math.dist(pts[i], pts[j])
                           for j in range(100) if j != i)
            oracle[i] = dists[:3]
        for j in range(3):
            assert np.array_equal(kth_neighbor_distance(pts, j + 1),
                                  oracle[:, j])

    def test_k_out_of_range_names_limit(self):
        with pytest.raises(EvaluationError, match="at most k=2"):
            kth_neighbor_distance(np.eye(3), 3)

    def test_self_distances_match_brute_force(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(40, 3))
        first = kth_neighbor_distance(data, 1)
        second = kth_neighbor_distance(data, 2)
        for r in range(len(data)):
            brute = sorted(np.linalg.norm(data[r] - data[j])
                           for j in range(len(data)) if j != r)
            assert first[r] == pytest.approx(brute[0], abs=1e-12)
            assert second[r] == pytest.approx(brute[1], abs=1e-12)

    def test_block_size_does_not_change_bits(self, monkeypatch):
        rng = np.random.default_rng(19)
        a = rng.normal(size=(37, 7))
        b = rng.normal(size=(23, 7))
        radii = rng.uniform(2.0, 4.0, size=23)
        # one block at the default size
        whole = (pairwise_distances(a, b), kth_neighbor_distance(a, 3),
                 *ball_query(a, b, radii))
        monkeypatch.setattr(numerics, "_BLOCK_ELEMENTS", 1)
        blocked = (pairwise_distances(a, b), kth_neighbor_distance(a, 3),
                   *ball_query(a, b, radii))
        for got, want in zip(blocked, whole):
            assert np.array_equal(got, want)


class TestPca:
    def test_collinear_points_fully_explained(self):
        es = embedding_from([[i * 2.0, i * 1.0] for i in range(6)])
        basis = pca_fit(es.data, 1)
        reduced = basis.transform(es.data)
        assert basis.explained_ratio[0] == pytest.approx(1.0, abs=1e-12)
        assert reduced.shape[1] == 1

    def test_axis_aligned_identity_when_target_is_d(self):
        # exactly diagonal covariance with decreasing variances: the
        # component basis is the identity, so scores equal centered input
        data = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        es = embedding_from(data)
        reduced = pca_fit(es.data, 2).transform(es.data)
        assert np.allclose(reduced, data - data.mean(axis=0), atol=1e-12)

    def test_explained_ratios_match_eigensolve_oracle(self):
        rng = np.random.default_rng(123)
        data = rng.normal(size=(50, 10)) @ np.diag(np.linspace(3, 0.5, 10))
        basis = pca_fit(data, 10)

        centered = data - data.mean(axis=0)
        cov = np.cov(centered, rowvar=False)
        eigvals = np.linalg.eig(cov)[0].real
        eigvals.sort()
        expected = eigvals[::-1] / eigvals.sum()
        assert np.allclose(basis.explained_ratio, expected, atol=1e-9)

    def test_distance_preservation_at_full_rank(self):
        rng = np.random.default_rng(42)
        data = rng.normal(size=(30, 4))
        es = embedding_from(data)
        reduced = pca_fit(es.data, 4).transform(es.data)
        orig = np.linalg.norm(data[:, None] - data[None, :], axis=2)
        new = np.linalg.norm(reduced[:, None] - reduced[None, :], axis=2)
        assert np.allclose(orig, new, atol=1e-9)

    def test_rank_deficiency_pads_with_zeros(self):
        es = embedding_from([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0],
                             [3.0, 6.0, 9.0]])
        _, basis = pca_fit(es.data, 3), None
        basis = pca_fit(es.data, 3)
        assert basis.padded == 2
        assert np.allclose(basis.components[1:], 0.0)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(25, 6))
        b1 = pca_fit(data, 6)
        b2 = pca_fit(data.copy(), 6)
        assert np.array_equal(b1.components, b2.components)
        for row in b1.components[:np.linalg.matrix_rank(data - data.mean(0))]:
            assert row[np.argmax(np.abs(row))] > 0


class TestW1:
    def test_point_masses(self):
        assert w1_distance_1d(np.array([0.0]), np.array([1.0])) == 1.0

    def test_shifted_pair(self):
        assert w1_distance_1d(np.array([0.0, 1.0]),
                              np.array([0.0, 2.0])) == pytest.approx(0.5)

    def test_unequal_sizes_match_scipy(self):
        import scipy.stats
        rng = np.random.default_rng(3)
        x = rng.normal(size=37)
        y = rng.normal(loc=0.4, size=53)
        assert w1_distance_1d(x, y) == pytest.approx(
            scipy.stats.wasserstein_distance(x, y), abs=1e-12)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30),
           st.lists(st.floats(-100, 100), min_size=1, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_symmetry_and_nonnegativity(self, xs, ys):
        x, y = np.asarray(xs), np.asarray(ys)
        forward = w1_distance_1d(x, y)
        assert forward >= 0.0
        assert forward == pytest.approx(w1_distance_1d(y, x), abs=1e-9)


class TestHistograms:
    def test_fd_bins_respect_floor_and_cap(self):
        assert freedman_diaconis_bins(np.array([1.0, 1.0, 1.0])) == 8
        huge = np.concatenate([np.zeros(4), np.ones(4) * 1e9, [5.0]])
        assert freedman_diaconis_bins(huge) <= 64

    def test_jsd_zero_for_identical(self):
        p = np.array([0.25, 0.75])
        assert jsd_masses(p, p) == 0.0

    def test_jsd_disjoint_close_to_one(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        assert jsd_masses(p, q) == pytest.approx(1.0, abs=1e-8)

    def test_entropy_uniform(self):
        masses = histogram_masses(np.arange(8.0), 0.0, 8.0, 8)
        assert shannon_entropy(masses) == pytest.approx(math.log(8), abs=1e-12)
