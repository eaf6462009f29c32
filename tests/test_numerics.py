import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from smdcard import numerics
from smdcard.errors import EvaluationError
from smdcard.congruence import jensen_shannon, jensen_shannon_replicates
from smdcard.coverage import embedding_entropy, embedding_entropy_replicates
from smdcard.numerics import (FD_MAX_BINS, FD_MIN_BINS, ball_query,
                              dimension_histograms, jsd_masses,
                              kth_neighbor_distances, pairwise_distances,
                              pca_fit, shannon_entropy, w1_distance_1d)

from conftest import (ADVERSARIAL_CASES, GRAM_BLOCKS, adversarial_sets,
                      block_sizes, blocked, difference_distances,
                      embedding_from)


class TestKnn:
    def test_coincident_point_self_allowed(self):
        ref = np.array([[0.0, 0.0], [3.0, 4.0]])
        query = np.array([[0.0, 0.0]])
        (smallest,), occupied = ball_query(query, ref, np.zeros((1, 2)))
        assert smallest[0] == 0.0
        assert occupied.tolist() == [True, False]

    def test_three_four_five_triangle(self):
        ref = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert kth_neighbor_distances(ref, 1)[0, 0] == 5.0

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
            assert np.array_equal(kth_neighbor_distances(pts, j + 1)[0],
                                  oracle[:, j])

    def test_k_out_of_range_names_limit(self):
        with pytest.raises(EvaluationError, match="at most k=2"):
            kth_neighbor_distances(np.eye(3), 3)

    def test_self_distances_match_brute_force(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(40, 3))
        (first,) = kth_neighbor_distances(data, 1)
        (second,) = kth_neighbor_distances(data, 2)
        for r in range(len(data)):
            brute = sorted(np.linalg.norm(data[r] - data[j])
                           for j in range(len(data)) if j != r)
            assert first[r] == pytest.approx(brute[0], abs=1e-12)
            assert second[r] == pytest.approx(brute[1], abs=1e-12)

    def test_block_size_does_not_change_bits(self):
        rng = np.random.default_rng(19)
        a = rng.normal(size=(37, 7))
        b = rng.normal(size=(23, 7))
        radii = rng.uniform(2.0, 4.0, size=23)
        # one block at the default size
        whole = (pairwise_distances(a, b), kth_neighbor_distances(a, 3),
                 *ball_query(a, b, radii[None]))
        for sizes in GRAM_BLOCKS[:-1]:
            with blocked(sizes):
                split = (pairwise_distances(a, b),
                         kth_neighbor_distances(a, 3),
                         *ball_query(a, b, radii[None]))
            for got, want in zip(split, whole):
                assert np.array_equal(got, want)

    @given(st.integers(1, 300), st.integers(1, 300), block_sizes)
    @settings(max_examples=200, deadline=None)
    def test_gram_blocks_cover_rows_in_order_within_cap(self, n, m, sizes):
        """The Gram blocks run over rows 0..n in order, each ``q`` the
        product's rows, and none holds more than ``_BLOCK_ELEMENTS``
        entries but a single row."""
        rng = np.random.default_rng(n * 1000 + m)
        query, centers = rng.normal(size=(n, 3)), rng.normal(size=(m, 3))
        with blocked(sizes):
            blocks = list(numerics._GramFilter(query, centers).blocks())
        assert [start for start, _, _ in blocks] == [
            0, *(stop for _, stop, _ in blocks[:-1])]
        assert blocks[-1][1] == n
        for start, stop, q in blocks:
            assert q.shape == (stop - start, m)
            assert stop - start == 1 or q.size <= sizes[0]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @given(st.sampled_from(ADVERSARIAL_CASES), st.sampled_from([1, 16]),
           st.integers(0, 999), st.integers(1, 39), block_sizes)
    @settings(max_examples=150, deadline=None)
    def test_nearest_neighbors_equal_stable_sort_of_each_row(
            self, case, d, seed, width, sizes):
        """Each row's ``width`` nearest other rows are its first ones in a
        stable sort of its difference-formula distances, self left out:
        distances ascending, ties in index order."""
        data = adversarial_sets(case, d, seed=seed)[0]
        dist = difference_distances(data, data)
        others = np.arange(len(data))
        want = [others[others != i][np.argsort(dist[i, others != i],
                                               kind="stable")[:width]]
                for i in others]
        with blocked(sizes):
            distances, indices = numerics.nearest_neighbors(data, width)
        assert np.array_equal(indices, want)
        assert distances.tobytes() == np.take_along_axis(
            dist, indices, axis=1).tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("d", [1, 16, 64])
    @pytest.mark.parametrize("case", ADVERSARIAL_CASES)
    def test_adversarial_inputs_match_difference_formula(self, case, d):
        real, synth = adversarial_sets(case, d, seed=d)
        within = difference_distances(real, real)
        others = within.copy()
        np.fill_diagonal(others, np.inf)
        across = difference_distances(synth, real)

        def check(query, dist, balls):
            inside = dist <= balls
            (smallest,), occupied = ball_query(query, real, balls[None])
            assert np.array_equal(
                smallest, np.where(inside, balls, np.inf).min(axis=1))
            assert np.array_equal(occupied, inside.any(axis=0))

        def check_all():
            for k in (1, 3, 5):
                radii = np.partition(others, k - 1, axis=1)[:, k - 1]
                assert np.array_equal(kth_neighbor_distances(real, k)[0],
                                      radii)
                # the k-th neighbor of each center lies exactly on its radius
                for balls in (radii, np.nextafter(radii, np.inf),
                              np.nextafter(radii, -np.inf)):
                    check(real, within, balls)
                    check(synth, across, balls)
            for radius in (0.0, np.inf):
                check(synth, across, np.full(len(real), radius))

        for sizes in GRAM_BLOCKS:
            with blocked(sizes):
                check_all()


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

    @pytest.mark.parametrize("k", [-30, -20, 1, 300, 520])
    def test_power_of_two_scale_moves_only_the_mean(self, k):
        # the covariance is formed on the centered rows times 2^-e, exact in
        # float64, so no square overflows at 2^520 and the basis is the same;
        # the rank tolerance is relative to the trace, so no component is
        # padded at 2^-30 either
        rng = np.random.default_rng(9)
        data = rng.normal(size=(20, 8))
        basis, scaled = pca_fit(data, 3), pca_fit(np.ldexp(data, k), 3)
        assert (basis.padded, scaled.padded) == (0, 0)
        assert np.array_equal(scaled.components, basis.components)
        assert scaled.explained_ratio == basis.explained_ratio
        assert np.array_equal(scaled.mean, np.ldexp(basis.mean, k))

    def test_unit_scaled_and_scaled_back(self):
        half = np.array([[0.25, -0.5]])
        e, (same,) = numerics.unit_scaled(half)
        assert e == 0 and np.array_equal(same, half)
        assert numerics.unit_scaled(np.zeros((2, 2)))[0] == 0
        e, (a, b) = numerics.unit_scaled(np.array([[1.0]]),
                                         np.array([[-3.5]]))
        assert (e, a.tolist(), b.tolist()) == (2, [[0.25]], [[-0.875]])
        e, (up,) = numerics.unit_scaled(np.array([[2.0 ** -1074, -0.125]]))
        assert (e, up.tolist()) == (-2, [[2.0 ** -1072, -0.5]])
        e, _ = numerics.unit_scaled(np.array([[0.125]]), down_only=True)
        assert e == 0
        assert numerics.scaled_back(-0.75, 4) == -12.0
        assert numerics.scaled_back(0.75, 2000) == math.inf
        assert numerics.scaled_back(-0.75, 2000) == -math.inf

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


def _fd_bins_oracle(values):
    """The Freedman-Diaconis count of one pooled dimension, clamped."""
    span = float(values.max() - values.min())
    if span <= 0:
        return FD_MIN_BINS
    q75, q25 = np.percentile(values, [75, 25])
    iqr = float(q75 - q25)
    if iqr <= 0:
        return FD_MIN_BINS
    width = 2.0 * iqr * values.size ** (-1.0 / 3.0)
    bins = int(np.ceil(span / width)) if width > 0 else FD_MAX_BINS
    return max(FD_MIN_BINS, min(FD_MAX_BINS, bins))


def _np_histogram_rule(x, b, lo, hi):
    """``np.histogram(x, b, range=(lo, hi))``'s uniform-bin rule, for the
    spans where numpy refuses to build that many distinct edges (subnormal
    spans): numpy's ``linspace`` edges, the quotient bin index, then one
    bin down or up against the edges, the last bin closed."""
    edges = np.linspace(lo, hi, b + 1)
    index = ((x - lo) / (hi - lo) * b).astype(np.intp)
    index[index == b] -= 1
    index[x < edges[index]] -= 1
    index[(x >= edges[index + 1]) & (index != b - 1)] += 1
    return np.bincount(index, minlength=b)


def _histograms_oracle(samples, bins=None):
    """One np.histogram per sample and dimension on the pooled range."""
    masses, bin_counts = [], []
    for j in range(samples[0].shape[1]):
        pooled = np.concatenate([s[:, j] for s in samples])
        lo, hi = float(pooled.min()), float(pooled.max())
        if lo == hi:
            masses.append(None)
            bin_counts.append(0)
            continue
        b = bins if bins is not None else _fd_bins_oracle(pooled)
        try:
            counts = [np.histogram(s[:, j], bins=b, range=(lo, hi))[0]
                      for s in samples]
        except ValueError as exc:
            assert "Too many bins" in str(exc)
            counts = [_np_histogram_rule(s[:, j], b, lo, hi)
                      for s in samples]
        masses.append(tuple(c / s.shape[0] for c, s in zip(counts, samples)))
        bin_counts.append(b)
    return masses, bin_counts


def _jsd_oracle(real, synth, bins):
    masses, bin_counts = _histograms_oracle((real, synth), bins)
    values = [0.0 if m is None else jsd_masses(*m) for m in masses]
    constant = [j for j, m in enumerate(masses) if m is None]
    return float(np.mean(values)), {
        "per_dimension": values, "bins": bin_counts,
        **({"constant_dimensions": constant} if constant else {})}


def _entropy_oracle(synth, bins):
    masses, _ = _histograms_oracle((synth,), bins)
    values = [0.0 if m is None else shannon_entropy(m[0]) for m in masses]
    constant = [j for j, m in enumerate(masses) if m is None]
    return float(np.mean(values)), {
        "per_dimension": values,
        **({"constant_dimensions": constant} if constant else {})}


@st.composite
def _histogram_inputs(draw):
    """Two sets with unequal row counts: integer coordinates (ties),
    heavy-tailed floats, or a few hundred subnormal steps above an offset
    (bin steps that underflow to 0), some dimensions constant across both
    sets, and an explicit bin count or the Freedman-Diaconis default."""
    d = draw(st.integers(1, 5))
    n_real, n_synth = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    family = draw(st.sampled_from(["ties", "heavy", "subnormal"]))
    if family == "ties":
        real = rng.integers(-2, 3, size=(n_real, d)).astype(np.float64)
        synth = rng.integers(-2, 3, size=(n_synth, d)).astype(np.float64)
    elif family == "heavy":
        real = rng.standard_t(2, size=(n_real, d)) * 10.0 ** rng.integers(-3, 4)
        synth = rng.standard_t(2, size=(n_synth, d)) + 1e8 * draw(st.booleans())
    else:
        steps = draw(st.integers(1, 300))
        offset = draw(st.sampled_from([0.0, -2.0 ** -1022, 2.0 ** -1060]))
        real, synth = (rng.integers(0, steps + 1, size=(n, d)) * 2.0 ** -1074
                       + offset for n in (n_real, n_synth))
    for j in draw(st.sets(st.integers(0, d - 1), max_size=d)):
        real[:, j] = synth[:, j] = 3.5
    bins = draw(st.one_of(st.none(), st.integers(1, 70)))
    return real, synth, bins


@st.composite
def _replicate_inputs(draw):
    """``_histogram_inputs`` and one to nine draws of one length, each 1
    to n synthetic rows that may repeat."""
    real, synth, bins = draw(_histogram_inputs())
    n = synth.shape[0]
    size = draw(st.integers(1, n))
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=size,
                                  max_size=size), min_size=1, max_size=9))
    return real, synth, bins, [np.asarray(x) for x in rows]


def _dimension_masses(masses, bin_counts):
    """Per dimension of the first set: None where constant, else one mass
    vector per sample, cut at the dimension's bin count."""
    return [None if b == 0 else tuple(m[0, j, :b] for m in masses)
            for j, b in enumerate(bin_counts[0].tolist())]


def _stacks(samples):
    """The ``(sets, n, d)`` row stacks of ``(rows, counts)`` samples: a
    sample without counts is a stack of one set, shared by the others, and
    set s of a sample with counts repeats each row as often as it draws it."""
    return [rows[None] if counts is None else
            np.stack([np.repeat(rows, c, axis=0) for c in counts])
            for rows, counts in samples]


def _percentile_histograms(samples, bins=None):
    """``dimension_histograms`` as it was when it binned stacks of row sets
    and took the Freedman-Diaconis quartiles with ``np.percentile``: the
    oracle of ``_linear_quantile`` and of the weighted counts."""
    samples = _stacks(samples)
    sets = max(s.shape[0] for s in samples)
    d = samples[0].shape[2]
    sizes = [s.shape[1] for s in samples]
    pooled = np.concatenate([np.broadcast_to(
        s.transpose(0, 2, 1), (sets, d, n)) for s, n in zip(samples, sizes)],
        axis=2).reshape(sets * d, sum(sizes))
    ordered = np.sort(pooled, axis=1)
    lo, hi = ordered[:, 0], ordered[:, -1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        span = hi - lo
        overflow = ~np.isfinite(span)
        if bins is None:
            q75, q25 = np.percentile(ordered, [75, 25], axis=1)
            iqr = q75 - q25
            overflow |= ~np.isfinite(iqr)
            width = 2.0 * iqr * pooled.shape[1] ** (-1.0 / 3.0)
            fd = np.clip(np.ceil(span / width), FD_MIN_BINS, FD_MAX_BINS)
            counts = np.where((iqr > 0) & ~overflow, fd, FD_MIN_BINS
                              ).astype(np.intp)
        else:
            counts = np.full(lo.shape, bins, dtype=np.intp)
    counts[(lo == hi) | overflow] = 0
    rows, top = counts.size, int(counts.max())
    slots = max(top, 1)
    b = np.maximum(counts, 1)[:, None]
    delta = np.where(counts > 0, span, 1.0)[:, None]
    steps = np.arange(slots + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        step = delta / b
        edges = np.where(step == 0, steps / b * delta, steps * step)
        edges += lo[:, None]
        edges[np.arange(rows), b[:, 0]] = hi
        index = ((pooled - lo[:, None]) / delta * b).astype(np.intp)
    np.clip(index, 0, b, out=index)
    index[index == b] -= 1
    first = (np.arange(rows) * (slots + 1))[:, None]
    index += first
    flat = edges.ravel()
    index -= pooled < flat[index]
    index += (pooled >= flat[index + 1]) & (index != first + b - 1)
    index += np.repeat(np.arange(len(samples)) * edges.size, sizes)
    tallies = np.bincount(index.ravel(), minlength=len(samples) * edges.size
                          ).reshape(len(samples), rows, slots + 1)
    tallies = tallies[:, :, :top]
    tallies[:, counts == 0] = 0
    masses = tuple((t / n).reshape(sets, d, top)
                   for t, n in zip(tallies, sizes))
    counts[overflow] = -1
    return masses, counts.reshape(sets, d)


#: values that stress the quartiles: ties, both zeros, both float64 ends
_EDGE_VALUES = (0.0, -0.0, 1.0, -1.0, 2.5, 1e308, -1e308, 5e-324)


@st.composite
def _edge_samples(draw):
    """One to three ``(rows, counts)`` samples, rows drawn from
    ``_EDGE_VALUES`` or normals, sizes down to 1; each sample counts every
    row once or draws, in each of ``sets`` sets, rows of one total that may
    repeat or be left out; and an explicit bin count or the
    Freedman-Diaconis default."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sets, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    samples = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 12))
        if draw(st.booleans()):
            rows = rng.choice(_EDGE_VALUES, size=(n, d))
        else:
            rows = rng.normal(size=(n, d))
        counts = None
        if draw(st.booleans()):
            counts = numerics.draw_counts(rng.integers(
                0, n, size=(sets, draw(st.integers(1, 2 * n)))), n)
        samples.append((rows, counts))
    bins = draw(st.one_of(st.none(), st.integers(1, 9)))
    return samples, bins


class TestHistograms:
    def test_fd_bins_respect_floor_and_cap(self):
        constant = np.array([[1.0], [1.0], [1.0]])
        (masses,), bin_counts = dimension_histograms(((constant, None),))
        assert bin_counts.tolist() == [[0]] and not masses.any()
        no_iqr = np.array([[1.0], [1.0], [1.0], [1.0], [2.0]])
        assert dimension_histograms(((no_iqr, None),))[1].tolist() == [
            [FD_MIN_BINS]]
        huge = np.concatenate([np.zeros(4), np.ones(4) * 1e9, [5.0]])
        assert dimension_histograms(((huge[:, None], None),))[1][0, 0] \
            <= FD_MAX_BINS

    @pytest.mark.parametrize("bins", [None, 8])
    def test_overflowing_span_flagged(self, bins):
        # dimension 0 spans more than float64's range; dimension 1 is plain
        rng = np.random.default_rng(4)
        sets = [np.column_stack((rng.uniform(-1, 1, n) * 1.5e308,
                                 rng.normal(size=n))) for n in (50, 40)]
        masses, bin_counts = dimension_histograms([(s, None) for s in sets],
                                                  bins)
        assert bin_counts[0, 0] == -1
        assert not any(m[0, 0].any() for m in masses)
        plain, plain_counts = dimension_histograms(
            [(s[:, 1:], None) for s in sets], bins)
        assert bin_counts[0, 1] == plain_counts[0, 0]
        assert all(np.array_equal(m[0, 1, :plain_counts[0, 0]], p[0, 0])
                   for m, p in zip(masses, plain))

    def test_overflow_markers_same_in_block_and_single_sets(self):
        # one synthetic row near -1e308, the others near +1e308: only the
        # replicates that draw both signs overflow
        rng = np.random.default_rng(5)
        data = np.where(np.arange(20) < 1, -1.0, 1.0)[:, None] * 1.5e308
        data = data * rng.uniform(0.9, 1.0, size=(20, 1))
        s = embedding_from(np.column_stack((data, rng.normal(size=20))), "s")
        rows = [rng.integers(0, 20, size=20) for _ in range(12)]
        block = embedding_entropy_replicates(s, rows)
        assert repr(block) == repr([embedding_entropy(s.resample(x))
                                    for x in rows])
        reasons = {v[1].get("undefined_reason") for v in block}
        assert reasons == {None, "pooled range overflows float64 in "
                                 "dimensions [0]"}

    @given(st.lists(st.sampled_from(_EDGE_VALUES) | st.floats(
        -1e6, 1e6), min_size=1, max_size=30), st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_sorted_quantile_equals_percentile(self, values, rows):
        ordered = np.sort(np.tile(values, (rows, 1)), axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.percentile(ordered, [75, 25], axis=1)
            for q, expected in zip((0.75, 0.25), want):
                # equal up to the sign of a zero, which numpy's partition
                # may swap with the other zero
                assert np.array_equal(numerics._linear_quantile(
                    lambda k: ordered[:, k], ordered.shape[1], q),
                    expected, equal_nan=True)

    @given(_edge_samples())
    @settings(max_examples=300, deadline=None)
    def test_equal_to_percentile_quartile_kernel(self, inputs):
        samples, bins = inputs
        masses, bin_counts = dimension_histograms(samples, bins)
        want_masses, want_counts = _percentile_histograms(samples, bins)
        assert np.array_equal(bin_counts, want_counts)
        assert len(masses) == len(want_masses)
        for got, want in zip(masses, want_masses):
            assert got.tobytes() == want.tobytes()

    def test_bins_below_one_rejected(self):
        with pytest.raises(EvaluationError, match="bins=0"):
            dimension_histograms(((np.arange(4.0)[:, None], None),), bins=0)

    @given(_histogram_inputs())
    @settings(max_examples=300, deadline=None)
    def test_equal_to_per_dimension_histogram_oracle(self, inputs):
        real, synth, bins = inputs
        for samples in ((real, synth), (synth,)):
            masses, bin_counts = dimension_histograms(
                [(s, None) for s in samples], bins)
            want_masses, want_bins = _histograms_oracle(samples, bins)
            assert bin_counts[0].tolist() == want_bins
            got_masses = _dimension_masses(masses, bin_counts)
            for got, want in zip(got_masses, want_masses):
                assert (got is None) == (want is None)
                if got is not None:
                    assert all(np.array_equal(g, w) for g, w in zip(got, want))
            # nothing is counted past a dimension's bin count
            past = np.arange(masses[0].shape[2]) >= bin_counts[..., None]
            assert not any(m[past].any() for m in masses)
        r, s = embedding_from(real, "r"), embedding_from(synth, "s")
        assert repr(jensen_shannon(r, s, bins)) == repr(
            _jsd_oracle(real, synth, bins))
        assert repr(embedding_entropy(s, bins)) == repr(
            _entropy_oracle(synth, bins))

    @given(_replicate_inputs())
    # subnormal spans, where np.histogram's quotient index must be kept:
    # np.histogram's JSD of the first is 0.9999999999566941
    @example((np.array([[1e-323]]), np.array([[5e-324]]), 4, [np.array([0])]))
    @example((np.array([[6.4e-323, 2.87e-322]]),
              np.array([[3.1e-322, 2.08e-322]]), 26, [np.array([0])]))
    @settings(max_examples=150, deadline=None)
    def test_replicate_blocks_equal_single_sets(self, inputs):
        """Each replicate of a JSD or entropy block, draws of one length
        from 1 to n rows, is repr-equal to the single-set metric on
        ``resample(rows)``, which is np.histogram's, whether the block's
        sets are binned in one slice or in several."""
        real, synth, bins, rows = inputs
        r, s = embedding_from(real, "r"), embedding_from(synth, "s")
        want_jsd = [repr(jensen_shannon(r, s.resample(x), bins)) for x in rows]
        want_entropy = [repr(embedding_entropy(s.resample(x), bins))
                        for x in rows]
        assert want_jsd == [repr(_jsd_oracle(real, synth[x], bins))
                            for x in rows]
        assert want_entropy == [repr(_entropy_oracle(synth[x], bins))
                                for x in rows]
        default_block = numerics._BLOCK_ELEMENTS
        # two sets per slice of a JSD block, more of an entropy block
        pair = 2 * s.d * (s.n + r.n + (bins or FD_MAX_BINS) + 2)
        try:
            for block in (default_block, pair, 1):
                numerics._BLOCK_ELEMENTS = block
                assert [repr(v) for v in jensen_shannon_replicates(
                    r, s, rows, bins)] == want_jsd
                assert [repr(v) for v in embedding_entropy_replicates(
                    s, rows, bins)] == want_entropy
        finally:
            numerics._BLOCK_ELEMENTS = default_block

    def test_jsd_zero_for_identical(self):
        p = np.array([0.25, 0.75])
        assert jsd_masses(p, p) == 0.0

    def test_jsd_disjoint_close_to_one(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        assert jsd_masses(p, q) == pytest.approx(1.0, abs=1e-8)

    def test_entropy_uniform(self):
        (masses,), _ = dimension_histograms(((np.arange(8.0)[:, None], None),),
                                            8)
        assert shannon_entropy(masses[0, 0]) == pytest.approx(math.log(8),
                                                              abs=1e-12)
