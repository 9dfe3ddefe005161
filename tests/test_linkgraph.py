import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist, squareform

from latentgraph import (
    Adjacency,
    Box,
    Indicator,
    KnnAdjacency,
    PointConfig,
    PolynomialEdge,
    ScaledIndicator,
    TwoLevel,
    common_neighbor_denoise,
    couple_thin,
    generate_graph,
    interval,
    knn_graph,
    knn_radii,
    knn_scale,
    pairwise_distances,
    rectangle,
    sample_uniform,
    symmetrize_union,
    unit_ball_volume,
)
from latentgraph import geometry, linkgraph
from latentgraph._rng import pair_uniform_row
from tests.conftest import random_graph
from tests.reference_graphs import (
    dense_adjacency,
    dense_couple_thin,
    dense_knn_graph,
    dense_knn_radii,
    dense_symmetrize_union,
    row_loop_generate_graph,
)

LINKS = (Indicator(0.15), ScaledIndicator(0.15, 0.4), PolynomialEdge(0.2, 0.9, 1.5),
         TwoLevel(0.1, 0.8, 0.02))


def lattice(side: int, spacing: float = 1.0) -> PointConfig:
    """``side`` × ``side`` grid points: every distance repeats many times."""
    g = np.stack(np.meshgrid(np.arange(side), np.arange(side)), axis=-1).reshape(-1, 2)
    return PointConfig(g * spacing, rectangle(side * spacing, side * spacing))


def cube_config(points: np.ndarray) -> PointConfig:
    """Points in the smallest cube [0, s]^v that holds them."""
    pts = np.asarray(points, dtype=np.float64)
    side = max(1.0, float(pts.max()))
    return PointConfig(pts, Box(np.zeros(pts.shape[1]), np.full(pts.shape[1], side)))


def assert_knn_matches_reference(cfg: PointConfig, kappa: int) -> None:
    got = knn_graph(cfg, kappa)
    want = dense_knn_graph(cfg, kappa)
    assert got.out_neighbors.tobytes() == want.out_neighbors.tobytes()
    assert knn_radii(cfg, kappa).tobytes() == dense_knn_radii(cfg, kappa).tobytes()


class TestLinkFunctions:
    def test_indicator(self):
        link = Indicator(0.2)
        assert link(0.1) == 1.0
        assert link(0.3) == 0.0
        assert link(0.2) == 1.0

    def test_polynomial_linear_ramp(self):
        link = PolynomialEdge(r=1.0, c0=1.0, alpha=1.0)
        assert link(0.5) == pytest.approx(0.5)
        assert link(1.5) == 0.0

    def test_two_level_far_value(self):
        link = TwoLevel(r=1.0, p=0.8, q=0.1)
        assert link(2.0) == pytest.approx(0.1)
        assert link(0.5) == pytest.approx(0.8)

    def test_values_in_unit_interval_and_nonincreasing(self):
        grid = np.linspace(0, 3, 301)
        for link in (Indicator(0.7), ScaledIndicator(0.7, 0.4),
                     PolynomialEdge(0.7, 0.9, 2.0), TwoLevel(0.7, 0.8, 0.05)):
            vals = link(grid)
            assert np.all((vals >= 0) & (vals <= 1))
            assert np.all(np.diff(vals) <= 1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Indicator(0.0)
        with pytest.raises(ValueError):
            ScaledIndicator(1.0, 0.0)
        with pytest.raises(ValueError):
            PolynomialEdge(1.0, 1.5, 1.0)
        with pytest.raises(ValueError):
            PolynomialEdge(1.0, 0.5, -0.1)
        with pytest.raises(ValueError):
            TwoLevel(1.0, 0.5, 0.5)

    @pytest.mark.parametrize("link, args", [
        (Indicator, (np.nan,)),
        (ScaledIndicator, (np.nan, 0.5)),
        (PolynomialEdge, (np.nan, 0.5, 1.0)),
        (PolynomialEdge, (1.0, 0.5, np.nan)),
        (TwoLevel, (np.nan, 0.5, 0.1)),
    ])
    def test_nan_parameters_rejected(self, link, args):
        # NaN fails every comparison: a check written as r <= 0 or alpha < 0 lets it through
        with pytest.raises(ValueError):
            link(*args)

    def test_infinite_radius_accepted(self):
        for link in (Indicator(np.inf), ScaledIndicator(np.inf, 0.5),
                     PolynomialEdge(np.inf, 0.5, 1.0), TwoLevel(np.inf, 0.5, 0.1)):
            assert link.r == np.inf


class TestGenerateGraph:
    def test_indicator_equals_threshold_bitwise(self):
        cfg = sample_uniform(rectangle(2, 1), 150, seed=4)
        adj = generate_graph(cfg, Indicator(0.3), seed=99)
        d = pairwise_distances(cfg)
        expect = d <= 0.3
        np.fill_diagonal(expect, False)
        assert np.array_equal(adj.dense(), expect)
        # no randomness: another seed gives the same graph
        assert adj == generate_graph(cfg, Indicator(0.3), seed=100)

    def test_zero_distance_pair_linked(self):
        pts = np.array([[0.5, 0.5], [0.5, 0.5], [0.9, 0.9]])
        cfg = PointConfig(pts, rectangle(1, 1))
        adj = generate_graph(cfg, PolynomialEdge(0.2, 1.0, 1.0), seed=0)
        assert adj.dense()[0, 1]

    def test_scaled_indicator_edge_fraction(self):
        cfg = sample_uniform(rectangle(2, 1), 200, seed=1)
        adj = generate_graph(cfg, ScaledIndicator(0.4, 0.5), seed=7)
        d = pairwise_distances(cfg)
        iu = np.triu_indices(cfg.n, 1)
        close = d[iu] <= 0.4
        m = int(close.sum())
        hits = int(adj.dense()[iu][close].sum())
        sigma = np.sqrt(m * 0.25)
        assert abs(hits - 0.5 * m) <= 4 * sigma
        # nothing beyond the support
        assert not adj.dense()[iu][~close].any()

    def test_outcomes_keyed_by_pair(self):
        # edge decisions must match a direct recomputation from the keyed stream
        cfg = sample_uniform(rectangle(2, 1), 40, seed=2)
        link = ScaledIndicator(0.8, 0.5)
        adj = generate_graph(cfg, link, seed=5)
        d = pairwise_distances(cfg)
        dense = adj.dense()
        for i in (0, 13, 38):
            u = pair_uniform_row(5, i, cfg.n)
            expect = u < link(d[i, i + 1 :])
            assert np.array_equal(dense[i, i + 1 :], expect)

    @pytest.mark.parametrize("n, dim", [(3000, 2), (1000, 1), (800, 3)])
    def test_distance_rows_equal_full_matrix_rows(self, n, dim):
        # generate_graph takes row i's distances from cdist, the presets'
        # truth comes from pdist: the two must agree bit for bit
        pts = np.random.default_rng(dim).random((n, dim))
        full = squareform(pdist(pts))
        for i in range(n - 1):
            assert cdist(pts[i : i + 1], pts[i + 1 :])[0].tobytes() == full[i, i + 1 :].tobytes()

    def test_determinism(self):
        cfg = sample_uniform(rectangle(2, 1), 60, seed=3)
        a = generate_graph(cfg, TwoLevel(0.3, 0.9, 0.05), seed=11)
        b = generate_graph(cfg, TwoLevel(0.3, 0.9, 0.05), seed=11)
        c = generate_graph(cfg, TwoLevel(0.3, 0.9, 0.05), seed=12)
        assert a == b
        assert a != c


class TestCoupleThin:
    def test_keep_all_is_identity(self):
        adj = random_graph(40, 0.3, seed=0)
        assert couple_thin(adj, 1.0, seed=5) == adj

    def test_output_is_subgraph(self):
        adj = random_graph(60, 0.4, seed=1)
        thin = couple_thin(adj, 0.7, seed=2)
        assert not (thin.dense() & ~adj.dense()).any()

    def test_binomial_fraction(self):
        adj = random_graph(200, 0.5, seed=3)
        m = adj.edge_count()
        assert m > 9000
        thin = couple_thin(adj, 0.5, seed=4)
        sigma = np.sqrt(m * 0.25)
        assert abs(thin.edge_count() - 0.5 * m) <= 4 * sigma

    def test_thinning_emulates_lower_level(self):
        # a p=0.5 graph thinned with keep 0.2/0.5 has the marginals of p=0.2
        cfg = sample_uniform(rectangle(2, 1), 300, seed=6)
        half = generate_graph(cfg, ScaledIndicator(0.4, 0.5), seed=1)
        fifth = couple_thin(half, 0.2 / 0.5, seed=2)
        d = pairwise_distances(cfg)
        iu = np.triu_indices(cfg.n, 1)
        close = d[iu] <= 0.4
        m = int(close.sum())
        hits = int(fifth.dense()[iu][close].sum())
        sigma = np.sqrt(m * 0.2 * 0.8)
        assert abs(hits - 0.2 * m) <= 4 * sigma
        assert not (fifth.dense() & ~half.dense()).any()

    def test_validation(self):
        adj = random_graph(10, 0.5, seed=0)
        with pytest.raises(ValueError):
            couple_thin(adj, 0.0, seed=1)


class TestKnn:
    def test_collinear_tie_break(self):
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])
        cfg = PointConfig(pts, interval(3.0))
        knn = knn_graph(cfg, 1)
        assert knn.out_neighbors.tolist() == [[1], [0], [1], [2]]

    def test_complete_when_kappa_max(self):
        cfg = sample_uniform(rectangle(1, 1), 10, seed=0)
        knn = knn_graph(cfg, 9)
        for i in range(10):
            assert sorted(knn.out_neighbors[i]) == [j for j in range(10) if j != i]

    def test_matches_sort_oracle(self):
        cfg = sample_uniform(rectangle(2, 1), 50, seed=8)
        knn = knn_graph(cfg, 5)
        d = pairwise_distances(cfg)
        for i in range(50):
            others = [(d[i, j], j) for j in range(50) if j != i]
            others.sort()
            expect = sorted(j for _, j in others[:5])
            assert knn.out_neighbors[i].tolist() == expect

    def test_kappa_range_validated(self):
        cfg = sample_uniform(rectangle(1, 1), 10, seed=0)
        with pytest.raises(ValueError):
            knn_graph(cfg, 0)
        with pytest.raises(ValueError):
            knn_graph(cfg, 10)

    def test_radii_collinear(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        cfg = PointConfig(pts, interval(2.0))
        assert knn_radii(cfg, 2).tolist() == [2.0, 1.0, 2.0]

    def test_radii_kappa_one_is_nearest(self):
        cfg = sample_uniform(rectangle(2, 1), 30, seed=1)
        d = pairwise_distances(cfg)
        np.fill_diagonal(d, np.inf)
        assert np.allclose(knn_radii(cfg, 1), d.min(axis=1))

    def test_radii_matches_sort_oracle(self):
        cfg = sample_uniform(rectangle(2, 1), 50, seed=2)
        r = knn_radii(cfg, 7)
        d = pairwise_distances(cfg)
        for i in range(50):
            expect = sorted(d[i, j] for j in range(50) if j != i)[6]
            assert r[i] == pytest.approx(expect, abs=1e-12)

    def test_neighbors_within_radius(self):
        cfg = sample_uniform(rectangle(2, 1), 80, seed=3)
        knn = knn_graph(cfg, 6)
        radii = knn_radii(cfg, 6)
        d = pairwise_distances(cfg)
        for i in range(80):
            assert np.all(d[i, knn.out_neighbors[i]] <= radii[i] + 1e-12)


class TestSymmetrize:
    def test_union_definition(self):
        knn = KnnAdjacency(3, 1, np.array([[1], [2], [1]], dtype=np.int32))
        adj = symmetrize_union(knn)
        assert adj.edges().tolist() == [[0, 1], [1, 2]]

    def test_union_is_symmetric_and_idempotent(self):
        cfg = sample_uniform(rectangle(2, 1), 40, seed=4)
        adj = symmetrize_union(knn_graph(cfg, 4))
        dense = adj.dense()
        assert np.array_equal(dense, dense.T)
        assert dense_adjacency(dense) == adj

    def test_keys_past_int32_at_large_n(self):
        # out_neighbors are int32; the pair keys v * n + w of the last rows pass 2**31
        n = 50_000
        v = np.arange(n)
        nb = np.sort(np.column_stack([(v + 1) % n, (v + n // 2 + 3) % n]), axis=1)
        knn = KnnAdjacency(n, 2, nb.astype(np.int32))
        pairs = np.column_stack([np.repeat(v, 2), nb.ravel()]).astype(np.int64)
        adj = symmetrize_union(knn)
        assert adj == Adjacency.from_edges(n, pairs)
        assert adj.edge_count() == 2 * n

    def test_union_equals_dense_or_oracle(self):
        cfg = sample_uniform(rectangle(2, 1), 50, seed=5)
        knn = knn_graph(cfg, 5)
        directed = np.zeros((50, 50), dtype=bool)
        for i in range(50):
            directed[i, knn.out_neighbors[i]] = True
        expect = directed | directed.T
        adj = symmetrize_union(knn)
        assert np.array_equal(adj.dense(), expect)
        assert adj.edge_count() == int(expect.sum() // 2)


class TestKnnScale:
    def test_strip_example(self):
        s = knn_scale(rectangle(4, 1), 5000, 25, c1=1.0)
        assert s.omega == pytest.approx(4 / np.pi)
        assert s.r_circ == pytest.approx(0.07979, abs=5e-6)
        assert s.r == pytest.approx(s.r_circ + s.eps)

    def test_one_dimensional(self):
        n = 100
        s = knn_scale(interval(1.0), n, n // 2, c1=1.0)
        assert s.omega == pytest.approx(0.5)  # unit ball in 1d has length 2
        assert s.r_circ == pytest.approx((n // 2) / (2 * n))

    def test_zero_constant_degenerates(self):
        s = knn_scale(rectangle(4, 1), 5000, 25, c1=0.0)
        assert s.eps == 0.0
        assert s.r == s.r_circ

    @pytest.mark.parametrize("kappa, n", [(0, 5000), (25, 25)])
    def test_kappa_range_validated(self, kappa, n):
        with pytest.raises(ValueError, match="need 1 <= kappa < n"):
            knn_scale(rectangle(4, 1), n, kappa)

    @pytest.mark.parametrize("c1", [np.nan, np.inf, -1.0])
    def test_constant_must_be_finite_and_non_negative(self, c1):
        # a NaN constant would hand a NaN hop scale to every check
        with pytest.raises(ValueError, match="need 0 <= c1 < inf"):
            knn_scale(rectangle(4, 1), 5000, 25, c1=c1)

    def test_unit_ball_volume(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(np.pi)
        assert unit_ball_volume(3) == pytest.approx(4 * np.pi / 3)


class TestCommonNeighborDenoise:
    def test_triangle_threshold(self):
        adj = Adjacency.from_edges(3, [[0, 1], [1, 2], [0, 2]])
        kept = common_neighbor_denoise(adj, 0.3)
        removed = common_neighbor_denoise(adj, 0.4)
        assert kept == adj
        assert removed.edge_count() == 0

    def test_tiny_tau_links_any_common_neighbor(self):
        # star: leaves share the hub; all leaf pairs become edges
        adj = Adjacency.from_edges(4, [[0, 1], [0, 2], [0, 3]])
        out = common_neighbor_denoise(adj, 1e-9)
        dense = out.dense()
        assert dense[1, 2] and dense[1, 3] and dense[2, 3]
        # hub pairs share no common neighbor here and the hub loses its edges
        assert not dense[0, 1]

    def test_matches_triple_loop_oracle(self):
        cfg = sample_uniform(rectangle(2, 1), 100, seed=9)
        adj = generate_graph(cfg, TwoLevel(0.4, 0.9, 0.05), seed=3)
        tau = 0.2
        got = common_neighbor_denoise(adj, tau)
        w = adj.dense()
        n = cfg.n
        expect = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                nij = int(np.sum(w[i] & w[j]))
                union = int(w[i].sum()) + int(w[j].sum()) - nij
                if union > 0 and nij / union >= tau:
                    expect[i, j] = expect[j, i] = True
        assert np.array_equal(got.dense(), expect)

    @given(tau1=st.floats(0.05, 1.0), tau2=st.floats(0.05, 1.0), seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_tau(self, tau1, tau2, seed):
        if tau1 > tau2:
            tau1, tau2 = tau2, tau1
        adj = random_graph(25, 0.3, seed)
        loose = common_neighbor_denoise(adj, tau1)
        tight = common_neighbor_denoise(adj, tau2)
        assert not (tight.dense() & ~loose.dense()).any()

    def test_complete_graph_counts_do_not_wrap(self):
        # every pair shares 198 neighbours: ratio 198 / 200, above tau
        n = 200
        adj = Adjacency.from_edges(n, np.column_stack(np.triu_indices(n, 1)))
        assert common_neighbor_denoise(adj, 0.9) == adj

    def test_validation(self):
        adj = random_graph(10, 0.5, seed=0)
        with pytest.raises(ValueError):
            common_neighbor_denoise(adj, 0.0)


class TestAdjacency:
    def test_edges_roundtrip(self):
        adj = random_graph(30, 0.2, seed=7)
        again = Adjacency.from_edges(30, adj.edges())
        assert again == adj

    def test_degrees(self):
        adj = Adjacency.from_edges(4, [[0, 1], [0, 2], [0, 3]])
        assert adj.degrees().tolist() == [3, 1, 1, 1]

    @pytest.mark.parametrize("bits", [1, 20, 1 << 20])
    @pytest.mark.parametrize("n, p", [(1, 0.3), (7, 0.3), (8, 0.3), (9, 0.3), (70, 0.3), (40, 0.0)])
    def test_edges_match_dense_reference(self, n, p, bits):
        adj = random_graph(n, p, seed=n)
        # reference: the packed rows, unpacked in blocks of one, a few or all rows
        step = max(1, bits // n)
        packed = adj.packed
        dense = np.concatenate([
            np.unpackbits(packed[lo : lo + step], axis=1, count=n, bitorder="little")
            for lo in range(0, n, step)
        ]).astype(bool)
        assert np.array_equal(dense, adj.dense())
        i, j = np.nonzero(np.triu(dense, 1))
        want = np.column_stack([i, j])
        got = adj.edges()
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 9, 70])
    def test_lists_from_repeated_shuffled_pairs(self, n):
        rng = np.random.default_rng(n)
        upper = np.triu(rng.random((n, n)) < 0.3, 1)
        i, j = np.nonzero(upper)
        pairs = np.concatenate([np.column_stack([i, j]), np.column_stack([j, i]),
                                np.column_stack([i, j])])
        adj = Adjacency.from_edges(n, rng.permutation(pairs))
        dense = upper | upper.T
        for v in range(n):
            got = adj.indices[adj.indptr[v] : adj.indptr[v + 1]]
            assert got.tolist() == np.flatnonzero(dense[v]).tolist()

    @pytest.mark.parametrize("n, indptr, indices, match", [
        (2, [0, 1], [1, 0], "n \\+ 1 entries"),
        (2, [1, 1, 2], [1, 0], "start at 0"),
        (2, [0, 1, 1], [1, 0], "end at len"),
        (3, [0, 2, 1, 2], [1, 0], "decrease"),
        (2, [0, 1, 2], [1, 2], "out of range"),
    ], ids=["length", "start", "end", "decreasing", "index-range"])
    def test_constructor_rejects_malformed_lists(self, n, indptr, indices, match):
        with pytest.raises(ValueError, match=match):
            Adjacency(n, np.array(indptr), np.array(indices))

    @pytest.mark.parametrize("edges, match", [
        ([[0, 1], [1, 3]], "endpoint out of range"),
        ([[0, 1], [-1, 2]], "endpoint out of range"),
        ([[0, 1], [2, 2]], "self-loops"),
    ], ids=["too-large", "negative", "self-loop"])
    def test_from_edges_rejects_malformed_edges(self, edges, match):
        with pytest.raises(ValueError, match=match):
            Adjacency.from_edges(3, edges)

    @pytest.mark.parametrize("nb, match", [
        ([[1], [0], [1]], "n-by-kappa"),
        ([[1, 3], [0, 2], [0, 1]], "out of range"),
        ([[0, 2], [0, 2], [0, 1]], "neighbor itself"),
        ([[1, 1], [0, 2], [0, 1]], "duplicate"),
    ], ids=["shape", "index-range", "self", "duplicate"])
    def test_knn_adjacency_rejects_malformed_rows(self, nb, match):
        with pytest.raises(ValueError, match=match):
            KnnAdjacency(3, 2, np.array(nb, dtype=np.int32))

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 70])
    def test_degrees_and_edge_count_match_dense(self, n):
        adj = random_graph(n, 0.3, seed=n)
        dense = adj.dense()
        assert np.array_equal(adj.degrees(), dense.sum(axis=1))
        assert adj.edge_count() == int(dense.sum()) // 2 == len(adj.edges())


class TestKnnAgainstDenseReference:
    @pytest.mark.parametrize("kappa", [4, 8, 12, 20])
    def test_tie_heavy_lattice(self, kappa):
        assert_knn_matches_reference(lattice(30), kappa)

    @pytest.mark.parametrize("kappa", [3, 12])
    def test_lattice_with_every_row_widened(self, monkeypatch, kappa):
        # no spare candidates: a row certifies only once its kappa-th
        # distance is strictly below the tree's last one
        monkeypatch.setattr(linkgraph, "_KNN_SPARE", 0)
        assert_knn_matches_reference(lattice(12, spacing=0.1), kappa)

    @pytest.mark.parametrize("kappa", [1, 5, 30, 79])
    def test_duplicate_points(self, kappa):
        # 80 points on 8 sites: ten copies of each, more than kappa + 9 for small kappa
        rng = np.random.default_rng(0)
        sites = rng.random((8, 2))
        cfg = PointConfig(sites[rng.permutation(np.repeat(np.arange(8), 10))], rectangle(1, 1))
        assert_knn_matches_reference(cfg, kappa)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("kappa", [1, 7, 40])
    def test_uniform_samples(self, dim, kappa):
        cfg = cube_config(np.random.default_rng(dim).random((300, dim)))
        assert_knn_matches_reference(cfg, kappa)

    def test_kappa_n_minus_one(self):
        cfg = sample_uniform(rectangle(2, 1), 40, seed=3)
        assert_knn_matches_reference(cfg, 39)

    @given(
        data=st.data(),
        n=st.integers(3, 30),
        dim=st.integers(1, 3),
        grid=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_small_random_configurations(self, data, n, dim, grid, seed):
        rng = np.random.default_rng(seed)
        # a coarse integer grid gives ties and duplicates, floats give neither
        pts = rng.integers(0, 4, (n, dim)).astype(float) if grid else rng.random((n, dim))
        kappa = data.draw(st.integers(1, n - 1))
        assert_knn_matches_reference(cube_config(pts), kappa)

    @pytest.mark.parametrize("dim", [1, 2, 3, 9])
    def test_candidate_distances_are_cdist_bitwise(self, dim):
        # nine coordinates: numpy's own sum would group them differently
        rng = np.random.default_rng(dim)
        pts = rng.random((200, dim)) * 3.7 - 1.0
        i = rng.integers(0, 200, 5000)
        j = rng.integers(0, 200, 5000)
        want = cdist(pts, pts)[i, j]
        assert geometry._pair_distances(pts, i, j)[1].tobytes() == want.tobytes()
        rows = np.arange(200)[:, None]
        cols = rng.integers(0, 200, (200, 12))
        # the broadcast shape comes first, as _nearest passes it
        got = geometry._pair_distances(pts, cols, rows)[1]
        assert got.tobytes() == np.take_along_axis(cdist(pts, pts), cols, axis=1).tobytes()

    def test_symmetrize_union_equals_dense_reference(self):
        for kappa in (1, 6, 25):
            knn = knn_graph(sample_uniform(rectangle(4, 1), 400, seed=kappa), kappa)
            assert symmetrize_union(knn) == dense_symmetrize_union(knn)


class TestGraphConstructionAgainstRowLoop:
    @pytest.mark.parametrize("link", LINKS, ids=lambda link: type(link).__name__)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_generate_graph(self, link, seed):
        cfg = sample_uniform(rectangle(2, 1), 300, seed=seed)
        assert generate_graph(cfg, link, seed) == row_loop_generate_graph(cfg, link, seed)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_generate_graph_other_dimensions(self, dim):
        cfg = cube_config(np.random.default_rng(dim).random((250, dim)))
        for link in LINKS:
            assert generate_graph(cfg, link, 5) == row_loop_generate_graph(cfg, link, 5)

    @pytest.mark.parametrize("r", [1.0, float(np.sqrt(2.0)), 2.0, 5.0])
    def test_lattice_pairs_exactly_at_the_radius(self, r):
        # integer lattice: many pairs sit at d == r exactly and must be linked
        cfg = lattice(15)
        adj = generate_graph(cfg, Indicator(r), 0)
        assert adj == row_loop_generate_graph(cfg, Indicator(r), 0)
        i, j = adj.edges().T
        assert np.any(geometry._pair_distances(cfg.points, i, j)[1] == r)
        for link in (ScaledIndicator(r, 0.5), PolynomialEdge(r, 0.8, 0.0), PolynomialEdge(r, 1.0, 2.0)):
            assert generate_graph(cfg, link, 3) == row_loop_generate_graph(cfg, link, 3)

    @pytest.mark.parametrize("r", [0.1, 0.2, 0.3])
    def test_scaled_lattice_near_the_radius(self, r):
        # spacing 0.1 puts distances within a few ulps of r on both sides
        cfg = lattice(15, spacing=0.1)
        for link in (Indicator(r), ScaledIndicator(r, 0.5)):
            assert generate_graph(cfg, link, 2) == row_loop_generate_graph(cfg, link, 2)

    @pytest.mark.parametrize("keep_prob", [0.2, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_couple_thin(self, keep_prob, seed):
        for adj in (random_graph(150, 0.3, seed=seed),
                    generate_graph(sample_uniform(rectangle(2, 1), 300, seed=seed), Indicator(0.2), 0),
                    random_graph(9, 0.0, seed=seed)):
            assert couple_thin(adj, keep_prob, seed) == dense_couple_thin(adj, keep_prob, seed)

    def test_from_edges_equals_from_dense(self):
        rng = np.random.default_rng(4)
        edges = rng.integers(0, 70, (400, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]  # repeats and both orientations stay
        dense = np.zeros((70, 70), dtype=bool)
        dense[edges[:, 0], edges[:, 1]] = True
        assert Adjacency.from_edges(70, edges) == dense_adjacency(dense | dense.T)

    @pytest.mark.parametrize("key", [0, 1, (5 << 64) + 17, (2**63 << 64) + 2**40])
    def test_philox_draws_are_prefixes(self, key):
        # a row drawn only up to its farthest candidate is a prefix of the full row
        full = np.random.Generator(np.random.Philox(key=key)).random(1000)
        for m in (0, 1, 2, 3, 7, 64, 999):
            part = np.random.Generator(np.random.Philox(key=key)).random(m)
            assert part.tobytes() == full[:m].tobytes()


class TestGraphConstructionMemory:
    # one n×n bool at n=4000 is 15.3 MB and one float64 distance matrix 122 MB
    LIMIT_MB = 8.0

    @staticmethod
    def peak_mb(fn) -> float:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_knn_graph_and_union(self):
        cfg = sample_uniform(rectangle(4, 1), 4000, seed=1)
        assert self.peak_mb(lambda: symmetrize_union(knn_graph(cfg, 25))) < self.LIMIT_MB
        assert self.peak_mb(lambda: knn_radii(cfg, 25)) < self.LIMIT_MB

    def test_indicator_graph(self):
        cfg = sample_uniform(rectangle(2, 1), 4000, seed=1)
        assert self.peak_mb(lambda: generate_graph(cfg, Indicator(0.05), 0)) < self.LIMIT_MB

    def test_denoise_of_a_two_level_graph(self):
        # one n×n float32 is 61 MB; the cap is about half of it
        cfg = sample_uniform(rectangle(2, 1), 4000, seed=1)
        adj = generate_graph(cfg, TwoLevel(0.05, 0.9, 0.001), 0)
        assert self.peak_mb(lambda: common_neighbor_denoise(adj, 0.3)) < 32.0

    def test_path_lists_grow_with_edges_not_with_n_squared(self):
        # packed rows of a 30 000-node graph alone would take 107 MB
        n = 30_000
        path = np.column_stack([np.arange(n - 1), np.arange(1, n)])

        def build_and_read():
            adj = Adjacency.from_edges(n, path)
            assert adj.edges().shape == (n - 1, 2)
            assert adj.degrees().sum() == 2 * (n - 1)

        assert self.peak_mb(build_and_read) < self.LIMIT_MB
