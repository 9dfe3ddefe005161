import tracemalloc
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from latentgraph import (
    Adjacency,
    BoundReport,
    EstimateMatrix,
    HopMatrix,
    INF_HOPS,
    Indicator,
    KnnAdjacency,
    PointConfig,
    ScaledIndicator,
    all_pairs_hops,
    boundary_distances,
    check_boundary_bias,
    check_general_bound,
    check_knn_bounds,
    check_simple_bound,
    coverage_radius,
    generate_graph,
    interval,
    knn_graph,
    knn_scale,
    monotone_path_check,
    pairwise_distances,
    rectangle,
    sample_uniform,
    scale_hops,
    shortest_path_nodes,
    symmetrize_union,
)
from latentgraph import hopdist
from tests.conftest import floyd_warshall_hops, float_hops, random_graph
from tests.reference_graphs import dense_adjacency


def as_uint16(float_hops: np.ndarray) -> np.ndarray:
    out = np.where(np.isinf(float_hops), float(INF_HOPS), float_hops)
    return out.astype(np.uint16)


class TestAllPairsHops:
    def test_path_graph(self):
        adj = Adjacency.from_edges(4, [[0, 1], [1, 2], [2, 3]])
        hops = all_pairs_hops(adj)
        assert hops.hops[0, 3] == 3
        assert hops.hops[0, 0] == 0

    def test_disconnected_is_infinite(self):
        adj = Adjacency.from_edges(4, [[0, 1], [2, 3]])
        hops = all_pairs_hops(adj)
        assert hops.hops[0, 2] == INF_HOPS
        assert not hops.is_connected()

    def test_matches_floyd_warshall_fixed(self):
        adj = random_graph(12, 0.3, seed=6)
        assert np.array_equal(all_pairs_hops(adj).hops, as_uint16(floyd_warshall_hops(adj)))

    # up to 150 nodes, so that several 64-source batches run
    @given(n=st.integers(2, 150), p=st.floats(0.02, 0.6), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_equals_floyd_warshall(self, n, p, seed):
        adj = random_graph(n, p, seed)
        hops = all_pairs_hops(adj)
        assert np.array_equal(hops.hops, as_uint16(floyd_warshall_hops(adj)))

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129, 200])
    @pytest.mark.parametrize("p", [0.0, "sparse", 1.0])
    def test_equals_scipy_across_lane_batches(self, n, p):
        # p = 0: every node isolated; sparse: isolated nodes and several
        # components; p = 1: the complete graph
        adj = random_graph(n, 0.6 / n if p == "sparse" else p, seed=n)
        want = shortest_path(csr_matrix(adj.dense()), unweighted=True)
        assert np.array_equal(all_pairs_hops(adj).hops, as_uint16(want))

    def test_sparse_case_has_isolated_nodes_and_components(self):
        adj = random_graph(200, 0.6 / 200, seed=200)
        assert (adj.degrees() == 0).any()
        assert connected_components(csr_matrix(adj.dense()))[0] > (adj.degrees() == 0).sum() + 1

    def test_long_path_needs_eleven_bit_planes(self):
        n = 1100
        adj = Adjacency.from_edges(n, np.column_stack([np.arange(n - 1), np.arange(1, n)]))
        hops = all_pairs_hops(adj).hops
        k = np.arange(n)
        assert hops[0, n - 1] == 1099  # binary 10001001011: planes 0-10
        assert np.array_equal(hops, np.abs(k[:, None] - k[None, :]))

    @given(n=st.integers(3, 40), p=st.floats(0.05, 0.5), seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_metric_properties(self, n, p, seed):
        adj = random_graph(n, p, seed)
        h = float_hops(all_pairs_hops(adj))
        assert np.array_equal(h, h.T)
        # one hop exactly on edges
        assert np.array_equal(h == 1.0, adj.dense())
        # triangle inequality with infinity arithmetic
        assert np.all(h[:, :, None] + h[None, :, :] >= h[:, None, :] - 1e-9)

    def test_shortest_path_nodes(self):
        adj = Adjacency.from_edges(5, [[0, 1], [1, 2], [2, 3], [0, 4], [4, 3]])
        path = shortest_path_nodes(adj, 0, 3)
        assert path[0] == 0 and path[-1] == 3
        assert len(path) - 1 == all_pairs_hops(adj).hops[0, 3]
        with pytest.raises(ValueError):
            shortest_path_nodes(Adjacency.from_edges(4, [[0, 1], [2, 3]]), 0, 3)
        for source, target in ((-1, 3), (0, 5)):
            with pytest.raises(ValueError, match="out of range"):
                shortest_path_nodes(adj, source, target)

    def test_shortest_paths_on_tied_lattice(self):
        # 30x30 unit grid with radius just above the spacing: a 4-neighbour
        # lattice, where almost every pair has many equally short paths
        g = np.arange(30.0)
        pts = np.array([(x, y) for x in g for y in g])
        adj = generate_graph(PointConfig(pts, rectangle(29.0, 29.0)), Indicator(1.01), 0)
        hops = all_pairs_hops(adj).hops.astype(np.int64)
        dense = adj.dense()
        rng = np.random.default_rng(4)
        for source, target in rng.integers(0, 900, size=(150, 2)):
            path = shortest_path_nodes(adj, int(source), int(target))
            assert path[0] == source and path[-1] == target
            assert len(path) - 1 == hops[source, target]
            for prev, node in zip(path, path[1:]):
                assert dense[prev, node]
                closer = np.flatnonzero(dense[node] & (hops[source] == hops[source, node] - 1))
                assert prev == closer[0]

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    def test_max_finite_and_connectivity_over_row_blocks(self, monkeypatch, block):
        monkeypatch.setattr(hopdist, "_BLOCK_PAIRS", block)
        seen = set()
        for p in (0.05, 0.3):
            for seed in range(4):
                hops = all_pairs_hops(random_graph(23, p, seed))
                finite = hops.hops[hops.hops != INF_HOPS]
                assert hops.max_finite() == finite.max()
                assert hops.is_connected() == (finite.size == hops.hops.size)
                seen.add(hops.is_connected())
        assert seen == {True, False}
        single = HopMatrix(1, np.zeros((1, 1)))
        assert single.max_finite() == 0 and single.is_connected()

    def test_rejects_more_nodes_than_the_sentinel_allows(self):
        # a stand-in with only a node count: the guard must fire before any
        # n-sized allocation
        with pytest.raises(ValueError, match="65535"):
            all_pairs_hops(SimpleNamespace(n=0x10000))
        with pytest.raises(ValueError, match="65535"):
            shortest_path_nodes(SimpleNamespace(n=0x10000), 0, 1)


def shuffled(adj: Adjacency, seed: int) -> Adjacency:
    """``adj`` with its node labels randomly permuted."""
    order = np.random.default_rng(seed).permutation(adj.n)
    return dense_adjacency(adj.dense()[np.ix_(order, order)])


def scipy_hops(adj: Adjacency) -> np.ndarray:
    if adj.n == 0:
        return np.empty((0, 0), dtype=np.uint16)
    return as_uint16(shortest_path(csr_matrix(adj.dense()), unweighted=True))


def bandwidth(lists: csr_matrix) -> int:
    rows = np.repeat(np.arange(lists.shape[0]), np.diff(lists.indptr))
    return int(np.abs(lists.indices - rows).max(initial=0))


def mixed_graph(n: int) -> Adjacency:
    """A third of the n nodes isolated; the rest, in random order, form two
    paths, a cycle and a clique."""
    nodes = np.random.default_rng(n).permutation(n)
    path1, cycle, clique, path2 = np.array_split(nodes[n // 3 :], 4)
    edges = [(a, b) for path in (path1, path2) for a, b in zip(path[:-1], path[1:])]
    edges += list(zip(cycle, np.roll(cycle, 1))) if cycle.size > 2 else []
    edges += [(a, b) for x, a in enumerate(clique) for b in clique[x + 1 :]]
    return Adjacency.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2))


class TestBandedOrder:
    """The kernel runs in reverse Cuthill-McKee order; its hops come back in
    the original labels, whatever those are."""

    @pytest.fixture(params=["rectangle", "knn-strip"])
    def geometric(self, request):
        if request.param == "rectangle":
            config = sample_uniform(rectangle(2.0, 1.0), 400, 5)
            adj = generate_graph(config, Indicator(0.12), 5)
        else:
            config = sample_uniform(rectangle(4.0, 1.0), 400, 6)
            adj = symmetrize_union(knn_graph(config, 8))
        return shuffled(adj, 7)

    def test_geometric_graphs_with_shuffled_labels_equal_scipy(self, geometric):
        assert np.array_equal(all_pairs_hops(geometric).hops, scipy_hops(geometric))

    def test_order_narrows_the_band(self, geometric):
        n = geometric.n
        lists = csr_matrix((np.ones(geometric.indices.size), geometric.indices, geometric.indptr),
                           shape=(n, n))
        band = hopdist._band(geometric)
        assert np.array_equal(np.sort(band.perm), np.arange(n))
        assert np.array_equal(band.perm[band.inv], np.arange(n))
        relabelled = csr_matrix((np.ones(band.idx.size), band.idx, band.bounds), shape=(n, n))
        # shuffled labels spread each list over almost every node; the
        # relabelled lists stay within a narrow band of the diagonal
        assert bandwidth(relabelled) < bandwidth(lists) / 4
        # each list is its node's relabelled neighbours in ascending order;
        # an isolated node lists itself alone
        isolated = np.diff(lists.indptr)[band.perm] == 0
        for k, v in enumerate(band.perm):
            got = band.idx[band.bounds[k] : band.bounds[k + 1]]
            want = [k] if isolated[k] else np.sort(band.inv[geometric.indices[
                geometric.indptr[v] : geometric.indptr[v + 1]]])
            assert np.array_equal(got, want)
        assert np.array_equal(band.first, band.idx[band.bounds[:-1]])
        assert np.array_equal(band.last, band.idx[band.bounds[1:] - 1] + 1)

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 129])
    def test_components_and_isolated_nodes(self, n):
        adj = mixed_graph(n)
        if n >= 63:
            assert (adj.degrees() == 0).sum() >= n // 3
            assert connected_components(csr_matrix(adj.dense()))[0] > (adj.degrees() == 0).sum() + 1
        assert np.array_equal(all_pairs_hops(adj).hops, scipy_hops(adj))

    @staticmethod
    def assert_components_match_scipy(adj: Adjacency):
        rep = all_pairs_hops(adj).components()
        count, labels = connected_components(csr_matrix(adj.dense()), directed=False)
        assert np.count_nonzero(rep == np.arange(adj.n)) == count
        # each node's representative is the smallest node of its scipy class
        smallest = np.full(count, adj.n)
        np.minimum.at(smallest, labels, np.arange(adj.n))
        assert np.array_equal(rep, smallest[labels])

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 129])
    def test_components_equal_scipy(self, n):
        self.assert_components_match_scipy(mixed_graph(n))

    def test_components_of_geometric_graphs_equal_scipy(self, geometric):
        self.assert_components_match_scipy(geometric)
        # an r = 0.05 graph on the same sample falls apart into many pieces
        config = sample_uniform(rectangle(2.0, 1.0), 400, 5)
        self.assert_components_match_scipy(shuffled(generate_graph(config, Indicator(0.05), 5), 7))

    def test_shortest_paths_on_shuffled_tied_lattice(self):
        # the 30x30 four-neighbour lattice under shuffled labels: the walk
        # back still takes the closer neighbour of smallest original index
        g = np.arange(30.0)
        pts = np.array([(x, y) for x in g for y in g])
        adj = shuffled(generate_graph(PointConfig(pts, rectangle(29.0, 29.0)), Indicator(1.01), 0), 3)
        assert not np.array_equal(hopdist._band(adj).perm, np.arange(900))
        hops = all_pairs_hops(adj).hops.astype(np.int64)
        dense = adj.dense()
        rng = np.random.default_rng(9)
        for source, target in rng.integers(0, 900, size=(100, 2)):
            path = shortest_path_nodes(adj, int(source), int(target))
            assert path[0] == source and path[-1] == target
            assert len(path) - 1 == hops[source, target]
            for prev, node in zip(path, path[1:]):
                closer = np.flatnonzero(dense[node] & (hops[source] == hops[source, node] - 1))
                assert prev == closer[0]


class TestScratchOfTheOrderAndComponents:
    """tracemalloc caps on an r = 0.2 rectangle graph (n = 2000, 220k list
    entries): the relabelling sorts one key per list entry beside one
    temporary of the same size (2.04 times the lists), and the component
    scan holds one block of rows of bools at a time (80 KB)."""

    @pytest.fixture(scope="class")
    def adj(self):
        config = sample_uniform(rectangle(2.0, 1.0), 2000, 2)
        return generate_graph(config, Indicator(0.2), 2)

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_band_within_three_copies_of_the_lists(self, adj):
        assert self.peak(lambda: hopdist._band(adj)) <= 3 * adj.indices.nbytes

    def test_components_within_256_kb(self, adj):
        hops = all_pairs_hops(adj)
        assert self.peak(hops.components) <= 256 * 1024


class TestRowBlocks:
    @pytest.mark.parametrize("block", [1, 7, 256, 1 << 16])
    def test_row_blocks_of_a_square_matrix(self, monkeypatch, block):
        # max(1, _BLOCK_PAIRS // n) rows a block, the last one shorter: the
        # block size the tracemalloc caps of the scans are set for
        monkeypatch.setattr(hopdist, "_BLOCK_PAIRS", block)
        for n in (0, 1, 2, 3, 255, 256, 257, 1000):
            step = max(1, block // max(1, n))
            want = [(lo, min(n, lo + step)) for lo in range(0, n, step)]
            assert list(hopdist._row_blocks(np.arange(n + 1) * n)) == want

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_row_blocks_of_neighbour_lists(self, monkeypatch, block):
        # rows of every length, empty ones and ones longer than a block
        # included: each block is as many whole rows as fit in _BLOCK_PAIRS
        # entries, or one row when that row alone holds more
        monkeypatch.setattr(hopdist, "_BLOCK_PAIRS", block)
        rng = np.random.default_rng(block)
        for _ in range(20):
            lengths = rng.integers(0, 3 * block, size=rng.integers(1, 60)) * (rng.random(1) < 0.7)
            offsets = np.concatenate([[0], np.cumsum(lengths * (rng.random(lengths.size) < 0.8))])
            blocks = list(hopdist._row_blocks(offsets))
            assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
            assert blocks[-1][1] == offsets.size - 1
            for lo, hi in blocks:
                assert hi == lo + 1 or offsets[hi] - offsets[lo] <= block
                if hi < offsets.size - 1:  # the next row would not fit
                    assert offsets[hi + 1] - offsets[lo] > block


def assert_freezes_a_view(held, given):
    # the holder's array is read-only and shares the caller's memory; the
    # caller's own array stays writeable
    assert np.shares_memory(held, given)
    assert not held.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        held.flat[1] = 1
    given.flat[1] = 1
    assert held.flat[1] == 1


class TestFrozenViews:
    def test_hop_matrix_leaves_the_callers_array_writeable(self):
        h = np.zeros((3, 3), dtype=np.uint16)
        assert_freezes_a_view(HopMatrix(3, h).hops, h)

    def test_hop_matrix_must_be_n_by_n(self):
        with pytest.raises(ValueError, match="n-by-n"):
            HopMatrix(3, np.zeros((3, 4), dtype=np.uint16))

    @pytest.mark.parametrize("dtype", [np.uint16, np.float64])
    def test_estimate_leaves_the_callers_array_writeable(self, dtype):
        a = np.zeros((3, 3), dtype=dtype)
        assert_freezes_a_view(EstimateMatrix(a).base, a)

    def test_adjacency_leaves_the_callers_lists_writeable(self):
        # the triangle 0-1-2
        indptr = np.array([0, 2, 4, 6], dtype=np.intp)
        indices = np.array([1, 2, 0, 2, 0, 1], dtype=np.intp)
        adj = Adjacency(3, indptr, indices)
        assert_freezes_a_view(adj.indptr, indptr)
        assert_freezes_a_view(adj.indices, indices)

    def test_knn_adjacency_leaves_the_callers_array_writeable(self):
        nb = np.array([[1, 2], [0, 2], [0, 1]], dtype=np.int32)
        assert_freezes_a_view(KnnAdjacency(3, 2, nb).out_neighbors, nb)


class TestScaleHops:
    def test_elementwise(self):
        hops = HopMatrix(3, np.array([[0, 3, 1], [3, 0, 2], [1, 2, 0]], dtype=np.uint16))
        est = scale_hops(hops, 0.2)
        assert est.rows(0, est.n)[0, 1] == pytest.approx(0.6)

    def test_infinity_propagates(self):
        h = np.array([[0, INF_HOPS], [INF_HOPS, 0]], dtype=np.uint16)
        est = scale_hops(HopMatrix(2, h), 0.5)
        assert np.isinf(est.rows(0, est.n)[0, 1])

    def test_matrix_matches_scalar_recompute(self):
        adj = random_graph(25, 0.25, seed=2)
        hops = all_pairs_hops(adj)
        dense = scale_hops(hops, 0.37).rows(0, 25)
        for i in range(25):
            for j in range(25):
                h = hops.hops[i, j]
                expect = np.inf if h == INF_HOPS else 0.37 * float(h)
                assert dense[i, j] == expect

    def test_positive_scale_required(self):
        hops = all_pairs_hops(random_graph(5, 0.5, seed=1))
        # an infinite scale would read the diagonal as 0 * inf = nan and
        # every other pair as disconnected
        for scale in (0.0, -0.5, np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                scale_hops(hops, scale)
            with pytest.raises(ValueError, match="positive and finite"):
                EstimateMatrix(hops.hops.astype(np.float64), scale)

    def test_estimate_is_a_view_of_the_hops(self):
        hops = all_pairs_hops(random_graph(30, 0.1, seed=4))
        assert (hops.hops == INF_HOPS).any()
        est = scale_hops(hops, 0.37)
        assert est.base.dtype == np.uint16 and np.shares_memory(est.base, hops.hops)
        # rows of any range are bitwise the old dense estimate, astype then *= r
        dense = hops.hops.astype(np.float64)
        dense *= 0.37
        dense[hops.hops == INF_HOPS] = np.inf
        assert est.rows(0, est.n).tobytes() == dense.tobytes()
        for lo, hi, start in ((0, 30, 0), (3, 4, 0), (5, 17, 6), (29, 30, 29), (7, 7, 0)):
            assert est.rows(lo, hi, start).tobytes() == dense[lo:hi, start:].tobytes()

    def test_float_base_reads_itself(self):
        values = np.random.default_rng(1).random((6, 6))
        values[2, 3] = np.inf
        est = EstimateMatrix(values)
        assert est.scale == 1.0 and est.base.dtype == np.float64
        assert est.rows(0, est.n).tobytes() == values.tobytes()
        assert est.rows(1, 3, 2).tobytes() == values[1:3, 2:].tobytes()

    def test_scale_hops_allocates_nothing_n_sized(self):
        n = 1500
        hops = HopMatrix(n, np.full((n, n), 3, dtype=np.uint16))
        tracemalloc.start()
        try:
            scale_hops(hops, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n, peak


class TestSimpleBound:
    def test_indicator_graph_zero_violations(self):
        cfg = sample_uniform(rectangle(2, 1), 800, seed=12)
        r = 0.5
        adj = generate_graph(cfg, Indicator(r), seed=0)
        est = scale_hops(all_pairs_hops(adj), r)
        eps = coverage_radius(cfg, "convex_hull", grid_step=0.01).upper
        rep = check_simple_bound(est, cfg.points, eps, r)
        assert rep.asserted  # eps <= r/4 for this density
        assert rep.lower_violations == 0
        assert rep.upper_violations == 0

    def test_identical_matrices(self):
        cfg = sample_uniform(rectangle(2, 1), 30, seed=1)
        truth = pairwise_distances(cfg)
        est = EstimateMatrix(truth.copy())
        rep = check_simple_bound(est, cfg.points, eps=0.01, r=0.2)
        assert rep.lower_violations == 0
        assert rep.upper_violations == 0
        assert rep.max_residual == 0.0
        assert rep.min_residual == 0.0

    def test_tight_adversarial_line(self):
        # the far pair sits just beyond r, forcing a second hop: the additive
        # r term of the bound is attained (dense line keeps coverage <= r/4)
        r = 1.0
        pts = np.array([[0.0], [0.25], [0.5], [0.75], [1.0 + 1e-6]])
        cfg = PointConfig(pts, interval(2.0))
        adj = generate_graph(cfg, Indicator(r), seed=0)
        est = scale_hops(all_pairs_hops(adj), r)
        truth = pairwise_distances(cfg)
        resid = est.rows(0, est.n)[0, 4] - truth[0, 4]
        assert resid == pytest.approx(r, abs=1e-5)
        eps = coverage_radius(cfg, "convex_hull", grid_step=0.001).upper
        rep = check_simple_bound(est, cfg.points, eps, r)
        assert rep.asserted
        assert rep.upper_violations == 0
        assert rep.max_residual == pytest.approx(resid)

    def test_mismatched_sizes(self):
        est = EstimateMatrix(np.zeros((3, 3)))
        for points in (np.zeros((4, 2)), np.zeros(3), np.zeros((3, 2, 1))):
            with pytest.raises(ValueError, match="one point per estimate row"):
                check_simple_bound(est, points, eps=0.1, r=0.4)

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (3,), (2, 2, 2)])
    def test_estimate_must_be_square(self, shape):
        with pytest.raises(ValueError, match="square"):
            EstimateMatrix(np.zeros(shape))

    def test_report_only_mode_flag(self):
        cfg = sample_uniform(rectangle(2, 1), 50, seed=3)
        truth = pairwise_distances(cfg)
        est = EstimateMatrix(truth.copy())
        rep = check_simple_bound(est, cfg.points, eps=0.3, r=0.4)  # eps > r/4
        assert not rep.asserted


class TestGeneralBound:
    def test_alpha_zero_matches_simple_exponent(self):
        cfg = sample_uniform(rectangle(2, 1), 200, seed=5)
        r = 0.3
        adj = generate_graph(cfg, Indicator(r), seed=0)
        est = scale_hops(all_pairs_hops(adj), r)
        simple = check_simple_bound(est, cfg.points, eps=0.05, r=r)
        general = check_general_bound(est, cfg.points, eps=0.05, r=r, alpha=0.0)
        assert general.gamma == 1.0
        assert general.fitted_constant == pytest.approx(simple.fitted_constant)

    def test_lower_bound_deterministic_for_compact_support(self):
        cfg = sample_uniform(rectangle(2, 1), 400, seed=6)
        r = 0.25
        adj = generate_graph(cfg, ScaledIndicator(r, 0.5), seed=2)
        est = scale_hops(all_pairs_hops(adj), r)
        rep = check_general_bound(est, cfg.points, eps=0.06, r=r, alpha=0.0)
        assert rep.lower_violations == 0

    def test_fitted_constant_below_four_for_indicator(self):
        cfg = sample_uniform(rectangle(2, 1), 800, seed=7)
        r = 0.5
        adj = generate_graph(cfg, Indicator(r), seed=0)
        est = scale_hops(all_pairs_hops(adj), r)
        eps = coverage_radius(cfg, "convex_hull", grid_step=0.01).upper
        assert eps <= r / 4
        rep = check_general_bound(est, cfg.points, eps, r, alpha=0.0)
        assert rep.fitted_constant <= 4.0


class TestScaleValidation:
    """Every check rejects a scale it cannot divide by, and a negative or
    infinite coverage radius, before reading a pair."""

    @pytest.mark.parametrize("eps, r", [(0.05, 0.0), (0.05, -0.4), (0.05, np.inf), (0.05, np.nan),
                                        (-1.0, 0.4), (np.inf, 0.4), (np.nan, 0.4)])
    def test_bad_scale_rejected(self, eps, r):
        cfg = sample_uniform(rectangle(2, 1), 20, seed=1)
        est = EstimateMatrix(pairwise_distances(cfg))
        for check in (lambda: check_simple_bound(est, cfg.points, eps, r),
                      lambda: check_general_bound(est, cfg.points, eps, r, alpha=0.5),
                      lambda: check_knn_bounds(est, cfg, eps, r)):
            with pytest.raises(ValueError, match="need 0"):
                check()

    def test_zero_eps_accepted(self):
        cfg = sample_uniform(rectangle(2, 1), 20, seed=1)
        rep = check_simple_bound(EstimateMatrix(pairwise_distances(cfg)), cfg.points, 0.0, 0.4)
        assert rep.lower_violations == 0 and rep.upper_violations == 0

    @pytest.mark.parametrize("alpha", [-0.5, np.nan])
    def test_general_bound_rejects_bad_alpha(self, alpha):
        cfg = sample_uniform(rectangle(2, 1), 20, seed=1)
        with pytest.raises(ValueError, match="alpha"):
            check_general_bound(EstimateMatrix(pairwise_distances(cfg)), cfg.points, 0.05, 0.4, alpha)


class TestKnnBounds:
    def test_deep_interior_lower_bound(self):
        cfg = sample_uniform(rectangle(4, 1), 1200, seed=21)
        kappa = 12
        adj = symmetrize_union(knn_graph(cfg, kappa))
        s = knn_scale(cfg.domain, cfg.n, kappa)
        est = scale_hops(all_pairs_hops(adj), s.r)
        rep = check_knn_bounds(est, cfg, s.eps, s.r)
        assert rep.lower_checked_pairs > 0
        assert rep.lower_violations == 0

    def test_one_dimensional_lower_bound_everywhere(self):
        # high-probability event at finite n: the seed below realizes it
        cfg = sample_uniform(interval(1.0), 400, seed=2)
        kappa = 25
        adj = symmetrize_union(knn_graph(cfg, kappa))
        s = knn_scale(cfg.domain, cfg.n, kappa, c1=2.0)
        est = scale_hops(all_pairs_hops(adj), s.r)
        truth = pairwise_distances(cfg)
        iu = np.triu_indices(cfg.n, 1)
        dhat = est.rows(0, est.n)[iu]
        finite = np.isfinite(dhat)
        assert np.all(dhat[finite] >= truth[iu][finite] - 1e-9)

    def test_upper_violation_counting(self):
        cfg = sample_uniform(rectangle(2, 1), 30, seed=3)
        est = EstimateMatrix(pairwise_distances(cfg) * 10.0)
        rep = check_knn_bounds(est, cfg, eps=0.01, r=0.05)
        assert rep.upper_violations > 0


class TestBoundaryBias:
    def test_threshold_beyond_diameter_errors(self):
        cfg = sample_uniform(rectangle(2, 1), 30, seed=4)
        truth = pairwise_distances(cfg)
        est = EstimateMatrix(truth.copy())
        with pytest.raises(ValueError):
            check_boundary_bias(est, cfg.points, threshold_d=10.0)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, 0.0])
    def test_threshold_must_be_positive_and_finite(self, threshold):
        # a NaN threshold selects no pair, which read as "no pairs"
        cfg = sample_uniform(rectangle(2, 1), 30, seed=4)
        est = EstimateMatrix(pairwise_distances(cfg))
        with pytest.raises(ValueError, match="threshold must be positive and finite"):
            check_boundary_bias(est, cfg.points, threshold_d=threshold)

    def test_equality_gives_ratio_one(self):
        cfg = sample_uniform(rectangle(2, 1), 30, seed=5)
        truth = pairwise_distances(cfg)
        est = EstimateMatrix(truth.copy())
        ratio, pairs = check_boundary_bias(est, cfg.points, threshold_d=0.5)
        assert ratio == pytest.approx(1.0)
        assert pairs > 0


def dense_report(est, truth, eps, r, gamma, a, b, asserted, qualifying=None):
    """Bound report over all pairs at once through ``triu_indices``: the
    formulas the streamed checks must reproduce bit for bit."""
    iu = np.triu_indices(est.n, 1)
    dhat, d = est.rows(0, est.n)[iu], truth[iu]
    finite = np.isfinite(dhat)
    df = d[finite]
    resid = dhat[finite] - df
    scale = (eps / r) ** gamma
    if qualifying is None:
        lower_viol, checked = int((resid < -hopdist._TOL).sum()), None
    else:
        q = qualifying(iu[0], iu[1], d)
        lower_viol = int((q & (dhat < d - hopdist._TOL)).sum())
        checked = int(q.sum())
    upper_viol = None if a is None else int((resid > a * scale * df + b * r + hopdist._TOL).sum())
    pos = df > 0
    return BoundReport(
        n=est.n,
        pairs_total=d.size,
        pairs_connected=int(finite.sum()),
        pairs_disconnected=int((~finite).sum()),
        lower_violations=lower_viol,
        upper_violations=upper_viol,
        max_residual=float(resid.max()) if resid.size else 0.0,
        min_residual=float(resid.min()) if resid.size else 0.0,
        max_relative_error=float((np.abs(resid[pos]) / df[pos]).max()) if pos.any() else 0.0,
        fitted_constant=float((resid / (scale * df + r)).max()) if resid.size else 0.0,
        eps=float(eps), r=float(r), gamma=gamma, a=a, b=b, tol=hopdist._TOL,
        asserted=asserted, lower_checked_pairs=checked,
    )


def dense_boundary_bias(est, truth, threshold_d):
    iu = np.triu_indices(est.n, 1)
    dhat, d = est.rows(0, est.n)[iu], truth[iu]
    sel = d >= threshold_d
    return float((dhat[sel] / d[sel]).max()), int(sel.sum())


def report_fields(rep):
    # repr tells -0.0 from 0.0 and a numpy scalar from a Python number
    return [(f.name, repr(getattr(rep, f.name))) for f in fields(BoundReport)]


def streamed_inputs(kind):
    """(config, estimate, truth) with disconnected pairs and both signs of
    the residual, or with the pairs that the masks leave out of a block's
    extremes: coincident points (d = 0) and disconnected pairs.  At n = 45
    and ``_BLOCK_PAIRS`` = 200 the blocks are four rows high, so both kinds
    sit in the diagonal square of rows 0-3 or 4-7 and right of it."""
    if kind == "coincident":
        cfg = sample_uniform(rectangle(2, 1), 45, seed=17)
        pts = cfg.points.copy()
        pts[[5, 6, 40]] = pts[[4, 4, 2]]
        cfg = SimpleNamespace(points=pts, domain=cfg.domain)
        truth = pairwise_distances(pts)
        assert (truth[np.triu_indices(45, 1)] == 0).sum() == 4
        return cfg, EstimateMatrix(truth * 1.5 + 0.05), truth
    if kind == "disconnected-tiles":
        cfg = sample_uniform(rectangle(2, 1), 45, seed=17)
        truth = pairwise_distances(cfg)
        values = truth * 1.05
        values[[1, 2, 0, 30], [2, 1, 30, 0]] = np.inf  # (1, 2) in a diagonal square, (0, 30) right of it
        return cfg, EstimateMatrix(values), truth
    if kind.startswith("two"):
        # a point configuration needs three points; the checks read only these fields
        cfg = SimpleNamespace(points=np.array([[0.6, 0.5], [0.9, 0.6]]), domain=rectangle(2, 1))
        truth = pairwise_distances(cfg.points)
        values = np.where(truth > 0, np.inf, 0.0) if kind == "two-disconnected" else truth * 1.5
        return cfg, EstimateMatrix(values), truth
    cfg = sample_uniform(rectangle(2, 1), 45, seed=17)
    truth = pairwise_distances(cfg)
    if kind == "indicator":
        adj = generate_graph(cfg, Indicator(0.3), seed=0)
        est = scale_hops(all_pairs_hops(adj), 0.3)
        assert not np.isfinite(est.rows(0, est.n)).all()
    else:  # nearest-neighbor forest: some scaled hop counts fall short of the distance
        adj = symmetrize_union(knn_graph(cfg, 1))
        est = scale_hops(all_pairs_hops(adj), 0.15)
        dense = est.rows(0, est.n)
        assert (dense < truth - 1e-9).any() and not np.isfinite(dense).all()
    return cfg, est, truth


class TestStreamedChecks:
    """The streamed checks against the all-pairs reference, with blocks of a
    few pairs, so that the blocks end mid-matrix and vary in shape."""

    KINDS = ["indicator", "knn", "two", "two-disconnected", "coincident", "disconnected-tiles"]

    @pytest.mark.parametrize("block", [1, 7, 100, 1 << 16])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_block_distances_equal_pairwise_distances(self, monkeypatch, dim, block):
        # the checks' distances come from one cdist per block of rows, read
        # from the diagonal on; at n = 45 blocks of 100 pairs are two rows
        # high, and at n = 1000 blocks of 65536 pairs are 65 rows high, the
        # last one shorter.  Selected through each block's mask, every pair
        # i < j must come once, in row-major order, with the bits of the
        # dense matrix
        monkeypatch.setattr(hopdist, "_BLOCK_PAIRS", block)
        for n in (45, 1000):
            pts = np.random.default_rng(dim).uniform(-3.0, 5.0, (n, dim))
            values = np.arange(n * n).reshape(n, n)  # exact as float64
            est = EstimateMatrix(values)
            blocks = [[np.broadcast_to(a, upper.shape)[upper] for a in (bi, bj, bv, bd)]
                      for bi, bj, bv, bd, upper in hopdist._pair_blocks(est, pts)]
            i, j, v, d = (np.concatenate([b[k] for b in blocks]) for k in range(4))
            assert np.array_equal(i * n + j, np.flatnonzero(np.triu(np.ones((n, n), bool), 1)))
            assert np.array_equal(v, i * n + j)
            assert d.tobytes() == pairwise_distances(pts)[i, j].tobytes()

    @pytest.mark.parametrize("block", [1, 3, 7, 200, 1 << 16])
    @pytest.mark.parametrize("kind", KINDS)
    def test_reports_equal_dense_reference(self, monkeypatch, kind, block):
        monkeypatch.setattr(hopdist, "_BLOCK_PAIRS", block)
        cfg, est, truth = streamed_inputs(kind)
        eps, r = 0.08, 0.15
        bdist = boundary_distances(cfg)

        def qualifying(i, j, d):
            return (d >= 2 * r) & (bdist[i] > d / 2) & (bdist[j] > d / 2)

        pts = cfg.points
        cases = [
            (check_simple_bound(est, pts, eps, r),
             dense_report(est, truth, eps, r, 1.0, 4.0, 1.0, bool(eps <= r / 4))),
            (check_general_bound(est, pts, eps, r, alpha=0.5),
             dense_report(est, truth, eps, r, 1.0 / 1.5, None, None, False)),
            (check_knn_bounds(est, cfg, eps, r),
             dense_report(est, truth, eps, r, 1.0, 8.0, 1.0, False, qualifying)),
        ]
        for got, want in cases:
            assert report_fields(got) == report_fields(want)
        if kind == "indicator":  # the simple and kNN upper counts are not all zero
            assert cases[0][0].upper_violations > 0 and cases[2][0].upper_violations > 0
        threshold = float(truth.max()) * 0.6
        got, want = check_boundary_bias(est, pts, threshold), dense_boundary_bias(est, truth, threshold)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    @pytest.mark.parametrize("kind", ["indicator", "knn"])
    def test_view_and_dense_estimate_report_alike(self, monkeypatch, kind, block):
        # the checks read the hop view a block of rows at a time; the dense
        # r * hops they used to read must give the same reports, bit for bit
        monkeypatch.setattr(hopdist, "_BLOCK_PAIRS", block)
        cfg, view, truth = streamed_inputs(kind)
        assert view.base.dtype == np.uint16
        dense = EstimateMatrix(view.rows(0, view.n))
        eps, r, pts = 0.08, 0.15, cfg.points
        threshold = float(truth.max()) * 0.6
        for check in (
            lambda est: check_simple_bound(est, pts, eps, r),
            lambda est: check_general_bound(est, pts, eps, r, alpha=0.5),
            lambda est: check_knn_bounds(est, cfg, eps, r),
        ):
            assert report_fields(check(view)) == report_fields(check(dense))
        assert repr(check_boundary_bias(view, pts, threshold)) == \
            repr(check_boundary_bias(dense, pts, threshold))

    def test_counts_cover_every_pair(self, monkeypatch):
        monkeypatch.setattr(hopdist, "_BLOCK_PAIRS", 5)
        cfg, est, _ = streamed_inputs("indicator")
        rep = check_simple_bound(est, cfg.points, 0.08, 0.3)
        assert rep.pairs_total == cfg.n * (cfg.n - 1) // 2
        assert rep.pairs_connected + rep.pairs_disconnected == rep.pairs_total

    @pytest.mark.parametrize("block", [1, 1 << 16])
    def test_no_pairs_beyond_threshold(self, monkeypatch, block):
        monkeypatch.setattr(hopdist, "_BLOCK_PAIRS", block)
        cfg, est, truth = streamed_inputs("knn")
        with pytest.raises(ValueError, match="no pairs"):
            check_boundary_bias(est, cfg.points, float(truth.max()) * 1.01)

    def test_scratch_memory_within_six_blocks(self):
        # a block of rows is one estimate read and one cdist, 16 bytes a
        # pair; the temporaries take each check to at most six float64
        # blocks, whatever n.  The r = 0.07 graph leaves a node isolated,
        # so every block up to its row holds a disconnected pair
        n, r = 2000, 0.07
        cfg = sample_uniform(rectangle(4, 1), n, seed=5)
        est = scale_hops(all_pairs_hops(generate_graph(cfg, Indicator(r), seed=5)), r)
        assert ((est.base == INF_HOPS).sum(axis=1) == n - 1).any()
        cap = 6 * 8 * hopdist._BLOCK_PAIRS
        pts = cfg.points
        for check in (
            lambda: check_simple_bound(est, pts, 0.05, r),
            lambda: check_general_bound(est, pts, 0.05, r, alpha=0.5),
            lambda: check_knn_bounds(est, cfg, 0.05, r),
            lambda: check_boundary_bias(est, pts, 2.0),
        ):
            tracemalloc.start()
            try:
                check()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= cap

    def test_scratch_memory_below_a_quarter_matrix(self):
        n = 2000
        cfg = sample_uniform(rectangle(4, 1), n, seed=5)
        truth = pairwise_distances(cfg)
        values = truth * 1.05
        values[:40, n // 2 :] = np.inf
        est = EstimateMatrix(values)
        cap = n * n * 8 / 4
        pts = cfg.points
        for check in (
            lambda: check_simple_bound(est, pts, 0.05, 0.2),
            lambda: check_general_bound(est, pts, 0.05, 0.2, alpha=0.5),
            lambda: check_knn_bounds(est, cfg, 0.05, 0.2),
            lambda: check_boundary_bias(est, pts, 2.0),
        ):
            tracemalloc.start()
            try:
                check()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < cap


class TestMonotonePaths:
    def test_sorted_line_kappa_one(self):
        pts = np.linspace(0, 1, 12)[:, None]
        cfg = PointConfig(pts, interval(1.0))
        assert monotone_path_check(cfg, knn_graph(cfg, 1))

    def test_complete_graph(self):
        cfg = sample_uniform(interval(1.0), 15, seed=1)
        assert monotone_path_check(cfg, knn_graph(cfg, 14))

    def test_uniform_sample(self):
        cfg = sample_uniform(interval(1.0), 60, seed=9)
        assert monotone_path_check(cfg, knn_graph(cfg, 4))

    def test_agrees_with_exhaustive_enumeration(self):
        cfg = sample_uniform(interval(1.0), 12, seed=13)
        knn = knn_graph(cfg, 3)
        assert monotone_path_check(cfg, knn)
        adj = symmetrize_union(knn)
        hops = float_hops(all_pairs_hops(adj))
        order = np.argsort(cfg.points[:, 0])
        w = adj.dense()[np.ix_(order, order)]
        h = hops[np.ix_(order, order)]
        n = cfg.n

        def increasing_paths_exist(a, b, length):
            # depth-first enumeration of strictly increasing index paths
            stack = [(a, 0)]
            while stack:
                node, used = stack.pop()
                if node == b:
                    if used == length:
                        return True
                    continue
                if used >= length:
                    continue
                for nxt in range(node + 1, n):
                    if w[node, nxt]:
                        stack.append((nxt, used + 1))
            return False

        for a in range(n):
            for b in range(a + 1, n):
                if np.isfinite(h[a, b]):
                    assert increasing_paths_exist(a, b, int(h[a, b]))

    def test_detects_a_path_that_must_turn_back(self):
        # edges 0-2, 1-2 and 1-3: the only path from 0 to 3 goes back through 1
        cfg = PointConfig(np.arange(4.0)[:, None], interval(3.0))
        assert not monotone_path_check(cfg, KnnAdjacency(4, 1, [[2], [3], [1], [1]]))

    def test_requires_one_dimension(self):
        cfg = sample_uniform(rectangle(1, 1), 10, seed=0)
        with pytest.raises(ValueError):
            monotone_path_check(cfg, knn_graph(cfg, 2))
