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
    return Adjacency.from_dense(adj.dense()[np.ix_(order, order)])


def scipy_hops(adj: Adjacency) -> np.ndarray:
    if adj.n == 0:
        return np.empty((0, 0), dtype=np.uint16)
    return as_uint16(shortest_path(csr_matrix(adj.dense()), unweighted=True))


def bandwidth(lists: csr_matrix) -> int:
    rows = np.repeat(np.arange(lists.shape[0]), np.diff(lists.indptr))
    return int(np.abs(lists.indices - rows).max(initial=0))


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
        assert np.array_equal(np.sort(band.perm), np.arange(geometric.n))
        assert np.array_equal(band.perm[band.inv], np.arange(geometric.n))
        relabelled = csr_matrix((np.ones(band.idx.size), band.idx, band.bounds),
                                shape=(geometric.n, geometric.n + 1))
        # shuffled labels spread each list over almost every node; the
        # relabelled lists stay within a narrow band of the diagonal
        assert bandwidth(relabelled) < bandwidth(lists) / 4
        # an isolated node lists only the pad node and reaches nothing
        isolated = np.diff(lists.indptr)[band.perm] == 0
        assert np.array_equal(band.first, band.idx[band.bounds[:-1]])
        assert np.array_equal(band.last, np.where(isolated, 0, band.idx[band.bounds[1:] - 1] + 1))
        assert np.all(band.idx[band.bounds[:-1][isolated]] == geometric.n)

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 129])
    def test_components_and_isolated_nodes(self, n):
        # a third of the nodes isolated; the rest, in random order, form two
        # paths, a cycle and a clique
        nodes = np.random.default_rng(n).permutation(n)
        path1, cycle, clique, path2 = np.array_split(nodes[n // 3 :], 4)
        edges = [(a, b) for path in (path1, path2) for a, b in zip(path[:-1], path[1:])]
        edges += list(zip(cycle, np.roll(cycle, 1))) if cycle.size > 2 else []
        edges += [(a, b) for x, a in enumerate(clique) for b in clique[x + 1 :]]
        adj = Adjacency.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
        if n >= 63:
            assert (adj.degrees() == 0).sum() >= n // 3
            assert connected_components(csr_matrix(adj.dense()))[0] > (adj.degrees() == 0).sum() + 1
        assert np.array_equal(all_pairs_hops(adj).hops, scipy_hops(adj))

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


class TestScaleHops:
    def test_elementwise(self):
        hops = HopMatrix(3, np.array([[0, 3, 1], [3, 0, 2], [1, 2, 0]], dtype=np.uint16))
        est = scale_hops(hops, 0.2)
        assert est.values[0, 1] == pytest.approx(0.6)

    def test_infinity_propagates(self):
        h = np.array([[0, INF_HOPS], [INF_HOPS, 0]], dtype=np.uint16)
        est = scale_hops(HopMatrix(2, h), 0.5)
        assert np.isinf(est.values[0, 1])

    def test_matrix_matches_scalar_recompute(self):
        adj = random_graph(25, 0.25, seed=2)
        hops = all_pairs_hops(adj)
        est = scale_hops(hops, 0.37)
        for i in range(25):
            for j in range(25):
                h = hops.hops[i, j]
                expect = np.inf if h == INF_HOPS else 0.37 * float(h)
                assert est.values[i, j] == expect

    def test_positive_scale_required(self):
        hops = all_pairs_hops(random_graph(5, 0.5, seed=1))
        with pytest.raises(ValueError):
            scale_hops(hops, 0.0)


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
        resid = est.values[0, 4] - truth[0, 4]
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

    def test_supplied_constant_counts_violations(self):
        points = sample_uniform(rectangle(2, 1), 30, seed=8).points
        est = EstimateMatrix(pairwise_distances(points) * 3.0)
        rep = check_general_bound(est, points, eps=0.01, r=0.2, alpha=0.0, c2=0.5)
        assert rep.upper_violations > 0


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
        finite = np.isfinite(est.values[iu])
        assert np.all(est.values[iu][finite] >= truth[iu][finite] - 1e-9)

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
    dhat, d = est.values[iu], truth[iu]
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
    dhat, d = est.values[iu], truth[iu]
    sel = d >= threshold_d
    return float((dhat[sel] / d[sel]).max()), int(sel.sum())


def report_fields(rep):
    # repr tells -0.0 from 0.0 and a numpy scalar from a Python number
    return [(f.name, repr(getattr(rep, f.name))) for f in fields(BoundReport)]


def streamed_inputs(kind):
    """(config, estimate, truth) with disconnected pairs and both signs of
    the residual."""
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
        assert not np.isfinite(est.values).all()
    else:  # nearest-neighbor forest: some scaled hop counts fall short of the distance
        adj = symmetrize_union(knn_graph(cfg, 1))
        est = scale_hops(all_pairs_hops(adj), 0.15)
        assert (est.values < truth - 1e-9).any() and not np.isfinite(est.values).all()
    return cfg, est, truth


class TestStreamedChecks:
    """The row-block checks against the all-pairs reference, with blocks of
    a few pairs so that they end mid-matrix and vary in length."""

    KINDS = ["indicator", "knn", "two", "two-disconnected"]

    @pytest.mark.parametrize("block", [1, 7, 100, 1 << 16])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_block_distances_equal_pairwise_distances(self, monkeypatch, dim, block):
        # the checks' distances come from cdist row blocks; blocks of 7 and
        # 100 pairs end at varying rows, and each must give the bits of the
        # dense matrix the checks used to take
        monkeypatch.setattr(hopdist, "_BLOCK_PAIRS", block)
        n = 1000
        pts = np.random.default_rng(dim).uniform(-3.0, 5.0, (n, dim))
        values = np.arange(n * n).reshape(n, n)
        i, j, v, d = (np.concatenate(parts) for parts in zip(*hopdist._pair_blocks(values, pts)))
        dense = pairwise_distances(pts)
        assert np.array_equal(i * n + j, np.flatnonzero(np.triu(np.ones((n, n), bool), 1)))
        assert np.array_equal(v, i * n + j)
        assert d.tobytes() == dense[i, j].tobytes()

    @pytest.mark.parametrize("block", [1, 3, 7, 1 << 16])
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
            (check_general_bound(est, pts, eps, r, alpha=0.5, c2=0.7),
             dense_report(est, truth, eps, r, 1.0 / 1.5, 0.7, 1.0, False)),
            (check_knn_bounds(est, cfg, eps, r),
             dense_report(est, truth, eps, r, 1.0, 8.0, 1.0, False, qualifying)),
        ]
        for got, want in cases:
            assert report_fields(got) == report_fields(want)
        threshold = float(truth.max()) * 0.6
        got, want = check_boundary_bias(est, pts, threshold), dense_boundary_bias(est, truth, threshold)
        assert repr(got) == repr(want)

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
            lambda: check_general_bound(est, pts, 0.05, 0.2, alpha=0.5, c2=2.0),
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

    def test_requires_one_dimension(self):
        cfg = sample_uniform(rectangle(1, 1), 10, seed=0)
        with pytest.raises(ValueError):
            monotone_path_check(cfg, knn_graph(cfg, 2))
