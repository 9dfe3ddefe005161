import numpy as np
import pytest

from latentgraph import (
    Adjacency,
    Box,
    HopMatrix,
    KnnAdjacency,
    PartialDissimilarity,
    PointConfig,
    RectangleWithHole,
    boundary_distances,
    coverage_radius,
    interval,
    minimax_eta,
    minimax_pair,
    pairwise_distances,
    rectangle,
    sample_uniform,
)
from latentgraph.linkgraph import Indicator, generate_graph


def hole_domain():
    return RectangleWithHole(
        rectangle(2.0, 1.0), Box(np.array([0.5, 0.25]), np.array([1.5, 0.75]))
    )


class TestDomains:
    def test_rectangle_zero_side_rejected(self):
        with pytest.raises(ValueError):
            rectangle(0.0, 1.0)

    def test_hole_must_be_inside(self):
        with pytest.raises(ValueError):
            RectangleWithHole(rectangle(1, 1), Box(np.array([0.5, 0.5]), np.array([1.5, 0.8])))

    def test_box_corners_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            Box(np.array([0.0, 0.0]), np.array([1.0, 1.0, 1.0]))

    def test_hole_of_another_dimension_rejected(self):
        with pytest.raises(ValueError, match="share dimension"):
            RectangleWithHole(rectangle(2, 1), Box(np.array([0.5]), np.array([1.5])))


class TestPointConfig:
    def test_leaves_the_callers_array_writeable(self):
        pts = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        cfg = PointConfig(pts, rectangle(1, 1))
        assert np.shares_memory(cfg.points, pts)
        assert not cfg.points.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cfg.points[0, 0] = 0.7
        pts[0, 0] = 0.7
        assert cfg.points[0, 0] == 0.7

    @pytest.mark.parametrize("pts, match", [
        (np.full((3, 2, 1), 0.5), "n-by-v matrix"),
        (np.full((3, 3), 0.5), "dimension does not match"),
        (np.array([[0.1, 0.2], [np.nan, 0.4], [0.5, 0.6]]), "must be finite"),
    ], ids=["3-d-array", "dimension-mismatch", "nan-point"])
    def test_malformed_points_rejected(self, pts, match):
        with pytest.raises(ValueError, match=match):
            PointConfig(pts, rectangle(1, 1))


class TestReadonly:
    # each value held to its dtype by ``_readonly``, given in a dtype whose
    # conversion would change it: -1 would read as the infinity sentinel
    @pytest.mark.parametrize("make", [
        lambda: HopMatrix(2, np.array([[0, -1], [-1, 0]])),
        lambda: HopMatrix(2, np.array([[0, 2.7], [2.7, 0]])),
        lambda: HopMatrix(2, np.array([[0, np.inf], [np.inf, 0]])),
        lambda: HopMatrix(2, np.array([[0, np.nan], [np.nan, 0]])),
        lambda: Adjacency(2, np.array([0, 1, 2]), np.array([1.9, 0.2])),
        lambda: PartialDissimilarity(3, np.array([0]), np.array([1.5]), np.array([1.0])),
        lambda: KnnAdjacency(3, 1, np.array([[1.5], [0], [0]])),
    ], ids=["hops-minus-one", "hops-fraction", "hops-inf", "hops-nan", "adjacency-float-indices",
            "partial-float-j", "knn-float-neighbour"])
    def test_conversion_that_changes_a_value_rejected(self, make):
        with pytest.raises(ValueError, match="would change values"):
            make()


class TestSampling:
    def test_rectangle_sample_inside(self):
        cfg = sample_uniform(rectangle(2, 1), 5000, seed=7)
        assert cfg.n == 5000
        assert cfg.points.shape == (5000, 2)
        assert np.all((cfg.points >= 0) & (cfg.points <= [2.0, 1.0]))

    def test_interval_minimal(self):
        cfg = sample_uniform(interval(1.0), 3, seed=0)
        assert cfg.points.shape == (3, 1)
        assert np.all((cfg.points >= 0) & (cfg.points <= 1))

    def test_hole_sample_avoids_hole(self):
        cfg = sample_uniform(hole_domain(), 1000, seed=1)
        inside_hole = np.all(
            (cfg.points > [0.5, 0.25]) & (cfg.points < [1.5, 0.75]), axis=1
        )
        assert not inside_hole.any()

    def test_deterministic_per_seed(self):
        a = sample_uniform(rectangle(2, 1), 50, seed=3)
        b = sample_uniform(rectangle(2, 1), 50, seed=3)
        c = sample_uniform(rectangle(2, 1), 50, seed=4)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)

    def test_membership_enforced(self):
        with pytest.raises(ValueError):
            PointConfig(np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 0.5]]), rectangle(2, 1))

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            PointConfig(np.array([[0.1, 0.1], [0.2, 0.2]]), rectangle(1, 1))
        with pytest.raises(ValueError, match="need n >= 3"):
            sample_uniform(rectangle(1, 1), 2, seed=0)

    def test_zero_volume_domain_rejected(self):
        # sides of 1e-200 are positive, but their product underflows to 0
        with pytest.raises(ValueError, match="zero volume"):
            sample_uniform(rectangle(1e-200, 1e-200), 10, seed=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_sampled_points_pass_membership(self, seed):
        for domain in (rectangle(2, 1), hole_domain(), interval(3.0)):
            cfg = sample_uniform(domain, 200, seed=seed)
            assert domain.contains(cfg.points).all()


class TestPairwiseDistances:
    def test_three_four_five(self):
        d = pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert d[0, 1] == pytest.approx(5.0)

    def test_zero_diagonal_and_symmetry(self):
        cfg = sample_uniform(rectangle(2, 1), 20, seed=2)
        d = pairwise_distances(cfg)
        assert np.all(d.diagonal() == 0)
        assert np.array_equal(d, d.T)

    def test_matches_scalar_recomputation(self):
        cfg = sample_uniform(rectangle(2, 1), 10, seed=9)
        d = pairwise_distances(cfg)
        for i in range(10):
            for j in range(10):
                expect = np.sqrt(((cfg.points[i] - cfg.points[j]) ** 2).sum())
                assert d[i, j] == pytest.approx(expect, abs=1e-12)


class TestCoverage:
    def test_corners_and_center(self):
        pts = np.array([[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5]], dtype=float)
        cfg = PointConfig(pts, rectangle(1, 1))
        lo, up = coverage_radius(cfg, "domain", grid_step=0.01)
        # farthest domain points are the edge midpoints at distance 1/2
        assert lo <= 0.5 <= up
        assert up - lo <= 0.01

    def test_single_location_center(self):
        pts = np.array([[0.5, 0.5]] * 3)
        cfg = PointConfig(pts, rectangle(1, 1))
        lo, up = coverage_radius(cfg, "domain", grid_step=0.005)
        assert lo <= np.sqrt(2) / 2 <= up

    def test_bracket_contains_refined_grid_estimate(self):
        cfg = sample_uniform(rectangle(2, 1), 5000, seed=7)
        lo, up = coverage_radius(cfg, "convex_hull", grid_step=0.02)
        lo2, up2 = coverage_radius(cfg, "convex_hull", grid_step=0.01)
        assert lo <= lo2 <= up
        assert lo <= up2

    @pytest.mark.parametrize("preset", ["rectangles", "hole", "mds-discrete"])
    def test_hull_membership_is_the_matrix_product_formula(self, preset, monkeypatch, tmp_path):
        # the presets' hull coverage grids (about 80 000 points at the grid
        # step of span / 400), tested one facet at a time
        from scipy.spatial import ConvexHull

        from latentgraph import geometry, presets

        calls = []
        real = geometry._hull_membership

        def recording(points, grid):
            calls.append((points, grid, real(points, grid)))
            return calls[-1][2]

        monkeypatch.setattr(geometry, "_hull_membership", recording)
        for seed in (0, 1):
            presets.run_preset(preset, seed, tmp_path / str(seed), scale_n=300)
        assert len(calls) == 2
        for points, grid, member in calls:
            eqs = ConvexHull(points).equations
            want = (grid @ eqs[:, :-1].T + eqs[:, -1]).max(axis=1) <= 1e-12
            assert grid.shape[0] > 70000
            assert np.array_equal(member, want)

    def test_domain_of_a_hole_is_its_outer_box(self):
        # grid nodes in the hole are not in the domain; the bracket still holds
        cfg = sample_uniform(hole_domain(), 400, seed=0)
        bracket = coverage_radius(cfg, "domain", grid_step=0.05)
        assert 0 < bracket.lower < bracket.upper

    def test_grid_missing_the_hull_is_an_error(self):
        # the unit grid's four corners all lie outside the diamond's hull
        pts = np.array([[0.0, 0.5], [0.5, 0.0], [1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(ValueError, match="region is empty"):
            coverage_radius(PointConfig(pts, rectangle(1, 1)), "convex_hull", grid_step=1.0)

    def test_degenerate_hull_is_an_error(self):
        pts = np.array([[0.1, 0.5], [0.5, 0.5], [0.9, 0.5]])
        cfg = PointConfig(pts, rectangle(1, 1))
        with pytest.raises(ValueError):
            coverage_radius(cfg, "convex_hull", grid_step=0.1)

    def test_bad_arguments(self):
        cfg = sample_uniform(rectangle(1, 1), 10, seed=0)
        with pytest.raises(ValueError):
            coverage_radius(cfg, "domain", grid_step=0.0)
        with pytest.raises(ValueError):
            coverage_radius(cfg, "nowhere", grid_step=0.1)

    @pytest.mark.parametrize("step", [np.inf, np.nan])
    def test_non_finite_grid_step_rejected(self, step):
        # an infinite pitch would certify upper = inf, a NaN one fail in numpy
        cfg = sample_uniform(rectangle(1, 1), 10, seed=0)
        with pytest.raises(ValueError, match="grid_step must be positive and finite"):
            coverage_radius(cfg, "domain", grid_step=step)


class TestErosion:
    """Points deeper than u inside the domain: ``boundary_distances > u``."""

    def test_center_point_deep(self):
        pts = np.array([[0.5, 0.5], [0.2, 0.2], [0.8, 0.8]])
        cfg = PointConfig(pts, rectangle(1, 1))
        assert boundary_distances(cfg)[0] > 0.4

    def test_near_boundary_shallow(self):
        pts = np.array([[0.05, 0.5], [0.5, 0.5], [0.6, 0.5]])
        cfg = PointConfig(pts, rectangle(1, 1))
        assert not boundary_distances(cfg)[0] > 0.1

    def test_matches_per_edge_oracle(self):
        cfg = sample_uniform(rectangle(4, 1), 100, seed=11)
        x, y = cfg.points[:, 0], cfg.points[:, 1]
        oracle = np.minimum.reduce([x, 4 - x, y, 1 - y])
        assert np.array_equal(boundary_distances(cfg), oracle)

    def test_hole_counts_both_boundaries(self):
        pts = np.array([[0.45, 0.5], [0.1, 0.5], [1.0, 0.9]])
        cfg = PointConfig(pts, hole_domain())
        bd = boundary_distances(cfg)
        # first point: 0.05 from the hole wall at x=0.5, far from the outer walls
        assert bd[0] == pytest.approx(0.05)
        assert bd[1] == pytest.approx(0.1)
        assert bd[2] == pytest.approx(0.1)


class TestMinimaxPair:
    def test_basic_values(self):
        cfg1, cfg2 = minimax_pair(5, 0.5)
        assert minimax_eta(5, 0.5) == pytest.approx(1 / 16)
        assert np.allclose(cfg1.points[:, 0], [0, 0.25, 0.5, 0.75, 1.0])
        x2 = cfg2.points[:, 0]
        assert x2[0] == 0.0 and x2[-1] == pytest.approx(1.0)
        assert np.all(np.diff(x2) > 0)
        # spacings strictly decrease in the warped configuration
        assert np.all(np.diff(np.diff(x2)) < 0)

    def test_eta_zero_collapses(self):
        n = 9
        i = np.arange(n)
        x_eta0 = i * (1 - 0.0 * i) / ((n - 1) * (1 - 0.0 * (n - 1)))
        assert np.allclose(x_eta0, i / (n - 1))

    def test_gap_formula_exact(self):
        n, r = 9, 0.25
        cfg1, cfg2 = minimax_pair(n, r)
        eta = minimax_eta(n, r)
        x1, x2 = cfg1.points[:, 0], cfg2.points[:, 0]
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                gap = (x1[j - 1] - x1[i - 1]) - (x2[j - 1] - x2[i - 1])
                formula = (j - i) / (n - 1) * eta * (i + j - n - 1) / (1 - eta * (n - 1))
                assert gap == pytest.approx(formula, abs=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            minimax_pair(5, 0.3)  # m = 1.2 not integer
        with pytest.raises(ValueError):
            minimax_pair(4, 0.5)
        with pytest.raises(ValueError):
            minimax_pair(9, 0.75)

    @pytest.mark.xfail(
        strict=True,
        reason="the warped configuration stretches the pairs that sit exactly at "
        "distance r in the uniform grid to just beyond r, so the two indicator "
        "graphs differ at those threshold pairs for every eta > 0 (verified in "
        "exact rational arithmetic); the identical-adjacency claim cannot hold "
        "for this construction",
    )
    def test_adjacency_identical_claim(self):
        cfg1, cfg2 = minimax_pair(9, 0.25)
        a1 = generate_graph(cfg1, Indicator(0.25), seed=0)
        a2 = generate_graph(cfg2, Indicator(0.25), seed=0)
        assert a1 == a2
