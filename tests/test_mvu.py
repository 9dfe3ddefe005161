import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from latentgraph import (
    Adjacency,
    Indicator,
    MvuSolution,
    all_pairs_hops,
    check_mvu_bound,
    classical_mds,
    discrepancy_ratio,
    generate_graph,
    interval,
    knn_graph,
    pairwise_distances,
    rectangle,
    sample_uniform,
    solve_mvu,
    symmetrize_union,
)
from latentgraph import hopdist, mvu
from latentgraph.mvu import MvuBoundReport
from tests.conftest import float_hops, run_under_one_and_two_blas_threads
from tests.test_acceptance import _mvu_fixture_graphs


def small_rgg(n=120, r=0.35, seed=3):
    cfg = sample_uniform(rectangle(2, 1), n, seed=seed)
    adj = generate_graph(cfg, Indicator(r), seed=0)
    return cfg, adj


def full_scatter_solve_mvu(adj, rank, seed, steps_per_stage):
    """The L-BFGS ascent with a pull scattered for every edge and coordinate,
    the stretched and the slack ones, from coordinate-major differences (the
    reference); the direction is ``mvu._Pairs``'.  Returns the coordinates,
    the objective, the trace and the number of gradients for which no edge
    was stretched."""
    n = adj.n
    e = adj.edges()
    a, b = e[:, 0], e[:, 1]

    def spread(x):
        return float(n * (x ** 2).sum() - (x.sum(axis=0) ** 2).sum())

    def evaluate(x, mu):
        diff = x.T[:, a] - x.T[:, b]
        squares = diff * diff
        lengths = squares[0].copy()
        for sq in squares[1:]:  # cdist's order
            lengths += sq
        lengths = np.sqrt(lengths)
        excess = np.maximum(lengths - 1.0, 0.0)
        sp = spread(x)
        return sp - mu * float((excess ** 2).sum()), sp, diff.T, lengths, excess

    x = classical_mds(all_pairs_hops(adj).hops, rank).coords
    rng = np.random.default_rng(seed)
    x = x + 1e-3 * np.sqrt((x ** 2).mean()) * rng.standard_normal(x.shape)
    x -= x.mean(axis=0)
    ml = evaluate(x, 0.0)[3].max()
    if ml > 1.0:
        x /= ml
    mu_base = 2.0 * n / mvu._algebraic_connectivity(n, a, b)
    dim = x.shape[1]
    bins_a, bins_b = ((v[:, None] * dim + np.arange(dim)).ravel() for v in (a, b))
    trace, slack = [], 0
    for stage, s in enumerate(mvu._PENALTY_SCHEDULE):
        mu = mu_base * s
        fcur, _, diff, lengths, excess = evaluate(x, mu)
        pairs = mvu._Pairs(n * dim)
        for it in range(steps_per_stage):
            slack += not excess.any()
            coef = 2.0 * excess / np.where(lengths > 0, lengths, 1.0)
            pull = (coef[:, None] * diff).ravel()
            gpen = np.bincount(bins_a, pull, n * dim) - np.bincount(bins_b, pull, n * dim)
            grad = 2.0 * n * x - mu * gpen.reshape(n, dim)
            if pairs.push(x, grad) < 1e-18:
                break
            q, slope = pairs.direction()
            t = 1.0
            for _ in range(60):
                xn = x + t * q.reshape(n, dim)
                xn -= xn.mean(axis=0)
                fn, sp, *edge_terms = evaluate(xn, mu)
                if fn >= fcur + 1e-4 * t * slope:
                    break
                t *= 0.5
            else:
                break
            rel = (fn - fcur) / max(abs(fcur), 1e-300)
            x, fcur = xn, fn
            diff, lengths, excess = edge_terms
            trace.append((stage, it, sp, float(excess.max(initial=0.0)), fcur))
            if rel < 1e-12:
                break
    ml = lengths.max()
    if ml > 1.0:
        x = x / ml
        x -= x.mean(axis=0)
        shrink = np.nextafter(1.0, 0.0)
        while evaluate(x, 0.0)[3].max() > 1.0:
            x *= shrink
            shrink *= shrink
    return x, spread(x), tuple(trace), slack


@pytest.mark.parametrize("n, edges, want", [
    (2, [[0, 1]], 2.0),
    (7, [[k, k + 1] for k in range(6)], 2 - 2 * np.cos(np.pi / 7)),
    (9, [[k, (k + 1) % 9] for k in range(9)], 2 - 2 * np.cos(2 * np.pi / 9)),
    (6, [[0, k] for k in range(1, 6)], 1.0),
    (5, [[i, j] for i in range(5) for j in range(i + 1, 5)], 5.0),
    (400, [[k, k + 1] for k in range(399)], 2 - 2 * np.cos(np.pi / 400)),
])
def test_algebraic_connectivity_closed_forms(n, edges, want):
    # path, cycle, star and complete graph; the 400-node path's lambda_2 is 6.2e-5
    a, b = np.array(edges).T
    assert mvu._algebraic_connectivity(n, a, b) == pytest.approx(want, rel=1e-10)


def test_algebraic_connectivity_matches_dense_eigh():
    _, adj = small_rgg(n=120, r=0.3, seed=4)
    a, b = adj.edges().T
    lap = np.diag(np.bincount(np.concatenate([a, b]), minlength=adj.n).astype(np.float64))
    lap[a, b] = lap[b, a] = -1.0
    want = np.linalg.eigvalsh(lap)[1]
    assert mvu._algebraic_connectivity(adj.n, a, b) == pytest.approx(want, rel=1e-11)


class TestSolveMvu:
    def test_single_edge(self):
        adj = Adjacency.from_edges(2, [[0, 1]])
        sol = solve_mvu(adj, rank=2, seed=1)
        assert sol.objective == pytest.approx(1.0, abs=1e-6)
        assert np.linalg.norm(sol.coords[0] - sol.coords[1]) == pytest.approx(1.0, abs=1e-6)

    def test_zero_gradient_ends_the_stage(self, monkeypatch):
        # one edge unfolds along a line, where the penalized objective is a
        # quadratic of its length: the quasi-Newton step lands on the optimum
        # and the next gradient vanishes
        norms = []
        real = mvu._Pairs.push

        def push(self, x, grad):
            norms.append(real(self, x, grad))
            return norms[-1]

        monkeypatch.setattr(mvu._Pairs, "push", push)
        sol = solve_mvu(Adjacency.from_edges(2, [[0, 1]]), rank=2, seed=1)
        assert sum(g < 1e-18 for g in norms) == len(mvu._PENALTY_SCHEDULE)
        assert norms[-1] < 1e-18 and sol.max_edge_violation == 0.0

    def test_failed_search_ends_the_stage(self, monkeypatch):
        # a direction whose every trial evaluates to nan passes no Armijo test:
        # after 60 halvings each stage ends where it started.  (A finite
        # direction whose trials all fall is no test of this exit: once t q is
        # below the coordinates' ulp the trial is the iterate itself, which
        # passes, and the relative stop ends the stage.)
        _, adj = small_rgg(n=40, r=0.5, seed=7)
        start = solve_mvu(adj, rank=3, seed=0, steps_per_stage=0)
        real = mvu._Pairs.direction
        calls = []

        def nan_direction(self):
            q, slope = real(self)
            calls.append(slope)
            return np.full_like(q, np.nan), slope

        monkeypatch.setattr(mvu._Pairs, "direction", nan_direction)
        sol = solve_mvu(adj, rank=3, seed=0)
        assert len(calls) == len(mvu._PENALTY_SCHEDULE)
        assert sol.trace == () == start.trace
        assert sol.coords.tobytes() == start.coords.tobytes()

    def test_pairs_drop_their_memory_at_a_non_ascent_direction(self):
        # a kept pair (s . y = 2 > 0) and then a zero gradient: the slope
        # g . H g is 0, so the pairs go and the direction is 1e-2 g
        pairs = mvu._Pairs(2)
        pairs.push(np.array([[0.0, 0.0]]), np.array([[2.0, 0.0]]))
        assert pairs.push(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]])) == 0.0
        assert len(pairs.slots) == 1 and pairs.sy == [[2.0]] and pairs.yy == [[4.0]]
        q, slope = pairs.direction()
        assert pairs.slots == [] and slope == 0.0 and not q.any()

    def test_pairs_direction_is_the_two_loop_recursion(self):
        # seven steps of a quadratic ascent, so the memory of five wraps; each
        # direction equals the textbook two-loop recursion on the kept pairs
        rng = np.random.default_rng(4)
        m = rng.standard_normal((12, 12))
        hess = -(m @ m.T + 12 * np.eye(12))  # concave
        x = rng.standard_normal((4, 3))
        pairs, kept, prev = mvu._Pairs(12), [], None
        for _ in range(8):
            g = (hess @ x.ravel()).reshape(4, 3)
            pairs.push(x, g)
            if prev is not None:
                s, y = x.ravel() - prev[0].ravel(), prev[1].ravel() - g.ravel()
                kept = (kept + [(s, y)])[-mvu._MEMORY:]
            q, slope = pairs.direction()
            want = g.ravel().copy()
            alphas = []
            for s, y in reversed(kept):
                alphas.append(s @ want / (s @ y))
                want -= alphas[-1] * y
            if kept:
                want *= kept[-1][0] @ kept[-1][1] / (kept[-1][1] @ kept[-1][1])
            else:
                want *= 1e-2
            for (s, y), alpha in zip(kept, reversed(alphas)):
                want += (alpha - y @ want / (s @ y)) * s
            np.testing.assert_allclose(q, want, rtol=1e-9, atol=1e-12 * np.abs(want).max())
            assert slope == pytest.approx(g.ravel() @ want, rel=1e-9)
            prev, x = (x, g), x + 0.5 * q.reshape(4, 3)
        assert len(pairs.slots) == mvu._MEMORY

    def test_path_graph_unfolds_straight(self):
        # 1-d oracle: with both edges at the unit bound, the spread
        # a^2 + a^2 + (2a)^2 is maximized by the straight layout, so the
        # end-to-end distance attains the two-hop value
        adj = Adjacency.from_edges(3, [[0, 1], [1, 2]])
        sol = solve_mvu(adj, rank=3, seed=1)
        assert np.linalg.norm(sol.coords[0] - sol.coords[2]) == pytest.approx(2.0, abs=1e-3)
        assert sol.max_edge_violation == 0.0

    def test_disconnected_rejected(self):
        adj = Adjacency.from_edges(4, [[0, 1], [2, 3]])
        with pytest.raises(ValueError, match="disconnected"):
            solve_mvu(adj, rank=2)

    def test_rank_validated(self):
        adj = Adjacency.from_edges(2, [[0, 1]])
        with pytest.raises(ValueError):
            solve_mvu(adj, rank=1)

    def test_unfolding_respects_hop_bound(self):
        cfg, adj = small_rgg()
        hops = all_pairs_hops(adj)
        sol = solve_mvu(adj, rank=5, seed=1)
        assert sol.max_edge_violation <= 1e-4
        report = check_mvu_bound(sol, hops)
        assert report.violations == 0
        iu = np.triu_indices(cfg.n, 1)
        assert np.all(pdist(sol.coords) <= float_hops(hops)[iu] + 1e-4)

    def test_penalized_objective_non_decreasing_within_stage(self):
        _, adj = small_rgg(n=60, r=0.45, seed=5)
        sol = solve_mvu(adj, rank=4, seed=2)
        trace = np.asarray(sol.trace)
        for stage in np.unique(trace[:, 0]):
            rows = trace[trace[:, 0] == stage]
            assert np.all(np.diff(rows[:, 4]) >= -1e-7 * np.abs(rows[:-1, 4]).max())

    def test_graph_unpacked_once(self, monkeypatch):
        # the neighbour lists are read once, as the edge list, and never as a dense matrix
        _, adj = small_rgg(n=40, r=0.5, seed=7)
        calls = []
        for name in ("dense", "edges"):
            real = getattr(Adjacency, name)

            def counting(self, _name=name, _real=real):
                calls.append((_name, self.n))
                return _real(self)

            monkeypatch.setattr(Adjacency, name, counting)
        solve_mvu(adj, rank=4, seed=0, steps_per_stage=20)
        assert calls == [("edges", 40)]

    @pytest.mark.parametrize("rank", [2, 3, 5])
    def test_evaluate_bitwise_the_row_major_formula(self, rank):
        _, adj = small_rgg(n=90, r=0.4, seed=8)
        e = adj.edges()
        a, b = e[:, 0], e[:, 1]
        x = classical_mds(float_hops(all_pairs_hops(adj)), rank).coords
        x += 0.1 * np.random.default_rng(rank).standard_normal(x.shape)
        f, spread, diff, lengths, excess = mvu._evaluate(x, a, b, mu=3.0)
        want = x[a] - x[b]
        want_lengths = np.sqrt((want * want).sum(axis=1))
        want_excess = np.maximum(want_lengths - 1.0, 0.0)
        assert 0 < np.count_nonzero(excess) < e.shape[0]
        assert np.ascontiguousarray(diff).tobytes() == want.tobytes()
        assert lengths.tobytes() == want_lengths.tobytes()
        assert excess.tobytes() == want_excess.tobytes()
        assert spread == mvu._spread(x)
        assert f == spread - 3.0 * float((want_excess ** 2).sum())

    @pytest.mark.parametrize("graph, rank, steps", [
        ("rgg", 5, 150),
        ("knn-1d", 3, 150),
        ("ring", 2, 2000),
    ])
    def test_bitwise_the_full_scatter_ascent(self, graph, rank, steps):
        # the gradient scatters the stretched edges only; the slack edges'
        # pulls are exact zeros, so the coordinates, objective and trace
        # equal the ascent that scatters every edge, bit for bit
        adj = {
            "rgg": lambda: small_rgg(n=60, r=0.45, seed=5)[1],
            "knn-1d": lambda: symmetrize_union(knn_graph(sample_uniform(interval(1.0), 50, 3), 6)),
            "ring": lambda: Adjacency.from_edges(8, [[k, (k + 1) % 8] for k in range(8)]),
        }[graph]()
        x, objective, trace, slack = full_scatter_solve_mvu(adj, rank, 1, steps)
        sol = solve_mvu(adj, rank=rank, seed=1, steps_per_stage=steps)
        assert sol.coords.tobytes() == x.tobytes()
        assert sol.objective == objective
        assert repr(sol.trace) == repr(trace)
        # the start is shrunk to feasibility, so the first gradient has no
        # stretched edge: both branches of the scatter ran
        assert 0 < slack < len(trace)

    def test_coordinates_centered(self):
        _, adj = small_rgg(n=50, r=0.5, seed=6)
        sol = solve_mvu(adj, rank=4, seed=0)
        assert np.abs(sol.coords.mean(axis=0)).max() < 1e-9

    def test_gamma_is_a_metric(self):
        _, adj = small_rgg(n=40, r=0.5, seed=7)
        sol = solve_mvu(adj, rank=4, seed=0)
        g = squareform(pdist(sol.coords))
        assert np.all(np.isfinite(g))
        assert np.array_equal(g, g.T)
        assert np.all(np.abs(np.diag(g)) == 0)
        assert np.all(g[:, :, None] + g[None, :, :] >= g[:, None, :] - 1e-9)

    def test_objective_beats_feasible_classical_baseline(self):
        _, adj = small_rgg(n=90, r=0.4, seed=8)
        hops = all_pairs_hops(adj)
        sol = solve_mvu(adj, rank=5, seed=1)
        base = classical_mds(float_hops(hops), 5).coords
        e = adj.edges()
        longest = np.linalg.norm(base[e[:, 0]] - base[e[:, 1]], axis=1).max()
        base = base / max(longest, 1.0)
        base_obj = (pairwise_distances(base)[np.triu_indices(adj.n, 1)] ** 2).sum()
        assert sol.objective >= base_obj


# floors: the objectives that the earlier gradient-ascent solver reached on the
# criterion-6 fixtures (rank 5, seed 0)
_ASCENT_OBJECTIVES = {
    "patched-rect": 234522.166018,
    "hole": 400275.795103,
    "coarse": 105209.700161,
    "knn-1d": 10630069.721727,
    "knn-strip": 1756239.083655,
}


@pytest.mark.parametrize("name", sorted(_ASCENT_OBJECTIVES))
def test_fixture_objective_at_least_the_gradient_ascent(name):
    adj = dict(_mvu_fixture_graphs())[name]
    sol = solve_mvu(adj, rank=5, seed=0)
    assert sol.objective >= _ASCENT_OBJECTIVES[name]
    assert sol.max_edge_violation == 0.0
    assert check_mvu_bound(sol, all_pairs_hops(adj)).violations == 0


# n = 600 at rank 20: the pair products run over 12000 coordinates, past
# OpenBLAS's threading thresholds (and past ddot's, whose two-thread sum
# differs)
_POOL_MVU_SCRIPT = """
import sys
from latentgraph import Indicator, generate_graph, mvu, rectangle, sample_uniform
adj = generate_graph(sample_uniform(rectangle(2, 1), 600, seed=1), Indicator(0.15), seed=0)
sol = mvu.solve_mvu(adj, rank=20, seed=0, steps_per_stage=25)
open(sys.argv[1], "wb").write(sol.coords.tobytes() + repr(sol.trace).encode())
"""


def test_solve_mvu_under_one_and_two_blas_threads(tmp_path):
    one, two = run_under_one_and_two_blas_threads(_POOL_MVU_SCRIPT, tmp_path)
    assert one.read_bytes() == two.read_bytes()


class TestCheckMvuBound:
    def test_gamma_equal_hops_passes_at_equality(self):
        adj = Adjacency.from_edges(3, [[0, 1], [1, 2]])
        hops = all_pairs_hops(adj)
        sol = MvuSolution(
            coords=np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]),
            objective=6.0,
            max_edge_violation=0.0,
        )
        assert check_mvu_bound(sol, hops).violations == 0

    def test_infeasible_coordinates_detected(self):
        adj = Adjacency.from_edges(3, [[0, 1], [1, 2]])
        hops = all_pairs_hops(adj)
        coords = np.array([[0.0, 0.0], [1.5, 0.0], [3.0, 0.0]])  # edges of length 1.5
        sol = MvuSolution(
            coords=coords,
            objective=0.0,
            max_edge_violation=0.0,  # claimed feasible, actually not
        )
        assert check_mvu_bound(sol, hops).violations > 0

    def test_size_mismatch(self):
        adj = Adjacency.from_edges(3, [[0, 1], [1, 2]])
        hops = all_pairs_hops(adj)
        sol = MvuSolution(np.zeros((4, 2)), 0.0, 0.0)
        with pytest.raises(ValueError):
            check_mvu_bound(sol, hops)

    @staticmethod
    def dense_report(sol, hops):
        """The report over all pairs at once through ``triu_indices``."""
        h = float_hops(hops)[np.triu_indices(hops.n, 1)]
        finite = np.isfinite(h)
        excess = pdist(sol.coords)[finite] - h[finite]
        return MvuBoundReport(
            pairs=int(finite.sum()),
            violations=int((excess > sol.max_edge_violation * h[finite] + 1e-9).sum()),
            max_excess=float(excess.max()),
            tol_base=1e-9,
        )

    def test_streams_pairs_and_matches_dense_reference(self):
        # at n = 2000 one n-by-n float64 is 32 MB; the check streams the
        # pairs in blocks of rows, within six float64 blocks of scratch
        n, r = 2000, 0.2
        cfg = sample_uniform(rectangle(2, 1), n, seed=1)
        hops = all_pairs_hops(generate_graph(cfg, Indicator(r), seed=1))
        # the points shrunk by r / 1.05: edges up to 1.05 long, beyond the
        # claimed violation, so some pairs violate the hop bound
        sol = MvuSolution(cfg.points * (1.05 / r), objective=0.0, max_edge_violation=1e-3)
        tracemalloc.start()
        try:
            got = check_mvu_bound(sol, hops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * hopdist._BLOCK_PAIRS
        assert got == self.dense_report(sol, hops)
        assert got.violations > 0

    @pytest.mark.parametrize("block", [1, 7, 200, 1 << 16])
    def test_tiles_match_dense_reference(self, monkeypatch, block):
        # at n = 45, blocks of 200 pairs are four rows high, some with
        # disconnected pairs; 1 << 16 is one block of the whole matrix
        monkeypatch.setattr(hopdist, "_BLOCK_PAIRS", block)
        cfg = sample_uniform(rectangle(2, 1), 45, seed=17)
        hops = all_pairs_hops(generate_graph(cfg, Indicator(0.3), seed=0))
        assert not hops.is_connected()
        sol = MvuSolution(cfg.points * (1.05 / 0.3), objective=0.0, max_edge_violation=1e-3)
        got = check_mvu_bound(sol, hops)
        assert repr(got) == repr(self.dense_report(sol, hops))
        assert got.violations > 0


class TestDiscrepancyRatio:
    def make_sol(self, coords):
        return MvuSolution(coords, 0.0, 0.0)

    def test_exact_match_is_zero(self):
        pts = sample_uniform(rectangle(2, 1), 20, seed=1).points
        sol = self.make_sol(pts / 0.3)
        assert discrepancy_ratio(sol, pts, r=0.3, eta=0.5) == pytest.approx(0.0)

    def test_algebraic_identity(self):
        pts = sample_uniform(rectangle(2, 1), 20, seed=2).points
        eta = 0.25
        sol = self.make_sol((1 + eta) * pts / 0.3)
        assert discrepancy_ratio(sol, pts, r=0.3, eta=eta) == pytest.approx(2 + eta)

    def test_eta_validated(self):
        pts = sample_uniform(rectangle(2, 1), 20, seed=3).points
        sol = self.make_sol(pts)
        for eta in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                discrepancy_ratio(sol, pts, r=1.0, eta=eta)

    @pytest.mark.parametrize("r", [np.nan, np.inf, 0.0])
    def test_scale_validated(self, r):
        pts = sample_uniform(rectangle(2, 1), 20, seed=3).points
        with pytest.raises(ValueError, match="need 0 < r < inf"):
            discrepancy_ratio(self.make_sol(pts), pts, r=r, eta=0.5)

    def test_size_mismatch(self):
        pts = sample_uniform(rectangle(2, 1), 20, seed=4).points
        with pytest.raises(ValueError, match="sizes differ"):
            discrepancy_ratio(self.make_sol(pts[:19]), pts, r=1.0, eta=0.5)

    def test_finite_on_preset(self):
        cfg, adj = small_rgg(n=80, r=0.4, seed=9)
        sol = solve_mvu(adj, rank=5, seed=0)
        value = discrepancy_ratio(sol, cfg.points, r=0.4, eta=0.9)
        assert np.isfinite(value)
        assert value >= 0
