import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, eigh
from scipy.sparse.linalg import LinearOperator, eigsh
from scipy.spatial.distance import cdist, pdist

from latentgraph import embed, hopdist
from latentgraph import (
    INF_HOPS,
    Adjacency,
    Box,
    Indicator,
    PartialDissimilarity,
    RectangleWithHole,
    all_pairs_hops,
    classical_mds,
    generate_graph,
    localize,
    pairwise_distances,
    procrustes_align,
    rectangle,
    sample_uniform,
    scale_hops,
    smacof,
)
from tests.conftest import rotation_sweep_rmse


def all_pairs(d):
    """Every pair ``i < j`` of the symmetric matrix ``d`` as present."""
    i, j = np.triu_indices(d.shape[0], 1)
    return PartialDissimilarity(d.shape[0], i, j, d[i, j])


def embedding_distance_error(coords, truth_d):
    return np.abs(pairwise_distances(coords) - truth_d).max()


def centered_squares(d):
    """``-1/2 J (d * d) J`` in the operator's order (center the columns, then
    the rows), with each step in a new array."""
    d2 = d * d
    c = d2 - d2.mean(axis=1, keepdims=True)
    return -0.5 * (c - c.mean(axis=0, keepdims=True))


def coords_from(w, u, order):
    lam, u = w[order], u[:, order]
    coords = embed._fix_signs(u) * np.sqrt(np.clip(lam, 0.0, None))
    return embed.EmbeddingResult(coords=coords - coords.mean(axis=0), eigenvalues=lam)


def centered_start(n):
    """Lanczos' start vector: a centered standard normal draw of seed 0."""
    v0 = np.random.default_rng(0).standard_normal(n)
    return v0 - v0.mean()


def out_of_place_classical_mds(d, v):
    """Classical scaling of the dense centered squares, built out of place."""
    n = d.shape[0]
    b = centered_squares(d)
    if v >= n - 1:
        w, u = eigh(b)
        return coords_from(w, u, np.argsort(w)[::-1][:v])
    w, u = eigsh(b, k=v, which="LA", v0=centered_start(n), rng=0)
    return coords_from(w, u, np.argsort(w)[::-1])


def pooled(monkeypatch, workers):
    """Split every product of classical scaling over ``workers`` threads,
    whatever its size."""
    monkeypatch.setattr(embed, "_POOL_MIN_ENTRIES", 0)
    monkeypatch.setattr(embed, "_usable_cpus", lambda: workers)


def record_products(monkeypatch):
    """A list that gains, for each product of classical scaling's operator,
    the number of live threads just after it."""
    seen = []
    build = embed._centered_squares

    def counted(*args):
        op = build(*args)

        def matvec(y):
            out = op.matvec(y)
            seen.append(threading.active_count())
            return out

        return LinearOperator(op.shape, matvec=matvec, dtype=np.float64)

    monkeypatch.setattr(embed, "_centered_squares", counted)
    return seen


def symmetric_noise(rng, n, size):
    e = rng.random((n, n)) * size
    return (e + e.T) / 2


def dense_classical_mds(d, v):
    """Classical scaling by the full dense eigendecomposition."""
    w, u = eigh(centered_squares(d))
    return coords_from(w, u, np.argsort(w)[::-1][:v])


def hole_fixture(n=150, r=0.35, seed=9):
    hole = Box(np.array([0.5, 0.25]), np.array([1.5, 0.75]))
    cfg = sample_uniform(RectangleWithHole(rectangle(2, 1), hole), n, seed=seed)
    hops = all_pairs_hops(generate_graph(cfg, Indicator(r), seed=seed))
    return localize(hops, 2, r=r), scale_hops(hops, r).rows(0, hops.n)


def rre_point(history):
    """The reduced-rank extrapolation of the iterates ``history``: weights
    summing to 1 that minimize the norm of the combined differences (Gram
    matrix with a ridge of 1e-14 of its trace), applied to all iterates but
    the last, then centered."""
    xs = np.array(history)
    u = (xs[1:] - xs[:-1]).reshape(len(xs) - 1, -1)
    gram = u @ u.T
    gram += 1e-14 * np.trace(gram) * np.eye(len(gram))
    w = np.linalg.solve(gram, np.ones(len(gram)))
    y = np.tensordot(w / w.sum(), xs[:-1], axes=1)
    return y - y.mean(axis=0)


def flat_bin_smacof(partial, init, relax=embed._SMACOF_RELAX, rre_steps=embed._SMACOF_RRE_STEPS):
    """SMACOF with row-major pair differences and the Guttman right-hand side
    scattered over the flat bins ``i*dim + k`` (the row-major reference),
    relaxed by ``embed._SMACOF_RELAX`` (1 gives the plain Guttman step).
    After every ``rre_steps`` steps, the stopping step too, it tries
    ``rre_point`` of the iterates since the last try and keeps it when its
    stress is lower (0: never)."""
    n, pi, pj, delta = partial.n, partial.i, partial.j, partial.values
    x = np.array(init, dtype=np.float64)
    dim = x.shape[1]
    bins_i = (pi[:, None] * dim + np.arange(dim)).ravel()
    bins_j = (pj[:, None] * dim + np.arange(dim)).ravel()
    vmat = np.full((n, n), 1.0 / n)
    vmat[pi, pj] = vmat[pj, pi] = 1.0 / n - 1.0
    vmat.flat[:: n + 1] = np.bincount(pi, minlength=n) + np.bincount(pj, minlength=n) + 1.0 / n
    factor = cho_factor(vmat.T, lower=True, overwrite_a=True)

    def evaluate(x):
        diff = x[pi] - x[pj]
        return diff, np.sqrt((diff * diff).sum(axis=1))

    x = x - x.mean(axis=0)
    diff, dis = evaluate(x)
    trace = [float(((dis - delta) ** 2).sum())]
    history = [x]
    for _ in range(embed._SMACOF_MAX_ITER):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dis > 0, delta / dis, 0.0)
        term = (ratio[:, None] * diff).ravel()
        bx = np.bincount(bins_i, term, n * dim) - np.bincount(bins_j, term, n * dim)
        x = x + relax * (cho_solve(factor, bx.reshape(n, dim)) - x)
        x = x - x.mean(axis=0)
        diff, dis = evaluate(x)
        trace.append(float(((dis - delta) ** 2).sum()))
        prev = trace[-2]
        stop = prev <= 0 or (prev - trace[-1]) / prev < embed._SMACOF_REL_TOL
        history.append(x)
        if len(history) == rre_steps + 1:
            y, history = rre_point(history), [x]
            y_diff, y_dis = evaluate(y)
            y_stress = float(((y_dis - delta) ** 2).sum())
            if y_stress < trace[-1]:
                x, diff, dis, history = y, y_diff, y_dis, [y]
                trace.append(y_stress)
        if stop:
            break
    return x, tuple(trace)


class TestClassicalMds:
    def test_collinear_exact(self):
        truth = pairwise_distances(np.array([[0.0], [1.0], [2.0]]))
        emb = classical_mds(truth, v=1)
        assert embedding_distance_error(emb.coords, truth) < 1e-12

    def test_unit_square_exact(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        truth = pairwise_distances(pts)
        emb = classical_mds(truth, v=2)
        assert embedding_distance_error(emb.coords, truth) < 1e-9

    def test_four_node_path_hops(self):
        # the constant vector would be centered to zero and fail ARPACK; the
        # centered start reaches the answer by Lanczos
        truth = pairwise_distances(np.arange(4.0)[:, None])
        emb = classical_mds(truth, v=2)
        assert embedding_distance_error(emb.coords, truth) < 1e-9

    def test_rank_v_exact_recovery(self):
        rng = np.random.default_rng(3)
        pts = rng.random((30, 3))
        truth = pairwise_distances(pts)
        emb = classical_mds(truth, v=3)
        assert embedding_distance_error(emb.coords, truth) < 1e-8

    def test_centered_and_descending_eigenvalues(self):
        cfg = sample_uniform(rectangle(2, 1), 80, seed=1)
        emb = classical_mds(pairwise_distances(cfg), v=2)
        assert np.abs(emb.coords.mean(axis=0)).max() < 1e-9
        assert emb.eigenvalues[0] >= emb.eigenvalues[1]

    def test_hop_input_produces_embedding(self):
        cfg = sample_uniform(rectangle(2, 1), 300, seed=2)
        adj = generate_graph(cfg, Indicator(0.5), seed=0)
        est = scale_hops(all_pairs_hops(adj), 0.5)
        emb = classical_mds(est.rows(0, est.n), v=2)
        assert emb.eigenvalues[0] > 0
        assert emb.coords.shape == (300, 2)

    def test_relabeling_invariance(self):
        cfg = sample_uniform(rectangle(2, 1), 40, seed=4)
        truth = pairwise_distances(cfg)
        perm = np.random.default_rng(0).permutation(40)
        a = classical_mds(truth, v=2)
        b = classical_mds(truth[np.ix_(perm, perm)], v=2)
        da = pairwise_distances(a.coords)[np.ix_(perm, perm)]
        db = pairwise_distances(b.coords)
        assert np.abs(da - db).max() < 1e-9

    def test_no_positive_spectrum(self):
        # a zero matrix must be caught before ARPACK, which fails on it
        # ("starting vector is zero")
        for n in (5, 1300):
            with pytest.raises(ValueError, match="no positive spectrum"):
                classical_mds(np.zeros((n, n)), v=2)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            classical_mds(np.full((3, 3), np.inf), v=1)
        with pytest.raises(ValueError):
            classical_mds(np.zeros((3, 4)), v=1)
        with pytest.raises(ValueError, match="need v >= 1"):
            classical_mds(pairwise_distances(np.eye(3)), v=0)
        path = pairwise_distances(np.arange(4.0)[:, None])
        with pytest.raises(ValueError, match=r"need v <= n, got v=10 for n=4 points"):
            classical_mds(path, v=10)
        assert classical_mds(path, v=4).coords.shape == (4, 4)

    def test_arpack_failure_falls_back_to_eigh(self):
        # the squares of 1e-200 underflow to 0: the operator is zero although
        # its input is not, ARPACK fails, and eigh finds no positive spectrum
        d = np.full((6, 6), 1e-200)
        np.fill_diagonal(d, 0.0)
        with pytest.raises(ValueError, match="no positive spectrum"):
            classical_mds(d, v=2)

    @pytest.mark.parametrize("n, v", [(50, 2), (130, 3), (3, 2), (6, 5)])
    def test_in_place_centering_is_bitwise_out_of_place(self, n, v):
        # the operator against the dense centered squares built out of place
        # (same formula, other rounding: bitwise no longer holds); v < n - 1
        # runs Lanczos (eigsh), v >= n - 1 the dense eigh
        d = symmetric_noise(np.random.default_rng(n), n, 3.0)  # finite, not Euclidean
        d.setflags(write=False)
        before = d.copy()
        got = classical_mds(d, v=v)
        assert np.array_equal(d, before)
        want = out_of_place_classical_mds(d, v)
        # relative to the spectrum: at v = n - 1 the null eigenvalue is rounding
        lam = np.abs(want.eigenvalues).max()
        assert np.abs(got.eigenvalues - want.eigenvalues).max() < 1e-12 * lam
        assert np.abs(got.coords - want.coords).max() < 1e-9

    @pytest.mark.parametrize("n", [4, 60, 300])
    def test_lanczos_matches_dense_eigh(self, n):
        d = pairwise_distances(sample_uniform(rectangle(2, 1), n, seed=n))
        d += symmetric_noise(np.random.default_rng(n), n, 0.1)  # not Euclidean: full spectrum
        got = classical_mds(d, v=2)
        want = dense_classical_mds(d, 2)
        assert np.abs(got.eigenvalues / want.eigenvalues - 1.0).max() < 1e-12
        assert np.abs(got.coords - want.coords).max() < 1e-9

    @pytest.mark.parametrize("dtype", [np.float64, np.uint16])
    def test_asymmetric_input_rejected(self, dtype):
        # one entry off, below the diagonal
        d = pairwise_distances(np.arange(70.0)[:, None]).astype(dtype)
        d[69, 3] += 1
        with pytest.raises(ValueError, match="dissimilarities must be symmetric"):
            classical_mds(d, v=2)

    def test_uint16_hops_embed_like_their_floats(self):
        cfg = sample_uniform(rectangle(2, 1), 200, seed=3)
        hops = all_pairs_hops(generate_graph(cfg, Indicator(0.4), seed=0))
        assert hops.is_connected()
        got = classical_mds(hops.hops, v=2)
        want = classical_mds(hops.hops.astype(np.float64), v=2)
        assert got.coords.tobytes() == want.coords.tobytes()

    @pytest.mark.parametrize("n", [4, 63, 64, 65, 300])
    def test_scaled_uint16_is_bitwise_the_float_estimate(self, n):
        # sizes around the 64-row symmetrizing strip; any symmetric counts do
        rng = np.random.default_rng(n)
        h = np.triu(rng.integers(1, 40, (n, n)), 1).astype(np.uint16)
        h += h.T
        h.setflags(write=False)
        r = 0.137
        got = classical_mds(h, v=2, scale=r)
        want = classical_mds(r * h.astype(np.float64), v=2)
        assert got.coords.tobytes() == want.coords.tobytes()
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()

    def test_hop_sentinel_is_not_finite(self):
        h = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=np.uint16)
        classical_mds(h, v=1)
        h[0, 2] = h[2, 0] = INF_HOPS
        with pytest.raises(ValueError, match="dissimilarities must be finite"):
            classical_mds(h, v=1, scale=0.5)

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.inf, np.nan])
    def test_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(ValueError, match="scale"):
            classical_mds(np.ones((3, 3)) - np.eye(3), v=1, scale=scale)

    def test_repeated_eigenvalue_is_deterministic(self):
        # the unit square's top eigenvalue is double: Lanczos restarts from
        # a drawn vector, which must be the same on every call
        square = pairwise_distances(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))
        runs = [classical_mds(square, v=2) for _ in range(3)]
        assert len({r.coords.tobytes() for r in runs}) == 1
        assert np.allclose(runs[0].eigenvalues, [1.0, 1.0])

    @pytest.mark.parametrize("tile", [embed._SYMMETRY_TILE, 64])
    @pytest.mark.parametrize("n", [255, 256, 257])
    @pytest.mark.parametrize("dtype", [np.uint16, np.float64])
    def test_tiled_symmetry_check_finds_one_changed_entry(self, monkeypatch, dtype, n, tile):
        # one entry changed at each pair of rows and columns on either side
        # of a tile edge: in a diagonal tile, in an off-diagonal tile, and in
        # the last tile, partial unless tile divides n
        monkeypatch.setattr(embed, "_SYMMETRY_TILE", tile)
        d = pairwise_distances(np.arange(n, dtype=np.float64)[:, None]).astype(dtype)
        assert embed._is_symmetric(d)
        edges = sorted({e + s for e in range(0, n, tile) for s in (-1, 0)} - {-1} | {n - 1})
        last = (n - 1) // tile * tile
        kinds = set()
        for i in edges:
            for j in edges:
                if i == j:
                    continue
                kinds.add("diagonal" if i // tile == j // tile else "off-diagonal")
                if max(i, j) >= last:
                    kinds.add("last")
                e = d.copy()
                e[i, j] += 1
                assert not embed._is_symmetric(e), (i, j)
        assert kinds >= {"diagonal", "last"}
        assert ("off-diagonal" in kinds) == (n > tile)

    @pytest.mark.parametrize("dtype", [np.uint16, np.float64])
    def test_same_bits_for_any_worker_count(self, monkeypatch, dtype):
        # 1000 rows are 62.5 blocks of 16, not a whole number of rounds for
        # any worker count here; the partial last block goes to worker 62 % w
        n = 1000
        points = sample_uniform(rectangle(2, 1), n, seed=5)
        d = np.rint(20 * pairwise_distances(points)).astype(dtype)  # hop-like counts
        sizes = []
        monkeypatch.setattr(embed, "ThreadPoolExecutor",
                            lambda workers: sizes.append(workers) or ThreadPoolExecutor(workers))
        runs = []
        for workers in (1, 2, 3):
            pooled(monkeypatch, workers)
            emb = classical_mds(d, v=3, scale=0.137)
            runs.append(emb.coords.tobytes() + emb.eigenvalues.tobytes())
        assert runs[0] == runs[1] == runs[2]
        assert sizes == [1, 2]  # the calling thread is the first worker

    def test_pool_threads_end_with_the_call(self, monkeypatch):
        # a normal return, the "no positive spectrum" error after a dense
        # eigh, and the same error after ARPACK fails and eigh takes over;
        # the pool starts its threads as products need them
        pooled(monkeypatch, 3)
        seen = record_products(monkeypatch)
        start = threading.active_count()
        classical_mds(pairwise_distances(sample_uniform(rectangle(2, 1), 60, seed=1)), v=2)
        assert max(seen) > start and threading.active_count() == start
        underflow = np.full((6, 6), 1e-200)
        np.fill_diagonal(underflow, 0.0)
        for v in (5, 2):
            seen.clear()
            with pytest.raises(ValueError, match="no positive spectrum"):
                classical_mds(underflow, v=v)
            assert max(seen) > start and threading.active_count() == start

    def test_fifteen_products_for_two_dimensions(self, monkeypatch):
        # the 2500-node hop fixture of the BLAS-pool classical scaling script
        # in test_presets; the defaults (ncv = 20, tol = 0) took 21 products
        config = sample_uniform(rectangle(2, 1), 2500, seed=1)
        hops = all_pairs_hops(generate_graph(config, Indicator(0.1), seed=1))
        seen = record_products(monkeypatch)
        counts = []
        for _ in range(2):
            seen.clear()
            classical_mds(hops.hops, v=2, scale=0.1)
            counts.append(len(seen))
        assert counts[0] == counts[1] <= 15, counts

    def test_holds_no_matrix_beside_its_input(self):
        # the operator's row block and Lanczos' basis, both O(n): 0.032 of
        # one n-by-n float64 at n=2000 (1.03 with a dense centered matrix)
        n = 2000
        d = pairwise_distances(sample_uniform(rectangle(4, 1), n, seed=8))
        tracemalloc.start()
        try:
            classical_mds(d, v=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * n * n * 8, peak / (n * n * 8)

    def test_scaled_hops_hold_no_matrix_beside_them(self):
        n = 2000
        cfg = sample_uniform(rectangle(2, 1), n, seed=8)
        hops = all_pairs_hops(generate_graph(cfg, Indicator(0.1), seed=8))
        assert hops.is_connected()
        tracemalloc.start()
        try:
            classical_mds(hops.hops, v=2, scale=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * n * n * 8, peak / (n * n * 8)


class TestProcrustes:
    def test_rotation_only(self):
        rng = np.random.default_rng(1)
        src = rng.random((20, 2))
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])  # 90 degrees
        fit = procrustes_align(src, src @ rot.T)
        assert fit.rmse == pytest.approx(0.0, abs=1e-12)
        assert fit.scale == pytest.approx(1.0)

    def test_scale_and_shift(self):
        rng = np.random.default_rng(2)
        src = rng.random((15, 2))
        fit = procrustes_align(src, 2.0 * src + np.array([3.0, 3.0]))
        assert fit.scale == pytest.approx(2.0)
        assert fit.rmse == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(fit.aligned, 2.0 * src + 3.0)

    def test_reflection_allowed(self):
        rng = np.random.default_rng(3)
        src = rng.random((12, 2))
        mirrored = src * np.array([1.0, -1.0])
        fit = procrustes_align(src, mirrored)
        assert fit.rmse == pytest.approx(0.0, abs=1e-12)

    def test_rigid_motion_invariance_of_rmse(self):
        rng = np.random.default_rng(4)
        src = rng.random((25, 2))
        tgt = rng.random((25, 2))
        base = procrustes_align(src, tgt).rmse
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        moved = 3.5 * (src @ rot.T) + np.array([-2.0, 5.0])
        assert procrustes_align(moved, tgt).rmse == pytest.approx(base, abs=1e-9)

    def test_matches_rotation_sweep_oracle(self):
        rng = np.random.default_rng(5)
        src = rng.random((20, 2))
        tgt = rng.random((20, 2))
        fit = procrustes_align(src, tgt)
        assert fit.rmse == pytest.approx(rotation_sweep_rmse(src, tgt), abs=1e-6)

    def test_degenerate_source(self):
        with pytest.raises(ValueError):
            procrustes_align(np.zeros((5, 2)), np.random.default_rng(0).random((5, 2)))

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            procrustes_align(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_unequal_shapes(self):
        with pytest.raises(ValueError, match="equal shapes"):
            procrustes_align(np.zeros((5, 2)), np.zeros((5, 3)))


class TestLocalize:
    def make_hops(self):
        cfg = sample_uniform(rectangle(2, 1), 120, seed=6)
        adj = generate_graph(cfg, Indicator(0.4), seed=0)
        return all_pairs_hops(adj)

    def test_full_when_threshold_at_diameter(self):
        hops = self.make_hops()
        assert hops.is_connected()
        part = localize(hops, hops.max_finite(), r=0.4)
        assert part.i.size == part.n * (part.n - 1) // 2

    def test_single_hop_keeps_edges_only(self):
        hops = self.make_hops()
        part = localize(hops, 1, r=0.4)
        off_diag = np.zeros((part.n, part.n), dtype=bool)
        off_diag[part.i, part.j] = off_diag[part.j, part.i] = True
        assert np.array_equal(off_diag, hops.hops == 1)
        assert np.all(part.values == 0.4)

    def test_validation(self):
        hops = self.make_hops()
        with pytest.raises(ValueError):
            localize(hops, 0, r=0.4)
        with pytest.raises(ValueError):
            localize(hops, 2, r=0.0)

    @pytest.mark.parametrize("max_hops, r, message", [
        (np.nan, 0.4, "need 1 <= max_hops < inf"),
        (2, np.nan, "scale must be positive and finite"),
        (2, np.inf, "scale must be positive and finite"),
    ])
    def test_non_finite_arguments_rejected(self, max_hops, r, message):
        # a NaN hop limit kept no pair; a NaN or infinite scale failed only
        # later, on the dissimilarities it made
        with pytest.raises(ValueError, match=message):
            localize(self.make_hops(), max_hops, r=r)

    @pytest.mark.parametrize("max_hops", [2, 65534, 65535, 10**6])
    def test_disconnected_pairs_are_never_kept(self, max_hops):
        # the sentinel 0xFFFF of a pair with no path is no hop count, however
        # high the limit: the two components stay apart
        hops = all_pairs_hops(Adjacency.from_edges(4, [[0, 1], [2, 3]]))
        part = localize(hops, max_hops, r=0.1)
        assert part.i.tolist() == [0, 2] and part.j.tolist() == [1, 3]
        assert part.values.tolist() == [0.1, 0.1]

    def test_pairs_match_dense_triu_reference(self, monkeypatch):
        # localize scans blocks of rows: one row, 9 rows (the last one 3)
        # and all 120 rows at once
        hops = self.make_hops()
        h = hops.hops
        for block in (1, 1100, 1 << 16):
            monkeypatch.setattr(hopdist, "_BLOCK_PAIRS", block)
            for max_hops in (1, 2, hops.max_finite()):
                part = localize(hops, max_hops, r=0.4)
                mask = h <= max_hops
                values = np.where(mask, 0.4 * h.astype(np.float64), 0.0)
                i, j = np.nonzero(np.triu(mask, 1))
                assert part.n == hops.n
                assert np.array_equal(part.i, i) and np.array_equal(part.j, j)
                assert part.values.tobytes() == values[i, j].tobytes()

    def test_holds_less_than_one_dense_float_matrix(self):
        n = 2000
        hole = Box(np.array([0.5, 0.25]), np.array([1.5, 0.75]))
        cfg = sample_uniform(RectangleWithHole(rectangle(2, 1), hole), n, seed=3)
        hops = all_pairs_hops(generate_graph(cfg, Indicator(0.2), seed=3))
        tracemalloc.start()
        try:
            part = localize(hops, 2, r=0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < part.i.size < n * (n - 1) // 2
        assert peak < n * n * 8


class TestPairDistances:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dim", range(1, 8))
    def test_bitwise_the_row_major_formula(self, dim, order):
        # numpy sums a row of fewer than eight entries left to right, which
        # is the coordinate order _pair_distances adds in
        rng = np.random.default_rng(dim)
        x = np.asarray(rng.standard_normal((90, dim)) * 10.0 ** rng.integers(-3, 4, (90, dim)),
                       order=order)
        pi, pj = np.triu_indices(90, 1)
        diff, lengths = embed._pair_distances(x, pi, pj)
        want = x[pi] - x[pj]
        assert diff.shape == want.shape
        assert diff.tobytes() == want.tobytes()
        assert lengths.tobytes() == np.sqrt((want * want).sum(axis=1)).tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dim", [2, 5, 9])
    def test_lengths_bitwise_cdist_in_both_layouts(self, dim, order):
        # rows are gathered from either layout, and the squares are summed in
        # cdist's order, nine coordinates too
        rng = np.random.default_rng(dim)
        x = np.asarray(rng.standard_normal((70, dim)) * 10.0 ** rng.integers(-3, 4, (70, dim)),
                       order=order)
        pi, pj = rng.integers(0, 70, 3000), rng.integers(0, 70, 3000)
        diff, lengths = embed._pair_distances(x, pi, pj)
        assert lengths.tobytes() == cdist(x, x)[pi, pj].tobytes()
        assert np.array_equal(diff, x[pi] - x[pj])


class TestSmacof:
    def test_exact_input_exact_init_is_fixed_point(self):
        cfg = sample_uniform(rectangle(2, 1), 40, seed=7)
        truth = pairwise_distances(cfg)
        part = all_pairs(truth)
        res = smacof(part, cfg.points)
        assert res.stress == pytest.approx(0.0, abs=1e-18)
        assert res.iterations == 1

    def test_beats_classical_mds_stress_on_full_input(self):
        cfg = sample_uniform(rectangle(2, 1), 60, seed=8)
        adj = generate_graph(cfg, Indicator(0.5), seed=0)
        est = scale_hops(all_pairs_hops(adj), 0.5).rows(0, 60)
        part = all_pairs(est)
        cm = classical_mds(est, v=2)

        def full_stress(coords):
            iu = np.triu_indices(60, 1)
            return (((pairwise_distances(coords) - est)[iu]) ** 2).sum()

        rng = np.random.default_rng(0)
        res = smacof(part, rng.random((60, 2)))
        assert res.stress <= full_stress(cm.coords) + 1e-12

    def test_stress_non_increasing_on_partial_input(self):
        cfg = sample_uniform(rectangle(2, 1), 150, seed=9)
        adj = generate_graph(cfg, Indicator(0.35), seed=0)
        hops = all_pairs_hops(adj)
        assert hops.is_connected()
        part = localize(hops, 2, r=0.35)
        init = classical_mds(scale_hops(hops, 0.35).rows(0, hops.n), v=2).coords
        res = smacof(part, init)
        trace = np.array(res.stress_trace)
        assert np.all(np.diff(trace) <= 1e-9)
        assert res.stress == trace[-1]
        # the reported stress is that of the returned coordinates
        # position of pair (i, j) in pdist's condensed, row-major order
        n, i, j = part.n, part.i, part.j
        present = n * i - i * (i + 1) // 2 + j - i - 1
        recomputed = ((pdist(res.coords)[present] - part.values) ** 2).sum()
        assert res.stress == pytest.approx(recomputed, rel=1e-12, abs=0)

    def test_one_distance_matrix_per_iterate(self, monkeypatch):
        # an iterate's distances give both its stress and the next Guttman
        # step; an extrapolation trial adds its own, and a rejected one
        # rebuilds the current iterate's
        from latentgraph import embed

        calls, trials = [], []
        real, real_extrapolate = embed._pair_distances, embed._extrapolate

        def counting(x, pi, pj):
            calls.append(x.shape)
            return real(x, pi, pj)

        def counting_extrapolate(history):
            y = real_extrapolate(history)
            trials.append(y is not None)
            return y

        monkeypatch.setattr(embed, "_pair_distances", counting)
        monkeypatch.setattr(embed, "_extrapolate", counting_extrapolate)
        cfg = sample_uniform(rectangle(2, 1), 80, seed=4)
        hops = all_pairs_hops(generate_graph(cfg, Indicator(0.4), seed=0))
        part = localize(hops, 2, r=0.4)
        assert part.i.size < part.n * (part.n - 1) // 2
        res = smacof(part, classical_mds(scale_hops(hops, 0.4).rows(0, hops.n), v=2).coords)
        kept = len(res.stress_trace) - 1 - res.iterations
        tried = sum(trials)
        assert res.iterations > 1
        assert len(trials) == res.iterations // embed._SMACOF_RRE_STEPS
        assert 0 < kept < tried  # both outcomes happen on this input
        assert len(calls) == res.iterations + 1 + tried + (tried - kept)

    def test_guttman_step_exact_for_nearly_coincident_points(self, monkeypatch):
        # two start points one ulp apart give a pair ratio delta/dis near
        # 1e16; the step B(x) x must not lose the other pairs' terms to it
        from latentgraph import embed

        monkeypatch.setattr(embed, "_SMACOF_MAX_ITER", 1)
        n = 6
        init = np.array(
            [[0.3, 0.7], [0.3, 0.7], [1.1, 0.2], [0.9, 1.3], [1.7, 0.9], [0.2, 1.6]]
        )
        init[1, 0] = np.nextafter(init[0, 0], 1.0)
        pairs = [(0, 1), (0, 2), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4), (4, 5)]
        pi, pj = np.array(pairs).T
        values = np.ones(len(pairs))
        values[0] = 0.5  # the pair (0, 1)
        part = PartialDissimilarity(n, pi, pj, values)
        res = smacof(part, init)
        assert res.iterations == 1

        x = init - init.mean(axis=0)
        assert x[0, 0] != x[1, 0]
        bx = [[Fraction(0)] * 2 for _ in range(n)]
        for (i, j), value in zip(pairs, values):
            diff = [Fraction(x[i, k]) - Fraction(x[j, k]) for k in range(2)]
            dis = math.sqrt(diff[0] ** 2 + diff[1] ** 2)
            for k in range(2):
                t = Fraction(value) / Fraction(dis) * diff[k]
                bx[i][k] += t
                bx[j][k] -= t
        w = np.zeros((n, n), dtype=bool)
        w[pi, pj] = w[pj, pi] = True
        vmat = np.diag(w.sum(axis=1).astype(np.float64)) - w + 1.0 / n
        guttman = np.linalg.solve(vmat, np.array(bx, dtype=np.float64))
        ref = x + embed._SMACOF_RELAX * (guttman - x)
        ref -= ref.mean(axis=0)
        np.testing.assert_allclose(res.coords, ref, rtol=0, atol=1e-12)

    def test_disconnected_mask_rejected(self):
        part = PartialDissimilarity(4, [0, 2], [1, 3], [0.0, 0.0])
        with pytest.raises(ValueError, match="threshold too small"):
            smacof(part, np.zeros((4, 2)))

    def test_partial_validation(self):
        PartialDissimilarity(4, [0, 0, 2], [1, 3, 3], [1.0, 0.0, 2.0])  # well formed
        for i, j, values in (
            ([1, 0], [0, 3], [1.0, 1.0]),     # reversed pair (1, 0)
            ([0, 2], [1, 2], [1.0, 1.0]),     # i == j
            ([0, 2], [1, 4], [1.0, 1.0]),     # j >= n
            ([-1, 0], [1, 1], [1.0, 1.0]),    # negative index
            ([0, 0], [1, 1], [1.0, 1.0]),     # repeated pair
            ([1, 0], [2, 3], [1.0, 1.0]),     # out of row-major order
            ([0, 1], [1, 2], [1.0, -0.5]),    # negative value
            ([0, 1], [1, 2], [1.0]),          # lengths differ
        ):
            with pytest.raises(ValueError):
                PartialDissimilarity(4, i, j, values)

    def test_partial_leaves_the_callers_arrays_writeable(self):
        i, j, vals = np.array([0, 0, 1]), np.array([1, 2, 2]), np.array([1.0, 2.0, 3.0])
        part = PartialDissimilarity(3, i, j, vals)
        for held, given in ((part.i, i), (part.j, j), (part.values, vals)):
            assert np.shares_memory(held, given)
            assert not held.flags.writeable
            given[0] = given[0]  # the caller's array stays writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_partial_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="dissimilarities must be finite"):
            PartialDissimilarity(4, [0, 1], [1, 2], [1.0, bad])

    def test_factors_the_dense_mask_matrix(self, monkeypatch):
        # V + 1/n from the pairs is bitwise the matrix built from a dense mask
        captured = []
        real = embed.cho_factor

        def capture(a, **kwargs):
            captured.append(np.array(a))
            return real(a, **kwargs)

        monkeypatch.setattr(embed, "cho_factor", capture)
        cfg = sample_uniform(rectangle(2, 1), 150, seed=9)
        hops = all_pairs_hops(generate_graph(cfg, Indicator(0.35), seed=0))
        part = localize(hops, 2, r=0.35)
        smacof(part, classical_mds(scale_hops(hops, 0.35).rows(0, hops.n), v=2).coords)
        n = part.n
        mask = hops.hops <= 2
        want = np.where(mask, 1.0 / n - 1.0, 1.0 / n)
        want.flat[:: n + 1] = (mask.sum(axis=1) - 1) + 1.0 / n
        assert len(captured) == 1
        assert captured[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_bitwise_the_flat_bin_reference(self, dim):
        part, est = hole_fixture()
        init = classical_mds(est, v=dim).coords
        res = smacof(part, init)
        coords, trace = flat_bin_smacof(part, init)
        assert res.iterations > 1
        assert len(trace) - 1 > res.iterations  # an extrapolated point was kept
        assert res.stress_trace == trace
        assert res.coords.tobytes() == coords.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_extrapolation_stops_no_higher_than_the_steps_alone(self, seed):
        part, est = hole_fixture(seed=seed)
        init = classical_mds(est, v=2).coords
        res = smacof(part, init)
        _, steps_only = flat_bin_smacof(part, init, rre_steps=0)
        assert res.iterations < len(steps_only) - 1
        assert res.stress <= steps_only[-1] * (1 + 1e-6)

    def test_rejected_trials_leave_the_steps_bitwise(self, monkeypatch):
        # a trial point 5 steps back has a higher stress: each trial is
        # rejected, and the rebuilt pair arrays give the run without trials
        monkeypatch.setattr(embed, "_extrapolate", lambda history: history[0])
        part, est = hole_fixture()
        init = classical_mds(est, v=2).coords
        res = smacof(part, init)
        coords, trace = flat_bin_smacof(part, init, rre_steps=0)
        assert res.iterations > embed._SMACOF_RRE_STEPS
        assert res.stress_trace == trace
        assert res.coords.tobytes() == coords.tobytes()

    def test_relaxed_step_beats_the_plain_guttman_step(self):
        # the over-relaxed step stops sooner, no higher than the plain
        # step's stress (within the stop rule's tolerance), and stays monotone
        part, est = hole_fixture()
        init = classical_mds(est, v=2).coords
        res = smacof(part, init)
        _, plain = flat_bin_smacof(part, init, relax=1.0)
        assert res.iterations < len(plain) - 1
        assert res.stress <= plain[-1] * (1 + embed._SMACOF_REL_TOL)
        assert np.all(np.diff(res.stress_trace) <= 1e-9)

    def test_extrapolation_of_a_linear_sequence_is_its_limit(self):
        # x_i = x* + c^i e converges linearly; RRE weights cancel c^i e
        rng = np.random.default_rng(5)
        limit, e = rng.standard_normal((2, 30, 2))
        limit -= limit.mean(axis=0)
        e -= e.mean(axis=0)
        history = [limit + 0.8 ** i * e for i in range(6)]
        y = embed._extrapolate(history)
        assert np.abs(y - limit).max() < 1e-6 * np.abs(e).max()
        assert np.abs(history[-1] - limit).max() > 0.3 * np.abs(e).max()

    def test_degenerate_history_skips_the_trial(self, monkeypatch):
        # no warning either: the suite turns warnings into errors
        still = [np.ones((10, 2))] * 6
        assert embed._extrapolate(still) is None  # singular Gram matrix
        huge = [np.full((10, 2), (-1.0) ** k * 1e300) for k in range(6)]
        assert embed._extrapolate(huge) is None  # the Gram matrix overflows
        moving = [np.arange(20.0).reshape(10, 2) * k for k in range(6)]
        assert embed._extrapolate(moving) is not None
        monkeypatch.setattr(np.linalg, "solve", lambda g, b: np.array([1.0, -1.0, 0.0, 0.0, 0.0]))
        assert embed._extrapolate(moving) is None  # weights summing to 0

    @pytest.mark.parametrize("shape", [(5,), (4, 2), (6, 2)])
    def test_init_of_the_wrong_shape_rejected(self, shape):
        part = PartialDissimilarity(5, [0, 1, 2, 3], [1, 2, 3, 4], [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="init must be n-by-v"):
            smacof(part, np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_init_rejected(self, bad):
        part, est = hole_fixture()
        init = classical_mds(est, v=2).coords
        init[17, 1] = bad
        with np.errstate(all="raise"), pytest.raises(ValueError, match="init must be finite"):
            smacof(part, init)

    def test_step_that_overflows_is_rejected(self):
        # a finite start whose right-hand side overflows raises cho_solve's error
        part, est = hole_fixture()
        huge = PartialDissimilarity(part.n, part.i, part.j, np.full(part.i.size, 1e308))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="array must not contain infs or NaNs"):
            smacof(huge, classical_mds(est, v=2).coords)

    def test_holds_the_factor_and_a_few_pair_arrays(self, monkeypatch):
        # beside V + 1/n, a few float64 arrays of one entry per present pair;
        # every iteration allocates the same, so three show the peak
        monkeypatch.setattr(embed, "_SMACOF_MAX_ITER", 3)
        n = 2000
        part, est = hole_fixture(n=n, r=0.2, seed=3)
        init = classical_mds(est, v=2).coords
        del est
        tracemalloc.start()
        try:
            res = smacof(part, init)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        p = part.i.size
        assert res.iterations == 3
        assert 0 < p < n * (n - 1) // 2
        assert peak < n * n * 8 + 13 * 8 * p

    def test_extrapolation_trial_adds_no_pair_arrays(self, monkeypatch):
        # the same cap with two trials run, one of them rejected: a trial
        # frees the iterate's pair arrays before it builds its own
        steps = embed._SMACOF_RRE_STEPS
        monkeypatch.setattr(embed, "_SMACOF_MAX_ITER", 2 * steps + 1)
        real, trials = embed._extrapolate, []

        def first_rejected(history):
            trials.append(len(history))
            return history[0] if len(trials) == 1 else real(history)

        monkeypatch.setattr(embed, "_extrapolate", first_rejected)
        n = 2000
        part, est = hole_fixture(n=n, r=0.2, seed=3)
        init = classical_mds(est, v=2).coords
        del est
        tracemalloc.start()
        try:
            res = smacof(part, init)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        p = part.i.size
        assert res.iterations == 2 * steps + 1
        assert trials == [steps + 1, steps + 1]
        assert len(res.stress_trace) == res.iterations + 2  # the second trial was kept
        assert peak < n * n * 8 + 13 * 8 * p
