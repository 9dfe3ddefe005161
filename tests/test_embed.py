import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.sparse.linalg import eigsh
from scipy.spatial.distance import pdist, squareform

from latentgraph import embed
from latentgraph import (
    Indicator,
    PartialDissimilarity,
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


def embedding_distance_error(coords, truth_d):
    return np.abs(pairwise_distances(coords) - truth_d).max()


def out_of_place_classical_mds(d, v, dense_limit):
    """Classical scaling with each centering step in a new array."""
    n = d.shape[0]
    d2 = d * d
    b = -0.5 * (d2 - d2.mean(axis=1, keepdims=True) - d2.mean(axis=0, keepdims=True) + d2.mean())
    b = 0.5 * (b + b.T)
    if n <= dense_limit or v >= n - 1:
        w, u = eigh(b)
        order = np.argsort(w)[::-1][:v]
    else:
        w, u = eigsh(b, k=v, which="LA", v0=np.full(n, 1.0 / np.sqrt(n)))
        order = np.argsort(w)[::-1]
    lam, u = w[order], u[:, order]
    coords = embed._fix_signs(u) * np.sqrt(np.clip(lam, 0.0, None))
    return embed.EmbeddingResult(coords=coords - coords.mean(axis=0), eigenvalues=lam)


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
        emb = classical_mds(est.values, v=2)
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
        with pytest.raises(ValueError, match="no positive spectrum"):
            classical_mds(np.zeros((5, 5)), v=2)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            classical_mds(np.full((3, 3), np.inf), v=1)
        with pytest.raises(ValueError):
            classical_mds(np.zeros((3, 4)), v=1)

    @pytest.mark.parametrize("n, dense_limit", [(50, 1200), (130, 40)])
    def test_in_place_centering_is_bitwise_out_of_place(self, monkeypatch, n, dense_limit):
        # the first case runs the dense eigh, the second Lanczos (eigsh)
        monkeypatch.setattr(embed, "_DENSE_EIG_LIMIT", dense_limit)
        d = np.random.default_rng(n).random((n, n)) * 3.0  # finite, not symmetric
        d.setflags(write=False)
        before = d.copy()
        got = classical_mds(d, v=2)
        assert np.array_equal(d, before)
        want = out_of_place_classical_mds(d, 2, dense_limit)
        assert got.coords.tobytes() == want.coords.tobytes()
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()

    def test_holds_one_matrix_beside_its_input(self):
        n = 2000
        d = pairwise_distances(sample_uniform(rectangle(4, 1), n, seed=8))
        tracemalloc.start()
        try:
            classical_mds(d, v=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8


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


class TestLocalize:
    def make_hops(self):
        cfg = sample_uniform(rectangle(2, 1), 120, seed=6)
        adj = generate_graph(cfg, Indicator(0.4), seed=0)
        return all_pairs_hops(adj)

    def test_full_when_threshold_at_diameter(self):
        hops = self.make_hops()
        assert hops.is_connected()
        part = localize(hops, hops.max_finite(), r=0.4)
        assert part.mask.all()

    def test_single_hop_keeps_edges_only(self):
        hops = self.make_hops()
        part = localize(hops, 1, r=0.4)
        off_diag = part.mask & ~np.eye(part.n, dtype=bool)
        assert np.array_equal(off_diag, hops.hops == 1)
        assert np.all(part.values[off_diag] == 0.4)

    def test_validation(self):
        hops = self.make_hops()
        with pytest.raises(ValueError):
            localize(hops, 0, r=0.4)
        with pytest.raises(ValueError):
            localize(hops, 2, r=0.0)


class TestSmacof:
    def test_exact_input_exact_init_is_fixed_point(self):
        cfg = sample_uniform(rectangle(2, 1), 40, seed=7)
        truth = pairwise_distances(cfg)
        part = PartialDissimilarity(truth, np.ones_like(truth, dtype=bool))
        res = smacof(part, cfg.points)
        assert res.stress == pytest.approx(0.0, abs=1e-18)
        assert res.iterations == 1

    def test_beats_classical_mds_stress_on_full_input(self):
        cfg = sample_uniform(rectangle(2, 1), 60, seed=8)
        adj = generate_graph(cfg, Indicator(0.5), seed=0)
        est = scale_hops(all_pairs_hops(adj), 0.5)
        part = PartialDissimilarity(est.values, np.ones((60, 60), dtype=bool))
        cm = classical_mds(est.values, v=2)

        def full_stress(coords):
            iu = np.triu_indices(60, 1)
            return (((pairwise_distances(coords) - est.values)[iu]) ** 2).sum()

        rng = np.random.default_rng(0)
        res = smacof(part, rng.random((60, 2)))
        assert res.stress <= full_stress(cm.coords) + 1e-12

    def test_stress_non_increasing_on_partial_input(self):
        cfg = sample_uniform(rectangle(2, 1), 150, seed=9)
        adj = generate_graph(cfg, Indicator(0.35), seed=0)
        hops = all_pairs_hops(adj)
        assert hops.is_connected()
        part = localize(hops, 2, r=0.35)
        init = classical_mds(scale_hops(hops, 0.35).values, v=2).coords
        res = smacof(part, init)
        trace = np.array(res.stress_trace)
        assert np.all(np.diff(trace) <= 1e-9)
        assert res.stress == trace[-1]
        # the reported stress is that of the returned coordinates
        present = squareform(part.mask, checks=False)
        delta = squareform(part.values, checks=False)[present]
        recomputed = ((pdist(res.coords)[present] - delta) ** 2).sum()
        assert res.stress == pytest.approx(recomputed, rel=1e-12, abs=0)

    def test_one_distance_matrix_per_iterate(self, monkeypatch):
        # an iterate's distances give both its stress and the next Guttman step
        from latentgraph import embed

        calls = []
        real = embed._pair_distances

        def counting(x, pi, pj):
            calls.append(x.shape)
            return real(x, pi, pj)

        monkeypatch.setattr(embed, "_pair_distances", counting)
        cfg = sample_uniform(rectangle(2, 1), 80, seed=4)
        hops = all_pairs_hops(generate_graph(cfg, Indicator(0.4), seed=0))
        part = localize(hops, 2, r=0.4)
        assert not part.mask.all()
        res = smacof(part, classical_mds(scale_hops(hops, 0.4).values, v=2).coords)
        assert res.iterations > 1
        assert len(calls) == res.iterations + 1

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
        mask = np.eye(n, dtype=bool)
        for i, j in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (3, 4), (4, 5), (0, 5), (1, 2)]:
            mask[i, j] = mask[j, i] = True
        values = np.where(mask & ~np.eye(n, dtype=bool), 1.0, 0.0)
        values[0, 1] = values[1, 0] = 0.5
        part = PartialDissimilarity(values, mask)
        res = smacof(part, init)
        assert res.iterations == 1

        x = init - init.mean(axis=0)
        assert x[0, 0] != x[1, 0]
        bx = [[Fraction(0)] * 2 for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if not mask[i, j]:
                    continue
                diff = [Fraction(x[i, k]) - Fraction(x[j, k]) for k in range(2)]
                dis = math.sqrt(diff[0] ** 2 + diff[1] ** 2)
                for k in range(2):
                    t = Fraction(values[i, j]) / Fraction(dis) * diff[k]
                    bx[i][k] += t
                    bx[j][k] -= t
        w = mask & ~np.eye(n, dtype=bool)
        vmat = np.diag(w.sum(axis=1).astype(np.float64)) - w + 1.0 / n
        ref = np.linalg.solve(vmat, np.array(bx, dtype=np.float64))
        ref -= ref.mean(axis=0)
        np.testing.assert_allclose(res.coords, ref, rtol=0, atol=1e-12)

    def test_disconnected_mask_rejected(self):
        values = np.zeros((4, 4))
        mask = np.eye(4, dtype=bool)
        mask[0, 1] = mask[1, 0] = True
        mask[2, 3] = mask[3, 2] = True
        part = PartialDissimilarity(values, mask)
        with pytest.raises(ValueError, match="threshold too small"):
            smacof(part, np.zeros((4, 2)))

    def test_partial_validation(self):
        with pytest.raises(ValueError):
            PartialDissimilarity(np.zeros((3, 3)), np.zeros((3, 3), dtype=bool))
        vals = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            PartialDissimilarity(vals, np.ones((2, 2), dtype=bool))
