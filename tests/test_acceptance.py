"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Two clauses are asserted exactly as stated and are expected to fail; the
failure analyses live in the assertion messages:

* criterion 2, identical-adjacency clause: the warped twin configuration
  stretches the pairs that sit exactly at distance r on the uniform grid to
  just beyond r, so the two indicator graphs provably differ (checked in
  exact rational arithmetic) for every warp parameter eta > 0.
* criterion 4a, uniform boundary-compression clause: at n=5000, kappa=25 the
  neighbor scale r = r_circ + eps carries eps/r about 0.34, which inflates
  every hop estimate far beyond the boundary-freeway gain; max est/d over
  far pairs measures about 1.7 (about 1.13 even at the degenerate scale
  r = r_circ), so no knn_scale output can push it below 1 at these sizes.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from latentgraph import (
    Indicator,
    ScaledIndicator,
    all_pairs_hops,
    check_boundary_bias,
    check_general_bound,
    check_knn_bounds,
    check_simple_bound,
    coverage_radius,
    generate_graph,
    interval,
    knn_graph,
    knn_scale,
    minimax_eta,
    minimax_pair,
    monotone_path_check,
    rectangle,
    run_preset,
    sample_uniform,
    scale_hops,
    solve_mvu,
    check_mvu_bound,
    symmetrize_union,
)
from latentgraph.geometry import Box, PointConfig, RectangleWithHole
from tests.conftest import floyd_warshall_hops, float_hops, random_graph, rotation_sweep_rmse


def report(criterion: str, ok: bool, detail: str) -> str:
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


# -------------------------------------------------------------- criterion 1


def test_criterion_1_simple_bound_deterministic():
    """Uniform sample on [0,2]x[0,1], n=2000, indicator r=0.2: if the hull
    coverage bracket eps is at most r/4, zero violations of
    0 <= est - d <= 4 (eps/r) d + r over connected pairs at tolerance 1e-9.
    The lower inequality needs no coverage hypothesis and is always asserted.
    """
    start = time.perf_counter()
    r = 0.2
    cfg = sample_uniform(rectangle(2, 1), 2000, seed=0)
    adj = generate_graph(cfg, Indicator(r), seed=0)
    est = scale_hops(all_pairs_hops(adj), r)
    eps = coverage_radius(cfg, "convex_hull", grid_step=0.002).upper
    rep = check_simple_bound(est, cfg.points, eps, r)
    elapsed = time.perf_counter() - start

    ok = rep.lower_violations == 0 and elapsed < 10.0
    detail = (
        f"eps={eps:.4f} (r/4={r / 4}), lower violations {rep.lower_violations}, "
        f"upper violations {rep.upper_violations} "
        f"({'asserted' if rep.asserted else 'reported only: eps > r/4 at this n'}), "
        f"{elapsed:.1f}s"
    )
    if rep.asserted:
        ok = ok and rep.upper_violations == 0
    line = report("1", ok, detail)
    assert rep.lower_violations == 0, line
    if rep.asserted:
        assert rep.upper_violations == 0, line
    assert elapsed < 10.0, line


# -------------------------------------------------------------- criterion 2


def test_criterion_2_twin_configurations():
    """minimax_pair(n=401, r=0.25): gap formula to 1e-12, at least half of all
    pairs beat the proof's separation constant, and (as specified) bitwise
    identical adjacency matrices under the indicator link.
    """
    n, r = 401, 0.25
    m = 100
    cfg1, cfg2 = minimax_pair(n, r)
    eta = minimax_eta(n, r)
    x1, x2 = cfg1.points[:, 0], cfg2.points[:, 0]

    i1, j1 = np.triu_indices(n, 1)
    i1, j1 = i1 + 1, j1 + 1  # 1-based labels
    d1 = (j1 - i1) / (n - 1)
    d2 = np.abs(x2[j1 - 1] - x2[i1 - 1])
    gap = d1 - d2
    formula = (j1 - i1) / (n - 1) * eta * (i1 + j1 - n - 1) / (1 - eta * (n - 1))
    gap_err = float(np.abs(gap - formula).max())
    assert gap_err <= 1e-12, report("2", False, f"gap formula error {gap_err:.2e}")

    # separation constant implied by the proof, evaluated exactly:
    # pairs with index sum at most ceil(n/sqrt 2 + 1) satisfy
    # |gap| >= min(d) * eta K / (1 - eta (n-1)) with K the worst index slack,
    # and eps is the larger coverage radius of the two configurations
    lam1 = 1.0 / (2 * n - 2)
    lam2 = (1 - eta) / ((2 * n - 2) * (1 - eta * (n - 1)))
    eps = max(lam1, lam2)
    K = n + 1 - math.ceil(n / math.sqrt(2) + 1)
    g = eta * K / (1 - eta * (n - 1))
    c = g * max(r, eps) / eps
    satisfied = np.abs(gap) >= c * eps / max(r, eps) * np.minimum(d1, d2) - 1e-15
    frac = satisfied.mean()
    assert satisfied.sum() * 2 >= len(gap), report(
        "2", False, f"separation holds for only {frac:.1%} of pairs"
    )

    a1 = generate_graph(cfg1, Indicator(r), seed=0)
    a2 = generate_graph(cfg2, Indicator(r), seed=0)
    identical = a1 == a2
    differing = int((a1.dense() ^ a2.dense()).sum() // 2)
    line = report(
        "2",
        identical,
        f"gap formula exact ({gap_err:.1e}), separation on {frac:.1%} of pairs "
        f"(c={c:.4f}), adjacency {'identical' if identical else f'differs at {differing} pairs'}",
    )
    assert identical, (
        line
        + " :: the uniform grid has pairs at distance exactly r (index offset m); the "
        "warp multiplies the early m-offset spans by (1 - eta m)/(1 - eta (n-1)) > 1, "
        "pushing them beyond r, so the indicator graphs cannot coincide for any "
        "eta > 0 (verified in exact rational arithmetic; when m divides n-1 the chain "
        "x_1, x_{m+1}, ..., x_n is even forced to multiples of r, which the warped "
        "family violates identically). The published construction is defective at "
        "its threshold pairs; left failing rather than weakening the check."
    )


# -------------------------------------------------------------- criterion 3


def test_criterion_3_scaled_indicator_bounds():
    """scaled_indicator(r=0.2, p=0.5), n=2000, 5 seeds: the lower bound
    est >= d is violation-free on every seed; the fitted general-bound
    constant at alpha=0 stays within a factor 2 across seeds."""
    r, p = 0.2, 0.5
    fitted = []
    lower_violations = []
    for seed in range(5):
        cfg = sample_uniform(rectangle(2, 1), 2000, seed=seed)
        adj = generate_graph(cfg, ScaledIndicator(r, p), seed=seed)
        est = scale_hops(all_pairs_hops(adj), r)
        eps = coverage_radius(cfg, "convex_hull", grid_step=0.005).upper
        rep = check_general_bound(est, cfg.points, eps, r, alpha=0.0)
        fitted.append(rep.fitted_constant)
        lower_violations.append(rep.lower_violations)
    spread = max(fitted) / min(fitted)
    ok = all(v == 0 for v in lower_violations) and spread <= 2.0
    line = report(
        "3",
        ok,
        f"lower violations per seed {lower_violations}, fitted C2 "
        f"{[round(f, 3) for f in fitted]}, max/min {spread:.3f}",
    )
    assert all(v == 0 for v in lower_violations), line
    assert spread <= 2.0, line


# -------------------------------------------------------------- criterion 4


@pytest.fixture(scope="module")
def knn_strip_pipeline():
    start = time.perf_counter()
    n, kappa = 5000, 25
    cfg = sample_uniform(rectangle(4, 1), n, seed=0)
    adj = symmetrize_union(knn_graph(cfg, kappa))
    scale = knn_scale(cfg.domain, n, kappa, c1=1.0)
    est = scale_hops(all_pairs_hops(adj), scale.r)
    elapsed = time.perf_counter() - start
    return cfg, est, scale, elapsed


def test_criterion_4a_boundary_compression(knn_strip_pipeline):
    """[0,4]x[0,1], n=5000, kappa=25, union graph, r from knn_scale: max
    est/d over pairs with d >= 2 is below 1 (asserted as stated)."""
    cfg, est, scale, elapsed = knn_strip_pipeline
    ratio, pairs = check_boundary_bias(est, cfg.points, threshold_d=2.0)
    ok = ratio < 1.0 and elapsed < 60.0
    line = report(
        "4a",
        ok,
        f"max est/d {ratio:.3f} over {pairs} pairs with d>=2, r={scale.r:.4f} "
        f"(eps/r={scale.eps / scale.r:.2f}), pipeline {elapsed:.1f}s",
    )
    assert elapsed < 60.0, line
    assert ratio < 1.0, (
        line
        + " :: the uniform compression below 1 is an asymptotic statement (it needs "
        "kappa much larger than log n so that eps/r vanishes); at kappa=25, n=5000 "
        "the additive eps makes every hop worth r = r_circ + eps while typical step "
        "progress is r_circ, so estimates for mid-strip far pairs exceed the truth "
        "by about 50% (about +13% even at the unattainable scale r = r_circ). "
        "Finite-size gap of these parameters; left failing rather than retuning them."
    )


def test_criterion_4b_deep_interior_lower_bound(knn_strip_pipeline):
    """Same pipeline: over pairs with d >= 2r and both endpoints deeper than
    d/2 inside the domain, est >= d with at most 0.1% violations."""
    cfg, est, scale, elapsed = knn_strip_pipeline
    rep = check_knn_bounds(est, cfg, scale.eps, scale.r)
    frac = rep.lower_violations / max(rep.lower_checked_pairs, 1)
    ok = frac <= 0.001 and elapsed < 60.0
    line = report(
        "4b",
        ok,
        f"{rep.lower_violations} lower violations across {rep.lower_checked_pairs} "
        f"qualifying pairs ({frac:.2%}), pipeline {elapsed:.1f}s",
    )
    assert elapsed < 60.0, line
    assert frac <= 0.001, line


# -------------------------------------------------------------- criterion 5


def test_criterion_5_increasing_paths_1d():
    """1d uniform samples, n=60, kappa in {2,4,8}, 20 seeds: every instance
    admits increasing shortest paths; exhaustive-enumeration agreement on
    n=12 subinstances."""
    failures = []
    for kappa in (2, 4, 8):
        for seed in range(20):
            cfg = sample_uniform(interval(1.0), 60, seed=seed)
            if not monotone_path_check(cfg, knn_graph(cfg, kappa)):
                failures.append((kappa, seed))

    # exhaustive oracle on small subinstances
    oracle_ok = True
    for seed in range(4):
        cfg = sample_uniform(interval(1.0), 12, seed=seed)
        knn = knn_graph(cfg, 3)
        adj = symmetrize_union(knn)
        hops = float_hops(all_pairs_hops(adj))
        order = np.argsort(cfg.points[:, 0])
        w = adj.dense()[np.ix_(order, order)]
        h = hops[np.ix_(order, order)]

        def shortest_increasing(a, b):
            best = [np.inf]

            def walk(node, used):
                if used >= best[0] or used >= 12:
                    return
                if node == b:
                    best[0] = min(best[0], used)
                    return
                for nxt in range(node + 1, 12):
                    if w[node, nxt]:
                        walk(nxt, used + 1)

            walk(a, 0)
            return best[0]

        for a in range(12):
            for b in range(a + 1, 12):
                expect = h[a, b]
                got = shortest_increasing(a, b)
                if (np.isfinite(expect) and got != expect) or (
                    np.isinf(expect) and np.isfinite(got)
                ):
                    oracle_ok = False
    ok = not failures and oracle_ok
    line = report(
        "5",
        ok,
        f"monotone paths on 60 instances ({len(failures)} failures), "
        f"exhaustive oracle {'agrees' if oracle_ok else 'disagrees'} on 4 subinstances",
    )
    assert ok, line


# -------------------------------------------------------------- criterion 6


def _mvu_fixture_graphs():
    rng_patch = Box(np.array([0.25, 0.25]), np.array([0.75, 0.75]))
    rect = rectangle(2.0, 1.0)
    rng = np.random.default_rng(1)
    pts = np.vstack([rect.sample(rng, 200), rng_patch.sample(rng, 80)])
    patched = PointConfig(pts, rect)
    hole = RectangleWithHole(rect, Box(np.array([0.5, 0.25]), np.array([1.5, 0.75])))
    fixtures = [
        ("patched-rect", generate_graph(patched, Indicator(0.35), seed=0)),
        ("hole", generate_graph(sample_uniform(hole, 280, seed=2), Indicator(0.35), seed=0)),
        ("coarse", generate_graph(sample_uniform(rect, 250, seed=3), Indicator(0.5), seed=0)),
        ("knn-1d", symmetrize_union(knn_graph(sample_uniform(interval(1.0), 200, seed=3), 6))),
        ("knn-strip", symmetrize_union(knn_graph(sample_uniform(rectangle(4, 1), 250, seed=5), 10))),
    ]
    return fixtures


def test_criterion_6_unfolding_hop_bound():
    """On 5 connected presets with n <= 300: unfold, then the induced metric
    never exceeds hop distances beyond the propagated tolerance; under 120 s
    total."""
    start = time.perf_counter()
    outcomes = []
    for name, adj in _mvu_fixture_graphs():
        assert adj.n <= 300
        hops = all_pairs_hops(adj)
        assert hops.is_connected(), f"fixture {name} must be connected"
        sol = solve_mvu(adj, rank=5, seed=0)
        rep = check_mvu_bound(sol, hops)
        outcomes.append((name, rep.violations, sol.max_edge_violation))
    elapsed = time.perf_counter() - start
    ok = all(v == 0 for _, v, _ in outcomes) and elapsed < 120.0
    line = report(
        "6",
        ok,
        f"violations per fixture {[(n, v) for n, v, _ in outcomes]}, "
        f"max edge violation {max(m for _, _, m in outcomes):.2e}, {elapsed:.1f}s",
    )
    assert all(v == 0 for _, v, _ in outcomes), line
    assert elapsed < 120.0, line


# -------------------------------------------------------------- criterion 7


def test_criterion_7_oracle_equivalence():
    """200 random graphs (n <= 64): breadth-first hops equal min-plus closure
    bitwise.  50 random planar point sets: procrustes rmse matches the
    rotation-sweep oracle within 1e-6."""
    rng = np.random.default_rng(7)
    for k in range(200):
        n = int(rng.integers(2, 65))
        p = float(rng.uniform(0.02, 0.7))
        adj = random_graph(n, p, seed=k)
        got = float_hops(all_pairs_hops(adj))
        expect = floyd_warshall_hops(adj)
        assert np.array_equal(got, expect), report("7", False, f"hop mismatch at graph {k}")

    worst = 0.0
    from latentgraph import procrustes_align

    for k in range(50):
        g = np.random.default_rng(1000 + k)
        src, tgt = g.random((20, 2)), g.random((20, 2))
        fit = procrustes_align(src, tgt)
        worst = max(worst, abs(fit.rmse - rotation_sweep_rmse(src, tgt)))
    ok = worst <= 1e-6
    line = report("7", ok, f"200 hop oracles bitwise equal; max procrustes "
                           f"oracle deviation {worst:.2e}")
    assert ok, line


# -------------------------------------------------------------- criterion 8


def test_criterion_8_embedding_quality(tmp_path):
    """Aligned classical-scaling error decreases through n in {500, 1000,
    2000} (3-seed median) on the patched-rectangle preset at r=0.2, and the
    hole preset embeds strictly worse than the convex one at matched (n, r).
    """
    seeds = (0, 1, 2)
    medians = []
    for n in (500, 1000, 2000):
        vals = []
        for seed in seeds:
            man = run_preset("rectangles", seed=seed,
                             out_dir=tmp_path / f"rect-{n}-{seed}", scale_n=n)
            vals.append(man["r0.2.rmse_aligned"])
        medians.append(float(np.median(vals)))
    decreasing = medians[0] > medians[1] > medians[2]

    hole_vals, convex_vals = [], []
    for seed in seeds:
        hole_vals.append(run_preset("hole", seed=seed,
                                    out_dir=tmp_path / f"hole-{seed}",
                                    scale_n=1200)["r0.2.rmse_aligned"])
        convex_vals.append(run_preset("rectangles", seed=seed,
                                      out_dir=tmp_path / f"conv-{seed}",
                                      scale_n=1200)["r0.2.rmse_aligned"])
    hole_median = float(np.median(hole_vals))
    convex_median = float(np.median(convex_vals))
    ok = decreasing and hole_median > convex_median
    line = report(
        "8",
        ok,
        f"median aligned rmse through n: {[round(m, 4) for m in medians]} "
        f"({'decreasing' if decreasing else 'NOT decreasing'}); hole {hole_median:.4f} "
        f"vs convex {convex_median:.4f} at matched (n=1200, r=0.2)",
    )
    assert decreasing, line
    assert hole_median > convex_median, line


# -------------------------------------------------------------- criterion 9


def test_criterion_9_localized_majorization(tmp_path):
    """Stress is non-increasing along the localization preset's stress trace
    (its steps and kept extrapolations), and its final aligned error beats
    plain classical scaling on the same instance."""
    out = tmp_path / "hole-local"
    man = run_preset("hole-local", seed=5, out_dir=out, scale_n=1200)
    stress = []
    with open(f"{out}/local_stress.csv", encoding="utf-8") as fh:
        next(fh)
        for line_ in fh:
            stress.append(float(line_.split(",")[1]))
    monotone = all(stress[k + 1] <= stress[k] + 1e-9 for k in range(len(stress) - 1))
    improved = man["local.rmse_aligned"] < man["r0.2.rmse_aligned"]
    ok = monotone and improved and man["local.stress_monotone"]
    line = report(
        "9",
        ok,
        f"{man['local.iterations']} majorization iterations, stress "
        f"{'monotone' if monotone else 'NOT monotone'} "
        f"({stress[0]:.2f} -> {stress[-1]:.4f}); aligned rmse {man['local.rmse_aligned']:.4f} "
        f"vs classical-only {man['r0.2.rmse_aligned']:.4f}",
    )
    assert monotone and man["local.stress_monotone"], line
    assert improved, line
