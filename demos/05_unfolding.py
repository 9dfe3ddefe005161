"""Maximum variance unfolding as a regularizer for hop distances.

Unfolding spreads the nodes as far as possible subject to every edge having
length at most one.  The induced metric gamma can never exceed the hop
distances (chain the edges of a shortest path), so r * gamma is a Euclidean
repair of the hop estimates.  The discrepancy ratio quantifies how close the
repaired squared distances sit to the truth relative to the hop error level.
"""

import numpy as np
from scipy.spatial.distance import pdist

from latentgraph import (
    Indicator,
    all_pairs_hops,
    check_general_bound,
    check_mvu_bound,
    coverage_radius,
    discrepancy_ratio,
    generate_graph,
    rectangle,
    sample_uniform,
    scale_hops,
    solve_mvu,
)

n, r, seed = 250, 0.35, 1
config = sample_uniform(rectangle(2, 1), n, seed)
adj = generate_graph(config, Indicator(r), seed)
hops = all_pairs_hops(adj)
print(f"{n} points, {adj.edge_count()} edges, diameter {hops.max_finite()} hops")

sol = solve_mvu(adj, rank=5, seed=0)
print(f"unfolding objective (sum of squared pairwise spreads): {sol.objective:.1f}")
print(f"residual edge violation after the feasibility snap: {sol.max_edge_violation:.2e}")

rep = check_mvu_bound(sol, hops)
print(f"gamma <= hops: {rep.violations} violations on {rep.pairs} pairs "
      f"(max excess {rep.max_excess:.2e})")

est = scale_hops(hops, r)
eps = coverage_radius(config, "convex_hull", grid_step=0.005).upper
bound = check_general_bound(est, config.points, eps, r, alpha=0.0)
eta = min(0.99, max(bound.max_relative_error, 1e-3))
c_emp = discrepancy_ratio(sol, config.points, r, eta)
print(f"hop estimates satisfy (1-eta) d <= est <= (1+eta) d with eta = {eta:.3f}")
print(f"empirical squared-distance discrepancy constant: {c_emp:.3f}")
rmse = np.sqrt(((r * pdist(sol.coords) - pdist(config.points)) ** 2).mean())
print(f"rms error of the repaired distances r*gamma: {rmse:.4f}")
