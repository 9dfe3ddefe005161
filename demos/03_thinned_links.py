"""Random link levels, coupled thinning, and common-neighbor denoising.

A scaled indicator keeps edges within radius r with probability p.  Coupled
thinning derives the lower levels from the p=0.5 graph so the three graphs
are comparable edge by edge.  Hop estimates keep their one-sided guarantee
(est >= d) at every level because the link support never grows.

A two-level link adds long-range noise edges, which wreck hop distances;
thresholding the common-neighbor Jaccard ratio recovers the local graph.
"""

import numpy as np
from scipy.spatial.distance import pdist

from latentgraph import (
    ScaledIndicator,
    TwoLevel,
    all_pairs_hops,
    check_general_bound,
    common_neighbor_denoise,
    couple_thin,
    coverage_radius,
    generate_graph,
    rectangle,
    sample_uniform,
    scale_hops,
)

n, r, seed = 900, 0.35, 11
config = sample_uniform(rectangle(2, 1), n, seed)
eps = coverage_radius(config, "convex_hull", grid_step=0.005).upper

half = generate_graph(config, ScaledIndicator(r, 0.5), seed)
fifth = couple_thin(half, 0.2 / 0.5, seed + 1)
print(f"p=0.5 graph: {half.edge_count()} edges; coupled p=0.2 subgraph: {fifth.edge_count()}")

for label, adj in (("p=0.5", half), ("p=0.2", fifth)):
    rep = check_general_bound(scale_hops(all_pairs_hops(adj), r), config.points, eps, r, alpha=0.0)
    print(f"{label}: est >= d violations {rep.lower_violations}, "
          f"fitted excess constant {rep.fitted_constant:.3f}, "
          f"disconnected pairs {rep.pairs_disconnected}")

noisy = generate_graph(config, TwoLevel(r, 0.9, 0.02), seed + 2)
denoised = common_neighbor_denoise(noisy, tau=0.2)
iu = np.triu_indices(n, 1)
d = pdist(config.points)  # the pairs i < j in row-major order, as iu


def linked_fractions(adj):
    e = adj.dense()[iu]
    return e[d <= r].mean(), e[(d > r) & (d <= 2 * r)].mean(), e[d > 2 * r].mean()


print(f"\ntwo-level link (p=0.9 within r, q=0.02 beyond): {noisy.edge_count()} edges")
for label, adj in (("noisy", noisy), ("denoised (tau=0.2)", denoised)):
    near, mid, far = linked_fractions(adj)
    print(f"{label:>20s}: linked fraction {near:6.1%} at d<=r, "
          f"{mid:6.1%} at r<d<=2r, {far:.3%} at d>2r")
print("the far-range noise vanishes; the mid band shows the common-neighbor "
      "count resolving distances past the link radius")
