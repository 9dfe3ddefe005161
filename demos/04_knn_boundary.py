"""The boundary freeway of nearest-neighbor graphs.

On a long strip, points near the boundary have farther k-th neighbors, so
shortest paths drift toward the boundary and cover more ground per hop.
Deep-interior pairs keep the one-sided guarantee est >= d; pairs measured
across the strip do not, and the recovered layout squeezes accordingly.

Writes an SVG showing a near pair's path and a far pair's boundary-hugging
path under demos/out/knn_boundary/.
"""

from pathlib import Path

import numpy as np

from latentgraph import (
    all_pairs_hops,
    check_boundary_bias,
    check_knn_bounds,
    knn_graph,
    knn_radii,
    knn_scale,
    rectangle,
    sample_uniform,
    scale_hops,
    shortest_path_nodes,
    symmetrize_union,
)
from latentgraph.plotdata import svg_paths

out = Path(__file__).parent / "out" / "knn_boundary"
out.mkdir(parents=True, exist_ok=True)

n, kappa, seed = 2500, 25, 0
config = sample_uniform(rectangle(4, 1), n, seed)

radii = knn_radii(config, kappa)
deep = config.domain.boundary_distance(config.points) > 0.15
print(f"median k-th neighbor radius: interior {np.median(radii[deep]):.4f}, "
      f"near-boundary {np.median(radii[~deep]):.4f}")

adj = symmetrize_union(knn_graph(config, kappa))
scale = knn_scale(config.domain, n, kappa, c1=1.0)
print(f"hop scale r = r_circ + eps = {scale.r_circ:.4f} + {scale.eps:.4f} = {scale.r:.4f}")

est = scale_hops(all_pairs_hops(adj), scale.r)
rep = check_knn_bounds(est, config, scale.eps, scale.r)
print(f"deep-interior lower bound: {rep.lower_violations} violations "
      f"on {rep.lower_checked_pairs} qualifying pairs")

ratio, pairs = check_boundary_bias(est, config.points, threshold_d=2.0)
print(f"over {pairs} pairs with d >= 2: max est/d = {ratio:.3f} "
      f"(compression below 1 needs kappa >> log n; here the eps overhead dominates)")

pts = config.points
pick = lambda xy: int(np.linalg.norm(pts - xy, axis=1).argmin())  # noqa: E731
paths = {}
for name, (a, b) in {"near": ([1.8, 0.5], [2.2, 0.5]), "far": ([0.2, 0.5], [3.8, 0.5])}.items():
    nodes = shortest_path_nodes(adj, pick(np.array(a)), pick(np.array(b)))
    paths[name] = pts[nodes]
    span = np.linalg.norm(pts[nodes[0]] - pts[nodes[-1]])
    print(f"{name} pair: {len(nodes) - 1} hops for distance {span:.2f} "
          f"(estimate {scale.r * (len(nodes) - 1):.2f})")
svg_paths(out / "paths.svg", pts, paths)
print(f"wrote {out / 'paths.svg'}")
