"""Hop distances as distance estimates.

Sample a dense rectangle, link every pair within radius r, and compare the
scaled hop distances r * delta against the true Euclidean distances.  The
excess est - d stays within the slope/offset envelope governed by the
coverage radius of the sample.
"""

from latentgraph import (
    Indicator,
    all_pairs_hops,
    check_simple_bound,
    coverage_radius,
    generate_graph,
    rectangle,
    sample_uniform,
    scale_hops,
)

n, r, seed = 1200, 0.35, 7
config = sample_uniform(rectangle(2, 1), n, seed)

adj = generate_graph(config, Indicator(r), seed)
print(f"{n} points on [0,2]x[0,1], indicator radius {r}: {adj.edge_count()} edges")

hops = all_pairs_hops(adj)
print(f"graph diameter: {hops.max_finite()} hops, connected: {hops.is_connected()}")

est = scale_hops(hops, r)
eps = coverage_radius(config, "convex_hull", grid_step=0.005)
print(f"coverage radius of the sample (hull): [{eps.lower:.4f}, {eps.upper:.4f}]")

rep = check_simple_bound(est, config.points, eps.upper, r)
print(f"asserted regime (eps <= r/4): {rep.asserted}")
print(f"lower bound est >= d:  {rep.lower_violations} violations")
print(f"upper bound excess <= 4(eps/r) d + r:  {rep.upper_violations} violations")
print(f"largest excess {rep.max_residual:.4f} (the offset term alone allows {r})")
print(f"smallest constant C with excess <= C[(eps/r) d + r]: {rep.fitted_constant:.3f}")
