"""Fixing the non-convexity bias by localization.

Hop distances overshoot whenever the straight line between two points leaves
the support (here: a rectangle with a hole), so classical scaling of all
estimates warps the layout.  Keeping only estimates up to two hops and
reconciling them with stress majorization (initialized from the classical
layout) removes the bias.

Writes truth/classical/localized SVG panels under demos/out/localization/.
"""

from pathlib import Path

import numpy as np

from latentgraph import (
    Box,
    Indicator,
    RectangleWithHole,
    all_pairs_hops,
    classical_mds,
    generate_graph,
    localize,
    procrustes_align,
    rectangle,
    sample_uniform,
    smacof,
)
from latentgraph.plotdata import svg_scatter

out = Path(__file__).parent / "out" / "localization"
out.mkdir(parents=True, exist_ok=True)

domain = RectangleWithHole(rectangle(2, 1), Box(np.array([0.5, 0.25]), np.array([1.5, 0.75])))
n, r, seed = 1000, 0.2, 5
config = sample_uniform(domain, n, seed)

adj = generate_graph(config, Indicator(r), seed)
hops = all_pairs_hops(adj)
assert hops.is_connected()

# classical scaling of the estimates r * hops, squared from the uint16 hops
classical = classical_mds(hops.hops, v=2, scale=r)
fit_c = procrustes_align(classical.coords, config.points)
print(f"classical scaling of all hop estimates: aligned rmse {fit_c.rmse:.4f}")

partial = localize(hops, max_hops=2, r=r)
# the present pairs i < j count twice in the n*n entries, plus the diagonal
print(f"kept {(2 * partial.i.size + n) / n ** 2:.1%} of entries (hops <= 2)")
result = smacof(partial, classical.coords)
fit_s = procrustes_align(result.coords, config.points)
print(f"stress majorization on local estimates: {result.iterations} iterations, "
      f"stress {result.stress_trace[0]:.1f} -> {result.stress:.3f}")
print(f"localized layout: aligned rmse {fit_s.rmse:.4f} "
      f"({fit_c.rmse / fit_s.rmse:.1f}x better)")

svg_scatter(out / "comparison.svg", {
    "truth": config.points,
    "classical": fit_c.aligned,
    "localized": fit_s.aligned,
})
print(f"wrote {out / 'comparison.svg'}")
