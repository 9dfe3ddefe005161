"""City coordinates through the full pipeline.

Pass --cities-file pointing at a CSV with `lat` and `lng` columns to use
real data; without it the demo synthesizes a city-like cloud so it stays
runnable offline.  Coordinates are treated as planar degrees.  The support
of real city data is only roughly convex; hop estimation tolerates that.

Writes truth/recovered SVG panels under demos/out/cities/.
"""

import argparse
from pathlib import Path

import numpy as np

from latentgraph import (
    Indicator,
    all_pairs_hops,
    classical_mds,
    generate_graph,
    ingest_cities,
    procrustes_align,
)
from latentgraph.plotdata import svg_scatter

out = Path(__file__).parent / "out" / "cities"
out.mkdir(parents=True, exist_ok=True)

ap = argparse.ArgumentParser()
ap.add_argument("--cities-file", default=None)
ap.add_argument("--n", type=int, default=800)
args = ap.parse_args()

path = args.cities_file
if path is None:
    rng = np.random.default_rng(2)
    m = 4 * args.n
    lat = np.concatenate([rng.normal(40, 4, m // 2), rng.uniform(26, 48, m // 2)])
    lng = np.concatenate([rng.normal(-95, 14, m // 2), rng.uniform(-123, -70, m // 2)])
    keep = (lat > 25) & (lat < 49) & (lng > -124) & (lng < -67)
    path = out / "synthetic_cities.csv"
    rows = ["name,lat,lng"] + [f"s{i},{a:.5f},{b:.5f}"
                               for i, (a, b) in enumerate(zip(lat[keep], lng[keep]))]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(f"no file given; synthesized {keep.sum()} city-like rows")

config = ingest_cities(path, n_sub=args.n, seed=0)
print(f"{config.n} cities, bounding box {config.domain.lo} .. {config.domain.hi} (degrees)")

series = {"truth": config.points}
for r in (3.0, 5.0, 7.0):
    adj = generate_graph(config, Indicator(r), seed=0)
    hops = all_pairs_hops(adj)
    if not hops.is_connected():
        print(f"r={r}: graph disconnected, skipping")
        continue
    emb = classical_mds(hops.hops, v=2, scale=r)
    fit = procrustes_align(emb.coords, config.points)
    series[f"recovered r={r:g}"] = fit.aligned
    print(f"r={r}: {adj.edge_count()} edges, diameter {hops.max_finite()} hops, "
          f"aligned rmse {fit.rmse:.3f} degrees")

svg_scatter(out / "cities.svg", series)
print(f"wrote {out / 'cities.svg'}")
