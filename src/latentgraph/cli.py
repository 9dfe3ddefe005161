"""Command-line interface.

Exit codes: 0 success, 2 validation error, 3 bound-check hard failure under
``--strict``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .cities import ingest_cities
from .embed import classical_mds, procrustes_align
from .geometry import Box, RectangleWithHole, interval, rectangle, sample_uniform
from .hopdist import EstimateMatrix, all_pairs_hops, check_general_bound, check_simple_bound, scale_hops
from .linkgraph import Indicator, PolynomialEdge, ScaledIndicator, TwoLevel, generate_graph
from .mvu import solve_mvu
from .plotdata import emit_plotdata
from .presets import PRESETS, run_preset

_ADJACENCY_HELP = "edge list, or LGA1 binary when the name ends in .bin"


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="latentgraph",
                                 description="latent distance estimation from graph hops")
    ap.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    ap.add_argument("--out", default=".", help="output directory (default .)")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample points and draw a random graph")
    g.add_argument("--domain", required=True,
                   help="rectangle:A,B | hole:A,B,x0,y0,x1,y1 | interval:L")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--link", required=True,
                   help="indicator:R | scaled_indicator:R,P | poly:R,C0,ALPHA | two_level:R,P,Q")

    h = sub.add_parser("hops", help="all-pairs hop distances of a graph")
    h.add_argument("--adjacency", required=True, help=_ADJACENCY_HELP)

    e = sub.add_parser("estimate", help="scale a hop matrix into distance estimates")
    e.add_argument("--hops", required=True)
    e.add_argument("--r", type=float, required=True)
    e.add_argument("--csv", action="store_true", help="write CSV instead of binary")

    m = sub.add_parser("embed", help="classical scaling of a distance matrix")
    m.add_argument("--matrix", required=True, help="LGD1 binary or CSV matrix")
    m.add_argument("--dim", type=int, default=2)
    m.add_argument("--align-to", default=None, help="points CSV to procrustes-align against")

    v = sub.add_parser("mvu", help="maximum variance unfolding of a graph")
    v.add_argument("--adjacency", required=True, help=_ADJACENCY_HELP)
    v.add_argument("--rank", type=int, default=5)

    c = sub.add_parser("check", help="bound checks of estimates against truth")
    c.add_argument("--estimate", required=True, help="LGD1/CSV estimate matrix")
    c.add_argument("--truth", required=True, help="points CSV of true positions")
    c.add_argument("--kind", choices=["simple", "general"], default="simple")
    c.add_argument("--eps", type=float, required=True)
    c.add_argument("--r", type=float, required=True)
    c.add_argument("--alpha", type=float, default=0.0)
    c.add_argument("--strict", action="store_true",
                   help="exit 3 on lower-bound violations or asserted upper violations")

    p = sub.add_parser("preset", help="experiment presets")
    psub = p.add_subparsers(dest="preset_command", required=True)
    pl = psub.add_parser("list", help="list preset names")
    pr = psub.add_parser("run", help="run a preset")
    pr.add_argument("name")
    pr.add_argument("--scale-n", type=int, default=None, help="shrink the preset to n points")
    pr.add_argument("--cities-file", default=None)

    i = sub.add_parser("ingest-cities", help="subsample a cities CSV into a point file")
    i.add_argument("--file", required=True)
    i.add_argument("--n", type=int, required=True)
    i.add_argument("--lat-col", default="lat")
    i.add_argument("--lng-col", default="lng")

    pl2 = sub.add_parser("plot", help="emit scatter CSV/SVG from a result directory")
    pl2.add_argument("--dir", required=True)
    return ap


# spec kind -> (constructor over the spec's floats, number of floats)
_DOMAINS = {
    "rectangle": (rectangle, 2),
    "interval": (interval, 1),
    "hole": (lambda a, b, x0, y0, x1, y1: RectangleWithHole(
        rectangle(a, b), Box(np.array([x0, y0]), np.array([x1, y1]))), 6),
}
_LINKS = {
    "indicator": (Indicator, 1),
    "scaled_indicator": (ScaledIndicator, 2),
    "poly": (PolynomialEdge, 3),
    "two_level": (TwoLevel, 3),
}


def _parse_spec(spec: str, table: dict, what: str):
    """``kind:v1,v2,...`` as ``table[kind]``'s constructor of the floats."""
    kind, _, rest = spec.partition(":")
    make, arity = table.get(kind, (None, None))
    try:
        vals = [float(t) for t in rest.split(",")] if rest else []
    except ValueError:
        vals = None
    if vals is None or len(vals) != arity:
        raise ValueError(f"cannot parse {what} spec {spec!r}")
    return make(*vals)


def _run(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def read_adjacency(name):
        binary = Path(name).suffix == ".bin"
        return fileio.read_adjacency_binary(name) if binary else fileio.read_edge_list(name)

    def read_matrix(name):
        csv = Path(name).suffix == ".csv"
        return fileio.read_matrix_csv(name) if csv else fileio.read_matrix_binary(name)

    if args.command == "generate":
        config = sample_uniform(_parse_spec(args.domain, _DOMAINS, "domain"), args.n, args.seed)
        adj = generate_graph(config, _parse_spec(args.link, _LINKS, "link"), args.seed)
        fileio.write_points_csv(out / "points.csv", config.points)
        fileio.write_edge_list(out / "edges.txt", adj)
        print(f"wrote points.csv and edges.txt (n={config.n}, edges={adj.edge_count()})")
        return 0

    if args.command == "hops":
        adj = read_adjacency(args.adjacency)
        hops = all_pairs_hops(adj)
        fileio.write_hops_binary(out / "hops.bin", hops)
        print(f"wrote hops.bin (n={hops.n}, max finite hop={hops.max_finite()})")
        return 0

    if args.command == "estimate":
        hops = fileio.read_hops_binary(args.hops)
        est = scale_hops(hops, args.r)
        if args.csv:
            fileio.write_matrix_csv(out / "estimate.csv", est)
            print("wrote estimate.csv (disconnected pairs as -1)")
        else:
            fileio.write_matrix_binary(out / "estimate.bin", est)
            print("wrote estimate.bin (disconnected pairs as -1)")
        return 0

    if args.command == "embed":
        mat = read_matrix(args.matrix)
        if (mat < 0).any():
            raise ValueError("matrix contains disconnected (-1) entries; embed a component")
        emb = classical_mds(mat, args.dim)
        fileio.write_points_csv(out / "embedded.csv", emb.coords)
        print(f"wrote embedded.csv (top eigenvalues: {emb.eigenvalues})")
        if args.align_to:
            target = fileio.read_points_csv(args.align_to)
            fit = procrustes_align(emb.coords, target)
            fileio.write_points_csv(out / "aligned.csv", fit.aligned)
            print(f"wrote aligned.csv (rmse={fit.rmse:.6g}, scale={fit.scale:.6g})")
        return 0

    if args.command == "mvu":
        adj = read_adjacency(args.adjacency)
        sol = solve_mvu(adj, rank=args.rank, seed=args.seed)
        fileio.write_points_csv(out / "mvu_coords.csv", sol.coords)
        fileio.write_mvu_trace(out / "mvu_trace.csv", sol.trace)
        print(f"wrote mvu_coords.csv (objective={sol.objective:.6g}, "
              f"max edge violation={sol.max_edge_violation:.3g})")
        return 0

    if args.command == "check":
        values = read_matrix(args.estimate)
        values[values < 0] = np.inf
        est = EstimateMatrix(values)
        points = fileio.read_points_csv(args.truth)
        if args.kind == "simple":
            rep = check_simple_bound(est, points, args.eps, args.r)
        else:
            rep = check_general_bound(est, points, args.eps, args.r, args.alpha)
        print(f"pairs connected {rep.pairs_connected}, disconnected {rep.pairs_disconnected}")
        print(f"lower violations {rep.lower_violations}")
        if rep.upper_violations is not None:
            print(f"upper violations {rep.upper_violations} (asserted={rep.asserted})")
        print(f"fitted constant {rep.fitted_constant:.6g}, max residual {rep.max_residual:.6g}")
        hard_fail = rep.lower_violations > 0 or (
            rep.asserted and (rep.upper_violations or 0) > 0
        )
        if args.strict and hard_fail:
            print("strict mode: bound check failed")
            return 3
        return 0

    if args.command == "preset":
        if args.preset_command == "list":
            for name, preset in PRESETS.items():
                print(f"{name:14s} n={preset.default_n:<6d} {preset.description}")
            return 0
        man = run_preset(args.name, args.seed, out, scale_n=args.scale_n,
                         cities_file=args.cities_file)
        print(f"wrote {len(man)} manifest entries to {out / 'manifest.json'}")
        return 0

    if args.command == "ingest-cities":
        config = ingest_cities(args.file, args.n, args.seed,
                               lat_col=args.lat_col, lng_col=args.lng_col)
        fileio.write_points_csv(out / "cities_points.csv", config.points)
        print(f"wrote cities_points.csv (n={config.n})")
        return 0

    if args.command == "plot":
        written = emit_plotdata(args.dir)
        for w in written:
            print(f"wrote {w}")
        return 0

    raise ValueError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
