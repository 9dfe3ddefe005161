"""Experiment presets: fully scripted pipelines from sampling through graph
construction, hop estimation, bound checks and embeddings.

Each runner composes the same stages, and each artifact is built once:
``_sample`` writes the points, ``_eps`` computes the coverage radius of a
sample, ``_estimate`` turns one graph into hops, components (read off the
hops), estimate, bound report, edge list and aligned embedding, and
``_indicator_variant`` adds an indicator graph's hop and estimate files.
The points are the only truth, and the estimate is a view of the uint16
hops (``scale_hops``); the checks, the ``LGD1`` writer and classical
scaling read both a block of rows at a time.  So the hops are the only
n-by-n array, beside SMACOF's factor in ``hole-local``.

Every preset is determined by (name, seed): two runs write byte-identical
artifacts and manifests.  ``scale_n`` shrinks a preset proportionally for
fast runs; default sizes match the original experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from scipy.spatial import ConvexHull

from . import fileio
from .cities import ingest_cities
from .embed import EmbeddingResult, ProcrustesResult, classical_mds, localize, procrustes_align, smacof
from .geometry import (
    Box,
    CoverageBracket,
    PointConfig,
    RectangleWithHole,
    coverage_radius,
    pairwise_distances,
    rectangle,
    sample_uniform,
)
from .hopdist import (
    INF_HOPS,
    BoundReport,
    EstimateMatrix,
    HopMatrix,
    _row_blocks,
    all_pairs_hops,
    check_boundary_bias,
    check_general_bound,
    check_knn_bounds,
    check_simple_bound,
    scale_hops,
    shortest_path_nodes,
)
from .linkgraph import Adjacency, Indicator, couple_thin, generate_graph, knn_graph, knn_scale, symmetrize_union
from .plotdata import svg_paths

__all__ = ["ExperimentPreset", "PRESETS", "run_preset"]


@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    description: str
    default_n: int


class _GraphEstimate(NamedTuple):
    hops: HopMatrix
    est: EstimateMatrix
    keep: np.ndarray  # nodes of the largest component, ascending
    embedding: EmbeddingResult | None  # classical scaling of ``keep``; None when too small


# report fields copied to the manifest; a None field is left out
_REPORT_FIELDS = ("pairs_connected", "pairs_disconnected", "lower_violations", "upper_violations",
                  "max_residual", "max_relative_error", "fitted_constant", "asserted",
                  "lower_checked_pairs")


def _put_report(man: dict, tag: str, rep: BoundReport) -> None:
    for field in _REPORT_FIELDS:
        value = getattr(rep, field)
        if value is not None:
            man[f"{tag}.bound.{field}"] = value


# ---------------------------------------------------------------------------
# stages


def _sample(config: PointConfig, out: Path, man: dict) -> None:
    man["n"] = config.n
    fileio.write_points_csv(out / "truth.csv", config.points)
    man["truth.points_file"] = "truth.csv"


def _eps(config: PointConfig) -> CoverageBracket:
    """Coverage radius of the sample's convex hull."""
    span = config.points.max(axis=0) - config.points.min(axis=0)
    return coverage_radius(config, "convex_hull", float(span.max() / 400.0))


def _write_aligned(coords: np.ndarray, truth_pts: np.ndarray, out: Path, tag: str,
                   man: dict) -> ProcrustesResult:
    """Align ``coords`` to ``truth_pts``; write ``<tag>_recovered.csv`` and
    ``<tag>_aligned.csv`` and record them with the fit's error."""
    fit = procrustes_align(coords, truth_pts)
    for kind, pts in (("recovered", coords), ("aligned", fit.aligned)):
        name = f"{tag}_{kind}.csv"
        fileio.write_points_csv(out / name, pts)
        man[f"{tag}.{kind}.points_file"] = name
    man[f"{tag}.rmse_aligned"] = fit.rmse
    return fit


def _kept(hops: HopMatrix, keep: np.ndarray) -> HopMatrix:
    """The hops among ``keep``: the hops themselves when every node is kept."""
    return hops if keep.size == hops.n else HopMatrix(keep.size, hops.hops[np.ix_(keep, keep)])


def _embed_and_align(config: PointConfig, hops: HopMatrix, r: float, keep: np.ndarray,
                     out: Path, tag: str, man: dict) -> EmbeddingResult | None:
    man[f"{tag}.n_embedded"] = int(keep.size)
    if keep.size < 3:
        return None  # nothing meaningful to embed at this sparsity
    # every runner samples a planar domain; classical scaling reads r * hops
    # a row block at a time
    emb = classical_mds(_kept(hops, keep).hops, v=2, scale=r)
    fit = _write_aligned(emb.coords, config.points[keep], out, tag, man)
    man[f"{tag}.procrustes_scale"] = fit.scale
    return emb


def _estimate(config: PointConfig, adj: Adjacency, r: float, eps: CoverageBracket,
              check: Callable[[EstimateMatrix], BoundReport],
              out: Path, tag: str, man: dict) -> _GraphEstimate:
    """One graph's estimate at scale ``r``; ``check`` gives its bound report."""
    hops = all_pairs_hops(adj)
    est = scale_hops(hops, r)
    # each component is named by its smallest node, which argmax prefers in a tie
    rep = hops.components()
    man[f"{tag}.r"] = r
    man[f"{tag}.edge_count"] = adj.edge_count()
    man[f"{tag}.components"] = int(np.count_nonzero(rep == np.arange(adj.n)))
    man[f"{tag}.eps_lower"] = eps.lower
    man[f"{tag}.eps_upper"] = eps.upper
    man[f"{tag}.eps_over_r"] = eps.upper / r
    _put_report(man, tag, check(est))
    adj_name = f"{tag}_edges.txt"
    fileio.write_edge_list(out / adj_name, adj)
    man[f"{tag}.adjacency_file"] = adj_name
    keep = np.flatnonzero(rep == np.bincount(rep).argmax())
    return _GraphEstimate(hops, est, keep, _embed_and_align(config, hops, r, keep, out, tag, man))


def _indicator_variant(config: PointConfig, eps: CoverageBracket, r: float, seed: int,
                       out: Path, man: dict) -> _GraphEstimate:
    """``_estimate`` of the indicator graph at radius ``r`` under the simple
    bound, plus its hop and estimate files."""
    tag = _tag("r", r)
    adj = generate_graph(config, Indicator(r), seed)
    g = _estimate(config, adj, r, eps,
                  lambda est: check_simple_bound(est, config.points, eps.upper, r), out, tag, man)
    hop_name, est_name = f"{tag}_hops.bin", f"{tag}_est.bin"
    fileio.write_hops_binary(out / hop_name, g.hops)
    fileio.write_matrix_binary(out / est_name, g.est)
    man[f"{tag}.hops_file"] = hop_name
    man[f"{tag}.estimate_file"] = est_name
    return g


def _tag(prefix: str, value: float) -> str:
    return f"{prefix}{value:g}"


def _hole_domain() -> RectangleWithHole:
    return RectangleWithHole(rectangle(2.0, 1.0), Box(np.array([0.5, 0.25]), np.array([1.5, 0.75])))


def _cities(cities_file, n: int, seed: int) -> PointConfig:
    if cities_file is None:
        raise ValueError("this preset needs a cities CSV (pass cities_file)")
    return ingest_cities(cities_file, n, seed)


def _knn_strip(seed: int, out: Path, n: int, man: dict) -> tuple[PointConfig, int, Adjacency]:
    """Sample the [0,4]x[0,1] strip and draw its symmetrized kNN graph."""
    kappa = 25 if n >= 200 else 2
    config = sample_uniform(rectangle(4.0, 1.0), n, seed)
    _sample(config, out, man)
    man["kappa"] = kappa
    return config, kappa, symmetrize_union(knn_graph(config, kappa))


# ---------------------------------------------------------------------------
# preset runners


def _run_rectangles(seed: int, out: Path, n: int, man: dict, **_) -> None:
    """Dense rectangle with two denser patches; indicator links at three radii."""
    rng = np.random.default_rng(seed)
    n0 = max(3, int(round(n * 0.6)))
    n1 = max(3, int(round(n * 0.2)))
    n2 = max(3, n - n0 - n1)
    base = rectangle(2.0, 1.0)
    patch1 = Box(np.array([0.25, 0.25]), np.array([0.75, 0.75]))
    patch2 = Box(np.array([1.25, 0.0]), np.array([1.5, 1.0]))
    pts = np.vstack([base.sample(rng, n0), patch1.sample(rng, n1), patch2.sample(rng, n2)])
    config = PointConfig(pts, base)
    _sample(config, out, man)
    eps = _eps(config)
    for r in (0.05, 0.1, 0.2):
        _indicator_variant(config, eps, r, seed, out, man)


def _run_hole(seed: int, out: Path, n: int, man: dict, **_) -> None:
    """Rectangle with a rectangular hole: the convexity requirement bites."""
    config = sample_uniform(_hole_domain(), n, seed)
    _sample(config, out, man)
    _indicator_variant(config, _eps(config), 0.2, seed, out, man)


def _run_cities(seed: int, out: Path, n: int, man: dict, cities_file=None, **_) -> None:
    """City coordinates in planar degrees; indicator links at three radii."""
    config = _cities(cities_file, n, seed)
    _sample(config, out, man)
    eps = _eps(config)
    for r in (3.0, 5.0, 7.0):
        _indicator_variant(config, eps, r, seed, out, man)


def _run_cities_thinned(seed: int, out: Path, n: int, man: dict, cities_file=None, **_) -> None:
    """Coupled link levels on one city graph: the lower levels are obtained
    by erasing edges from the p=0.5 graph, never by regenerating."""
    r = 5.0
    config = _cities(cities_file, n, seed)
    _sample(config, out, man)
    man["r"] = r
    eps = _eps(config)
    full = generate_graph(config, Indicator(r), seed)
    half = couple_thin(full, 0.5 / 1.0, seed + 1)
    fifth = couple_thin(half, 0.2 / 0.5, seed + 2)  # keep ratio of levels: emulates p=0.2
    for p, adj in ((1.0, full), (0.5, half), (0.2, fifth)):
        _estimate(config, adj, r, eps,
                  lambda est: check_general_bound(est, config.points, eps.upper, r, alpha=0.0),
                  out, _tag("p", p), man)


def _run_knn_band(seed: int, out: Path, n: int, man: dict, **_) -> None:
    """Nearest-neighbor graph on a long strip: boundary paths shortcut."""
    config, kappa, adj = _knn_strip(seed, out, n, man)
    scale = knn_scale(config.domain, config.n, kappa, c1=1.0)
    man["knn.r_circ"] = scale.r_circ
    man["knn.eps"] = scale.eps
    man["knn.omega"] = scale.omega
    g = _estimate(config, adj, scale.r, CoverageBracket(scale.eps, scale.eps),
                  lambda est: check_knn_bounds(est, config, scale.eps, scale.r),
                  out, "knn", man)
    # the farthest pair of points is a pair of hull vertices
    diameter = pairwise_distances(config.points[ConvexHull(config.points).vertices]).max()
    threshold = min(2.0, 0.5 * float(diameter))
    ratio, pairs = check_boundary_bias(g.est, config.points, threshold)
    man["knn.bias.threshold"] = threshold
    if np.isfinite(ratio):  # infinite when a far pair is disconnected; knn.components tells
        man["knn.bias.max_ratio"] = ratio
    man["knn.bias.pairs"] = pairs


def _run_knn_paths(seed: int, out: Path, n: int, man: dict, **_) -> None:
    """Shortest neighbor-graph paths for a nearby and a faraway pair; the far
    path hugs the boundary."""
    config, _, adj = _knn_strip(seed, out, n, man)
    pts = config.points
    anchors = {
        "near": (np.array([1.8, 0.5]), np.array([2.2, 0.5])),
        "far": (np.array([0.2, 0.5]), np.array([3.8, 0.5])),
    }
    polylines, rows = {}, []
    for name, (a, b) in anchors.items():
        src = int(np.linalg.norm(pts - a, axis=1).argmin())
        dst = int(np.linalg.norm(pts - b, axis=1).argmin())
        nodes = shortest_path_nodes(adj, src, dst)
        poly = pts[nodes]
        polylines[name] = poly
        man[f"paths.{name}.hops"] = len(nodes) - 1
        man[f"paths.{name}.euclidean"] = float(np.linalg.norm(pts[src] - pts[dst]))
        rows.extend([name, k, x, y] for k, (x, y) in enumerate(poly.tolist()))
    fileio.write_csv(out / "paths.csv", "path,step,x,y", rows)
    man["paths.file"] = "paths.csv"
    svg_paths(out / "paths.svg", pts, polylines)
    man["paths.svg"] = "paths.svg"


def _run_mds_discrete(seed: int, out: Path, n: int, man: dict, **_) -> None:
    """Hop distances take a handful of values, yet classical scaling of them
    recovers the layout."""
    config = sample_uniform(rectangle(2.0, 1.0), n, seed)
    _sample(config, out, man)
    hops = _indicator_variant(config, _eps(config), 0.5, seed, out, man).hops
    top = hops.max_finite()
    # histogram of the connected pairs i < j, counted a block of rows at a time
    counts = np.zeros(top + 1, dtype=np.int64)
    for lo, hi in _row_blocks(np.arange(n + 1) * n):
        block = hops.hops[lo:hi, lo:]
        upper = np.arange(n - lo) > np.arange(hi - lo)[:, None]
        counts += np.bincount(block[upper & (block != INF_HOPS)], minlength=counts.size)
    for v in np.flatnonzero(counts):
        man[f"hops.hist.{int(v)}"] = int(counts[v])
    man["hops.max"] = top


def _run_hole_local(seed: int, out: Path, n: int, man: dict, **_) -> None:
    """Localization on the hole domain: keep hop estimates up to two hops,
    reconcile with stress majorization from the classical-scaling start."""
    config = sample_uniform(_hole_domain(), n, seed)
    _sample(config, out, man)
    r, max_hops = 0.2, 2
    g = _indicator_variant(config, _eps(config), r, seed, out, man)
    if g.embedding is None:
        raise ValueError(f"hole-local needs a component of at least 3 nodes; n={n} is too small")
    keep = g.keep
    partial = localize(_kept(g.hops, keep), max_hops, r)
    man["local.max_hops"] = max_hops
    # share of the n*n entries present, the zero diagonal included
    man["local.present_fraction"] = (2 * partial.i.size + partial.n) / partial.n ** 2
    result = smacof(partial, g.embedding.coords)
    _write_aligned(result.coords, config.points[keep], out, "local", man)
    fileio.write_stress_trace(out / "local_stress.csv", result.stress_trace)
    man["local.stress_file"] = "local_stress.csv"
    man["local.stress_final"] = result.stress
    man["local.iterations"] = result.iterations
    trace = result.stress_trace
    man["local.stress_monotone"] = bool(
        all(trace[k + 1] <= trace[k] * (1 + 1e-12) + 1e-9 for k in range(len(trace) - 1))
    )


_RUNNERS: dict[str, tuple[Callable, ExperimentPreset]] = {
    preset.name: (runner, preset) for runner, preset in (
        (_run_rectangles, ExperimentPreset("rectangles", "uniform rectangle plus two dense patches, "
                                           "indicator radii 0.05/0.1/0.2", 5000)),
        (_run_hole, ExperimentPreset("hole", "rectangle with hole removed, indicator r=0.2 shows "
                                     "non-convexity bias", 5000)),
        (_run_cities, ExperimentPreset("cities", "city coordinates, indicator radii 3/5/7 degrees", 3000)),
        (_run_cities_thinned, ExperimentPreset("cities-thinned", "coupled edge thinning p=1/0.5/0.2 "
                                               "at r=5 degrees", 3000)),
        (_run_knn_band, ExperimentPreset("knn-band", "25-nearest-neighbor graph on [0,4]x[0,1]: "
                                         "boundary bias checks", 5000)),
        (_run_knn_paths, ExperimentPreset("knn-paths", "shortest-path illustration on the strip "
                                          "neighbor graph", 5000)),
        (_run_mds_discrete, ExperimentPreset("mds-discrete", "very coarse hop distances still embed "
                                             "well (r=0.5)", 2000)),
        (_run_hole_local, ExperimentPreset("hole-local", "thresholded hops + stress majorization fix "
                                           "the hole bias (r=0.2, two hops)", 5000)),
    )
}

PRESETS: dict[str, ExperimentPreset] = {k: v[1] for k, v in _RUNNERS.items()}


def run_preset(
    name: str,
    seed: int,
    out_dir: str | Path,
    scale_n: int | None = None,
    cities_file: str | Path | None = None,
) -> dict:
    """Run a named preset and write its artifacts plus ``manifest.json``.

    Returns the manifest dictionary.  Identical (name, seed, scale_n) runs
    produce byte-identical outputs.
    """
    if name not in _RUNNERS:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(_RUNNERS)}")
    runner, preset = _RUNNERS[name]
    n = preset.default_n if scale_n is None else int(scale_n)
    if n < 1:
        raise ValueError(f"scale_n must be a positive point count, got {n}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    man: dict = {"preset": name, "seed": int(seed)}
    runner(seed, out, n, man, cities_file=cities_file)
    fileio.write_manifest(out / "manifest.json", man)
    return man
