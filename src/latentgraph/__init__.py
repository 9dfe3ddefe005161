"""Estimation of latent Euclidean distances from graph adjacency.

Nodes carry unknown positions; edges appear independently with probability a
non-increasing function of the pairwise distance.  Scaled hop (shortest-path)
distances estimate the latent distances; classical scaling, stress
majorization and maximum variance unfolding turn them into coordinates.
"""

from .cities import ingest_cities
from .embed import (
    EmbeddingResult,
    PartialDissimilarity,
    ProcrustesResult,
    classical_mds,
    localize,
    procrustes_align,
    smacof,
)
from .geometry import (
    Box,
    CoverageBracket,
    Domain,
    PointConfig,
    RectangleWithHole,
    boundary_distances,
    coverage_radius,
    interval,
    minimax_eta,
    minimax_pair,
    pairwise_distances,
    rectangle,
    sample_uniform,
)
from .hopdist import (
    INF_HOPS,
    BoundReport,
    EstimateMatrix,
    HopMatrix,
    all_pairs_hops,
    check_boundary_bias,
    check_general_bound,
    check_knn_bounds,
    check_simple_bound,
    monotone_path_check,
    scale_hops,
    shortest_path_nodes,
)
from .linkgraph import (
    Adjacency,
    Indicator,
    KnnAdjacency,
    KnnScale,
    LinkFunction,
    PolynomialEdge,
    ScaledIndicator,
    TwoLevel,
    common_neighbor_denoise,
    couple_thin,
    generate_graph,
    knn_graph,
    knn_radii,
    knn_scale,
    symmetrize_union,
    unit_ball_volume,
)
from .mvu import MvuBoundReport, MvuSolution, check_mvu_bound, discrepancy_ratio, solve_mvu
from .presets import PRESETS, ExperimentPreset, run_preset

__version__ = "0.1.0"
