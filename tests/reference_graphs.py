"""Dense reference builders for the graph constructions.

Each one forms the full n×n distance matrix or an n×n bool, the way the
library built its graphs before it took candidate pairs from a k-d tree.
The tests require the library's graphs to equal these bit for bit, and the
preset tests swap them into ``presets`` to compare every artifact.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from latentgraph import Adjacency, KnnAdjacency
from latentgraph._rng import pair_uniform_row


def dense_distances(points: np.ndarray) -> np.ndarray:
    """``squareform(pdist(points))`` with an infinite diagonal."""
    d = squareform(pdist(points))
    np.fill_diagonal(d, np.inf)
    return d


def dense_knn_graph(config, kappa: int) -> KnnAdjacency:
    """Stable argsort of every distance row: exact ties go to the smaller index."""
    nearest = np.argsort(dense_distances(config.points), axis=1, kind="stable")[:, :kappa]
    return KnnAdjacency(config.n, kappa, np.sort(nearest, axis=1).astype(np.int32))


def dense_knn_radii(config, kappa: int) -> np.ndarray:
    return np.partition(dense_distances(config.points), kappa - 1, axis=1)[:, kappa - 1]


def dense_symmetrize_union(knn: KnnAdjacency) -> Adjacency:
    a = np.zeros((knn.n, knn.n), dtype=bool)
    a[np.repeat(np.arange(knn.n), knn.kappa), knn.out_neighbors.ravel()] = True
    return Adjacency.from_dense(a | a.T)


def row_loop_generate_graph(config, link, seed: int) -> Adjacency:
    """Every pair's distance and keyed uniform, one full row at a time."""
    pts = config.points
    n = config.n
    dense = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        d = cdist(pts[i : i + 1], pts[i + 1 :])[0]
        u = pair_uniform_row(seed, i, n)
        dense[i, i + 1 :] = u < link(d)
    dense |= dense.T
    return Adjacency.from_dense(dense)


def dense_couple_thin(adj: Adjacency, keep_prob: float, seed: int) -> Adjacency:
    dense = adj.dense()
    n = adj.n
    out = np.zeros_like(dense)
    for i in range(n - 1):
        u = pair_uniform_row(seed, i, n)
        out[i, i + 1 :] = dense[i, i + 1 :] & (u < keep_prob)
    out |= out.T
    return Adjacency.from_dense(out)


def fstring_write_edge_list(path, adj: Adjacency) -> None:
    """One formatted line per edge."""
    lines = [f"n={adj.n}"]
    lines.extend(f"{i} {j}" for i, j in adj.edges().tolist())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
