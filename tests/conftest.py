"""Shared fixtures and independent oracles.

Oracles here deliberately avoid the library's code paths: Floyd-Warshall for
hop distances, a dense rotation sweep for procrustes, plain loops elsewhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from latentgraph import INF_HOPS, Adjacency, HopMatrix
from tests.reference_graphs import dense_adjacency


def floyd_warshall_hops(adj: Adjacency) -> np.ndarray:
    """O(n^3) min-plus closure; float matrix with inf for unreachable."""
    n = adj.n
    d = np.where(adj.dense(), 1.0, np.inf)
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def float_hops(hops: HopMatrix) -> np.ndarray:
    """The hop matrix as float64 with inf for unreachable pairs."""
    return np.where(hops.hops == INF_HOPS, np.inf, hops.hops)


def rotation_sweep_rmse(source: np.ndarray, target: np.ndarray, steps: int = 200_000) -> float:
    """Best planar alignment rmse by sweeping the rotation angle densely.

    For each angle (and each reflection) the optimal scale has a closed form,
    so the sweep is exact up to the angular grid.
    """
    xs = source - source.mean(axis=0)
    yt = target - target.mean(axis=0)
    norm2 = (xs ** 2).sum()
    best = np.inf
    theta = np.linspace(0.0, 2.0 * np.pi, steps, endpoint=False)
    cos, sin = np.cos(theta), np.sin(theta)
    for reflect in (False, True):
        xr = xs.copy()
        if reflect:
            xr[:, 1] = -xr[:, 1]
        m = xr.T @ yt
        # <yt, xr R(theta)> is a sinusoid in theta
        inner = (m[0, 0] + m[1, 1]) * cos + (m[1, 0] - m[0, 1]) * sin
        scale = np.clip(inner, 0.0, None) / norm2
        cost = (yt ** 2).sum() - 2.0 * scale * inner + scale ** 2 * norm2
        best = min(best, float(cost.min()))
    return float(np.sqrt(max(best, 0.0) / len(source)))


def random_graph(n: int, p: float, seed: int) -> Adjacency:
    rng = np.random.default_rng(seed)
    return dense_adjacency(rng.random((n, n)) < p)


@pytest.fixture
def cities_csv(tmp_path):
    rng = np.random.default_rng(5)
    lat = rng.uniform(25, 49, 300)
    lng = rng.uniform(-124, -67, 300)
    rows = ["name,lat,lng"]
    rows += [f"city{i},{lat[i]:.6f},{lng[i]:.6f}" for i in range(300)]
    path = tmp_path / "cities.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path
