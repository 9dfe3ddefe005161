"""Link functions and graph construction.

Edges of the random graph are independent Bernoulli draws: pair (i, j) is
linked with probability ``phi(d_ij)`` for a non-increasing link function
``phi`` with values in [0, 1].  Also builds k-nearest-neighbor graphs, the
coupled edge-thinning used to compare link levels on a shared graph, and the
common-neighbor (Jaccard) denoiser.

Compact-support and kNN graphs are built from candidate pairs, not from all
n² distances: a k-d tree gives the pairs within a link's support and each
point's nearest candidates, whose distances are then recomputed by
``cdist``'s formula, so every decision sees the same bits as
``pairwise_distances``.  Edge pairs are sorted straight into the neighbour
lists of an ``Adjacency``; no builder, nor the denoiser, forms an n×n array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from ._rng import pair_uniform_row
# pairwise_distances is no longer used here; it stays importable because
# perfbench/tracing.py wraps linkgraph.pairwise_distances by name
from .geometry import Domain, PointConfig, _pair_distances, _readonly, pairwise_distances  # noqa: F401

__all__ = [
    "Adjacency",
    "Indicator",
    "KnnAdjacency",
    "KnnScale",
    "LinkFunction",
    "PolynomialEdge",
    "ScaledIndicator",
    "TwoLevel",
    "common_neighbor_denoise",
    "couple_thin",
    "generate_graph",
    "knn_graph",
    "knn_radii",
    "knn_scale",
    "symmetrize_union",
    "unit_ball_volume",
]


@dataclass(frozen=True)
class Indicator:
    """phi(d) = 1 for d <= r, else 0."""

    r: float

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("radius must be positive")

    def __call__(self, d):
        return np.where(np.asarray(d, dtype=np.float64) <= self.r, 1.0, 0.0)


@dataclass(frozen=True)
class ScaledIndicator:
    """phi(d) = p for d <= r, else 0."""

    r: float
    p: float

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("radius must be positive")
        if not 0 < self.p <= 1:
            raise ValueError("need 0 < p <= 1")

    def __call__(self, d):
        return np.where(np.asarray(d, dtype=np.float64) <= self.r, self.p, 0.0)


@dataclass(frozen=True)
class PolynomialEdge:
    """phi(d) = c0 (1 - d/r)^alpha on [0, r], 0 beyond."""

    r: float
    c0: float
    alpha: float

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("radius must be positive")
        if not 0 < self.c0 <= 1:
            raise ValueError("need 0 < c0 <= 1")
        if not self.alpha >= 0:
            raise ValueError("need alpha >= 0")

    def __call__(self, d):
        d = np.asarray(d, dtype=np.float64)
        ramp = np.clip(1.0 - d / self.r, 0.0, None)
        return np.where(d <= self.r, self.c0 * ramp ** self.alpha, 0.0)


@dataclass(frozen=True)
class TwoLevel:
    """phi(d) = p for d <= r and q for d > r, with 0 < q < p <= 1.

    Not compactly supported: long-range edges appear at rate q.
    """

    r: float
    p: float
    q: float

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("radius must be positive")
        if not 0 < self.q < self.p <= 1:
            raise ValueError("need 0 < q < p <= 1")

    def __call__(self, d):
        return np.where(np.asarray(d, dtype=np.float64) <= self.r, self.p, self.q)


LinkFunction = Union[Indicator, ScaledIndicator, PolynomialEdge, TwoLevel]

# relative slack for the rounding of the k-d tree's own distances
_TREE_MARGIN = 1e-9
# candidates a kNN query takes beyond the kappa neighbours and the point itself
_KNN_SPARE = 8


class Adjacency:
    """Symmetric graph without self-loops, held as neighbour lists.

    Node v lists ``indices[indptr[v]:indptr[v + 1]]`` in ascending order,
    each neighbour once, so an edge appears in the lists of both its ends:
    ``n + 1 + 2m`` integers for m edges.
    """

    __slots__ = ("n", "indptr", "indices")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray):
        self.n = int(n)
        indptr = _readonly(indptr, np.intp)
        indices = _readonly(indices, np.intp)
        if indptr.shape != (self.n + 1,):
            raise ValueError("indptr must have n + 1 entries")
        if indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if indptr[-1] != indices.size:
            raise ValueError("indptr must end at len(indices)")
        if np.any(indptr[1:] < indptr[:-1]):
            raise ValueError("indptr must not decrease")
        if indices.size and (indices.min() < 0 or indices.max() >= self.n):
            raise ValueError("neighbour index out of range")
        self.indptr = indptr
        self.indices = indices

    @classmethod
    def from_edges(cls, n: int, edges: np.ndarray) -> "Adjacency":
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise ValueError("edge endpoint out of range")
            if np.any(edges[:, 0] == edges[:, 1]):
                raise ValueError("self-loops are not allowed")
        return _from_pairs(n, edges[:, 0], edges[:, 1])

    def _rows(self) -> np.ndarray:
        """The node whose list holds each entry of ``indices``."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def _csr(self) -> csr_matrix:
        # intp ones: scipy keeps the data type through A @ A, and int8 counts would wrap
        ones = np.ones(self.indices.size, dtype=np.intp)
        return csr_matrix((ones, self.indices, self.indptr), shape=(self.n, self.n))

    def dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=bool)
        out[self._rows(), self.indices] = True
        return out

    def edges(self) -> np.ndarray:
        """Edge list as an (m, 2) array with i < j, row-major order."""
        i = self._rows()
        upper = self.indices > i
        return np.column_stack([i[upper], self.indices[upper]])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def edge_count(self) -> int:
        return self.indices.size // 2

    @property
    def packed(self) -> np.ndarray:
        """The rows as packed bits (little bit order), eight columns per byte.

        Derived on each read, for ``perfbench/tracing.py``, which counts
        edges from it; nothing in the package reads it.
        """
        rows = np.zeros((self.n, (self.n + 7) // 8), dtype=np.uint8)
        bits = np.left_shift(np.uint8(1), (self.indices & 7).astype(np.uint8))
        np.bitwise_or.at(rows, (self._rows(), self.indices >> 3), bits)
        return rows

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Adjacency)
            and self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self) -> str:
        return f"Adjacency(n={self.n}, edges={self.edge_count()})"


def _from_pairs(n: int, i: np.ndarray, j: np.ndarray) -> Adjacency:
    """Adjacency linking ``i[k]`` and ``j[k]`` for every k.  Endpoints must be
    distinct and in range; a pair may repeat or come in either orientation.

    The keys ``v * n + w`` of both orientations, sorted with repeats dropped,
    are the neighbour lists in row-major order.
    """
    m = len(i)
    # intp keys: the int32 neighbours of a KnnAdjacency overflow above n = 46 341
    keys = np.empty(2 * m, dtype=np.intp)
    for half, v, w in ((keys[:m], i, j), (keys[m:], j, i)):
        np.multiply(v, n, out=half, dtype=np.intp)
        half += w
    keys.sort()
    # keep the first key (keys are >= 0) and each key unlike the one before it
    keys = keys[np.concatenate([keys[:1] >= 0, keys[1:] != keys[:-1]])]
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    return Adjacency(n, indptr, np.remainder(keys, n, out=keys))


def _pairs_within(points: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j within distance r, in row-major order, by a k-d tree
    query widened by ``_TREE_MARGIN``: a superset of the pairs with d_ij <= r."""
    n = len(points)
    pairs = cKDTree(points).query_pairs(r * (1.0 + _TREE_MARGIN), output_type="ndarray")
    key = pairs[:, 0] * n + pairs[:, 1]
    del pairs  # freed before the row and column arrays are made
    key.sort()
    return np.divmod(key, n)


def _pair_outcomes(seed: int, i: np.ndarray, j: np.ndarray, p) -> np.ndarray:
    """``u_ij < p`` for pairs ``i < j`` in row-major order, with ``u_ij`` the
    pair's keyed uniform in [0, 1).  A pair with p = 1 or p = 0 needs no draw;
    each row with other pairs is drawn once, up to its last such pair."""
    p = np.broadcast_to(p, i.shape)
    keep = p >= 1.0
    drawn = np.flatnonzero((p > 0.0) & (p < 1.0))
    rows, starts = np.unique(i[drawn], return_index=True)
    for row, run in zip(rows.tolist(), np.split(drawn, starts[1:])):
        cols = j[run]
        # the first cols[-1] - row uniforms of the row's stream
        u = pair_uniform_row(seed, row, int(cols[-1]) + 1)
        keep[run] = u[cols - row - 1] < p[run]
    return keep


def generate_graph(config: PointConfig, link: LinkFunction, seed: int) -> Adjacency:
    """Draw the random graph: edge (i, j) present with probability
    ``phi(d_ij)``, independently across pairs, deterministically per seed.

    A degenerate link (probabilities all 0 or 1, e.g. an indicator) yields
    the same graph for every seed.  A compactly supported link looks only at
    the pairs within its radius; a link that is positive at every distance
    draws every pair.
    """
    pts = config.points
    n = config.n
    if link(np.inf) > 0:
        i, j = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
        for row in range(n - 1):
            # one row of distances at a time; each equals its pairwise_distances entry
            d = cdist(pts[row : row + 1], pts[row + 1 :])[0]
            hit = np.flatnonzero(pair_uniform_row(seed, row, n) < link(d)) + (row + 1)
            i.append(np.full(hit.size, row))
            j.append(hit)
        return _from_pairs(n, np.concatenate(i), np.concatenate(j))
    # the exact support test is link(d) on the recomputed distances
    i, j = _pairs_within(pts, link.r)
    keep = _pair_outcomes(seed, i, j, link(_pair_distances(pts, i, j)[1]))
    i = i[keep]  # one array at a time: the candidates can be many
    j = j[keep]
    return _from_pairs(n, i, j)


def couple_thin(adj: Adjacency, keep_prob: float, seed: int) -> Adjacency:
    """Keep each existing edge independently with probability ``keep_prob``.

    Non-edges are never created, so the output is a coupled subgraph of the
    input; ``keep_prob=1`` returns an identical adjacency.
    """
    if not 0 < keep_prob <= 1:
        raise ValueError("need 0 < keep_prob <= 1")
    i, j = adj.edges().T
    keep = _pair_outcomes(seed, i, j, keep_prob)
    return _from_pairs(adj.n, i[keep], j[keep])


@dataclass(frozen=True)
class KnnAdjacency:
    """Directed k-nearest-neighbor relation: each node points at its kappa
    nearest others, ties broken toward the smaller index."""

    n: int
    kappa: int
    out_neighbors: np.ndarray  # (n, kappa) int32, each row sorted ascending

    def __post_init__(self):
        nb = _readonly(self.out_neighbors, np.int32)
        if nb.shape != (self.n, self.kappa):
            raise ValueError("out_neighbors must be n-by-kappa")
        if nb.min() < 0 or nb.max() >= self.n:
            raise ValueError("neighbor index out of range")
        rows = np.arange(self.n)[:, None]
        if np.any(nb == rows):
            raise ValueError("a node cannot neighbor itself")
        if np.any(np.diff(np.sort(nb, axis=1), axis=1) == 0):
            raise ValueError("duplicate neighbors in a row")
        object.__setattr__(self, "out_neighbors", nb)


def _nearest(config: PointConfig, kappa: int) -> tuple[np.ndarray, np.ndarray]:
    """Each point's kappa nearest other points in (distance, index) order,
    the order of a stable sort of its ``pairwise_distances`` row, and their
    distances, bitwise those of ``pairwise_distances``.

    A k-d tree proposes ``kappa + 1 + _KNN_SPARE`` candidates per point. A row
    is certain when its kappa-th distance lies strictly below the tree's
    distance to its last candidate, which bounds every point not proposed;
    the other rows are queried again with twice as many, up to all n.
    """
    pts = config.points
    n = config.n
    if not 1 <= kappa <= n - 1:
        raise ValueError("need 1 <= kappa <= n-1")
    tree = cKDTree(pts)
    nearest = np.empty((n, kappa), dtype=np.intp)
    dist = np.empty((n, kappa))
    todo = np.arange(n)
    k = min(kappa + 1 + _KNN_SPARE, n)
    while todo.size:
        farthest, idx = tree.query(pts[todo], k)
        # no point outside the query is nearer than this by the tree's distances
        limit = farthest[:, -1] * (1.0 - _TREE_MARGIN)
        del farthest  # freed before the distances: it is as large as they are
        rows = todo[:, None]
        # idx before rows: the first index array sets the shape of the differences
        d = _pair_distances(pts, idx, rows)[1]
        d[idx == rows] = np.inf  # a point is not its own neighbour
        order = np.lexsort((idx, d))[:, :kappa]
        idx = np.take_along_axis(idx, order, axis=1)
        d = np.take_along_axis(d, order, axis=1)
        # with every point queried, nothing lies outside the candidates
        done = (k == n) | (d[:, -1] < limit)
        nearest[todo[done]] = idx[done]
        dist[todo[done]] = d[done]
        todo = todo[~done]
        k = min(2 * k, n)
    return nearest, dist


def knn_graph(config: PointConfig, kappa: int) -> KnnAdjacency:
    """k-nearest-neighbor relation under exact Euclidean distances."""
    nearest, _ = _nearest(config, kappa)
    return KnnAdjacency(config.n, kappa, np.sort(nearest, axis=1).astype(np.int32))


def knn_radii(config: PointConfig, kappa: int) -> np.ndarray:
    """Distance from each point to its kappa-th nearest other point."""
    _, dist = _nearest(config, kappa)
    return dist[:, -1].copy()


def symmetrize_union(knn: KnnAdjacency) -> Adjacency:
    """Union-symmetrized neighbor graph (the default traversal graph): i and
    j are linked when either points at the other."""
    rows = np.repeat(np.arange(knn.n), knn.kappa)
    return _from_pairs(knn.n, rows, knn.out_neighbors.ravel())


def unit_ball_volume(v: int) -> float:
    """Lebesgue volume of the Euclidean unit ball in dimension v."""
    return math.pi ** (v / 2.0) / math.gamma(v / 2.0 + 1.0)


@dataclass(frozen=True)
class KnnScale:
    r_circ: float
    eps: float
    r: float
    omega: float


def knn_scale(domain: Domain, n: int, kappa: int, c1: float = 1.0) -> KnnScale:
    """Hop scale for k-nearest-neighbor graphs on uniform samples.

    ``r_circ = (omega * kappa / n)^(1/v)`` with ``v`` the domain's dimension,
    ``omega = |domain| / beta`` (beta the unit-ball volume), ``eps = c1
    (log(n)/n)^(1/v)`` and ``r = r_circ + eps``.
    """
    if kappa < 1 or n <= kappa:
        raise ValueError("need 1 <= kappa < n")
    if not 0 <= c1 < np.inf:
        raise ValueError(f"need 0 <= c1 < inf, got c1={c1}")
    v = domain.dim
    omega = domain.volume / unit_ball_volume(v)
    r_circ = (omega * kappa / n) ** (1.0 / v)
    eps = c1 * (math.log(n) / n) ** (1.0 / v)
    return KnnScale(r_circ=r_circ, eps=eps, r=r_circ + eps, omega=omega)


def common_neighbor_denoise(adj: Adjacency, tau: float) -> Adjacency:
    """Re-declare edges by thresholding the common-neighbor Jaccard ratio.

    Pair (i, j) becomes an edge when ``N_ij / (N_i + N_j - N_ij) >= tau``,
    where ``N_i`` is the degree of i and ``N_ij`` the number of common
    neighbors.  Pairs with an empty union get no edge.  Suppresses the
    long-range noise edges of non-compact links.
    """
    if not 0 < tau <= 1:
        raise ValueError("need 0 < tau <= 1")
    # a pair with no common neighbour has ratio 0 < tau: only the product's entries count
    a = adj._csr()
    common = (a @ a).tocoo()
    upper = common.row < common.col
    i, j, nij = common.row[upper], common.col[upper], common.data[upper]
    deg = adj.degrees()
    keep = nij / (deg[i] + deg[j] - nij) >= tau
    return _from_pairs(adj.n, i[keep], j[keep])
