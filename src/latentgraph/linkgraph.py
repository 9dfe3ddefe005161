"""Link functions and graph construction.

Edges of the random graph are independent Bernoulli draws: pair (i, j) is
linked with probability ``phi(d_ij)`` for a non-increasing link function
``phi`` with values in [0, 1].  Also builds k-nearest-neighbor graphs, the
coupled edge-thinning used to compare link levels on a shared graph, and the
common-neighbor (Jaccard) denoiser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.spatial.distance import cdist

from ._rng import pair_uniform_row
from .geometry import Domain, PointConfig, pairwise_distances

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
    "evaluate_link",
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
        if self.r <= 0:
            raise ValueError("radius must be positive")

    def __call__(self, d):
        return np.where(np.asarray(d, dtype=np.float64) <= self.r, 1.0, 0.0)


@dataclass(frozen=True)
class ScaledIndicator:
    """phi(d) = p for d <= r, else 0."""

    r: float
    p: float

    def __post_init__(self):
        if self.r <= 0:
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
        if self.r <= 0:
            raise ValueError("radius must be positive")
        if not 0 < self.c0 <= 1:
            raise ValueError("need 0 < c0 <= 1")
        if self.alpha < 0:
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
        if self.r <= 0:
            raise ValueError("radius must be positive")
        if not 0 < self.q < self.p <= 1:
            raise ValueError("need 0 < q < p <= 1")

    def __call__(self, d):
        return np.where(np.asarray(d, dtype=np.float64) <= self.r, self.p, self.q)


LinkFunction = Union[Indicator, ScaledIndicator, PolynomialEdge, TwoLevel]

# bits per block when edge or neighbour lists unpack the adjacency rows
_UNPACK_BITS = 1 << 20


def evaluate_link(link: LinkFunction, d) -> np.ndarray | float:
    """Edge probability at distance ``d >= 0``."""
    d = np.asarray(d, dtype=np.float64)
    if np.any(d < 0):
        raise ValueError("distances must be non-negative")
    out = link(d)
    return float(out) if out.ndim == 0 else out


class Adjacency:
    """Symmetric boolean adjacency matrix with zero diagonal, bit-packed.

    Rows are stored as packed bits (little bit order), eight columns per
    byte: n²/8 bytes, from which edge and neighbour lists are unpacked one
    block of rows at a time.
    """

    __slots__ = ("n", "packed")

    def __init__(self, n: int, packed: np.ndarray):
        self.n = int(n)
        packed = np.ascontiguousarray(packed, dtype=np.uint8)
        if packed.shape != (self.n, (self.n + 7) // 8):
            raise ValueError("packed shape does not match n")
        packed.setflags(write=False)
        self.packed = packed

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "Adjacency":
        dense = np.asarray(dense, dtype=bool)
        n = dense.shape[0]
        if dense.shape != (n, n):
            raise ValueError("adjacency must be square")
        if dense.diagonal().any():
            raise ValueError("diagonal must be zero")
        if not np.array_equal(dense, dense.T):
            raise ValueError("adjacency must be symmetric")
        return cls(n, np.packbits(dense, axis=1, bitorder="little"))

    @classmethod
    def from_edges(cls, n: int, edges: np.ndarray) -> "Adjacency":
        dense = np.zeros((n, n), dtype=bool)
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise ValueError("edge endpoint out of range")
            if np.any(edges[:, 0] == edges[:, 1]):
                raise ValueError("self-loops are not allowed")
            dense[edges[:, 0], edges[:, 1]] = True
            dense[edges[:, 1], edges[:, 0]] = True
        return cls.from_dense(dense)

    def dense(self) -> np.ndarray:
        return np.unpackbits(self.packed, axis=1, count=self.n, bitorder="little").astype(bool)

    def edges(self) -> np.ndarray:
        """Edge list as an (m, 2) array with i < j, row-major order."""
        blocks = [np.empty((0, 2), dtype=np.intp)]
        for i, j in _set_bits(self):
            upper = j > i
            blocks.append(np.column_stack([i[upper], j[upper]]))
        return np.concatenate(blocks)

    def degrees(self) -> np.ndarray:
        # rows are packed from dense rows, so the bits past column n are zero
        return np.bitwise_count(self.packed).sum(axis=1)

    def edge_count(self) -> int:
        return int(np.bitwise_count(self.packed).sum()) // 2

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Adjacency)
            and self.n == other.n
            and np.array_equal(self.packed, other.packed)
        )

    def __repr__(self) -> str:
        return f"Adjacency(n={self.n}, edges={self.edge_count()})"


def _set_bits(adj: Adjacency):
    """Row and column indices of the set bits of ``adj`` in row-major order,
    one block of whole rows (about ``_UNPACK_BITS`` bits) at a time."""
    n = adj.n
    step = max(1, _UNPACK_BITS // max(n, 1))
    for lo in range(0, n, step):
        rows = np.unpackbits(adj.packed[lo : lo + step], axis=1, count=n, bitorder="little")
        i, j = np.nonzero(rows)
        i += lo
        yield i, j


def generate_graph(config: PointConfig, link: LinkFunction, seed: int) -> Adjacency:
    """Draw the random graph: edge (i, j) present with probability
    ``phi(d_ij)``, independently across pairs, deterministically per seed.

    A degenerate link (probabilities all 0 or 1, e.g. an indicator) yields
    the same graph for every seed.
    """
    pts = config.points
    n = config.n
    dense = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        # one row of distances at a time; each equals its pairwise_distances entry
        d = cdist(pts[i : i + 1], pts[i + 1 :])[0]
        u = pair_uniform_row(seed, i, n)
        dense[i, i + 1 :] = u < link(d)
    dense |= dense.T
    return Adjacency.from_dense(dense)


def couple_thin(adj: Adjacency, keep_prob: float, seed: int) -> Adjacency:
    """Keep each existing edge independently with probability ``keep_prob``.

    Non-edges are never created, so the output is a coupled subgraph of the
    input; ``keep_prob=1`` returns an identical adjacency.
    """
    if not 0 < keep_prob <= 1:
        raise ValueError("need 0 < keep_prob <= 1")
    dense = adj.dense()
    n = adj.n
    out = np.zeros_like(dense)
    for i in range(n - 1):
        u = pair_uniform_row(seed, i, n)
        out[i, i + 1 :] = dense[i, i + 1 :] & (u < keep_prob)
    out |= out.T
    return Adjacency.from_dense(out)


@dataclass(frozen=True)
class KnnAdjacency:
    """Directed k-nearest-neighbor relation: each node points at its kappa
    nearest others, ties broken toward the smaller index."""

    n: int
    kappa: int
    out_neighbors: np.ndarray  # (n, kappa) int32, each row sorted ascending

    def __post_init__(self):
        nb = np.ascontiguousarray(self.out_neighbors, dtype=np.int32)
        if nb.shape != (self.n, self.kappa):
            raise ValueError("out_neighbors must be n-by-kappa")
        if nb.min() < 0 or nb.max() >= self.n:
            raise ValueError("neighbor index out of range")
        rows = np.arange(self.n)[:, None]
        if np.any(nb == rows):
            raise ValueError("a node cannot neighbor itself")
        if np.any(np.diff(np.sort(nb, axis=1), axis=1) == 0):
            raise ValueError("duplicate neighbors in a row")
        nb.setflags(write=False)
        object.__setattr__(self, "out_neighbors", nb)


def knn_graph(config: PointConfig, kappa: int) -> KnnAdjacency:
    """k-nearest-neighbor relation under exact Euclidean distances."""
    n = config.n
    if not 1 <= kappa <= n - 1:
        raise ValueError("need 1 <= kappa <= n-1")
    d = pairwise_distances(config)
    np.fill_diagonal(d, np.inf)
    # stable sort keeps ascending index order among exact ties
    nearest = np.argsort(d, axis=1, kind="stable")[:, :kappa]
    return KnnAdjacency(n, kappa, np.sort(nearest, axis=1).astype(np.int32))


def knn_radii(config: PointConfig, kappa: int) -> np.ndarray:
    """Distance from each point to its kappa-th nearest other point."""
    n = config.n
    if not 1 <= kappa <= n - 1:
        raise ValueError("need 1 <= kappa <= n-1")
    d = pairwise_distances(config)
    np.fill_diagonal(d, np.inf)
    return np.partition(d, kappa - 1, axis=1)[:, kappa - 1]


def symmetrize_union(knn: KnnAdjacency) -> Adjacency:
    """Union-symmetrized neighbor graph (the default traversal graph): i and
    j are linked when either points at the other."""
    a = np.zeros((knn.n, knn.n), dtype=bool)
    a[np.repeat(np.arange(knn.n), knn.kappa), knn.out_neighbors.ravel()] = True
    return Adjacency.from_dense(a | a.T)


def unit_ball_volume(v: int) -> float:
    """Lebesgue volume of the Euclidean unit ball in dimension v."""
    return math.pi ** (v / 2.0) / math.gamma(v / 2.0 + 1.0)


@dataclass(frozen=True)
class KnnScale:
    r_circ: float
    eps: float
    r: float
    omega: float


def knn_scale(
    domain: Domain,
    n: int,
    kappa: int,
    c1: float = 1.0,
    v: int | None = None,
    omega: float | None = None,
) -> KnnScale:
    """Hop scale for k-nearest-neighbor graphs on uniform samples.

    ``r_circ = (omega * kappa / n)^(1/v)`` with ``omega = |domain| / beta``
    (beta the unit-ball volume), ``eps = c1 (log(n)/n)^(1/v)`` and
    ``r = r_circ + eps``.  Pass ``omega`` explicitly to override the measured
    value (some experiment write-ups quote the raw domain area instead).
    """
    if kappa < 1 or n <= kappa:
        raise ValueError("need 1 <= kappa < n")
    if v is None:
        v = domain.dim
    if omega is None:
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
    w = adj.dense()
    wf = w.astype(np.float32)  # counts stay below 2**24, exact in float32
    common = (wf @ wf).astype(np.int64)
    deg = w.sum(axis=1).astype(np.int64)
    union = deg[:, None] + deg[None, :] - common
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(union > 0, common / np.maximum(union, 1), 0.0)
    out = ratio >= tau
    np.fill_diagonal(out, False)
    return Adjacency.from_dense(out)
