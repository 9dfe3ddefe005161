"""All-pairs hop distances and scaled-distance error reports.

Hop distances and shortest paths come from one breadth-first search that
runs 64 sources at a time, one per bit of a ``uint64`` word per node (the
bit-parallel search of Akiba, Iwata & Yoshida, SIGMOD 2013).  Each level
pulls over flat neighbour lists: a node's new lanes are the OR of its
neighbours' visited words, less its own.  A lane that reached a neighbour
before the last level has reached the node already, so only the lanes of
the last frontier can be new, and no frontier words are kept.  The
lanes that arrive at level L are OR-ed into bit plane p for every set bit
p of L, so after a batch the planes hold every lane's hop count in binary
and unpack into 64 rows of the hop matrix at once.

The search runs on the graph's own neighbour lists (``Adjacency.indptr``
and ``indices``) relabelled in reverse Cuthill-McKee order (Cuthill & McKee
1969), which keeps a geometric graph's lists near the diagonal, and a batch
takes 64 consecutive relabelled sources.  Only the neighbours of the last
frontier can gain lanes, and they lie between the
lowest and the highest neighbour of the frontier's index range; so a level
pulls over that range of nodes alone, one contiguous slice of the lists,
and the next frontier's range runs from the first to the last node that
gained lanes.  The 64 rows go back to the original labels when the batch
ends.

Hops are stored as unsigned 16-bit values with 0xFFFF as infinity, so graphs
have at most 0xFFFF nodes.  At n = 10^4 (rectangle 2x1, indicator radius
0.05, seed 1, 190k edges) ``all_pairs_hops`` took 2.5 s on 2 vCPU, where a
kernel that pulled every list at every level took 6.3 s on the same machine
(medians of three runs each), and its peak allocation was 201 MB, of which
the returned matrix is 191 MB.

The simple, general and kNN checks share one report builder: the excess
``est - d`` against ``a (eps/r)^gamma d + b r``, plus the lower bound
``est >= d`` over all connected or over qualifying pairs.

The checks and ``check_boundary_bias`` read the true distances from the
points: they stream the pairs ``i < j`` in row-major blocks of whole rows,
about ``_BLOCK_PAIRS`` pairs each, take each block's distances from
``cdist`` (bitwise the entries of ``squareform(pdist(points))``) and keep
only counts, maxima and minima.  Their scratch memory is therefore a few
megabytes at any n, beside the estimate they read; none of the reductions
depends on order, so the reports equal the ones over all pairs at once, bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.spatial.distance import cdist

from .geometry import PointConfig, boundary_distances
from .linkgraph import Adjacency, KnnAdjacency, symmetrize_union

__all__ = [
    "INF_HOPS",
    "BoundReport",
    "EstimateMatrix",
    "HopMatrix",
    "all_pairs_hops",
    "check_boundary_bias",
    "check_general_bound",
    "check_knn_bounds",
    "check_simple_bound",
    "monotone_path_check",
    "scale_hops",
    "shortest_path_nodes",
]

INF_HOPS = np.uint16(0xFFFF)
# slack of every bound comparison, recorded in ``BoundReport.tol``
_TOL = 1e-9
# pairs per row block of the streamed checks: bounds their scratch memory
_BLOCK_PAIRS = 1 << 16


@dataclass(frozen=True, eq=False)
class HopMatrix:
    """Symmetric matrix of graph distances; 0xFFFF encodes infinity."""

    n: int
    hops: np.ndarray  # (n, n) uint16

    def __post_init__(self):
        h = np.ascontiguousarray(self.hops, dtype=np.uint16)
        if h.shape != (self.n, self.n):
            raise ValueError("hop matrix must be n-by-n")
        h.setflags(write=False)
        object.__setattr__(self, "hops", h)

    def max_finite(self) -> int:
        # 0 when no hop is finite; blocks of whole rows: no n-by-n mask
        step = max(1, _BLOCK_PAIRS // max(1, self.n))
        best = 0
        for lo in range(0, self.n, step):
            block = self.hops[lo : lo + step]
            best = max(best, int(block.max(initial=0, where=block != INF_HOPS)))
        return best

    def is_connected(self) -> bool:
        # the sentinel is the largest uint16, so one maximum finds any infinity
        return bool(self.hops.max(initial=0) != INF_HOPS)


def _check_size(n: int) -> None:
    if n > int(INF_HOPS):
        # a level reaches n - 1, which would then collide with the sentinel
        raise ValueError(f"n = {n} exceeds the {int(INF_HOPS)}-node limit of uint16 hop counts")


class _Band(NamedTuple):
    """Neighbour lists relabelled in reverse Cuthill-McKee order.  Relabelled
    node k is node ``perm[k]`` and lists ``idx[bounds[k]:bounds[k + 1]]`` in
    ascending order, its neighbours between ``first[k]`` and ``last[k] - 1``.
    An isolated node lists the pad node n instead (``first = n``, ``last =
    0``), so no list is empty and ``bitwise_or.reduceat`` needs no mask."""

    perm: np.ndarray
    inv: np.ndarray  # inv[v]: the relabelled index of node v
    idx: np.ndarray
    bounds: np.ndarray
    first: np.ndarray
    last: np.ndarray


def _band(adj: Adjacency) -> _Band:
    n = adj.n
    lists = csr_matrix((np.ones(adj.indices.size, dtype=np.int8), adj.indices, adj.indptr),
                       shape=(n, n))
    perm = reverse_cuthill_mckee(lists, symmetric_mode=True).astype(np.intp)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(n)
    rel = csr_matrix((lists.data, inv[lists.indices], lists.indptr), shape=(n, n))[perm]
    rel.sort_indices()
    degree = np.diff(rel.indptr)
    idx = np.insert(rel.indices.astype(np.intp), rel.indptr[:-1][degree == 0], n)
    bounds = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.maximum(degree, 1), out=bounds[1:])
    last = np.where(degree > 0, idx[bounds[1:] - 1] + 1, 0)
    return _Band(perm, inv, idx, bounds, idx[bounds[:-1]], last)


def _lane_bits(words: np.ndarray) -> np.ndarray:
    """(n, 64) 0/1 array of n words: column k is bit k on any host."""
    return np.unpackbits(words.astype("<u8").view(np.uint8).reshape(-1, 8),
                         axis=1, bitorder="little")


def _hops_from(band: _Band, lo: int, hi: int) -> np.ndarray:
    """Hop counts from the relabelled sources ``lo, ..., hi - 1`` (at most
    64), one source per bit lane (the kernel of the module docstring): a
    (hi - lo, n) uint16 array in the original labels, infinity where a lane
    never arrived."""
    idx, bounds, first, last = band.idx, band.bounds, band.first, band.last
    n = bounds.size - 1
    lanes = hi - lo
    visited = np.zeros(n + 1, dtype=np.uint64)  # the pad node n stays 0
    visited[lo:hi] = np.left_shift(np.uint64(1), np.arange(lanes, dtype=np.uint64))
    # a level's arrays are slices of these buffers: arrays of a new length
    # at every level fragmented the heap and left knn-band's peak RSS 5 MB higher
    pulled = np.empty(idx.size, dtype=np.uint64)
    fresh, spare = np.empty(n, dtype=np.uint64), np.empty(n, dtype=np.uint64)
    hits = np.empty(n, dtype=bool)
    planes = []
    level = 0
    # the last frontier lies in [lo, hi); the nodes it can reach, in [a, b)
    while True:
        a, b = int(first[lo:hi].min()), int(last[lo:hi].max())
        if a >= b:
            break
        level += 1
        start, stop = bounds[a], bounds[b]
        np.take(visited, idx[start:stop], out=pulled[start:stop], mode="clip")
        new = np.bitwise_or.reduceat(pulled[:stop], bounds[a:b], out=fresh[a:b])
        new &= np.invert(visited[a:b], out=spare[a:b])
        first_hit = int(np.not_equal(new, 0, out=hits[: b - a]).argmax())
        if not new[first_hit]:
            break
        visited[a:b] |= new
        if level == 1 << len(planes):
            planes.append(np.zeros(n, dtype=np.uint64))
        for p in range(len(planes)):
            if level >> p & 1:
                planes[p][a:b] |= new
        last_hit = int(np.not_equal(new[::-1], 0, out=hits[: b - a]).argmax())
        lo, hi = a + first_hit, b - last_hit
    # words back in the original labels, then unpacked lane by lane
    block = np.zeros((n, 64), dtype=np.uint16)
    for p, plane in enumerate(planes):
        block |= _lane_bits(plane[band.inv]) << np.uint16(p)
    block[_lane_bits(visited[band.inv]) == 0] = INF_HOPS
    return block[:, :lanes].T


def all_pairs_hops(adj: Adjacency) -> HopMatrix:
    """Minimum edge counts between all node pairs (infinity if unreachable)."""
    n = adj.n
    _check_size(n)
    # the result comes first in the heap, so that the scratch freed after it
    # leaves no hole below it (a hole kept hole-local's peak RSS 2 % higher)
    hops = np.empty((n, n), dtype=np.uint16)
    if n:  # reverse_cuthill_mckee rejects an empty graph
        band = _band(adj)
        for lo in range(0, n, 64):
            hi = min(n, lo + 64)
            hops[band.perm[lo:hi]] = _hops_from(band, lo, hi)
    return HopMatrix(n, hops)


def shortest_path_nodes(adj: Adjacency, source: int, target: int) -> list[int]:
    """Node sequence of one shortest path from source to target.

    Raises when the two nodes are disconnected.  Among equally short paths
    the predecessor with the smallest index wins, so output is deterministic.
    """
    n = adj.n
    _check_size(n)
    if not (0 <= source < n and 0 <= target < n):
        raise ValueError("node index out of range")
    band = _band(adj)
    k = int(band.inv[source])
    dist = _hops_from(band, k, k + 1)[0]
    if dist[target] == INF_HOPS:
        raise ValueError(f"nodes {source} and {target} are disconnected")
    # walk back one level at a time through the smallest-index closer
    # neighbour, over the lists in the original labels
    idx, bounds = adj.indices, adj.indptr
    path = [target]
    while path[-1] != source:
        nbrs = idx[bounds[path[-1]] : bounds[path[-1] + 1]]
        path.append(int(nbrs[dist[nbrs] == dist[path[-1]] - 1][0]))
    return path[::-1]


@dataclass(frozen=True, eq=False)
class EstimateMatrix:
    """Scaled hop distances ``r * hops`` (infinity propagates)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"estimate must be a square matrix, got shape {v.shape}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def scale_hops(hops: HopMatrix, r: float) -> EstimateMatrix:
    if r <= 0:
        raise ValueError("scale must be positive")
    # one float64 buffer, scaled in place: bitwise r * float(hops)
    out = hops.hops.astype(np.float64)
    out *= r
    out[hops.hops == INF_HOPS] = np.inf
    return EstimateMatrix(out)


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Outcome of comparing scaled hop estimates against true distances.

    The bound form checked is ``a * (eps/r)^gamma * d + b * r`` on the excess
    ``est - d``; the lower bound ``est >= d`` is always counted.  Disconnected
    pairs are excluded from the statistics and reported separately.
    """

    n: int
    pairs_total: int
    pairs_connected: int
    pairs_disconnected: int
    lower_violations: int
    upper_violations: int | None
    max_residual: float
    min_residual: float
    max_relative_error: float
    fitted_constant: float
    eps: float
    r: float
    gamma: float
    a: float | None
    b: float | None
    tol: float
    asserted: bool
    lower_checked_pairs: int | None = None


def _pair_blocks(values: np.ndarray, points: np.ndarray):
    """The pairs ``i < j`` of the n-by-n ``values`` in row-major order, one
    block of whole rows at a time: indices ``i`` and ``j``, ``values[i, j]``
    and point distances, each at most ``_BLOCK_PAIRS`` long (or one row)."""
    n = values.shape[0]
    points = np.asarray(points)
    if points.ndim != 2 or points.shape[0] != n:
        raise ValueError(f"need one point per estimate row: {n} rows, got shape {points.shape}")
    lo = 0
    while lo < n - 1:
        # rows shorten toward the end, so the first row of a block is its longest
        hi = min(n - 1, lo + max(1, _BLOCK_PAIRS // (n - 1 - lo)))
        rows = np.arange(lo, hi)
        counts = n - 1 - rows
        # row i's pairs start at its offset in the block and run to j = n - 1
        starts = np.cumsum(counts) - counts
        i = np.repeat(rows, counts)
        j = np.arange(starts[-1] + counts[-1]) - np.repeat(starts - rows - 1, counts)
        upper = np.arange(lo + 1, n) > rows[:, None]
        yield i, j, values[lo:hi, lo + 1 :][upper], cdist(points[lo:hi], points[lo + 1 :])[upper]
        lo = hi


def _fold(reduce, values: list) -> float:
    """``reduce`` of the per-block extremes; 0.0 when no block had an entry."""
    return float(reduce(values)) if values else 0.0


def _report(est, points, eps, r, gamma, a, b, asserted, qualifying=None) -> BoundReport:
    """Bound report of ``est`` against the distances between ``points``.

    With ``a`` given, the excess is held against ``a (eps/r)^gamma d + b r``.
    The lower bound ``est >= d`` is counted over all connected pairs, or only
    over the pairs for which ``qualifying(i, j, d)`` is true when it is given.
    """
    scale = (eps / r) ** gamma
    total = connected = lower_viol = upper_viol = checked = 0
    maxima, minima, relative, fitted = [], [], [], []
    for i, j, dhat, d in _pair_blocks(est.values, points):
        finite = np.isfinite(dhat)
        df = d[finite]
        resid = dhat[finite] - df
        total += d.size
        connected += int(finite.sum())
        if qualifying is None:
            lower_viol += int((resid < -_TOL).sum())
        else:
            # disconnected qualifying pairs have est = inf >= d: no violation
            q = qualifying(i, j, d)
            lower_viol += int((q & (dhat < d - _TOL)).sum())
            checked += int(q.sum())
        if a is not None:
            upper_viol += int((resid > a * scale * df + b * r + _TOL).sum())
        if resid.size:
            maxima.append(resid.max())
            minima.append(resid.min())
            fitted.append((resid / (scale * df + r)).max())
        pos = df > 0
        if pos.any():
            relative.append((np.abs(resid[pos]) / df[pos]).max())
    return BoundReport(
        n=est.n,
        pairs_total=total,
        pairs_connected=connected,
        pairs_disconnected=total - connected,
        lower_violations=lower_viol,
        upper_violations=None if a is None else upper_viol,
        max_residual=_fold(np.max, maxima),
        min_residual=_fold(np.min, minima),
        max_relative_error=_fold(np.max, relative),
        fitted_constant=_fold(np.max, fitted),
        eps=float(eps),
        r=float(r),
        gamma=gamma,
        a=a,
        b=b,
        tol=_TOL,
        asserted=asserted,
        lower_checked_pairs=None if qualifying is None else checked,
    )


def check_simple_bound(est: EstimateMatrix, points: np.ndarray, eps: float, r: float) -> BoundReport:
    """Check ``0 <= est - d <= 4 (eps/r) d + r`` over connected pairs.

    The upper inequality is guaranteed for indicator links only when
    ``eps <= r/4`` (coverage at most a quarter radius); otherwise the report
    is informational and ``asserted`` is False.
    """
    return _report(est, points, eps, r, 1.0, 4.0, 1.0, bool(eps <= r / 4))


def check_general_bound(est: EstimateMatrix, points: np.ndarray, eps: float, r: float,
                        alpha: float, c2: float | None = None) -> BoundReport:
    """Report the smallest constant C with
    ``est - d <= C [ (eps/r)^(1/(1+alpha)) d + r ]`` over connected pairs,
    plus the always-required lower bound ``est >= d``.

    Supply ``c2`` to additionally count violations against a fixed constant.
    """
    if alpha < 0:
        raise ValueError("need alpha >= 0")
    return _report(est, points, eps, r, 1.0 / (1.0 + alpha), c2,
                   1.0 if c2 is not None else None, False)


def check_knn_bounds(est: EstimateMatrix, config: PointConfig, eps: float, r: float) -> BoundReport:
    """Check the k-nearest-neighbor bounds.

    Upper: ``est - d <= 8 (eps/r) d + r`` over all connected pairs.  Lower:
    ``est >= d`` restricted to pairs with ``d >= 2r`` whose endpoints both
    sit deeper than ``d/2`` inside the domain (the boundary `freeway' makes
    the unrestricted lower bound false in dimension 2 and up).
    """
    bdist = boundary_distances(config)

    def qualifying(i, j, d):
        return (d >= 2 * r) & (bdist[i] > d / 2) & (bdist[j] > d / 2)

    return _report(est, config.points, eps, r, 1.0, 8.0, 1.0, False, qualifying=qualifying)


def check_boundary_bias(est: EstimateMatrix, points: np.ndarray,
                        threshold_d: float) -> tuple[float, int]:
    """Largest ``est / d`` over pairs with ``d >= threshold_d`` and the number
    of such pairs.  A maximum below 1 confirms the boundary compression of
    long k-nearest-neighbor paths; disconnected pairs contribute infinity.
    """
    if threshold_d <= 0:
        raise ValueError("threshold must be positive")
    ratios, pairs = [], 0
    for _, _, dhat, d in _pair_blocks(est.values, points):
        sel = d >= threshold_d
        if sel.any():
            ratios.append((dhat[sel] / d[sel]).max())
            pairs += int(sel.sum())
    if not pairs:
        raise ValueError("no pairs at or beyond the distance threshold")
    return _fold(np.max, ratios), pairs


def monotone_path_check(config_1d: PointConfig, knn: KnnAdjacency) -> bool:
    """True when every connected pair of a one-dimensional neighbor graph is
    joined by a shortest path whose sorted coordinates strictly increase.

    Verified constructively: hop distances restricted to the increasing DAG
    (edges oriented by sorted position) must equal the unconstrained ones.
    """
    if config_1d.dim != 1:
        raise ValueError("configuration must be one-dimensional")
    adj = symmetrize_union(knn)
    order = np.argsort(config_1d.points[:, 0], kind="stable")
    w = adj.dense()[np.ix_(order, order)]
    hops = all_pairs_hops(adj).hops[np.ix_(order, order)]
    n = adj.n
    for a in range(n - 1):
        dag = np.full(n, np.inf)
        dag[a] = 0.0
        for b in range(a + 1, n):
            preds = np.flatnonzero(w[b, a:b]) + a
            if preds.size:
                dag[b] = dag[preds].min() + 1.0
        row = hops[a, a + 1 :]
        if not np.array_equal(np.where(row == INF_HOPS, np.inf, row), dag[a + 1 :]):
            return False
    return True
