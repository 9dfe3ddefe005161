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
frontier can gain lanes, and they lie between the lowest and the highest
neighbour of the frontier's index range; so a level pulls over that range
of nodes alone, one contiguous slice of the lists, and the next frontier's
range runs from the first to the last node that gained lanes.  The 64 rows
go back to the original labels when the batch ends.

Hops are stored as unsigned 16-bit values with 0xFFFF as infinity, so graphs
have at most 0xFFFF nodes.  At n = 10^4 (rectangle 2x1, indicator radius
0.05, seed 1, 190k edges) ``all_pairs_hops`` took 2.5 s on 2 vCPU, where a
kernel that pulled every list at every level took 6.3 s on the same machine
(medians of three runs each), and its peak allocation was 201 MB, of which
the returned matrix is 191 MB.

The estimate ``r * hops`` is a view of the hop matrix (``EstimateMatrix``
with the uint16 hops as its base and ``r`` as its scale), not an n-by-n
float64: its readers take a block of rows at a time, scaled on each read,
so the hops are the only n-by-n array between the search and the checks.

The simple, general and kNN checks share one report builder: the excess
``est - d`` against ``a (eps/r)^gamma d + b r``, plus the lower bound
``est >= d`` over all connected or over qualifying pairs.

One generator, ``_upper_rows``, decides which entries of a block of rows
are the pairs ``i < j``, for the checks here, the MVU hop-bound check,
``localize`` and the ``mds-discrete`` histogram: whole rows of
``_row_blocks``, read from the diagonal's column on, and their mask
``j > i``.  The checks read the true distances from the points
(``_pair_blocks``): a block is one ``EstimateMatrix.rows`` read and one
``cdist`` (bitwise the entries of ``squareform(pdist(points))``), reduced
whole under the mask of its connected pairs, with no copy and no per-pair
index array.  The checks keep only counts, maxima and minima, so their
scratch stays within six float64 blocks (3 MiB; 2.2-2.4 MiB measured at
n = 2000) beside the hops the estimate reads; every element is computed by
the same formula and no reduction depends on order, so the reports equal
the ones over all pairs of a dense estimate at once, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import reverse_cuthill_mckee, shortest_path
from scipy.spatial.distance import cdist

from .geometry import PointConfig, _readonly, boundary_distances
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
# entries per block of rows (``_row_blocks``): bounds the scratch of every scan
_BLOCK_PAIRS = 1 << 16


def _row_blocks(offsets: np.ndarray):
    """Blocks ``(lo, hi)`` of whole rows, row k holding entries ``offsets[k]``
    to ``offsets[k + 1]``: at most ``_BLOCK_PAIRS`` entries, or one longer row;
    ``max(1, _BLOCK_PAIRS // n)`` rows of an n-by-n matrix (``arange(n + 1) * n``)."""
    lo, n = 0, len(offsets) - 1
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(offsets, offsets[lo] + _BLOCK_PAIRS, "right")) - 1)
        yield lo, hi
        lo = hi


def _upper_rows(n: int):
    """Blocks ``(lo, hi, upper)`` of the pairs ``i < j`` of an n-by-n matrix:
    rows ``lo, ..., hi - 1`` of ``_row_blocks``, read from column ``lo`` on,
    and the (hi - lo, n - lo) mask ``j > i`` of that block.  Every scan of
    the pairs reduces whole blocks under this mask."""
    for lo, hi in _row_blocks(np.arange(n + 1) * n):
        yield lo, hi, np.arange(lo, n) > np.arange(lo, hi)[:, None]


@dataclass(frozen=True, eq=False)
class HopMatrix:
    """Symmetric matrix of graph distances; 0xFFFF encodes infinity."""

    n: int
    hops: np.ndarray  # (n, n) uint16

    def __post_init__(self):
        h = _readonly(self.hops, np.uint16)
        if h.shape != (self.n, self.n):
            raise ValueError("hop matrix must be n-by-n")
        object.__setattr__(self, "hops", h)

    def max_finite(self) -> int:
        # 0 when no hop is finite; blocks of whole rows, so no n-by-n mask
        blocks = (self.hops[lo:hi] for lo, hi in _row_blocks(np.arange(self.n + 1) * self.n))
        return max((int(b.max(initial=0, where=b != INF_HOPS)) for b in blocks), default=0)

    def components(self) -> np.ndarray:
        """Each node's smallest reachable node, the first finite entry of its
        row: two nodes share a component exactly when they share it."""
        rep = np.empty(self.n, dtype=np.intp)
        for lo, hi in _row_blocks(np.arange(self.n + 1) * self.n):
            rep[lo:hi] = np.argmax(self.hops[lo:hi] != INF_HOPS, axis=1)
        return rep

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
    An isolated node lists itself, so no list is empty and ``reduceat``
    needs no mask; its own lanes are visited already, so it gains none."""

    perm: np.ndarray
    inv: np.ndarray  # inv[v]: the relabelled index of node v
    idx: np.ndarray
    bounds: np.ndarray
    first: np.ndarray
    last: np.ndarray


def _band(adj: Adjacency) -> _Band:
    n = adj.n
    perm = reverse_cuthill_mckee(adj._csr(), symmetric_mode=True).astype(np.intp)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(n)
    # one key inv[v] * n + inv[w] per list entry w of node v, and v itself
    # for an isolated v; sorted, the keys are the relabelled lists in order
    degree = np.diff(adj.indptr)
    isolated = inv[degree == 0]
    m = adj.indices.size
    keys = np.empty(m + isolated.size, dtype=np.intp)
    np.multiply(np.repeat(inv, degree), n, out=keys[:m])
    keys[:m] += inv[adj.indices]
    np.multiply(isolated, n + 1, out=keys[m:])
    keys.sort()
    bounds = np.searchsorted(keys, np.arange(n + 1) * n)
    idx = np.remainder(keys, n, out=keys)
    return _Band(perm, inv, idx, bounds, idx[bounds[:-1]], idx[bounds[1:] - 1] + 1)


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
    visited = np.zeros(n, dtype=np.uint64)
    visited[lo:hi] = np.left_shift(np.uint64(1), np.arange(lanes, dtype=np.uint64))
    # a level's arrays are slices of these buffers: arrays of a new length
    # at every level fragmented the heap and left knn-band's peak RSS 5 MB higher
    pulled = np.empty(idx.size, dtype=np.uint64)
    fresh, spare = np.empty(n, dtype=np.uint64), np.empty(n, dtype=np.uint64)
    hits = np.empty(n, dtype=bool)
    planes = []
    level = 0
    # the last frontier lies in [lo, hi), never empty (the batch, then the nodes
    # that gained lanes); the nodes it can reach, in [a, b), a < b: no list is empty
    while True:
        a, b = int(first[lo:hi].min()), int(last[lo:hi].max())
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
    """Scaled hop distances ``scale * base``, read a block of rows at a time.

    ``base`` is either a uint16 hop matrix, whose 0xFFFF entries read as
    infinity, or any square float64 matrix.  ``scale_hops`` makes the
    estimate a view of the hops: it holds no n-by-n float64 of its own, and
    ``rows`` scales a block of hops on each call, bitwise the entries of the
    dense ``r * hops``.
    """

    base: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        b = np.asarray(self.base)
        b = _readonly(b, np.uint16 if b.dtype == np.uint16 else np.float64)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError(f"estimate must be a square matrix, got shape {b.shape}")
        if not 0 < self.scale < np.inf:
            raise ValueError("scale must be positive and finite")
        object.__setattr__(self, "base", b)
        object.__setattr__(self, "scale", float(self.scale))

    @property
    def n(self) -> int:
        return self.base.shape[0]

    def rows(self, lo: int, hi: int, start: int = 0) -> np.ndarray:
        """Rows ``lo, ..., hi - 1`` of the estimate from column ``start`` on,
        as a new float64 array."""
        block = self.base[lo:hi, start:]
        out = np.multiply(block, self.scale, dtype=np.float64)
        if block.dtype == np.uint16:
            out[block == INF_HOPS] = np.inf
        return out


def scale_hops(hops: HopMatrix, r: float) -> EstimateMatrix:
    """The estimate ``r * hops`` as a view of the hop matrix: no n-sized work."""
    return EstimateMatrix(hops.hops, r)


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


def _pair_blocks(est: EstimateMatrix, points: np.ndarray):
    """The pairs ``i < j`` of ``est``, one ``_upper_rows`` block at a time:
    ``(i, j, dhat, d, upper)``, with ``i`` a column and ``j`` a row of
    indices that broadcast against the block, its estimates (one ``rows``
    read) and its point distances (one ``cdist``), and the mask ``upper`` of
    its pairs ``i < j``.  The generator keeps none of the estimates and
    distances it has handed out, so the caller may overwrite them."""
    n = est.n
    points = np.asarray(points)
    if points.ndim != 2 or points.shape[0] != n:
        raise ValueError(f"need one point per estimate row: {n} rows, got shape {points.shape}")
    for lo, hi, upper in _upper_rows(n):
        yield (np.arange(lo, hi)[:, None], np.arange(lo, n)[None, :],
               est.rows(lo, hi, lo), cdist(points[lo:hi], points[lo:]), upper)


def _report(est, points, eps, r, gamma, a, b, asserted, qualifying=None) -> BoundReport:
    """Bound report of ``est`` against the distances between ``points``.

    With ``a`` given, the excess is held against ``a (eps/r)^gamma d + b r``.
    The lower bound ``est >= d`` is counted over all connected pairs, or only
    over the pairs for which ``qualifying(i, j, d)`` is true when it is given
    (it gets a block of ``_pair_blocks``: ``i`` and ``j`` broadcast against
    ``d``).  Needs ``0 < r < inf`` and ``0 <= eps < inf``.
    """
    if not 0 < r < np.inf:
        raise ValueError(f"need 0 < r < inf, got r={r}")
    if not 0 <= eps < np.inf:
        raise ValueError(f"need 0 <= eps < inf, got eps={eps}")
    scale = (eps / r) ** gamma
    total = est.n * (est.n - 1) // 2
    connected = lower_viol = upper_viol = checked = 0
    high, low, fitted, relative = -np.inf, np.inf, -np.inf, 0.0
    for i, j, dhat, d, upper in _pair_blocks(est, points):
        if qualifying is not None:
            # disconnected qualifying pairs have est = inf >= d: no violation
            q = qualifying(i, j, d) & upper
            lower_viol += int(np.count_nonzero(q & (dhat < d - _TOL)))
            checked += int(np.count_nonzero(q))
        ok = upper & np.isfinite(dhat)
        connected += int(np.count_nonzero(ok))
        resid = np.subtract(dhat, d, out=dhat)  # in place: one float64 block less of scratch
        if qualifying is None:
            lower_viol += int(np.count_nonzero((resid < -_TOL) & ok))
        if a is not None:
            upper_viol += int(np.count_nonzero((resid > a * scale * d + b * r + _TOL) & ok))
        high = max(high, resid.max(initial=-np.inf, where=ok))
        low = min(low, resid.min(initial=np.inf, where=ok))
        fitted = max(fitted, (resid / (scale * d + r)).max(initial=-np.inf, where=ok))
        # a coincident pair has no relative error; the masked entries may divide by 0
        with np.errstate(divide="ignore", invalid="ignore"):
            relative = max(relative, (np.abs(resid) / d).max(initial=0.0, where=ok & (d > 0)))
    return BoundReport(
        n=est.n,
        pairs_total=total,
        pairs_connected=connected,
        pairs_disconnected=total - connected,
        lower_violations=lower_viol,
        upper_violations=None if a is None else upper_viol,
        max_residual=float(high) if connected else 0.0,
        min_residual=float(low) if connected else 0.0,
        max_relative_error=float(relative),
        fitted_constant=float(fitted) if connected else 0.0,
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
                        alpha: float) -> BoundReport:
    """Report the smallest constant C with
    ``est - d <= C [ (eps/r)^(1/(1+alpha)) d + r ]`` over connected pairs,
    plus the always-required lower bound ``est >= d``.
    """
    if not alpha >= 0:
        raise ValueError("need alpha >= 0")
    return _report(est, points, eps, r, 1.0 / (1.0 + alpha), None, None, False)


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
    if not 0 < threshold_d < np.inf:
        raise ValueError("threshold must be positive and finite")
    ratio, pairs = -np.inf, 0
    for _, _, dhat, d, upper in _pair_blocks(est, points):
        sel = upper & (d >= threshold_d)
        pairs += int(np.count_nonzero(sel))
        ratio = max(ratio, np.divide(dhat, d, out=np.full(d.shape, -np.inf), where=sel).max())
    if not pairs:
        raise ValueError("no pairs at or beyond the distance threshold")
    return float(ratio), pairs


def monotone_path_check(config_1d: PointConfig, knn: KnnAdjacency) -> bool:
    """True when every connected pair of a one-dimensional neighbor graph is
    joined by a shortest path whose sorted coordinates strictly increase.

    Verified constructively: BFS hop distances over the increasing DAG (edges
    oriented by sorted position) must equal the unconstrained ones.
    """
    if config_1d.dim != 1:
        raise ValueError("configuration must be one-dimensional")
    adj = symmetrize_union(knn)
    n = adj.n
    order = np.argsort(config_1d.points[:, 0], kind="stable")
    rank = np.argsort(order)  # each node's sorted position
    lo, hi = np.sort(rank[adj.edges()], axis=1).T
    dag = csr_matrix((np.ones(lo.size), (lo, hi)), shape=(n, n))
    # the DAG joins no pair downwards: mirrored, its distances equal the
    # hops exactly when they agree on the pairs i < j
    dag_hops = shortest_path(dag, directed=True, unweighted=True)
    hops = all_pairs_hops(adj).hops[np.ix_(order, order)]
    return bool(np.array_equal(np.where(hops == INF_HOPS, np.inf, hops), np.minimum(dag_hops, dag_hops.T)))
