"""All-pairs hop distances and scaled-distance error reports.

Hop distances and shortest paths come from one single-source breadth-first
search over bit-packed adjacency rows: the frontier expansion is a word-level
OR of the rows of the current frontier followed by AND-NOT with the visited
set.  At n = 5000 this is the dominant cost of every experiment, and word
parallelism makes it roughly 20x faster here than a heap-based traversal.

Hops are stored as unsigned 16-bit values with 0xFFFF as infinity, so graphs
have at most 0xFFFF nodes; desk-scale graphs (n <= 2e4) have diameters far
below the sentinel.  The simple, general and kNN checks share one report
builder: the excess ``est - d`` against ``a (eps/r)^gamma d + b r``, plus the
lower bound ``est >= d`` over all connected or over qualifying pairs.

The checks and ``check_boundary_bias`` stream the pairs ``i < j`` in
row-major blocks of whole rows, about ``_BLOCK_PAIRS`` pairs each, and keep
only counts, maxima and minima.  Their scratch memory is therefore a few
megabytes at any n, beside the estimate and truth matrices they read; none
of the reductions depends on order, so the reports equal the ones over all
pairs at once, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    def to_float(self) -> np.ndarray:
        out = self.hops.astype(np.float64)
        out[self.hops == INF_HOPS] = np.inf
        return out

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


def _packed_words(adj: Adjacency) -> np.ndarray:
    n = adj.n
    nwords = (n + 63) // 64
    buf = np.zeros((n, nwords * 8), dtype=np.uint8)
    buf[:, : adj.packed.shape[1]] = adj.packed
    return buf.view(np.uint64)


def _bfs(words: np.ndarray, source: int, dist: np.ndarray) -> None:
    """Breadth-first search from ``source`` over packed rows: writes the hop
    count of every reached node into ``dist``, a row preset to infinity."""
    n = dist.size
    dist[source] = 0
    visited = np.zeros(words.shape[1], dtype=np.uint64)
    visited[source >> 6] = np.uint64(1) << np.uint64(source & 63)
    frontier = np.array([source])
    level = 0
    while frontier.size:
        reach = np.bitwise_or.reduce(words[frontier], axis=0)
        new = reach & ~visited
        if not new.any():
            break
        visited |= new
        level += 1
        frontier = np.flatnonzero(np.unpackbits(new.view(np.uint8), count=n, bitorder="little"))
        dist[frontier] = level


def all_pairs_hops(adj: Adjacency) -> HopMatrix:
    """Minimum edge counts between all node pairs (infinity if unreachable)."""
    n = adj.n
    if n > int(INF_HOPS):
        # a level reaches n - 1, which would then collide with the sentinel
        raise ValueError(f"n = {n} exceeds the {int(INF_HOPS)}-node limit of uint16 hop counts")
    words = _packed_words(adj)
    hops = np.full((n, n), INF_HOPS, dtype=np.uint16)
    for s in range(n):
        _bfs(words, s, hops[s])
    return HopMatrix(n, hops)


def shortest_path_nodes(adj: Adjacency, source: int, target: int) -> list[int]:
    """Node sequence of one shortest path from source to target.

    Raises when the two nodes are disconnected.  Among equally short paths
    the predecessor with the smallest index wins, so output is deterministic.
    """
    n = adj.n
    if not (0 <= source < n and 0 <= target < n):
        raise ValueError("node index out of range")
    dist = np.full(n, INF_HOPS, dtype=np.uint16)
    _bfs(_packed_words(adj), source, dist)
    if dist[target] == INF_HOPS:
        raise ValueError(f"nodes {source} and {target} are disconnected")
    # walk back one level at a time through the smallest-index closer neighbour
    path = [target]
    while path[-1] != source:
        nbrs = np.flatnonzero(np.unpackbits(adj.packed[path[-1]], count=n, bitorder="little"))
        path.append(int(nbrs[dist[nbrs] == dist[path[-1]] - 1][0]))
    return path[::-1]


@dataclass(frozen=True, eq=False)
class EstimateMatrix:
    """Scaled hop distances ``scale * hops`` (infinity propagates)."""

    values: np.ndarray
    scale: float

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def scale_hops(hops: HopMatrix, r: float) -> EstimateMatrix:
    if r <= 0:
        raise ValueError("scale must be positive")
    return EstimateMatrix(r * hops.to_float(), scale=float(r))


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


def _pair_blocks(est: EstimateMatrix, truth: np.ndarray):
    """The pairs ``i < j`` in row-major order, one block of whole rows at a
    time: endpoint indices ``i`` and ``j``, estimates and true distances, each
    a vector of at most ``_BLOCK_PAIRS`` entries (or one row, if longer)."""
    n = est.n
    if truth.shape != (n, n):
        raise ValueError("estimate and truth sizes differ")
    lo = 0
    while lo < n - 1:
        # rows shorten toward the end, so the first row of a block is its longest
        hi = min(n - 1, lo + max(1, _BLOCK_PAIRS // (n - 1 - lo)))
        i, j = np.nonzero(np.arange(lo + 1, n) > np.arange(lo, hi)[:, None])
        i += lo
        j += lo + 1
        yield i, j, est.values[i, j], truth[i, j]
        lo = hi


def _fold(reduce, values: list) -> float:
    """``reduce`` of the per-block extremes; 0.0 when no block had an entry."""
    return float(reduce(values)) if values else 0.0


def _report(est, truth, eps, r, gamma, a, b, asserted, qualifying=None) -> BoundReport:
    """Bound report of ``est`` against the true distances ``truth``.

    With ``a`` given, the excess is held against ``a (eps/r)^gamma d + b r``.
    The lower bound ``est >= d`` is counted over all connected pairs, or only
    over the pairs for which ``qualifying(i, j, d)`` is true when it is given.
    """
    scale = (eps / r) ** gamma
    total = connected = lower_viol = upper_viol = checked = 0
    maxima, minima, relative, fitted = [], [], [], []
    for i, j, dhat, d in _pair_blocks(est, truth):
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


def check_simple_bound(est: EstimateMatrix, truth: np.ndarray, eps: float, r: float) -> BoundReport:
    """Check ``0 <= est - d <= 4 (eps/r) d + r`` over connected pairs.

    The upper inequality is guaranteed for indicator links only when
    ``eps <= r/4`` (coverage at most a quarter radius); otherwise the report
    is informational and ``asserted`` is False.
    """
    return _report(est, truth, eps, r, 1.0, 4.0, 1.0, bool(eps <= r / 4))


def check_general_bound(est: EstimateMatrix, truth: np.ndarray, eps: float, r: float,
                        alpha: float, c2: float | None = None) -> BoundReport:
    """Report the smallest constant C with
    ``est - d <= C [ (eps/r)^(1/(1+alpha)) d + r ]`` over connected pairs,
    plus the always-required lower bound ``est >= d``.

    Supply ``c2`` to additionally count violations against a fixed constant.
    """
    if alpha < 0:
        raise ValueError("need alpha >= 0")
    return _report(est, truth, eps, r, 1.0 / (1.0 + alpha), c2,
                   1.0 if c2 is not None else None, False)


def check_knn_bounds(est: EstimateMatrix, truth: np.ndarray, config: PointConfig,
                     eps: float, r: float) -> BoundReport:
    """Check the k-nearest-neighbor bounds.

    Upper: ``est - d <= 8 (eps/r) d + r`` over all connected pairs.  Lower:
    ``est >= d`` restricted to pairs with ``d >= 2r`` whose endpoints both
    sit deeper than ``d/2`` inside the domain (the boundary `freeway' makes
    the unrestricted lower bound false in dimension 2 and up).
    """
    bdist = boundary_distances(config)

    def qualifying(i, j, d):
        return (d >= 2 * r) & (bdist[i] > d / 2) & (bdist[j] > d / 2)

    return _report(est, truth, eps, r, 1.0, 8.0, 1.0, False, qualifying=qualifying)


def check_boundary_bias(
    est: EstimateMatrix, truth: np.ndarray, threshold_d: float
) -> tuple[float, int]:
    """Largest ``est / d`` over pairs with ``d >= threshold_d`` and the number
    of such pairs.  A maximum below 1 confirms the boundary compression of
    long k-nearest-neighbor paths; disconnected pairs contribute infinity.
    """
    if threshold_d <= 0:
        raise ValueError("threshold must be positive")
    ratios, pairs = [], 0
    for _, _, dhat, d in _pair_blocks(est, truth):
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
    hops = all_pairs_hops(adj).to_float()
    order = np.argsort(config_1d.points[:, 0], kind="stable")
    w = adj.dense()[np.ix_(order, order)]
    hops = hops[np.ix_(order, order)]
    n = adj.n
    for a in range(n - 1):
        dag = np.full(n, np.inf)
        dag[a] = 0.0
        for b in range(a + 1, n):
            preds = np.flatnonzero(w[b, a:b]) + a
            if preds.size:
                dag[b] = dag[preds].min() + 1.0
        row = hops[a, a + 1 :]
        cmp = dag[a + 1 :]
        if not np.array_equal(np.where(np.isfinite(row), row, -1.0),
                              np.where(np.isfinite(cmp), cmp, -1.0)):
            return False
    return True
