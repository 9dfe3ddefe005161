"""Maximum variance unfolding of a connected graph.

Maximizes the total squared pairwise spread of an embedding subject to every
edge having length at most one, via an increasing-penalty first-order
method; its gradient scatters the pulls of the stretched edges only (the
others pull by exact zeros), from edge-major pair differences.  The
penalty stages are scaled by the critical coefficient ``2 n / lambda_2``
(algebraic connectivity of the graph): below ``n / lambda_2`` the
penalized objective is unbounded along a scaling ray, so fixed schedules
cannot work across graphs.  A final rescale snaps the iterate to exact
feasibility, which is what the hop-bound comparison needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh
from scipy.spatial.distance import pdist

from .embed import classical_mds
from .geometry import _pair_distances
from .hopdist import _TOL, EstimateMatrix, HopMatrix, _pair_blocks, all_pairs_hops
from .linkgraph import Adjacency

__all__ = [
    "MvuBoundReport",
    "MvuSolution",
    "check_mvu_bound",
    "discrepancy_ratio",
    "solve_mvu",
]

# penalty levels in units of the critical coefficient 2 n / lambda_2
_PENALTY_SCHEDULE = (1.0, 10.0, 100.0, 1000.0)


@dataclass(frozen=True, eq=False)
class MvuSolution:
    """Feasible unfolding: centered coordinates, the spread objective (sum
    over unordered pairs of squared distances) and the residual
    edge-constraint violation (zero after the final rescale).  The unfolded
    metric is ``pdist(coords)``."""

    coords: np.ndarray
    objective: float
    max_edge_violation: float
    trace: tuple = field(repr=False, default=())


def _spread(x: np.ndarray) -> float:
    # sum_{i<j} ||x_i - x_j||^2, exact for uncentered inputs too (ndarray.sum's reductions)
    n = x.shape[0]
    return float(n * np.add.reduce(x ** 2, axis=None) - np.add.reduce(np.add.reduce(x) ** 2))


def _evaluate(x: np.ndarray, a: np.ndarray, b: np.ndarray, mu: float):
    # penalized objective, its spread and edge terms; the C-ordered iterate gives edge-major diffs
    diff, lengths = _pair_distances(x, a, b)
    excess = np.maximum(lengths - 1.0, 0.0)
    spread = _spread(x)
    return spread - mu * float(np.add.reduce(excess ** 2)), spread, diff, lengths, excess


def _algebraic_connectivity(n: int, a: np.ndarray, b: np.ndarray) -> float:
    lap = np.diag(np.bincount(np.concatenate([a, b]), minlength=n).astype(np.float64))
    lap[a, b] = lap[b, a] = -1.0
    return float(np.sort(eigh(lap, eigvals_only=True))[1])


def solve_mvu(
    adj: Adjacency,
    rank: int,
    seed: int = 0,
    steps_per_stage: int = 2000,
) -> MvuSolution:
    """Approximately solve the unfolding program in ``rank`` dimensions.

    Initializes from classical scaling of the hop matrix (shrunk to
    feasibility, plus a small seeded jitter to escape low-rank starts), then
    runs backtracking gradient ascent on the penalized objective for each
    penalty level ``2 n / lambda_2 * s``, s in ``_PENALTY_SCHEDULE``.  The
    ascent is monotone in the penalized objective at fixed penalty.  Each
    trial point is evaluated once: the accepted one's edge lengths feed the
    next gradient and its trace row.  Requires a connected graph: otherwise
    the spread is unbounded.
    """
    if rank < 2:
        raise ValueError("need rank >= 2")
    n = adj.n
    hops = all_pairs_hops(adj)
    if not hops.is_connected():
        raise ValueError("graph is disconnected: unfolding objective is unbounded")
    a, b = np.ascontiguousarray(adj.edges().T)  # take copies strided indices on every call

    x = classical_mds(hops.hops, rank).coords
    rng = np.random.default_rng(seed)
    x = x + 1e-3 * np.sqrt((x ** 2).mean()) * rng.standard_normal(x.shape)
    x -= x.mean(axis=0)
    ml = _pair_distances(x, a, b)[1].max()
    if ml > 1.0:
        x /= ml

    mu_base = 2.0 * n / _algebraic_connectivity(n, a, b)
    # the gradient scatters into the flat bins a*dim + k and b*dim + k, a row per edge
    dim = x.shape[1]
    bins_a, bins_b = (e[:, None] * dim + np.arange(dim) for e in (a, b))

    trace = []
    step = 1e-2
    for stage, s in enumerate(_PENALTY_SCHEDULE):
        mu = mu_base * s
        fcur, _, diff, lengths, excess = _evaluate(x, a, b, mu)
        for it in range(steps_per_stage):
            grad = 2.0 * n * x
            # only stretched edges pull: the others' exact zeros leave every bin as it is (a
            # bin starts at +0.0 and never becomes -0.0); bincount of no edge gives integers
            act = (excess != 0).nonzero()[0]
            if act.size:
                coef = 2.0 * excess.take(act) / lengths.take(act)
                pull = (coef[:, None] * diff.take(act, axis=0)).ravel()
                gpen = (np.bincount(bins_a.take(act, axis=0).ravel(), pull, n * dim)
                        - np.bincount(bins_b.take(act, axis=0).ravel(), pull, n * dim))
                grad -= mu * gpen.reshape(n, dim)
            gnorm2 = float(np.add.reduce(grad ** 2, axis=None))
            if gnorm2 < 1e-18:
                break
            for _ in range(60):
                xn = x + step * grad
                xn -= np.add.reduce(xn) / n  # xn.mean(axis=0) without its wrapper
                fn, spread, *edge_terms = _evaluate(xn, a, b, mu)
                if fn >= fcur + 1e-4 * step * gnorm2:
                    break
                step *= 0.5
            else:
                break
            rel = (fn - fcur) / max(abs(fcur), 1e-300)
            x, fcur = xn, fn
            diff, lengths, excess = edge_terms
            step *= 1.3
            trace.append((stage, it, spread, float(np.maximum.reduce(excess, initial=0.0)), fcur))
            if rel < 1e-12:
                break

    # snap to exact feasibility; any feasible point satisfies the hop bound
    ml = lengths.max()
    if ml > 1.0:
        x = x / ml
        x -= x.mean(axis=0)
    violation = float(np.maximum(_pair_distances(x, a, b)[1] - 1.0, 0.0).max(initial=0.0))
    return MvuSolution(
        coords=x,
        objective=_spread(x),
        max_edge_violation=violation,
        trace=tuple(trace),
    )


@dataclass(frozen=True)
class MvuBoundReport:
    pairs: int
    violations: int
    max_excess: float
    tol_base: float


def check_mvu_bound(sol: MvuSolution, hops: HopMatrix) -> MvuBoundReport:
    """Count pairs where the unfolded metric exceeds the hop distance.

    A feasible point can never exceed it (chain the edges of a shortest
    path); residual edge violations propagate multiplicatively, so the
    tolerance per pair is ``max_edge_violation * hops + _TOL``.  The pairs
    are streamed in the upper-triangle blocks of ``_pair_blocks``, the hops
    read as an estimate at scale 1: exact, with the sentinel read as infinity.
    """
    if sol.coords.shape[0] != hops.n:
        raise ValueError("solution and hop matrix sizes differ")
    pairs = violations = 0
    max_excess = -np.inf
    for _, _, h, g, upper in _pair_blocks(EstimateMatrix(hops.hops), sol.coords):
        ok = upper & np.isfinite(h)
        pairs += int(np.count_nonzero(ok))
        excess = g - h
        # a disconnected pair reads 0 * inf = nan at a zero violation; it is masked
        with np.errstate(invalid="ignore"):
            violations += int(np.count_nonzero((excess > sol.max_edge_violation * h + _TOL) & ok))
        max_excess = max(max_excess, excess.max(initial=-np.inf, where=ok))
    return MvuBoundReport(
        pairs=pairs,
        violations=violations,
        max_excess=float(max_excess) if pairs else 0.0,
        tol_base=_TOL,
    )


def discrepancy_ratio(sol: MvuSolution, points: np.ndarray, r: float, eta: float) -> float:
    """Empirical constant of the squared-distance discrepancy bound.

    With ``dt = r * pdist(coords)`` and ``d = pdist(points)``, returns
    ``sum |dt^2 - d^2| / (eta * sum d^2)`` over unordered pairs.  ``eta``
    must come from a bound report certifying ``(1-eta) d <= est <= (1+eta) d``;
    the universal constant it estimates has no known numeric value, so this
    is report-only.
    """
    if not 0 < eta < 1:
        raise ValueError("eta must lie in (0, 1)")
    if not 0 < r < np.inf:
        raise ValueError(f"need 0 < r < inf, got r={r}")
    points = np.asarray(points)
    if points.ndim != 2 or points.shape[0] != sol.coords.shape[0]:
        raise ValueError("solution and points sizes differ")
    dt = r * pdist(sol.coords)
    d = pdist(points)
    return float(np.abs(dt ** 2 - d ** 2).sum() / (eta * (d ** 2).sum()))
