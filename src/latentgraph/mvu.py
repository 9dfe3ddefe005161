"""Maximum variance unfolding of a connected graph.

Maximizes the total squared pairwise spread of an embedding subject to every
edge having length at most one, by increasing penalty stages, each an
L-BFGS ascent (Liu & Nocedal, Math. Prog. 45, 1989) that keeps the last
five curvature pairs; its gradient scatters the pulls of the stretched
edges only (the others pull by exact zeros), from edge-major pair
differences.  The penalty stages are scaled by the critical coefficient
``2 n / lambda_2`` (algebraic connectivity of the graph, from a sparse LU
of its Laplacian): below ``n / lambda_2`` the penalized objective is
unbounded along a scaling ray, so fixed schedules cannot work across
graphs.  A final rescale snaps the iterate to exact feasibility, which is
what the hop-bound comparison needs.  The coordinates have the same bits
under any BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import LinearOperator, eigsh, splu
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
# curvature pairs kept by the quasi-Newton direction
_MEMORY = 5


@dataclass(frozen=True, eq=False)
class MvuSolution:
    """Feasible unfolding: centered coordinates, the spread objective (sum
    over unordered pairs of squared distances) and the residual
    edge-constraint violation (zero: the final rescale leaves no edge longer
    than one).  The unfolded metric is ``pdist(coords)``."""

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
    """lambda_2 of the graph Laplacian ``L``, as ``1 / w - eps`` for the top
    eigenvalue ``w`` of ``(L + eps I)^-1`` on the centered vectors, where the
    constant null vector is projected out.  A sparse LU of the edge lists and
    Lanczos with a fixed start: no dense n-by-n Laplacian, and the same bits
    for any BLAS pool (a dense ``eigh`` differs between one and two
    threads, and wakes the pool before the ascent)."""
    deg = np.bincount(np.concatenate([a, b]), minlength=n).astype(np.float64)
    eps = 1e-8 * deg.max()
    nodes = np.arange(n)
    lap = csc_matrix((np.concatenate([np.full(2 * a.size, -1.0), deg + eps]),
                      (np.concatenate([a, b, nodes]), np.concatenate([b, a, nodes]))), shape=(n, n))
    solve = splu(lap).solve

    def centered_inverse(v):
        x = solve(v - v.mean())
        return x - x.mean()

    v0 = np.random.default_rng(0).standard_normal(n)
    w = eigsh(LinearOperator((n, n), matvec=centered_inverse, dtype=np.float64), k=1,
              v0=v0 - v0.mean(), rng=0, return_eigenvectors=False)
    return float(1.0 / w[0] - eps)


class _Pairs:
    """The curvature pairs of one penalty stage and the L-BFGS direction
    ``q = H g`` of the concave objective, in compact form.

    A pair is ``s = x+ - x`` and ``y = g - g+``, kept only when
    ``s . y > 0``; ``H`` starts from ``gamma I`` with ``gamma = s . y / y . y``
    of the newest pair.  One buffer holds the kept pairs (``s`` and ``y`` of
    slot ``k`` in rows ``2k`` and ``2k + 1``), the gradient, and the pair of
    the last step, so one product of the buffer with its last three rows
    gives every inner product an iteration needs: the gradient's with each
    row, and the new pair's with the kept ones, which extend the kept
    ``s . y`` and ``y . y`` Gram entries.  The two-loop recursion then runs
    on at most ``_MEMORY`` pairs in Python floats, and one product with its
    coefficients forms ``q``.  Both products add over the rows' length in
    the same order for any BLAS thread count.
    """

    def __init__(self, size: int):
        self.buf = np.zeros((2 * _MEMORY + 3, size))
        self.slots = []  # buffer slots of the kept pairs, oldest first
        self.sy = []  # sy[i][j] = s_i . y_j over the kept pairs, oldest first
        self.yy = []  # yy[i][j] = y_i . y_j
        self.x = None
        self.p = None

    def push(self, x: np.ndarray, grad: np.ndarray) -> float:
        """Take the iterate and its gradient, keep the pair of the step that
        led here if it has positive curvature; returns ``g . g``."""
        buf, m2 = self.buf, 2 * _MEMORY
        g = grad.reshape(-1)
        if self.x is not None:
            np.subtract(x, self.x, out=buf[m2 + 1].reshape(x.shape))
            np.subtract(buf[m2], g, out=buf[m2 + 2])
        buf[m2] = g
        # p[r] = (row r . g, row r . s, row r . y) for the last step's s and y
        p = (buf @ buf[m2:].T).tolist()
        if self.x is not None and p[m2 + 1][2] > 0:
            slots, sy, yy = self.slots, self.sy, self.yy
            if len(slots) == _MEMORY:
                slot = slots.pop(0)
                del sy[0], yy[0]
                for row in sy + yy:
                    del row[0]
            else:
                slot = len(slots)
            new_yy = [p[2 * j + 1][2] for j in slots]
            for j, row in zip(slots, sy):
                row.append(p[2 * j][2])
            for row, v in zip(yy, new_yy):
                row.append(v)
            sy.append([p[2 * j + 1][1] for j in slots] + [p[m2 + 1][2]])
            yy.append(new_yy + [p[m2 + 2][2]])
            buf[2 * slot : 2 * slot + 2] = buf[m2 + 1 :]
            p[2 * slot], p[2 * slot + 1] = p[m2 + 1], p[m2 + 2]
            slots.append(slot)
        self.x, self.p = x, p
        return p[m2][0]

    def direction(self):
        """The ascent direction and its slope ``g . q``: ``1e-2 g`` with no
        kept pair, and after dropping them all when ``g . q <= 0``."""
        buf, m2, p = self.buf, 2 * _MEMORY, self.p
        slots, sy, yy = self.slots, self.sy, self.yy
        if slots:
            k = len(slots)
            sg = [p[2 * j][0] for j in slots]
            yg = [p[2 * j + 1][0] for j in slots]
            alpha = [0.0] * k
            for i in reversed(range(k)):
                v, row = sg[i], sy[i]
                for j in range(i + 1, k):
                    v -= alpha[j] * row[j]
                alpha[i] = v / row[i]
            gamma = sy[-1][-1] / yy[-1][-1]
            # q = gamma (g - sum alpha_i y_i) + sum c_i s_i
            c = [0.0] * k
            for i in range(k):
                v, row = yg[i], yy[i]
                for j in range(k):
                    v -= alpha[j] * row[j]
                v *= gamma
                for j in range(i):
                    v += c[j] * sy[j][i]
                c[i] = alpha[i] - v / sy[i][i]
            slope = gamma * p[m2][0]
            coef = [0.0] * (m2 + 1)
            coef[m2] = gamma
            for i, j in enumerate(slots):
                coef[2 * j], coef[2 * j + 1] = c[i], -gamma * alpha[i]
                slope += c[i] * sg[i] - gamma * alpha[i] * yg[i]
            if slope > 0:
                return np.array(coef) @ buf[: m2 + 1], slope
            slots.clear()
            sy.clear()
            yy.clear()
        return 1e-2 * buf[m2], 1e-2 * p[m2][0]


def solve_mvu(
    adj: Adjacency,
    rank: int,
    seed: int = 0,
    steps_per_stage: int = 2000,
) -> MvuSolution:
    """Approximately solve the unfolding program in ``rank`` dimensions.

    Initializes from classical scaling of the hop matrix (shrunk to
    feasibility, plus a small seeded jitter to escape low-rank starts), then
    maximizes the penalized objective for each penalty level
    ``2 n / lambda_2 * s``, s in ``_PENALTY_SCHEDULE``, by L-BFGS with
    memory ``_MEMORY`` in compact form (``_Pairs``), the memory dropped at
    each stage start.  Each iteration backtracks from step 1 along the
    direction, halving up to 60 times, to the Armijo increase ``1e-4 t g.q``,
    so the ascent is monotone in the penalized objective at fixed penalty;
    ``steps_per_stage`` counts the accepted iterations of a stage.  A stage
    also ends at a vanishing gradient, a failed search or a relative gain
    below 1e-12.  Each trial point is evaluated once: the accepted one's
    edge lengths feed the next gradient and its trace row.  Requires a
    connected graph: otherwise the spread is unbounded.
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
    for stage, s in enumerate(_PENALTY_SCHEDULE):
        mu = mu_base * s
        fcur, _, diff, lengths, excess = _evaluate(x, a, b, mu)
        pairs = _Pairs(n * dim)
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
            if pairs.push(x, grad) < 1e-18:
                break
            q, slope = pairs.direction()
            q = q.reshape(n, dim)
            t = 1.0
            for _ in range(60):
                xn = x + t * q
                xn -= np.add.reduce(xn) / n  # xn.mean(axis=0) without its wrapper
                fn, spread, *edge_terms = _evaluate(xn, a, b, mu)
                if fn >= fcur + 1e-4 * t * slope:
                    break
                t *= 0.5
            else:
                break
            rel = (fn - fcur) / max(abs(fcur), 1e-300)
            x, fcur = xn, fn
            diff, lengths, excess = edge_terms
            trace.append((stage, it, spread, float(np.maximum.reduce(excess, initial=0.0)), fcur))
            if rel < 1e-12:
                break

    # snap to exact feasibility; any feasible point satisfies the hop bound.  Rounding
    # the coordinates leaves edges up to some ulps of |x| too long: shrink by
    # nextafter(1, 0) and its repeated squares (1 - u, 1 - 2u, 1 - 4u, ...) until none is
    ml = lengths.max()
    if ml > 1.0:
        x = x / ml
        x -= x.mean(axis=0)
        shrink = np.nextafter(1.0, 0.0)
        while (lengths := _pair_distances(x, a, b)[1]).max() > 1.0:
            x *= shrink
            shrink *= shrink
    violation = float(np.maximum(lengths - 1.0, 0.0).max(initial=0.0))
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
