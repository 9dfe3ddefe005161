"""Embeddings: classical scaling, procrustes alignment with scaling, and
stress majorization (SMACOF) over partially observed dissimilarities.

The localization pipeline keeps hop estimates only up to a hop threshold and
lets SMACOF reconcile the remaining local distances, which removes the
global bias introduced by non-convex domains.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .geometry import _pair_distances, _readonly
from .hopdist import INF_HOPS, HopMatrix, _upper_rows

__all__ = [
    "EmbeddingResult",
    "PartialDissimilarity",
    "ProcrustesResult",
    "classical_mds",
    "localize",
    "procrustes_align",
    "smacof",
]

_NO_SPECTRUM = "no positive spectrum: dissimilarities carry no Euclidean part"
# the error cho_solve raises on a non-finite input; smacof scans its inputs itself
_NOT_FINITE = "array must not contain infs or NaNs"
# rows per block of classical scaling's operator: the block's float64
# squares stay in cache (128 rows and more fall out of it)
_MATVEC_ROWS = 16
# a product of classical scaling's operator runs on one thread below this
# many entries (n = 3548): below it, two threads took no less time than one
# (measured on 2 vCPUs from n = 724 to 3300)
_POOL_MIN_ENTRIES = 3 << 22
# the side of the square tiles the symmetry check compares
_SYMMETRY_TILE = 256
# SMACOF stops once an iteration lowers the stress by less than this fraction,
# or after this many iterations
_SMACOF_REL_TOL = 1e-6
_SMACOF_MAX_ITER = 500
# SMACOF steps x + _SMACOF_RELAX (G(x) - x); below 2, see smacof
_SMACOF_RELAX = 1.9
# SMACOF tries an extrapolated point (RRE) after every this many steps
_SMACOF_RRE_STEPS = 5


@dataclass(frozen=True, eq=False)
class EmbeddingResult:
    coords: np.ndarray
    eigenvalues: np.ndarray | None = None
    stress: float | None = None
    iterations: int = 0
    stress_trace: tuple[float, ...] = ()


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    # deterministic sign convention: largest-magnitude entry (nonzero in a unit column) positive
    idx = np.abs(vecs).argmax(axis=0)
    return vecs * np.sign(vecs[idx, np.arange(vecs.shape[1])])


def _is_symmetric(d: np.ndarray) -> bool:
    # square tiles on and above the diagonal, each against its mirror tile
    # transposed: both stay in cache, and there is no n-by-n temporary
    n, t = d.shape[0], _SYMMETRY_TILE
    return all(np.array_equal(d[lo:lo + t, co:co + t], d[co:co + t, lo:lo + t].T)
               for lo in range(0, n, t) for co in range(lo, n, t))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _centered_squares(d: np.ndarray, scale: float, pool: ThreadPoolExecutor | None,
                      workers: int) -> LinearOperator:
    """``-1/2 J (scale * d)∘(scale * d) J`` as an operator that reads ``d`` a
    block of ``_MATVEC_ROWS`` rows at a time and stores nothing n-by-n.

    A block is copied into a float64 buffer, scaled, squared and multiplied
    by the centered vector.  With a ``pool``, each product splits its blocks
    over ``workers`` threads: the caller is worker 0 and the pool runs the
    others; worker k takes blocks k, k + workers, ..., in a buffer of its
    own, and writes only those blocks' entries of the product.  The copy, the
    two passes and the gemv release the GIL.  Every row is computed by the
    same operations on the same block whichever thread runs it, so the
    product has the same bits for any worker count."""
    n = d.shape[0]
    bufs = [np.empty((min(_MATVEC_ROWS, n), n)) for _ in range(workers)]

    def blocks(k, z, out):
        buf = bufs[k]
        for lo in range(k * _MATVEC_ROWS, n, workers * _MATVEC_ROWS):
            hi = min(lo + _MATVEC_ROWS, n)
            b = buf[:hi - lo]
            np.copyto(b, d[lo:hi])  # exact, and faster than a casting multiply
            b *= scale
            np.square(b, out=b)
            np.dot(b, z, out=out[lo:hi])

    def matvec(y):
        y = np.ravel(y)
        z = y - y.mean()
        out = np.empty(n)
        others = [pool.submit(blocks, k, z, out) for k in range(1, workers)]
        blocks(0, z, out)
        for f in others:
            f.result()
        out *= -0.5
        out -= out.mean()
        return out

    return LinearOperator((n, n), matvec=matvec, dtype=np.float64)


def classical_mds(d: np.ndarray, v: int, scale: float = 1.0) -> EmbeddingResult:
    """Classical scaling of the finite symmetric dissimilarities ``scale * d``.

    Double-centers the squared dissimilarities, takes the top ``v``
    eigenpairs, and scales eigenvectors by the square roots of the
    eigenvalues clamped at zero (hop matrices are not exactly Euclidean).
    Raises when the leading spectrum has no positive part, and when ``d`` is
    not exactly symmetric.

    Matrix-free: Lanczos (``eigsh``) applies ``-1/2 J D∘D J``, with ``D =
    scale * d`` and ``J`` the centering, to one vector at a time
    (``_centered_squares``), and each product reads ``d`` a block of
    ``_MATVEC_ROWS`` rows at a time: the block is scaled and squared in a
    small float64 buffer and multiplied by the centered vector.  Nothing
    n-by-n is formed and the input is never written, so the uint16 hops with
    ``scale=r`` embed with no float64 copy, bitwise like the float64
    estimate ``r * hops`` (each entry is scaled, then squared, in the same
    order); the hop sentinel 0xFFFF is infinity and is rejected like any
    non-finite entry.  Lanczos starts from a fixed centered vector (a
    centered standard normal draw of ``default_rng(0)``), since the constant
    vector lies in the null space of ``J``, and draws its restarts from a
    fixed generator.  ``eigh`` runs on the dense matrix built from the
    operator only when ``v >= n - 1``, where ``eigsh`` cannot, or when
    ARPACK fails.

    The products are the cost, so the Krylov space is sized to converge at
    ARPACK's first restart check: ``ncv = min(n, max(2v + 1, 14))`` vectors
    and ``tol = 1e-12``, which bounds each Ritz residual by ``1e-12 |λ|``
    (Lehoucq, Sorensen & Yang, *ARPACK Users' Guide*, 1998).  For v = 2 a
    hop matrix takes 15 products, where the defaults (``ncv = 20``,
    ``tol`` at machine precision) take 21; the eigenvalues move by rounding
    only.  From ``_POOL_MIN_ENTRIES`` entries on, each product splits its
    row blocks over one thread per usable CPU, from a pool that lives for
    this call alone and ends with it, on every exit path.  Each row is
    computed the same way whichever thread runs it, so the result has the
    same bits for any worker count and either BLAS thread pool.
    """
    d = np.asarray(d)
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValueError("dissimilarity matrix must be square")
    if d.dtype == np.uint16:
        finite = d.max(initial=0) != INF_HOPS
    else:  # min and max propagate NaN; no n-by-n mask
        finite = np.isfinite(d.min(initial=0)) and np.isfinite(d.max(initial=0))
    if not finite:
        raise ValueError("dissimilarities must be finite")
    if not 0 < scale < np.inf:
        raise ValueError("scale must be positive and finite")
    if v < 1:
        raise ValueError("need v >= 1")
    if v > n:
        raise ValueError(f"need v <= n, got v={v} for n={n} points")
    if not _is_symmetric(d):
        raise ValueError("dissimilarities must be symmetric")
    if not d.any():  # ARPACK cannot start on the zero matrix
        raise ValueError(_NO_SPECTRUM)
    workers = _usable_cpus() if n * n >= _POOL_MIN_ENTRIES else 1
    # the pool's threads end with the call, whichever way it leaves
    with ThreadPoolExecutor(workers - 1) if workers > 1 else nullcontext() as pool:
        op = _centered_squares(d, scale, pool, workers)
        if v >= n - 1:
            w, u = eigh(op @ np.eye(n))
        else:
            # fixed centered start vector, and a fixed generator for the restarts
            # ARPACK draws when its Krylov space closes early: deterministic
            v0 = np.random.default_rng(0).standard_normal(n)
            v0 -= v0.mean()
            try:
                w, u = eigsh(op, k=v, which="LA", v0=v0, rng=0,
                             ncv=min(n, max(2 * v + 1, 14)), tol=1e-12)
            except ArpackError:
                w, u = eigh(op @ np.eye(n))
    order = np.argsort(w)[::-1][:v]
    lam, u = w[order], u[:, order]
    if np.all(lam <= 0):
        raise ValueError(_NO_SPECTRUM)
    coords = _fix_signs(u) * np.sqrt(np.clip(lam, 0.0, None))
    coords = coords - coords.mean(axis=0)
    return EmbeddingResult(coords=coords, eigenvalues=lam)


@dataclass(frozen=True, eq=False)
class ProcrustesResult:
    aligned: np.ndarray
    scale: float
    rotation: np.ndarray
    rmse: float


def procrustes_align(source: np.ndarray, target: np.ndarray) -> ProcrustesResult:
    """Best match of ``source`` onto ``target`` over scale, orthogonal maps
    (reflections allowed; the latent model is identifiable only up to
    isometry) and translation.  Returns the transformed source and the root
    mean squared residual.
    """
    src = np.asarray(source, dtype=np.float64)
    tgt = np.asarray(target, dtype=np.float64)
    if src.shape != tgt.shape:
        raise ValueError("source and target must have equal shapes")
    n, v = src.shape
    if n < v + 1:
        raise ValueError("need at least v+1 points")
    sc = src - src.mean(axis=0)
    tc = tgt - tgt.mean(axis=0)
    norm2 = (sc ** 2).sum()
    if norm2 == 0:
        raise ValueError("source has zero spread")
    u, sv, vt = np.linalg.svd(sc.T @ tc)
    rotation = u @ vt  # polar factor of the cross-covariance
    scale = sv.sum() / norm2
    aligned = scale * (sc @ rotation) + tgt.mean(axis=0)
    rmse = float(np.sqrt(((scale * (sc @ rotation) - tc) ** 2).sum() / n))
    return ProcrustesResult(aligned=aligned, scale=float(scale), rotation=rotation, rmse=rmse)


@dataclass(frozen=True, eq=False)
class PartialDissimilarity:
    """Dissimilarities of ``n`` objects observed on some pairs only.

    Holds the present pairs ``i < j`` in row-major order (strictly
    increasing ``i * n + j``) and their finite non-negative ``values``;
    every other pair is missing.  Symmetry and the zero diagonal hold by
    construction.
    """

    n: int
    i: np.ndarray
    j: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        n = self.n
        i, j, vals = _readonly(self.i, np.intp), _readonly(self.j, np.intp), _readonly(self.values)
        if not (i.ndim == 1 and i.shape == j.shape == vals.shape):
            raise ValueError("i, j and values must be vectors of equal length")
        if not ((0 <= i) & (i < j) & (j < n)).all():
            raise ValueError(f"every pair must satisfy 0 <= i < j < n={n}")
        if (np.diff(i * n + j) <= 0).any():
            raise ValueError("pairs must be distinct and in row-major order")
        if not np.isfinite(vals).all():
            raise ValueError("dissimilarities must be finite")
        if (vals < 0).any():
            raise ValueError("dissimilarities must be non-negative")
        for name, a in (("i", i), ("j", j), ("values", vals)):
            object.__setattr__(self, name, a)


def localize(hops: HopMatrix, max_hops: int, r: float) -> PartialDissimilarity:
    """Keep the scaled hop distances of the pairs at most ``max_hops`` apart;
    every other pair is missing."""
    if not 1 <= max_hops < np.inf:
        raise ValueError("need 1 <= max_hops < inf")
    if not 0 < r < np.inf:
        raise ValueError("scale must be positive and finite")
    # blocks of rows from the diagonal on (no n-by-n mask); n = 0 has none, hence the empty starts
    n = hops.n
    # below the sentinel 0xFFFF (no path), which a max_hops >= 0xFFFF would otherwise keep
    limit = min(max_hops, int(INF_HOPS) - 1)
    rows, cols = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for lo, hi, upper in _upper_rows(n):
        ii, jj = np.nonzero(upper & (hops.hops[lo:hi, lo:] <= limit))
        rows.append(ii + lo)
        cols.append(jj + lo)
    i, j = np.concatenate(rows), np.concatenate(cols)
    return PartialDissimilarity(n, i, j, r * hops.hops[i, j].astype(np.float64))


def _pair_ends(pj: np.ndarray, deg_i: np.ndarray, deg_j: np.ndarray) -> tuple[csr_matrix, csr_matrix]:
    """The n-by-P incidence matrices of the pairs' first and second ends,
    from each node's count of pairs as first (``deg_i``) and second end.

    Row v of the first lists v's pairs (v, w), row v of the second its pairs
    (u, v), each in pair order (the first ends are sorted), with int32
    indices and one shared array of ones: ``@`` sums each node's terms in
    pair order, bitwise ``bincount``."""
    n, p = deg_i.size, pj.size
    ones = np.ones(p)
    ends = []
    for deg, cols in ((deg_i, np.arange(p, dtype=np.int32)),
                      (deg_j, np.argsort(pj, kind="stable").astype(np.int32))):
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(deg, out=indptr[1:])
        ends.append(csr_matrix((ones, cols, indptr), shape=(n, p)))
    return tuple(ends)


def _extrapolate(history: list[np.ndarray]) -> np.ndarray | None:
    """The reduced-rank extrapolation (RRE) of the iterates ``x_0..x_k`` in
    ``history``, centered; None when the history is degenerate.

    With ``u_i = x_(i+1) - x_i`` the ``k`` differences, the weights ``gamma``
    minimize ``|sum gamma_i u_i|`` subject to ``sum gamma_i = 1``: ``gamma``
    is ``G^-1 1`` normalized to sum 1, ``G`` the k-by-k Gram matrix of the
    differences plus a ridge of ``1e-14 trace(G)``, and the point is
    ``sum gamma_i x_i`` over ``x_0..x_(k-1)`` (Sidi, *Vector Extrapolation
    Methods with Applications*, SIAM 2017).  A singular ``G`` (the iterates
    do not move), weights summing to 0 and an overflow give None."""
    xs = np.stack(history)
    u = np.diff(xs, axis=0).reshape(len(xs) - 1, -1)
    # a degenerate history shows as a non-finite point, not as a warning
    with np.errstate(all="ignore"):
        gram = u @ u.T
        gram.flat[:: len(gram) + 1] += 1e-14 * np.trace(gram)
        try:
            w = np.linalg.solve(gram, np.ones(len(gram)))
        except np.linalg.LinAlgError:
            return None
        y = np.tensordot(w / w.sum(), xs[:-1], axes=1)
        y -= y.mean(axis=0)
    return y if np.isfinite(y).all() else None


def smacof(partial: PartialDissimilarity, init: np.ndarray) -> EmbeddingResult:
    """Metric stress majorization with binary weights on the present pairs.

    Iterates the over-relaxed Guttman transform ``x + alpha (G(x) - x)``
    with ``alpha = _SMACOF_RELAX`` (1.9).  The stress majorizer at ``x`` is
    a quadratic whose minimum is the Guttman transform ``G(x)``, so every
    point of the segment from ``x`` to ``2 G(x) - x`` has a majorizer value,
    and hence a stress, no higher than ``x``'s (de Leeuw & Heiser, 1980):
    with the exact solve used here the stress sequence is non-increasing
    for any ``alpha`` in [0, 2].  Overshooting the minimum cuts the
    iterations by about two fifths; at ``alpha = 2`` the iterate reflects
    across the minimum and the stress barely falls, hence 1.9.

    After every ``_SMACOF_RRE_STEPS`` (5) steps, the one that meets the stop
    rule included, the last six iterates give a reduced-rank extrapolation
    of the fixed point (``_extrapolate``; Rosman, Bronstein, Bronstein, Sidi
    & Kimmel, 2008).  The safeguard evaluates its stress once and keeps it
    only when that is strictly below the current iterate's, so the stress
    trace stays non-increasing; either way the history restarts from the
    current point.  A kept point is one more trace row (the trace holds the
    start, each step and each kept point) but no iteration: ``iterations``
    counts the steps, and only steps use up ``_SMACOF_MAX_ITER``.  It takes
    about half the steps on ``hole-local``.  The trial frees the iterate's
    pair arrays before building its own and rebuilds them when it is
    rejected, so it adds no pair arrays to the peak.

    Works on the present pairs ``partial.i < partial.j`` only: each
    iterate's pair differences and distances are evaluated once and give
    both its stress and the next step, so an iteration costs O(present
    pairs); the one n-by-n array is ``V + 1/n``, built from the pairs and
    factored once (each right-hand side is scanned for finiteness on every
    step and raises the error ``cho_solve`` would).  The
    step's right-hand side ``B(x) x`` is summed from the pair terms
    ``(delta_ij / dis_ij)(x_i - x_j)``, each at most ``delta_ij`` in size;
    the dense form (row sums of the ratios times ``x_i`` minus the ratios
    times ``x_j``) cancels catastrophically when two points nearly coincide.

    The pair differences are pair-major ``(P, dim)`` rows
    (``_pair_distances``); the lengths sum their squares in coordinate
    order, bitwise the ``cdist`` entries.  The right-hand side is two
    products per coordinate with the n-by-P incidence matrices of the pair
    ends (CSR, built once per solve from the node counts that also give
    V's diagonal and the connectivity check's pair graph), which sum each
    node's terms in pair order, bitwise like ``bincount``.  Stops after ``_SMACOF_MAX_ITER``
    steps or when a step's relative stress decrease falls below
    ``_SMACOF_REL_TOL``.
    """
    n = partial.n
    x = np.array(init, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != n:
        raise ValueError("init must be n-by-v")
    if not np.isfinite(x).all():
        raise ValueError("init must be finite")
    dim = x.shape[1]
    pi, pj, delta = partial.i, partial.j, partial.values
    # each node's pairs as first and as second end: V's diagonal and the CSR
    # row offsets of the pair graph and of the pair ends
    deg_i, deg_j = np.bincount(pi, minlength=n), np.bincount(pj, minlength=n)
    # the first ends are sorted, so the pairs are the pair graph's CSR rows as
    # they stand; unnamed, so the graph is freed before the factor
    indptr = np.concatenate(([0], np.cumsum(deg_i)))
    parts = connected_components(csr_matrix((np.ones(pi.size), pj, indptr), shape=(n, n)),
                                 connection="weak", return_labels=False)
    if parts != 1:
        raise ValueError("localization threshold too small: present pairs are disconnected")
    # Guttman step solves V x = B(x) x; V = Laplacian of the present-pair
    # graph, made definite by the rank-one centering term (solution stays
    # centered because B(x) x is orthogonal to the ones vector).  V + 1/n is
    # built in one buffer; it is symmetric, so its transpose is the same
    # matrix in the Fortran order that LAPACK factors in place.
    vmat = np.full((n, n), 1.0 / n)
    vmat[pi, pj] = vmat[pj, pi] = 1.0 / n - 1.0
    vmat.flat[:: n + 1] = deg_i + deg_j + 1.0 / n
    # finite when returned: a non-positive or NaN pivot raises LinAlgError, a ValueError
    factor = cho_factor(vmat.T, lower=True, overwrite_a=True)

    def stress(dis):
        return float(((dis - delta) ** 2).sum())

    x = x - x.mean(axis=0)
    diff, dis = _pair_distances(x, pi, pj)
    trace = [stress(dis)]
    iterations = 0
    history = [x]  # the iterates since the last extrapolation trial
    ends_i, ends_j = _pair_ends(pj, deg_i, deg_j)
    bx = np.empty((dim, n))
    for it in range(1, _SMACOF_MAX_ITER + 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dis > 0, delta / dis, 0.0)
        for k in range(dim):
            term = ratio * diff[:, k]
            np.subtract(ends_i @ term, ends_j @ term, out=bx[k])
        # freed before the next iterate's pair arrays are built
        del diff, dis, ratio, term
        if not np.isfinite(bx).all():
            raise ValueError(_NOT_FINITE)
        x = x + _SMACOF_RELAX * (cho_solve(factor, bx.T, check_finite=False) - x)
        x = x - x.mean(axis=0)
        diff, dis = _pair_distances(x, pi, pj)
        s = stress(dis)
        trace.append(s)
        iterations = it
        prev = trace[-2]
        stop = prev <= 0 or (prev - s) / prev < _SMACOF_REL_TOL
        history.append(x)
        # a due trial runs before the stop rule ends the loop
        if len(history) > _SMACOF_RRE_STEPS:
            y, history = _extrapolate(history), [x]
            if y is not None:
                # x's pair arrays go before y's are built, and are rebuilt if y is
                # rejected: never more than one iterate's pair arrays at a time
                del diff, dis
                diff, dis = _pair_distances(y, pi, pj)
                s = stress(dis)
                if s < trace[-1]:
                    x, history = y, [y]
                    trace.append(s)
                else:
                    del diff, dis
                    diff, dis = _pair_distances(x, pi, pj)
        if stop:
            break
    return EmbeddingResult(
        coords=x,
        eigenvalues=None,
        stress=trace[-1],
        iterations=iterations,
        stress_trace=tuple(trace),
    )
