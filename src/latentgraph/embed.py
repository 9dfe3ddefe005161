"""Embeddings: classical scaling, procrustes alignment with scaling, and
stress majorization (SMACOF) over partially observed dissimilarities.

The localization pipeline keeps hop estimates only up to a hop threshold and
lets SMACOF reconcile the remaining local distances, which removes the
global bias introduced by non-convex domains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigsh

from .hopdist import HopMatrix

__all__ = [
    "EmbeddingResult",
    "PartialDissimilarity",
    "ProcrustesResult",
    "classical_mds",
    "localize",
    "procrustes_align",
    "smacof",
]

# above this size the dense eigensolver loses to Lanczos on the top block
_DENSE_EIG_LIMIT = 1200
# rows per strip when classical scaling symmetrizes its matrix in place
_SYM_ROWS = 64
# SMACOF stops once an iteration lowers the stress by less than this fraction,
# or after this many iterations
_SMACOF_REL_TOL = 1e-6
_SMACOF_MAX_ITER = 500


@dataclass(frozen=True, eq=False)
class EmbeddingResult:
    coords: np.ndarray
    eigenvalues: np.ndarray | None = None
    stress: float | None = None
    iterations: int = 0
    stress_trace: tuple[float, ...] = ()


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    # deterministic sign convention: largest-magnitude entry positive
    idx = np.abs(vecs).argmax(axis=0)
    signs = np.sign(vecs[idx, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    return vecs * signs


def classical_mds(d: np.ndarray, v: int) -> EmbeddingResult:
    """Classical scaling of a finite symmetric dissimilarity matrix.

    Double-centers the squared dissimilarities, takes the top ``v``
    eigenpairs, and scales eigenvectors by the square roots of the
    eigenvalues clamped at zero (hop matrices are not exactly Euclidean).
    Raises when the leading spectrum has no positive part.

    The centered matrix is built in one n-by-n buffer: the squares are
    centered and symmetrized in place, a strip of rows at a time, so the
    function holds one n-by-n float64 beside its input (plus the copy and the
    eigenvectors ``eigh`` makes on its path).  The input is never written.
    """
    d = np.asarray(d, dtype=np.float64)
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValueError("dissimilarity matrix must be square")
    if not np.isfinite(d).all():
        raise ValueError("dissimilarities must be finite")
    if v < 1:
        raise ValueError("need v >= 1")
    b = d * d
    row = b.mean(axis=1, keepdims=True)
    col = b.mean(axis=0, keepdims=True)
    mean = b.mean()
    b -= row
    b -= col
    b += mean
    b *= -0.5
    for lo in range(0, n, _SYM_ROWS):
        hi = lo + _SYM_ROWS
        strip = 0.5 * (b[lo:hi, lo:] + b[lo:, lo:hi].T)
        b[lo:hi, lo:] = strip
        b[lo:, lo:hi] = strip.T
    if n <= _DENSE_EIG_LIMIT or v >= n - 1:
        w, u = eigh(b)
        order = np.argsort(w)[::-1][:v]
        lam, u = w[order], u[:, order]
    else:
        v0 = np.full(n, 1.0 / np.sqrt(n))  # fixed start vector: deterministic
        w, u = eigsh(b, k=v, which="LA", v0=v0)
        order = np.argsort(w)[::-1]
        lam, u = w[order], u[:, order]
    if np.all(lam <= 0):
        raise ValueError("no positive spectrum: dissimilarities carry no Euclidean part")
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
    """Dissimilarities with a presence mask; the diagonal is always present
    and zero, present entries are symmetric."""

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        mask = np.ascontiguousarray(self.mask, dtype=bool)
        n = vals.shape[0]
        if vals.shape != (n, n) or mask.shape != (n, n):
            raise ValueError("values and mask must be square and equal shaped")
        if not np.array_equal(mask, mask.T):
            raise ValueError("mask must be symmetric")
        if not mask.diagonal().all():
            raise ValueError("diagonal must be present")
        if np.any(vals.diagonal() != 0):
            raise ValueError("diagonal must be zero")
        sym = np.where(mask, vals, 0.0)
        if not np.array_equal(sym, sym.T):
            raise ValueError("present entries must be symmetric")
        if np.any(sym < 0):
            raise ValueError("dissimilarities must be non-negative")
        vals.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "mask", mask)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def localize(hops: HopMatrix, max_hops: int, r: float) -> PartialDissimilarity:
    """Keep scaled hop distances up to ``max_hops``; mark the rest missing."""
    if max_hops < 1:
        raise ValueError("need max_hops >= 1")
    if r <= 0:
        raise ValueError("scale must be positive")
    mask = hops.hops <= max_hops
    values = np.where(mask, r * hops.hops.astype(np.float64), 0.0)
    return PartialDissimilarity(values=values, mask=mask)


def _pair_distances(x: np.ndarray, pi: np.ndarray, pj: np.ndarray):
    """Differences ``x[pi] - x[pj]`` and their Euclidean lengths."""
    diff = x[pi] - x[pj]
    return diff, np.sqrt((diff * diff).sum(axis=1))


def smacof(partial: PartialDissimilarity, init: np.ndarray) -> EmbeddingResult:
    """Metric stress majorization with binary weights on present entries.

    Iterates the Guttman transform; with the exact solve used here the
    stress sequence is non-increasing.  Works on the present pairs ``i < j``
    only: each iterate's pair differences and distances are evaluated once
    and give both its stress and the next Guttman step, so an iteration
    costs O(present pairs) and forms no n-by-n array.  The step's right-hand
    side ``B(x) x`` is summed from the pair terms
    ``(delta_ij / dis_ij)(x_i - x_j)``, each at most ``delta_ij`` in size;
    the dense form (row sums of the ratios times ``x_i`` minus the ratios
    times ``x_j``) cancels catastrophically when two points nearly
    coincide.  Stops after ``_SMACOF_MAX_ITER`` steps or when the relative
    stress decrease falls below ``_SMACOF_REL_TOL``.
    """
    n = partial.n
    x = np.array(init, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != n:
        raise ValueError("init must be n-by-v")
    dim = x.shape[1]
    mask = partial.mask
    # present pairs i < j in row-major order, the terms of the stress sum
    pi, pj = np.nonzero(np.triu(mask, 1))
    graph = csr_matrix((np.ones(pi.size), (pi, pj)), shape=(n, n))
    if connected_components(graph, connection="weak", return_labels=False) != 1:
        raise ValueError("localization threshold too small: mask graph is disconnected")
    delta = partial.values[pi, pj]
    bins_i = (pi[:, None] * dim + np.arange(dim)).ravel()
    bins_j = (pj[:, None] * dim + np.arange(dim)).ravel()
    # Guttman step solves V x = B(x) x; V = Laplacian of the mask graph,
    # made definite by the rank-one centering term (solution stays centered
    # because B(x) x is orthogonal to the ones vector).  V + 1/n is built in
    # one buffer; it is symmetric, so its transpose is the same matrix in the
    # Fortran order that LAPACK factors in place.
    vmat = np.where(mask, 1.0 / n - 1.0, 1.0 / n)
    vmat.flat[:: n + 1] = (mask.sum(axis=1) - 1) + 1.0 / n
    factor = cho_factor(vmat.T, lower=True, overwrite_a=True)

    x = x - x.mean(axis=0)
    diff, dis = _pair_distances(x, pi, pj)
    trace = [float(((dis - delta) ** 2).sum())]
    iterations = 0
    for it in range(1, _SMACOF_MAX_ITER + 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dis > 0, delta / dis, 0.0)
        term = (ratio[:, None] * diff).ravel()
        bx = np.bincount(bins_i, term, n * dim) - np.bincount(bins_j, term, n * dim)
        x = cho_solve(factor, bx.reshape(n, dim))
        x = x - x.mean(axis=0)
        diff, dis = _pair_distances(x, pi, pj)
        s = float(((dis - delta) ** 2).sum())
        trace.append(s)
        iterations = it
        prev = trace[-2]
        if prev <= 0 or (prev - s) / prev < _SMACOF_REL_TOL:
            break
    return EmbeddingResult(
        coords=x,
        eigenvalues=None,
        stress=trace[-1],
        iterations=iterations,
        stress_trace=tuple(trace),
    )
