"""Latent point configurations: domains, sampling, adversarial twin
configurations, coverage radii and exact pairwise distances.

All coordinates are plain float64 arrays in latent-space units.  Domains are
small immutable value objects that know how to sample uniformly, test
membership (within ``MEMBERSHIP_TOL``) and measure distance to their own
boundary.  Distances follow ``cdist``'s formula: squared coordinate
differences summed in coordinate order, then the square root, so the
distances of selected pairs (``_pair_distances``) equal the entries of
``pairwise_distances`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, NamedTuple, Union

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree
from scipy.spatial.distance import pdist, squareform

__all__ = [
    "Box",
    "CoverageBracket",
    "Domain",
    "PointConfig",
    "RectangleWithHole",
    "boundary_distances",
    "coverage_radius",
    "interval",
    "minimax_pair",
    "pairwise_distances",
    "rectangle",
    "sample_uniform",
]

MEMBERSHIP_TOL = 1e-12


def _readonly(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    """The one freezing helper: a read-only view in ``dtype``, and the caller's
    array stays writeable.  A conversion that changes a value (-1 or 2.7 or
    NaN to an integer type) raises ``ValueError``."""
    given = np.asarray(a)
    with np.errstate(invalid="ignore"):  # NaN or inf to an integer type; rejected below
        a = np.ascontiguousarray(given, dtype=dtype).view()
    if a.dtype != given.dtype and not np.array_equal(a, given, equal_nan=True):
        raise ValueError(f"converting {given.dtype} to {a.dtype} would change values")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box ``[lo_1, hi_1] x ... x [lo_v, hi_v]``."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _readonly(np.atleast_1d(self.lo))
        hi = _readonly(np.atleast_1d(self.hi))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box corners must be 1-d arrays of equal length")
        if not np.all(hi > lo):
            raise ValueError("box sides must be strictly positive")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    def bounding_box(self) -> "Box":
        return self

    def contains(self, points: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(points)
        return np.all((p >= self.lo - MEMBERSHIP_TOL) & (p <= self.hi + MEMBERSHIP_TOL), axis=1)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.lo + rng.random((n, self.dim)) * (self.hi - self.lo)

    def boundary_distance(self, points: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(points)
        return np.minimum((p - self.lo).min(axis=1), (self.hi - p).min(axis=1))


def rectangle(a: float, b: float) -> Box:
    """Planar rectangle ``[0, a] x [0, b]``."""
    return Box(np.array([0.0, 0.0]), np.array([float(a), float(b)]))


def interval(length: float) -> Box:
    """One-dimensional segment ``[0, length]``."""
    return Box(np.array([0.0]), np.array([float(length)]))


def _distance_to_box(points: np.ndarray, box: Box) -> np.ndarray:
    # distance from points *outside* the box to the box; 0 on/inside it
    gap = np.maximum(box.lo - points, 0.0) + np.maximum(points - box.hi, 0.0)
    return np.linalg.norm(gap, axis=1)


@dataclass(frozen=True, eq=False)
class RectangleWithHole:
    """Outer box with an open rectangular hole removed from its interior."""

    outer: Box
    hole: Box

    def __post_init__(self):
        if self.outer.dim != self.hole.dim:
            raise ValueError("outer and hole must share dimension")
        if not (np.all(self.hole.lo > self.outer.lo) and np.all(self.hole.hi < self.outer.hi)):
            raise ValueError("hole must lie strictly inside the outer rectangle")

    @property
    def dim(self) -> int:
        return self.outer.dim

    @property
    def volume(self) -> float:
        return self.outer.volume - self.hole.volume

    def bounding_box(self) -> Box:
        return self.outer

    def contains(self, points: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(points)
        in_hole = np.all((p > self.hole.lo + MEMBERSHIP_TOL) & (p < self.hole.hi - MEMBERSHIP_TOL),
                         axis=1)
        return self.outer.contains(p) & ~in_hole

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # rejection keeps the conditional law exactly uniform on the domain
        out = np.empty((0, self.dim))
        while out.shape[0] < n:
            cand = self.outer.sample(rng, max(n, 64))
            keep = ~np.all((cand > self.hole.lo) & (cand < self.hole.hi), axis=1)
            out = np.vstack([out, cand[keep]])
        return out[:n]

    def boundary_distance(self, points: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(points)
        return np.minimum(self.outer.boundary_distance(p), _distance_to_box(p, self.hole))


Domain = Union[Box, RectangleWithHole]


@dataclass(frozen=True, eq=False)
class PointConfig:
    """An ordered set of latent positions together with their domain.

    Invariants: at least 3 points, every point inside the domain within
    ``1e-12``.  Instances are immutable; the coordinate array is read-only.
    """

    points: np.ndarray
    domain: Domain

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2:
            raise ValueError("points must be an n-by-v matrix")
        if pts.shape[0] < 3:
            raise ValueError("need at least 3 points")
        if pts.shape[1] != self.domain.dim:
            raise ValueError("point dimension does not match domain dimension")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        inside = self.domain.contains(pts)
        if not inside.all():
            k = int(np.flatnonzero(~inside)[0])
            raise ValueError(f"point {k} lies outside the domain: {pts[k]}")
        object.__setattr__(self, "points", _readonly(pts))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def sample_uniform(domain: Domain, n: int, seed: int) -> PointConfig:
    """Draw ``n`` iid uniform points on ``domain``; deterministic per seed."""
    if n < 3:
        raise ValueError("need n >= 3")
    if domain.volume <= 0:
        raise ValueError("degenerate domain with zero volume")
    rng = np.random.default_rng(seed)
    return PointConfig(domain.sample(rng, n), domain)


def pairwise_distances(config: PointConfig | np.ndarray) -> np.ndarray:
    """Exact Euclidean distance matrix (symmetric, zero diagonal)."""
    pts = config.points if isinstance(config, PointConfig) else np.atleast_2d(config)
    return squareform(pdist(pts))


def _pair_distances(x: np.ndarray, pi: np.ndarray, pj: np.ndarray):
    """Pair differences and their Euclidean lengths.

    ``x`` is the configuration, ``n`` by ``dim``; ``pi`` and ``pj``
    broadcast against each other, and ``pi`` must have the broadcast shape.
    Returns ``diff[..., k] = x[pi, k] - x[pj, k]`` and the lengths, whose
    squares are summed in coordinate order before the square root:
    ``cdist``'s formula, so each length is bitwise its ``pairwise_distances``
    entry at any ``dim``.  The gathers take whole rows of ``x``, in any
    layout, into pair-major ``diff``.
    """
    diff = x.take(pi, axis=0)
    diff -= x.take(pj, axis=0)
    lengths = diff[..., 0] * diff[..., 0]
    for k in range(1, diff.shape[-1]):
        lengths += diff[..., k] * diff[..., k]
    return diff, np.sqrt(lengths, out=lengths)


def boundary_distances(config: PointConfig) -> np.ndarray:
    """Distance from each point to the boundary of its domain."""
    return config.domain.boundary_distance(config.points)


class CoverageBracket(NamedTuple):
    lower: float
    upper: float


def _hull_membership(points: np.ndarray, grid: np.ndarray) -> np.ndarray:
    if points.shape[1] == 1:
        return (grid[:, 0] >= points.min()) & (grid[:, 0] <= points.max())
    try:
        hull = ConvexHull(points)
    except QhullError as exc:
        raise ValueError("convex hull of the configuration is degenerate") from exc
    # each grid point's largest facet offset, a facet at a time: no grid-by-facet arrays
    worst = np.full(grid.shape[0], -np.inf)
    for eq in hull.equations:
        np.maximum(worst, grid @ eq[:-1] + eq[-1], out=worst)
    return worst <= 1e-12


def coverage_radius(
    config: PointConfig,
    region: Literal["domain", "convex_hull"] = "domain",
    grid_step: float = 0.01,
) -> CoverageBracket:
    """Certified bracket for the largest distance from the region to the
    nearest sample point.

    The lower end is the exact maximum over a grid of pitch ``grid_step``
    restricted to the region; the upper end adds the worst distance from any
    region point to the grid, ``grid_step * sqrt(v) / 2``.
    """
    if not 0 < grid_step < np.inf:
        raise ValueError("grid_step must be positive and finite")
    pts = config.points
    v = config.dim
    if region == "domain":
        bb = config.domain.bounding_box()
        lo, hi = bb.lo, bb.hi
        member = lambda g: config.domain.contains(g)  # noqa: E731
    elif region == "convex_hull":
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        member = lambda g: _hull_membership(pts, g)  # noqa: E731
    else:
        raise ValueError("region must be 'domain' or 'convex_hull'")
    axes = [
        np.linspace(lo[k], hi[k], int(np.ceil((hi[k] - lo[k]) / grid_step)) + 1)
        for k in range(v)
    ]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, v)
    grid = grid[member(grid)]
    if grid.shape[0] == 0:
        raise ValueError("region is empty at this grid step")
    nearest, _ = cKDTree(pts).query(grid)
    lower = float(nearest.max())
    return CoverageBracket(lower, lower + grid_step * math.sqrt(v) / 2.0)


def minimax_pair(n: int, r: float) -> tuple[PointConfig, PointConfig]:
    """Two one-dimensional twin configurations on [0, 1] used as an
    indistinguishability fixture.

    Configuration 1 is the uniform grid ``x_i = (i-1)/(n-1)``.  Configuration
    2 warps it by ``x_i = (i-1)(1 - eta (i-1)) / ((n-1)(1 - eta (n-1)))`` with
    ``eta = 1/(2n + m(n-m))`` and ``m = r (n-1)``, which must be a positive
    integer.  Both share the endpoints 0 and 1; configuration 2 has strictly
    decreasing spacings.
    """
    if n < 5:
        raise ValueError("need n >= 5")
    if not (0 < r <= 0.5):
        raise ValueError("need 0 < r <= 1/2")
    m_real = r * (n - 1)
    m = int(round(m_real))
    if m < 1 or abs(m_real - m) > 1e-9:
        raise ValueError(f"r*(n-1) = {m_real} is not a positive integer")
    eta = minimax_eta(n, r)
    i = np.arange(n, dtype=np.float64)
    x1 = i / (n - 1)
    x2 = i * (1.0 - eta * i) / ((n - 1) * (1.0 - eta * (n - 1)))
    dom = interval(1.0)
    return PointConfig(x1[:, None], dom), PointConfig(x2[:, None], dom)


def minimax_eta(n: int, r: float) -> float:
    """The warp parameter used by :func:`minimax_pair`."""
    m = int(round(r * (n - 1)))
    return 1.0 / (2 * n + m * (n - m))
