"""Checks of workload outputs against computations made apart from latentgraph.

The files are parsed here with numpy alone, the reference values come from
scipy (``cKDTree``, ``csgraph.shortest_path``, ``pdist``,
``orthogonal_procrustes``) or from properties the method must have.  Each
check returns ``{operation: [problems]}``; an empty list means the operation
passed.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np
from scipy.linalg import orthogonal_procrustes
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, shortest_path
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist, squareform

INF_HOPS = 0xFFFF
TOL = 1e-9
SAMPLED_SOURCES = 16


class CheckError(Exception):
    """An output file that cannot be parsed."""


# ---------------------------------------------------------------- readers


def read_manifest(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_points(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        if not fh.readline().startswith("x0"):
            raise CheckError(f"{path.name}: no x0,... header")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def read_edges(path: Path) -> tuple[int, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        head = fh.readline()
        if not head.startswith("n="):
            raise CheckError(f"{path.name}: no n= header")
        edges = np.loadtxt(fh, dtype=np.int64, ndmin=2).reshape(-1, 2)
    return int(head[2:]), edges


def _read_square(path: Path, magic: bytes, dtype: str) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != magic:
        raise CheckError(f"{path.name}: bad magic")
    n = struct.unpack("<Q", raw[4:12])[0]
    values = np.frombuffer(raw, dtype=dtype, offset=12)
    if values.size != n * n:
        raise CheckError(f"{path.name}: payload holds {values.size} values, expected {n * n}")
    return values.reshape(n, n)


def read_hops(path: Path) -> np.ndarray:
    return _read_square(path, b"LGH1", "<u2")


def read_dense(path: Path) -> np.ndarray:
    return _read_square(path, b"LGD1", "<f8")


# ---------------------------------------------------------------- references


def graph(n: int, edges: np.ndarray):
    return coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n)).tocsr()


def csgraph_hops(n: int, edges: np.ndarray, sources=None) -> np.ndarray:
    return shortest_path(graph(n, edges), directed=False, unweighted=True, indices=sources)


def largest_component(n: int, edges: np.ndarray) -> np.ndarray:
    """Nodes of the largest component; a tie goes to the one holding the
    smallest node index, as the presets break it."""
    _, labels = connected_components(graph(n, edges), directed=False)
    sizes = np.bincount(labels)
    biggest = np.flatnonzero(sizes == sizes.max())
    first = [np.flatnonzero(labels == c)[0] for c in biggest]
    return np.flatnonzero(labels == biggest[int(np.argmin(first))])


def procrustes_rmse(source: np.ndarray, target: np.ndarray) -> float:
    """Root mean squared residual of the best scaled orthogonal fit."""
    sc = source - source.mean(axis=0)
    tc = target - target.mean(axis=0)
    rotation, singular_sum = orthogonal_procrustes(sc, tc)
    scale = singular_sum / (sc ** 2).sum()
    return float(np.sqrt(((scale * (sc @ rotation) - tc) ** 2).sum() / len(sc)))


def sample_sources(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([int(seed), n])
    return np.sort(rng.choice(n, size=min(SAMPLED_SOURCES, n), replace=False))


def _pair_set(edges: np.ndarray) -> np.ndarray:
    e = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1)
    return np.unique(e, axis=0)


def _close(a: float, b: float, rtol: float = 1e-9) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-12


# ---------------------------------------------------------------- per preset


def check_indicator_tag(out: Path, man: dict, tag: str, truth: np.ndarray,
                        d: np.ndarray, seed: int) -> list[str]:
    """One indicator radius of a preset: edges, hops, estimate, bound counts
    and the aligned embedding error.  ``d`` is ``pdist(truth)``."""
    problems = []
    r = man[f"{tag}.r"]
    n = truth.shape[0]
    en, edges = read_edges(out / man[f"{tag}.adjacency_file"])
    expect = cKDTree(truth).query_pairs(r, output_type="ndarray")
    if en != n or not np.array_equal(_pair_set(edges), _pair_set(expect)):
        problems.append(f"{tag}: edge list differs from the pairs within r={r}")
    if man[f"{tag}.edge_count"] != len(expect):
        problems.append(f"{tag}: manifest edge_count {man[f'{tag}.edge_count']} != {len(expect)}")

    hops = read_hops(out / man[f"{tag}.hops_file"])
    sources = sample_sources(n, seed)
    ref = csgraph_hops(n, _pair_set(expect), sources)
    rows = hops[sources].astype(np.float64)
    rows[hops[sources] == INF_HOPS] = np.inf
    if hops.shape != (n, n) or not np.array_equal(rows, ref):
        problems.append(f"{tag}: hop rows differ from csgraph breadth-first search")

    est = read_dense(out / man[f"{tag}.estimate_file"])
    if not np.array_equal(est, np.where(hops == INF_HOPS, -1.0, r * hops.astype(np.float64))):
        problems.append(f"{tag}: estimate file is not r*hops with -1 for disconnected pairs")

    e = est[np.triu_indices(n, 1)]
    connected = e >= 0
    resid = e[connected] - d[connected]
    lower = int((resid < -TOL).sum())
    if lower:
        problems.append(f"{tag}: {lower} connected pairs have r*hops < d")
    upper = int((resid > 4.0 * (man[f"{tag}.eps_upper"] / r) * d[connected] + r + TOL).sum())
    for key, value in (("lower_violations", lower), ("upper_violations", upper),
                       ("pairs_connected", int(connected.sum()))):
        if man[f"{tag}.bound.{key}"] != value:
            problems.append(f"{tag}: manifest {key} {man[f'{tag}.bound.{key}']} != {value}")

    keep = largest_component(n, expect)
    if man[f"{tag}.n_embedded"] != keep.size:
        problems.append(f"{tag}: manifest n_embedded {man[f'{tag}.n_embedded']} != {keep.size}")
    elif f"{tag}.recovered.points_file" in man:
        rec = read_points(out / man[f"{tag}.recovered.points_file"])
        rmse = procrustes_rmse(rec, truth[keep]) if rec.shape == (keep.size, 2) else np.nan
        if not _close(rmse, man[f"{tag}.rmse_aligned"]):
            problems.append(f"{tag}: rmse_aligned {man[f'{tag}.rmse_aligned']} != "
                            f"recomputed {rmse}")
    return problems


def _indicator_tags(man: dict) -> list[str]:
    return sorted((k[: -len(".hops_file")] for k in man if k.endswith(".hops_file")),
                  key=lambda t: man[f"{t}.r"])


def check_rectangles(out: Path) -> dict[str, list[str]]:
    man = read_manifest(out / "manifest.json")
    truth = read_points(out / man["truth.points_file"])
    d = pdist(truth)
    return {tag: check_indicator_tag(out, man, tag, truth, d, man["seed"])
            for tag in _indicator_tags(man)}


def check_knn_band(out: Path) -> dict[str, list[str]]:
    problems = []
    man = read_manifest(out / "manifest.json")
    truth = read_points(out / man["truth.points_file"])
    n, kappa, r = truth.shape[0], man["kappa"], man["knn.r"]

    en, edges = read_edges(out / man["knn.adjacency_file"])
    _, nearest = cKDTree(truth).query(truth, k=kappa + 1)
    rows = np.arange(n)[:, None]
    # drop each point itself; distinct sample points leave kappa others per row
    others = nearest[nearest != rows].reshape(n, kappa)
    expect = _pair_set(np.column_stack([np.repeat(np.arange(n), kappa), others.ravel()]))
    if en != n or not np.array_equal(_pair_set(edges), expect):
        problems.append("edge list differs from the union of kappa nearest neighbours")

    iu = np.triu_indices(n, 1)
    est = (r * csgraph_hops(n, expect))[iu]
    d = pdist(truth)
    threshold = min(2.0, 0.5 * float(d.max()))
    far = d >= threshold
    ratio, pairs = float((est[far] / d[far]).max()), int(far.sum())
    if man["knn.bias.threshold"] != threshold or man["knn.bias.pairs"] != pairs:
        problems.append(f"bias pairs {man['knn.bias.pairs']} != {pairs} at d >= {threshold}")
    if not _close(man["knn.bias.max_ratio"], ratio, 1e-12):
        problems.append(f"bias ratio {man['knn.bias.max_ratio']} != recomputed {ratio}")

    x, y = truth[:, 0], truth[:, 1]
    depth = np.minimum(np.minimum(x, 4.0 - x), np.minimum(y, 1.0 - y))  # the [0,4]x[0,1] strip
    deep = (d >= 2 * r) & (depth[iu[0]] > d / 2) & (depth[iu[1]] > d / 2)
    lower = int((deep & (est < d - TOL)).sum())
    if man["knn.bound.lower_checked_pairs"] != int(deep.sum()):
        problems.append(f"deep pairs {man['knn.bound.lower_checked_pairs']} != {int(deep.sum())}")
    if man["knn.bound.lower_violations"] != lower:
        problems.append(f"deep-pair lower violations {man['knn.bound.lower_violations']} != {lower}")
    return {"preset": problems}


def check_hole_local(out: Path) -> dict[str, list[str]]:
    man = read_manifest(out / "manifest.json")
    truth = read_points(out / man["truth.points_file"])
    problems = check_indicator_tag(out, man, "r0.2", truth, pdist(truth), man["seed"])

    trace = np.loadtxt(out / man["local.stress_file"], delimiter=",", skiprows=1, ndmin=2)[:, 1]
    # majorization never raises the stress; 1e-12 relative absorbs rounding
    rises = np.flatnonzero(trace[1:] > trace[:-1] * (1 + 1e-12))
    if rises.size:
        problems.append(f"stress rises at iterations {(rises + 1).tolist()[:5]}")
    if trace[-1] != man["local.stress_final"]:
        problems.append("last stress trace value differs from local.stress_final")

    n = truth.shape[0]
    _, edges = read_edges(out / man["r0.2.adjacency_file"])
    keep = largest_component(n, edges)
    hops = csgraph_hops(n, edges, keep)[:, keep]
    x = read_points(out / man["local.recovered.points_file"])
    if x.shape != (keep.size, 2):
        problems.append(f"recovered points have shape {x.shape}, expected ({keep.size}, 2)")
        return {"preset": problems}
    iu = np.triu_indices(keep.size, 1)
    h = hops[iu]
    local = h <= man["local.max_hops"]
    stress = float(((pdist(x)[local] - man["r0.2.r"] * h[local]) ** 2).sum())
    if not _close(stress, man["local.stress_final"]):
        problems.append(f"stress_final {man['local.stress_final']} != recomputed {stress}")
    return {"preset": problems}


def check_unfold(out: Path, inputs: Path, names: list[str]) -> dict[str, list[str]]:
    result = {}
    for name in names:
        problems = []
        x = np.load(out / f"{name}_coords.npy")
        edges = np.load(inputs / f"{name}_edges.npy")
        sol = json.loads((out / f"{name}_solution.json").read_text(encoding="utf-8"))
        lengths = np.linalg.norm(x[edges[:, 0]] - x[edges[:, 1]], axis=1)
        if lengths.max() > 1 + TOL:
            problems.append(f"{name}: edge length {lengths.max()!r} exceeds 1")
        hops = csgraph_hops(len(x), edges)
        gamma = squareform(pdist(x))
        if np.any(gamma - hops > TOL * np.maximum(hops, 1.0)):
            problems.append(f"{name}: unfolded distance exceeds the hop distance")
        spread = float((pdist(x) ** 2).sum())
        if not _close(spread, sol["objective"]):
            problems.append(f"{name}: objective {sol['objective']} != pdist spread {spread}")
        result[name] = problems
    return result
