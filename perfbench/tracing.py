"""Spans around calls into latentgraph's public functions, kept in memory.

The tracer replaces module attributes with timing wrappers: each listed
function is wrapped under the name its callers bind (``presets``, ``mvu`` and
``linkgraph`` import functions by name, ``presets`` reaches ``fileio``
through the module), plus the unpacking methods of ``Adjacency``.  Nothing
inside the program changes.  ``uninstall`` puts the originals back.

A span records its layer name, the wrapped function, start and end (seconds
since the tracer was made), the index of its parent span and sizes read off
the arguments and result after the span has ended.  A tracer made with
``memory=True`` also records the tracemalloc peak of each heavy span: the
allocations made during the span, in MB.  Tracemalloc slows every Python
allocation (the breadth-first search by about half), so span times come
from a tracer without it and peaks from a second, memory-only round.
"""

from __future__ import annotations

import functools
import os
import time
import tracemalloc

import numpy as np

# (layer, owners of the attribute, attribute names, heavy); an owner is a
# latentgraph module name or "Adjacency"
TARGETS = [
    ("geometry.pairwise_distances", ("presets", "linkgraph"), ("pairwise_distances",), False),
    ("geometry.coverage_radius", ("presets",), ("coverage_radius",), False),
    ("linkgraph.generate_graph", ("presets",), ("generate_graph",), True),
    ("linkgraph.knn_graph", ("presets",), ("knn_graph",), False),
    ("linkgraph.symmetrize", ("presets",), ("symmetrize_union",), False),
    ("linkgraph.unpack", ("Adjacency",), ("dense", "edges", "degrees", "edge_count"), False),
    ("hopdist.all_pairs_hops", ("presets", "mvu"), ("all_pairs_hops",), True),
    ("hopdist.scale_hops", ("presets",), ("scale_hops",), False),
    ("hopdist.bound_checks", ("presets",),
     ("check_simple_bound", "check_general_bound", "check_knn_bounds", "check_boundary_bias"), True),
    ("embed.classical_mds", ("presets", "mvu"), ("classical_mds",), True),
    ("embed.procrustes_align", ("presets",), ("procrustes_align",), False),
    ("embed.localize", ("presets",), ("localize",), False),
    ("embed.smacof", ("presets",), ("smacof",), True),
    ("mvu.solve_mvu", ("mvu",), ("solve_mvu",), False),
    ("presets.run_preset", ("presets",), ("run_preset",), False),
]

# every per-layer metric with its unit, in the order BENCHMARK.json lists them
METRICS = [
    ("geometry.pairwise_distances.calls", "count"),
    ("geometry.pairwise_distances.s", "s"),
    ("geometry.coverage_radius.s", "s"),
    ("linkgraph.generate_graph.s", "s"),
    ("linkgraph.generate_graph.peak_alloc_mb", "MB"),
    ("linkgraph.edges", "count"),
    ("linkgraph.knn_graph.s", "s"),
    ("linkgraph.symmetrize.s", "s"),
    ("linkgraph.unpack.calls", "count"),
    ("linkgraph.unpack.s", "s"),
    ("hopdist.all_pairs_hops.calls", "count"),
    ("hopdist.all_pairs_hops.s", "s"),
    ("hopdist.all_pairs_hops.s.r0.05", "s"),
    ("hopdist.all_pairs_hops.s.r0.1", "s"),
    ("hopdist.all_pairs_hops.s.r0.2", "s"),
    ("hopdist.all_pairs_hops.peak_alloc_mb", "MB"),
    ("hopdist.bfs_levels", "count"),
    ("hopdist.bytes_gathered", "bytes"),
    ("hopdist.scale_hops.s", "s"),
    ("hopdist.bound_checks.s", "s"),
    ("hopdist.bound_checks.peak_alloc_mb", "MB"),
    ("embed.classical_mds.calls", "count"),
    ("embed.classical_mds.s", "s"),
    ("embed.classical_mds.peak_alloc_mb", "MB"),
    ("embed.procrustes_align.s", "s"),
    ("embed.localize.s", "s"),
    ("embed.smacof.s", "s"),
    ("embed.smacof.iterations", "count"),
    ("embed.smacof.s_per_iter", "s"),
    ("embed.smacof.peak_alloc_mb", "MB"),
    ("mvu.solve_mvu.s", "s"),
    ("mvu.solve_mvu.self_s", "s"),
    ("mvu.steps", "count"),
    ("mvu.s_per_step", "s"),
    ("fileio.write.s", "s"),
    ("fileio.write.bytes", "bytes"),
    ("fileio.read.s", "s"),
    ("fileio.read.bytes", "bytes"),
    ("fileio.edge_list.write_s", "s"),
    ("fileio.edge_list.read_s", "s"),
    ("presets.run_preset.s", "s"),
    ("presets.self_s", "s"),
    ("trace.overhead_s", "s"),
]

_INF_HOPS = 0xFFFF


def _edge_count(adj) -> int:
    # counted from the packed bits, so sizing a span makes no unpack call
    return int(np.bitwise_count(adj.packed).sum()) // 2


class Tracer:
    """Records spans of the wrapped calls between ``install`` and ``uninstall``."""

    def __init__(self, lg, memory: bool = False):
        self._lg = lg  # the latentgraph package
        self._memory = memory
        self._t0 = time.perf_counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._radius: dict[int, tuple[object, float]] = {}
        self.spans: list[dict] = []

    def install(self) -> None:
        lg = self._lg
        owners = {"presets": lg.presets, "linkgraph": lg.linkgraph, "mvu": lg.mvu,
                  "Adjacency": lg.Adjacency}
        for layer, owner_names, attrs, heavy in TARGETS:
            for owner_name in owner_names:
                for attr in attrs:
                    self._patch(owners[owner_name], attr, layer, heavy)
        for attr in lg.fileio.__all__:
            layer = "fileio.write" if attr.startswith("write_") else "fileio.read"
            self._patch(lg.fileio, attr, layer, False)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self._radius.clear()

    def _patch(self, owner, attr: str, layer: str, heavy: bool) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(layer, original, heavy))

    def _wrap(self, layer: str, fn, heavy: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": layer, "fn": fn.__name__,
                    "parent": tracer._stack[-1] if tracer._stack else None,
                    "sizes": {}, "peak_alloc_mb": None}
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            # nested heavy spans leave the measurement to the outer one
            measure = tracer._memory and heavy and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if measure:
                    span["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                tracer._stack.pop()
                span["start"], span["end"] = start - tracer._t0, end - tracer._t0
            tracer._size(span, args, kwargs, result)
            return result

        return wrapper

    def _size(self, span: dict, args, kwargs, result) -> None:
        sizes, fn = span["sizes"], span["fn"]
        if fn == "generate_graph":
            sizes["n"], sizes["edges"] = result.n, _edge_count(result)
            link = args[1] if len(args) > 1 else kwargs["link"]
            if hasattr(link, "r"):
                # keep the graph alive so its id is not reused within the round
                self._radius[id(result)] = (result, float(link.r))
        elif fn == "symmetrize_union":
            sizes["n"], sizes["edges"] = result.n, _edge_count(result)
        elif fn == "all_pairs_hops":
            adj = args[0] if args else kwargs["adj"]
            entry = self._radius.get(id(adj))
            if entry is not None and entry[0] is adj:
                sizes["r"] = entry[1]
            h = result.hops
            finite = h != _INF_HOPS
            sizes["n"] = result.n
            # the breadth-first search runs one level per hop of each row's
            # eccentricity and gathers one packed row per reached node
            sizes["bfs_levels"] = int(np.where(finite, h, 0).max(axis=1).sum())
            sizes["bytes_gathered"] = int(finite.sum()) * ((result.n + 63) // 64) * 8
        elif fn == "smacof":
            sizes["n"], sizes["iterations"] = result.coords.shape[0], result.iterations
        elif fn == "solve_mvu":
            sizes["n"], sizes["steps"] = result.coords.shape[0], len(result.trace)
        elif fn == "classical_mds":
            sizes["n"] = args[0].shape[0]
        elif fn == "localize":
            sizes["n"] = args[0].n
        elif span["name"].startswith("fileio."):
            path = args[0] if args else kwargs["path"]
            sizes["bytes"] = os.path.getsize(path)
            sizes["file"] = os.path.basename(path)


def _outermost(spans: list[dict], name: str) -> list[int]:
    """Indices of the spans of ``name`` with no ancestor of the same name."""
    out = []
    for k, s in enumerate(spans):
        if s["name"] != name:
            continue
        p = s["parent"]
        while p is not None and spans[p]["name"] != name:
            p = spans[p]["parent"]
        if p is None:
            out.append(k)
    return out


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def _self_time(spans: list[dict], name: str) -> float:
    """Time in the outermost spans of ``name`` not covered by their children."""
    children = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += _dur(s)
    return sum(_dur(spans[k]) - children[k] for k in _outermost(spans, name))


def summarize(spans: list[dict], memory_spans: list[dict], overhead_s: float) -> dict[str, float]:
    """Every metric of ``METRICS`` from the spans of a timing round and of a
    memory round; layers the workload never calls read 0."""
    m: dict[str, float] = {}

    def outer(name):
        return [spans[k] for k in _outermost(spans, name)]

    def seconds(name):
        return sum(_dur(s) for s in outer(name))

    def peak(name):
        return max((memory_spans[k]["peak_alloc_mb"] or 0.0
                    for k in _outermost(memory_spans, name)), default=0.0)

    def size_sum(name, key):
        return sum(s["sizes"].get(key, 0) for s in outer(name))

    m["geometry.pairwise_distances.calls"] = len(outer("geometry.pairwise_distances"))
    m["geometry.pairwise_distances.s"] = seconds("geometry.pairwise_distances")
    m["geometry.coverage_radius.s"] = seconds("geometry.coverage_radius")
    m["linkgraph.generate_graph.s"] = seconds("linkgraph.generate_graph")
    m["linkgraph.generate_graph.peak_alloc_mb"] = peak("linkgraph.generate_graph")
    m["linkgraph.edges"] = (size_sum("linkgraph.generate_graph", "edges")
                            + size_sum("linkgraph.symmetrize", "edges"))
    m["linkgraph.knn_graph.s"] = seconds("linkgraph.knn_graph")
    m["linkgraph.symmetrize.s"] = seconds("linkgraph.symmetrize")
    m["linkgraph.unpack.calls"] = len(outer("linkgraph.unpack"))
    m["linkgraph.unpack.s"] = seconds("linkgraph.unpack")
    hops = outer("hopdist.all_pairs_hops")
    m["hopdist.all_pairs_hops.calls"] = len(hops)
    m["hopdist.all_pairs_hops.s"] = seconds("hopdist.all_pairs_hops")
    for r in (0.05, 0.1, 0.2):
        m[f"hopdist.all_pairs_hops.s.r{r:g}"] = sum(
            _dur(s) for s in hops if s["sizes"].get("r") == r)
    m["hopdist.all_pairs_hops.peak_alloc_mb"] = peak("hopdist.all_pairs_hops")
    m["hopdist.bfs_levels"] = size_sum("hopdist.all_pairs_hops", "bfs_levels")
    m["hopdist.bytes_gathered"] = size_sum("hopdist.all_pairs_hops", "bytes_gathered")
    m["hopdist.scale_hops.s"] = seconds("hopdist.scale_hops")
    m["hopdist.bound_checks.s"] = seconds("hopdist.bound_checks")
    m["hopdist.bound_checks.peak_alloc_mb"] = peak("hopdist.bound_checks")
    m["embed.classical_mds.calls"] = len(outer("embed.classical_mds"))
    m["embed.classical_mds.s"] = seconds("embed.classical_mds")
    m["embed.classical_mds.peak_alloc_mb"] = peak("embed.classical_mds")
    m["embed.procrustes_align.s"] = seconds("embed.procrustes_align")
    m["embed.localize.s"] = seconds("embed.localize")
    smacof_s = seconds("embed.smacof")
    iterations = size_sum("embed.smacof", "iterations")
    m["embed.smacof.s"] = smacof_s
    m["embed.smacof.iterations"] = iterations
    m["embed.smacof.s_per_iter"] = smacof_s / iterations if iterations else 0.0
    m["embed.smacof.peak_alloc_mb"] = peak("embed.smacof")
    mvu_s = seconds("mvu.solve_mvu")
    steps = size_sum("mvu.solve_mvu", "steps")
    m["mvu.solve_mvu.s"] = mvu_s
    m["mvu.solve_mvu.self_s"] = _self_time(spans, "mvu.solve_mvu")
    m["mvu.steps"] = steps
    m["mvu.s_per_step"] = mvu_s / steps if steps else 0.0
    for kind in ("write", "read"):
        name = f"fileio.{kind}"
        m[f"{name}.s"] = seconds(name)
        m[f"{name}.bytes"] = size_sum(name, "bytes")
        m[f"fileio.edge_list.{kind}_s"] = sum(
            _dur(s) for s in outer(name) if s["fn"] == f"{kind}_edge_list")
    m["presets.run_preset.s"] = seconds("presets.run_preset")
    m["presets.self_s"] = _self_time(spans, "presets.run_preset")
    m["trace.overhead_s"] = overhead_s
    return m
