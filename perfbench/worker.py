"""One benchmark workload in a fresh process; ``run.py`` starts it.

The worker imports latentgraph from the ``src`` directory beside this one,
builds the workload's inputs and notes when they are ready.  With
``--probe`` it stops there.  Otherwise it runs a small instance of the
workload once, untimed: the first calls in a process pay for lazy set-up
(with numpy's default two-thread BLAS pool a first hole-local preset takes
about a third longer than the next), which would otherwise land in the first
timed round.  Then it runs rounds of the workload's operations into
``<out>/round<k>``: at least two, so that every run reruns the same inputs,
and more while the measured time is below ``--seconds``.  Each later round
must write byte-identical files to round 1; its directory is hashed and
removed, and round 1 stays for the checks.  With ``--trace 1``
the run makes exactly three rounds: untraced, traced for span times, and
traced for allocation peaks.  The second minus the first is the tracing
overhead.

The result goes to ``<out>/<result name>.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np
from scipy.sparse.csgraph import connected_components

from tracing import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent

# reduced sizes; the README gives the reasons
PRESET_N = {"rectangles": 2500, "knn-band": 4000, "hole-local": 1200}
WARMUP_N = 300
# a quarter of solve_mvu's default budget per penalty stage: nearly every
# stage then runs to its budget, so a graph takes about 2000 ascent steps and
# the time does not hinge on where one graph's ascent happens to converge
UNFOLD_STEPS_PER_STAGE = 500


def _import_latentgraph():
    sys.path.insert(0, str(ROOT / "src"))
    import latentgraph

    origin = Path(latentgraph.__file__).resolve()
    if not origin.is_relative_to(ROOT / "src"):
        raise ImportError(f"latentgraph was imported from {origin}, not from {ROOT / 'src'}")
    return latentgraph


def blas_threads():
    """Thread count of numpy's OpenBLAS, or None when it cannot be asked."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "libscipy_openblas*.so"))):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            return int(fn())
    return None


class PresetWorkload:
    """One preset at a pinned ``n``; ``read_back`` loads every artifact the
    preset wrote back through the ``fileio`` readers."""

    def __init__(self, lg, name: str, seed: int, n: int, read_back: bool):
        self.lg, self.name, self.seed, self.n, self.read_back = lg, name, seed, n, read_back
        self.ops = ["r0.05", "r0.1", "r0.2"] if name == "rectangles" else ["preset"]

    def save_inputs(self, inputs: Path) -> None:
        pass  # the preset samples its own points from the seed

    def op_of(self, filename: str) -> str | None:
        """The operation a file belongs to; None for files every operation shares."""
        for op in self.ops:
            if filename.startswith(op + "_"):
                return op
        return None if len(self.ops) > 1 else self.ops[0]

    def run(self, out: Path) -> float:
        lg = self.lg
        start = time.perf_counter()
        lg.presets.run_preset(self.name, self.seed, out, scale_n=self.n)
        if self.read_back:
            fileio = lg.fileio
            man = fileio.read_manifest(out / "manifest.json")
            readers = (("points_file", fileio.read_points_csv),
                       ("adjacency_file", fileio.read_edge_list),
                       ("hops_file", fileio.read_hops_binary),
                       ("estimate_file", fileio.read_matrix_binary))
            for key in sorted(man):
                for suffix, reader in readers:
                    if key.endswith(suffix):
                        reader(out / man[key])
        return time.perf_counter() - start


def unfold_kinds(lg):
    """The five graph kinds of the unfolding fixtures, at half their n."""
    from latentgraph.geometry import Box, PointConfig, RectangleWithHole

    rect = lg.rectangle(2.0, 1.0)
    patch = Box(np.array([0.25, 0.25]), np.array([0.75, 0.75]))
    hole = RectangleWithHole(rect, Box(np.array([0.5, 0.25]), np.array([1.5, 0.75])))

    def patched(s):
        rng = np.random.default_rng(s)
        pts = np.vstack([rect.sample(rng, 100), patch.sample(rng, 40)])
        return lg.generate_graph(PointConfig(pts, rect), lg.Indicator(0.35), s)

    return [
        ("patched-rect", patched),
        ("hole", lambda s: lg.generate_graph(lg.sample_uniform(hole, 140, s), lg.Indicator(0.35), s)),
        ("coarse", lambda s: lg.generate_graph(lg.sample_uniform(rect, 125, s), lg.Indicator(0.5), s)),
        ("knn-1d", lambda s: lg.symmetrize_union(
            lg.knn_graph(lg.sample_uniform(lg.interval(1.0), 100, s), 6))),
        ("knn-strip", lambda s: lg.symmetrize_union(
            lg.knn_graph(lg.sample_uniform(lg.rectangle(4.0, 1.0), 125, s), 10))),
    ]


class UnfoldWorkload:
    """``solve_mvu`` on one connected graph per entry of ``kinds``, drawn from the seed."""

    def __init__(self, lg, seed: int, kinds):
        self.lg = lg
        self.graphs = []
        for k, (name, build) in enumerate(kinds):
            for attempt in range(100):
                sub = int(np.random.SeedSequence([seed, k, attempt]).generate_state(1)[0])
                adj = build(sub)
                if connected_components(adj.dense(), directed=False)[0] == 1:
                    break
            else:
                raise RuntimeError(f"no connected {name} graph in 100 draws")
            self.graphs.append((name, adj))
        self.ops = [name for name, _ in self.graphs]

    def save_inputs(self, inputs: Path) -> None:
        for name, adj in self.graphs:
            np.save(inputs / f"{name}_edges.npy", adj.edges())

    def op_of(self, filename: str) -> str | None:
        return filename.split("_", 1)[0]

    def run(self, out: Path) -> float:
        total = 0.0
        for name, adj in self.graphs:
            start = time.perf_counter()
            sol = self.lg.mvu.solve_mvu(adj, rank=5, steps_per_stage=UNFOLD_STEPS_PER_STAGE)
            total += time.perf_counter() - start
            np.save(out / f"{name}_coords.npy", sol.coords)
            (out / f"{name}_solution.json").write_text(json.dumps(
                {"objective": sol.objective, "max_edge_violation": sol.max_edge_violation,
                 "steps": len(sol.trace)}, sort_keys=True) + "\n", encoding="utf-8")
        return total


def make_workload(lg, name: str, seed: int, small: bool = False):
    """The workload's inputs; ``small`` gives the warm-up instance."""
    if name == "unfold":
        kinds = unfold_kinds(lg)
        if small:
            return UnfoldWorkload(lg, seed, [k for k in kinds if k[0] == "knn-1d"])
        # two graphs per kind average out the edge count of any one graph
        return UnfoldWorkload(lg, seed, [(f"{kind}-{j}", build) for j in range(2)
                                         for kind, build in kinds])
    return PresetWorkload(lg, name, seed, WARMUP_N if small else PRESET_N[name],
                          read_back=name == "rectangles")


def digest(directory: Path) -> dict[str, str]:
    out = {}
    for path in sorted(directory.iterdir()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[path.name] = h.hexdigest()
    return out


def run_rounds(workload, out: Path, seconds: float, tracers=None) -> dict:
    """Rounds of the workload; returns their times and the operations whose
    files differ from round 1's.  ``tracers`` fixes the rounds, one tracer
    (or None) each."""
    times, mismatched, first = [], [], None
    while True:
        k = len(times) + 1
        if tracers is not None:
            if k > len(tracers):
                break
            tracer = tracers[k - 1]
        elif k > 2 and sum(times) >= seconds:
            break
        else:
            tracer = None
        rdir = out / f"round{k}"
        rdir.mkdir()
        if tracer is not None:
            tracer.install()
        try:
            times.append(workload.run(rdir))
        finally:
            if tracer is not None:
                tracer.uninstall()
        files = digest(rdir)
        if first is None:
            first = files
            continue
        shutil.rmtree(rdir)
        bad = set()
        for name in first.keys() | files.keys():
            if first.get(name) != files.get(name):
                op = workload.op_of(name)
                bad.update(workload.ops if op is None else [op])
        mismatched.extend([k, op] for op in sorted(bad))
    return {"round_s": times, "mismatched": mismatched}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*PRESET_N, "unfold"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", required=True, help="name of the result file in --out")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--probe", action="store_true", help="stop once the inputs are ready")
    args = ap.parse_args(argv)

    lg = _import_latentgraph()
    workload = make_workload(lg, args.workload, args.seed)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if not args.probe:
        inputs = args.out / "inputs"
        inputs.mkdir(exist_ok=True)
        workload.save_inputs(inputs)
        warm = args.out / "warmup"
        warm.mkdir()
        result["warmup_s"] = make_workload(lg, args.workload, args.seed, small=True).run(warm)
        shutil.rmtree(warm)
        tracers = None
        if args.trace:
            tracers = [None, Tracer(lg), Tracer(lg, memory=True)]
        result.update(run_rounds(workload, args.out, args.seconds, tracers))
        result["ops"] = workload.ops
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["blas_threads"] = blas_threads()
        if tracers is not None:
            _, timed, memory = tracers
            overhead = result["round_s"][1] - result["round_s"][0]
            result["layers"] = summarize(timed.spans, memory.spans, overhead)
            (args.out / "spans.json").write_text(json.dumps(
                {"timed": timed.spans, "memory": memory.spans}) + "\n", encoding="utf-8")
    (args.out / args.result).write_text(json.dumps(result, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
