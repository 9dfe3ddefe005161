"""Benchmark of the latentgraph estimation pipeline: one workload per call.

    python3 perfbench/run.py --workload rectangles --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout.  The workload runs in fresh worker
processes, one at a time: two that only set up (import numpy, scipy and
latentgraph from ``src`` and build the inputs) and one that also runs the
timed rounds.  ``setup_s`` is the median of the three set-up times, each
from process start until the inputs are ready.  After the worker has ended,
this process checks round 1's outputs with ``checks.py`` and reports:

* ``--trace 0``: ``wall_s`` (median over rounds of the time spent in calls
  into latentgraph), ``peak_rss_mb`` (peak resident set of the worker) and
  ``setup_s``;
* ``--trace 1``: every per-layer metric of ``tracing.METRICS``.

An operation fails when its check finds a problem or when a later round's
files differ from round 1's.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
BLAS thread count is numpy's default unless set in the environment
(``OPENBLAS_NUM_THREADS``) before this command starts.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("rectangles", "knn-band", "hole-local", "unfold")
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 150


def _spawn(args, out: Path, result: str, probe: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out), "--result", result]
    if probe:
        cmd.append("--probe")
    spawned_at = time.monotonic()
    proc = subprocess.Popen([*cmd, "--spawned-at", repr(spawned_at)],
                            stdin=subprocess.DEVNULL, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    return json.loads((out / result).read_text(encoding="utf-8"))


def _check(workload: str, out: Path, ops: list[str]) -> dict[str, list[str]]:
    import checks

    first = out / "round1"
    if workload == "rectangles":
        return checks.check_rectangles(first)
    if workload == "knn-band":
        return checks.check_knn_band(first)
    if workload == "hole-local":
        return checks.check_hole_local(first)
    return checks.check_unfold(first, out / "inputs", ops)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    out = HERE / "_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        setups = [_spawn(args, out, f"probe{k}.json", probe=True)["setup_s"]
                  for k in range(SETUP_SAMPLES - 1)]
        res = _spawn(args, out, "result.json", probe=False)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    ops, rounds = res["ops"], len(res["round_s"])
    correct = True
    try:
        problems = _check(args.workload, out, ops)
    except Exception:  # a check that cannot run leaves every output unverified
        traceback.print_exc()
        problems, correct = {op: ["check could not run"] for op in ops}, False
    failing = {op for op in ops if problems.get(op)}
    for op in sorted(failing):
        for line in problems[op]:
            print(f"check failed: {line}", file=sys.stderr)
    for k, op in res["mismatched"]:
        print(f"round {k}: files of {op} differ from round 1", file=sys.stderr)
    mismatched = {(k, op) for k, op in res["mismatched"]}
    failed = sum(1 for k in range(1, rounds + 1) for op in ops
                 if op in failing or (k, op) in mismatched)

    if args.trace:
        import tracing

        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit in tracing.METRICS}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(res["round_s"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds "
          f"{[round(t, 3) for t in res['round_s']]} s, BLAS threads {res['blas_threads']}")
    for name, m in metrics.items():
        note = " (computed from the hop matrix)" if name == "hopdist.bytes_gathered" else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    attempted = rounds * len(ops)
    print(f"operations attempted {attempted}, failed {failed}")
    for k in range(1, rounds + 1):
        shutil.rmtree(out / f"round{k}", ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
