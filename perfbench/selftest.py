"""Self-tests of the benchmark's checks.

    python3 perfbench/selftest.py

Each case runs the small warm-up instance of a workload into
``perfbench/_out/selftest``, requires its check to pass on the fresh output,
corrupts one value of a copy and requires the check to reject exactly the
corrupted operation.  A last case requires the rerun comparison to flag a
round whose files differ from round 1's.  Exits 1 if any case fails.
"""

from __future__ import annotations

import shutil
import struct
import sys
from pathlib import Path

import numpy as np

import checks
import worker

OUT = Path(__file__).resolve().parent / "_out" / "selftest"


def change_hop_entry(out: Path) -> None:
    # inside a row the check samples, so the csgraph comparison sees it too
    man = checks.read_manifest(out / "manifest.json")
    n = man["n"]
    src = int(checks.sample_sources(n, man["seed"])[0])
    path = out / man["r0.1.hops_file"]
    raw = bytearray(path.read_bytes())
    offset = 12 + 2 * (src * n + (src + 1) % n)
    old = struct.unpack_from("<H", raw, offset)[0]
    struct.pack_into("<H", raw, offset, 1 if old == 0xFFFF else old + 1)
    path.write_bytes(bytes(raw))


def drop_edge(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    del lines[len(lines) // 2]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def raise_stress(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    k = len(lines) // 2
    it, stress = lines[k].split(",")
    lines[k] = f"{it},{float(stress) * 1.5!r}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def push_coordinate(path: Path) -> None:
    x = np.load(path)
    x[0, 0] += 2.0  # every edge at node 0 becomes longer than 1
    np.save(path, x)


class _FlakyWorkload:
    """Writes one file whose last byte changes in round 3."""

    ops = ["only"]

    def __init__(self):
        self.calls = 0

    def op_of(self, filename):
        return "only"

    def run(self, out: Path) -> float:
        self.calls += 1
        (out / "only_data.bin").write_bytes(b"\x00\x01" + bytes([self.calls == 3]))
        return 1.0


def main() -> int:
    lg = worker._import_latentgraph()
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)

    def small(name):
        def make(out):
            w = worker.make_workload(lg, name, 0, small=True)
            w.save_inputs(OUT)
            w.run(out)
            return w
        return make

    cases = [
        ("rectangles: one hop entry changed", small("rectangles"),
         lambda out, w: checks.check_rectangles(out),
         change_hop_entry, "r0.1"),
        ("rectangles: one edge dropped", small("rectangles"),
         lambda out, w: checks.check_rectangles(out),
         lambda out: drop_edge(out / "r0.05_edges.txt"), "r0.05"),
        ("knn-band: one edge dropped", small("knn-band"),
         lambda out, w: checks.check_knn_band(out),
         lambda out: drop_edge(out / "knn_edges.txt"), "preset"),
        ("hole-local: one stress value raised", small("hole-local"),
         lambda out, w: checks.check_hole_local(out),
         lambda out: raise_stress(out / "local_stress.csv"), "preset"),
        ("unfold: one coordinate pushed past feasibility", small("unfold"),
         lambda out, w: checks.check_unfold(out, OUT, w.ops),
         lambda out: push_coordinate(out / "knn-1d_coords.npy"), "knn-1d"),
    ]
    ok = True
    made = {}
    for label, make, check, corrupt, op in cases:
        fresh = OUT / label.split(":")[0]
        if fresh not in made:
            fresh.mkdir()
            made[fresh] = make(fresh)
            clean = check(fresh, made[fresh])
            passed = not any(clean.values())
            ok &= passed
            print(f"{'PASS' if passed else 'FAIL'} {label.split(':')[0]}: fresh output accepted"
                  + ("" if passed else f" -> {clean}"))
        bad = OUT / "corrupt"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(fresh, bad)
        corrupt(bad)
        found = check(bad, made[fresh])
        flagged = sorted(k for k, v in found.items() if v)
        passed = flagged == [op]
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {label}: flagged {flagged} "
              f"{found.get(op, [])[:1]}")

    rounds = OUT / "rounds"
    rounds.mkdir()
    res = worker.run_rounds(_FlakyWorkload(), rounds, seconds=3.0)
    passed = res["mismatched"] == [[3, "only"]]
    ok &= passed
    print(f"{'PASS' if passed else 'FAIL'} rerun comparison: flagged {res['mismatched']}")
    shutil.rmtree(OUT, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
