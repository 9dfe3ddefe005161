"""On-disk formats.

Points travel as CSV with header ``x0,x1,...`` and shortest round-trip
decimal floats.  Adjacency has a text edge-list form (``n=<count>`` header,
then ``i j`` lines, 0-based, i < j, each pair once) and a binary form: magic
``LGA1``, u64 little-endian node count, then the strict upper triangle
row-major as packed bits (little bit order) with zero bits padding the last
byte.  Packed bits exist only in the file: the writer sets them from the
edge list, and the reader builds the neighbour lists from the set bits,
unpacked one block at a time.  Hop
matrices: magic ``LGH1``, u64 n, row-major u16 little-endian with 0xFFFF
for infinity.  Dense float matrices: CSV or magic ``LGD1``, u64 n,
row-major f64 little-endian.  Manifests are flat JSON objects with sorted
keys so equal runs produce byte-identical files.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .hopdist import HopMatrix
from .linkgraph import Adjacency

__all__ = [
    "read_adjacency_binary",
    "read_edge_list",
    "read_hops_binary",
    "read_manifest",
    "read_matrix_binary",
    "read_matrix_csv",
    "read_points_csv",
    "write_adjacency_binary",
    "write_edge_list",
    "write_hops_binary",
    "write_manifest",
    "write_matrix_binary",
    "write_matrix_csv",
    "write_mvu_trace",
    "write_points_csv",
    "write_stress_trace",
]

_MAGIC_ADJ = b"LGA1"
_MAGIC_HOP = b"LGH1"
_MAGIC_DEN = b"LGD1"
# entries per block when a file is streamed: floats of a dense matrix, or
# payload bits of an adjacency file
_BLOCK_ENTRIES = 1 << 16


def _fmt(x: float) -> str:
    return repr(float(x))


def write_points_csv(path: str | Path, points: np.ndarray) -> None:
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    cols = ",".join(f"x{k}" for k in range(pts.shape[1]))
    lines = [cols]
    lines.extend(",".join(_fmt(x) for x in row) for row in pts)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_points_csv(path: str | Path) -> np.ndarray:
    text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not text or not text[0].startswith("x0"):
        raise ValueError(f"{path}: expected a point CSV with an x0,... header")
    return np.array([[float(v) for v in line.split(",")] for line in text[1:]])


def _decimal_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """ASCII decimal digits of the node ids 0..n-1, one left-aligned row per
    id, and the number of digits of each."""
    ids = np.arange(n)
    width = np.ones(n, dtype=np.intp)
    power = 10
    while power < n:
        width += ids >= power
        power *= 10
    digits = np.zeros((n, int(width.max(initial=1))), dtype=np.uint8)
    for k in range(digits.shape[1]):
        place = width - 1 - k  # the power of ten that digit k stands for
        has = place >= 0
        digits[has, k] = ord("0") + ids[has] // 10 ** place[has] % 10
    return digits, width


def write_edge_list(path: str | Path, adj: Adjacency) -> None:
    i, j = adj.edges().T
    digits, width = _decimal_table(adj.n)
    # one "i j\n" line per edge, each placed after the lines before it
    length = width[i] + width[j] + 2
    ends = np.cumsum(length)
    starts = ends - length
    text = np.empty(int(ends[-1]) if ends.size else 0, dtype=np.uint8)
    for node, at in ((i, starts), (j, starts + width[i] + 1)):
        for k in range(digits.shape[1]):
            has = width[node] > k
            text[at[has] + k] = digits[node[has], k]
    text[starts + width[i]] = ord(" ")
    text[ends - 1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(f"n={adj.n}\n".encode("ascii"))
        fh.write(text)


def read_edge_list(path: str | Path) -> Adjacency:
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not lines or not lines[0].startswith("n="):
        raise ValueError(f"{path}: expected an 'n=<count>' header line")
    n = int(lines[0][2:])
    edges = np.empty((0, 2), dtype=np.int64)
    if len(lines) > 1:
        try:
            edges = np.loadtxt(lines[1:], dtype=np.int64, comments=None, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if edges.shape != (len(lines) - 1, 2):
        raise ValueError(f"{path}: every edge line must hold exactly two integers 'i j'")
    i, j = edges[:, 0], edges[:, 1]
    if not ((0 <= i) & (i < j) & (j < n)).all():
        raise ValueError(f"{path}: every edge must satisfy 0 <= i < j < n={n}")
    keys = np.sort(i * n + j)
    if (keys[1:] == keys[:-1]).any():
        raise ValueError(f"{path}: repeated edge")
    return Adjacency.from_edges(n, edges)


def _read_binary(path: str | Path, magic: bytes, payload_bytes) -> tuple[int, memoryview]:
    """Node count and payload of a binary file; ``payload_bytes(n)`` is the
    exact payload length the format needs, checked before any n-sized
    allocation."""
    raw = Path(path).read_bytes()
    if raw[:4] != magic:
        raise ValueError(f"{path}: bad magic, expected {magic.decode()}")
    if len(raw) < 12:
        raise ValueError(f"{path}: header is {len(raw)} bytes, expected 12")
    n = struct.unpack("<Q", raw[4:12])[0]
    expected = payload_bytes(n)
    if len(raw) - 12 != expected:
        raise ValueError(f"{path}: payload is {len(raw) - 12} bytes, n={n} needs {expected}")
    return n, memoryview(raw)[12:]


def _upper_offsets(n: int) -> np.ndarray:
    """Position in the ``LGA1`` bit stream of row i's first upper bit, (i, i+1)."""
    i = np.arange(n, dtype=np.int64)
    return i * (2 * n - i - 1) // 2


def write_adjacency_binary(path: str | Path, adj: Adjacency) -> None:
    n = adj.n
    payload = np.zeros((n * (n - 1) // 2 + 7) // 8, dtype=np.uint8)
    i, j = adj.edges().T
    # bit pos % 8 (little bit order) of byte pos // 8, at each edge's stream position
    pos = _upper_offsets(n)[i] + (j - i - 1)
    np.bitwise_or.at(payload, pos >> 3, np.left_shift(np.uint8(1), (pos & 7).astype(np.uint8)))
    with open(path, "wb") as fh:
        fh.write(_MAGIC_ADJ)
        fh.write(struct.pack("<Q", n))
        fh.write(payload)


def read_adjacency_binary(path: str | Path) -> Adjacency:
    n, payload = _read_binary(path, _MAGIC_ADJ, lambda n: (n * (n - 1) // 2 + 7) // 8)
    m = n * (n - 1) // 2
    data = np.frombuffer(payload, dtype=np.uint8)
    if m % 8 and data[-1] >> (m % 8):
        raise ValueError(f"{path}: padding bits after the {m} data bits are not zero")
    # the stream positions of the set bits, unpacked one block at a time
    pos, step = [np.empty(0, dtype=np.intp)], _BLOCK_ENTRIES // 8
    for lo in range(0, data.size, step):
        pos.append(np.flatnonzero(np.unpackbits(data[lo : lo + step], bitorder="little")))
        pos[-1] += 8 * lo
    pos = np.concatenate(pos)
    offsets = _upper_offsets(n)
    i = np.searchsorted(offsets, pos, side="right") - 1
    return Adjacency.from_edges(n, np.column_stack([i, pos - offsets[i] + i + 1]))


def write_hops_binary(path: str | Path, hops: HopMatrix) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC_HOP)
        fh.write(struct.pack("<Q", hops.n))
        # the array's own buffer when it is already little-endian and C-ordered
        fh.write(np.ascontiguousarray(hops.hops, dtype="<u2"))


def read_hops_binary(path: str | Path) -> HopMatrix:
    n, payload = _read_binary(path, _MAGIC_HOP, lambda n: 2 * n * n)
    hops = np.frombuffer(payload, dtype="<u2").reshape(n, n)
    return HopMatrix(n, hops.astype(np.uint16))


def _file_rows(values: np.ndarray):
    """Blocks of whole rows of ``values`` as little-endian float64 copies in
    which every non-finite entry is -1, about ``_BLOCK_ENTRIES`` entries each."""
    m = np.atleast_2d(np.asarray(values))
    step = max(1, _BLOCK_ENTRIES // max(1, m.shape[1]))
    for lo in range(0, m.shape[0], step):
        block = np.array(m[lo : lo + step], dtype="<f8", order="C")
        block[~np.isfinite(block)] = -1.0
        yield block


def write_matrix_binary(path: str | Path, values: np.ndarray) -> None:
    shape = np.shape(values)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError("matrix must be square")
    with open(path, "wb") as fh:
        fh.write(_MAGIC_DEN)
        fh.write(struct.pack("<Q", shape[0]))
        fh.writelines(_file_rows(values))


def read_matrix_binary(path: str | Path) -> np.ndarray:
    n, payload = _read_binary(path, _MAGIC_DEN, lambda n: 8 * n * n)
    return np.frombuffer(payload, dtype="<f8").reshape(n, n).copy()


def write_matrix_csv(path: str | Path, values: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for block in _file_rows(values):
            fh.write("".join(",".join(_fmt(x) for x in row) + "\n" for row in block))


def read_matrix_csv(path: str | Path) -> np.ndarray:
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    return np.array([[float(v) for v in line.split(",")] for line in lines])


def write_stress_trace(path: str | Path, trace) -> None:
    lines = ["iter,stress"]
    lines.extend(f"{k},{_fmt(s)}" for k, s in enumerate(trace))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_mvu_trace(path: str | Path, trace) -> None:
    lines = ["stage,iter,objective,max_violation"]
    lines.extend(f"{row[0]},{row[1]},{_fmt(row[2])},{_fmt(row[3])}" for row in trace)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_manifest(path: str | Path, manifest: dict) -> None:
    for key, value in manifest.items():
        if not isinstance(value, (str, int, float, bool)):
            raise ValueError(f"manifest values must be scalars; key {key!r} is {type(value)}")
    Path(path).write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def read_manifest(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
