"""On-disk formats.

Every CSV table goes through ``write_csv``: an optional header line, then
rows of Python scalars joined by commas, so each float is written as its
shortest round-trip decimal.  Points travel as CSV with header
``x0,x1,...``.  Adjacency has a text edge-list form (``n=<count>`` header,
then ``i j`` lines, 0-based, i < j, each pair once) and a binary form: magic
``LGA1``, u64 little-endian node count, then the strict upper triangle
row-major as packed bits (little bit order) with zero bits padding the last
byte.  Packed bits exist only in the file: the writer sets them a block of
neighbour lists at a time, and the reader builds the lists from the set
bits, unpacked one block at a time.  Hop matrices: magic ``LGH1``, u64 n,
row-major u16 little-endian with 0xFFFF for infinity.  Dense float
matrices: CSV or magic ``LGD1``, u64 n, row-major f64 little-endian, -1 for
every non-finite entry; the writers take an ``EstimateMatrix`` and write
its rows a block at a time, so the dense estimate is never built.  The
binary readers check the payload length against the file size, then read
the payload straight into the array they return.  Manifests are flat JSON
objects with sorted keys so equal runs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import re
import struct
from pathlib import Path

import numpy as np

from . import hopdist
from .hopdist import EstimateMatrix, HopMatrix, _row_blocks
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
    "write_csv",
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
# an edge line as np.loadtxt reads it into int64: two ASCII integers
_EDGE_LINE = re.compile(r"\s*([+-]?\d+)\s+([+-]?\d+)\s*", re.ASCII)


def write_csv(path: str | Path, header: str | None, rows) -> None:
    """Write the ``header`` line (none when it is None), then each row of
    Python scalars joined by commas; ``str`` of a Python float is its
    shortest round-trip decimal.  The rows are streamed, not collected."""
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(header + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def write_points_csv(path: str | Path, points: np.ndarray) -> None:
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    write_csv(path, ",".join(f"x{k}" for k in range(pts.shape[1])), pts.tolist())


def _csv_rows(path: str | Path, lines: list[str], start: int, width: int, finite: bool) -> np.ndarray:
    """``lines``, file lines ``start`` on, as rows of ``width`` numbers, all
    finite when ``finite`` is set; the first line that is not is rejected."""
    what = f"{width} finite coordinates" if finite else f"{width} numbers"
    rows = []
    for line_no, line in enumerate(lines, start=start):
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError:
            row = []
        if len(row) != width or (finite and not np.isfinite(row).all()):
            raise ValueError(f"{path}:{line_no}: expected {what}, got {line!r}")
        rows.append(row)
    return np.array(rows)


def read_points_csv(path: str | Path) -> np.ndarray:
    """Points of a CSV written by ``write_points_csv``: every row holds one
    finite value per header column, or the file is rejected with its line."""
    text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not text or not text[0].startswith("x0"):
        raise ValueError(f"{path}: expected a point CSV with an x0,... header")
    return _csv_rows(path, text[1:], 2, len(text[0].split(",")), finite=True)


def _upper_pairs(adj: Adjacency):
    """The edges ``i < j``, row-major, as arrays ``i`` and ``j`` per ``_row_blocks`` block."""
    indptr = adj.indptr
    for lo, hi in _row_blocks(indptr):
        i = np.repeat(np.arange(lo, hi), np.diff(indptr[lo : hi + 1]))
        j = adj.indices[indptr[lo] : indptr[hi]]
        upper = j > i
        i, j = i[upper], j[upper]  # frees the block's row ids before the caller's work
        yield i, j
        del i, j, upper  # as the callers do theirs: no block lives on while the next is built


def write_edge_list(path: str | Path, adj: Adjacency) -> None:
    n = adj.n
    # the ASCII digits of each node id, padded with NUL bytes to a common width
    w = len(str(n - 1))
    digits = np.arange(n).astype(f"S{w}").view(np.uint8).reshape(n, w)
    with open(path, "wb") as fh:
        fh.write(f"n={n}\n".encode("ascii"))
        for i, j in _upper_pairs(adj):
            # the digit columns overwrite all but the separator and the newline
            text = np.full((i.size, 2 * w + 2), ord(" "), dtype=np.uint8)
            text[:, :w] = digits[i]
            text[:, w + 1 : -1] = digits[j]
            text[:, -1] = ord("\n")
            fh.write(text[text != 0].tobytes())
            del i, j, text


def _edge_line_error(path: str | Path, lines: list[str], n: int) -> ValueError:
    """The error for the first edge line of ``lines`` (the header first) that
    is not two integers ``i j`` with ``0 <= i < j < n``, or that repeats an
    earlier edge, named by its file line."""
    first_seen = {}
    for line_no, line in enumerate(lines[1:], start=2):
        pair = _EDGE_LINE.fullmatch(line)
        if pair is None:
            return ValueError(f"{path}:{line_no}: expected two integers 'i j', got {line!r}")
        i, j = int(pair[1]), int(pair[2])
        if not 0 <= i < j < n:
            return ValueError(f"{path}:{line_no}: edge {i} {j} does not satisfy 0 <= i < j < n={n}")
        if (i, j) in first_seen:
            return ValueError(f"{path}:{line_no}: repeated edge {i} {j} (first on line {first_seen[i, j]})")
        first_seen[i, j] = line_no
    return ValueError(f"{path}: malformed edge list")


def read_edge_list(path: str | Path) -> Adjacency:
    """The graph of an edge list written by ``write_edge_list``.  A valid file
    is parsed in one ``np.loadtxt`` call; a malformed one is rejected with
    the file line of its first bad edge line, found only then."""
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    count = lines[0][2:] if lines and lines[0].startswith("n=") else ""
    if not (count.isascii() and count.isdigit()):
        raise ValueError(f"{path}:1: expected an 'n=<count>' header line, count a non-negative integer")
    n = int(count)
    edges = np.empty((0, 2), dtype=np.int64)
    if len(lines) > 1:
        try:
            edges = np.loadtxt(lines[1:], dtype=np.int64, comments=None, ndmin=2)
        except ValueError:
            raise _edge_line_error(path, lines, n) from None
    if edges.shape != (len(lines) - 1, 2):
        raise _edge_line_error(path, lines, n)
    i, j = edges[:, 0], edges[:, 1]
    if not ((0 <= i) & (i < j) & (j < n)).all():
        raise _edge_line_error(path, lines, n)
    try:
        adj = Adjacency.from_edges(n, edges)
    except ValueError as exc:  # the edges passed above: only the header's n is left to fail
        raise ValueError(f"{path}:1: {exc}") from None
    if adj.edge_count() != len(edges):
        raise _edge_line_error(path, lines, n)
    return adj


def _read_binary(path: str | Path, magic: bytes, payload_bytes) -> tuple[int, np.ndarray]:
    """Node count and payload of a binary file, the payload as a uint8 array
    read straight from the file.  ``payload_bytes(n)`` is the exact payload
    length the format needs; it is checked against the file size before the
    payload is allocated, and the payload is the only n-sized allocation."""
    with open(path, "rb") as fh:
        head = fh.read(12)
        if head[:4] != magic:
            raise ValueError(f"{path}: bad magic, expected {magic.decode()}")
        if len(head) < 12:
            raise ValueError(f"{path}: header is {len(head)} bytes, expected 12")
        n = struct.unpack("<Q", head[4:])[0]
        expected = payload_bytes(n)
        size = os.fstat(fh.fileno()).st_size - 12
        if size != expected:
            raise ValueError(f"{path}: payload is {size} bytes, n={n} needs {expected}")
        payload = np.empty(expected, dtype=np.uint8)
        got = fh.readinto(payload)
    if got != expected:
        raise ValueError(f"{path}: payload is {got} bytes, n={n} needs {expected}")
    return n, payload


def _write_binary(path: str | Path, magic: bytes, n: int, chunks) -> None:
    """``magic``, the u64 little-endian node count ``n``, then each buffer of
    ``chunks`` in turn: the layout ``_read_binary`` reads."""
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<Q", n))
        fh.writelines(chunks)


def _upper_offsets(n: int) -> np.ndarray:
    """Position in the ``LGA1`` bit stream of row i's first upper bit, (i, i+1)."""
    i = np.arange(n, dtype=np.int64)
    return i * (2 * n - i - 1) // 2


def write_adjacency_binary(path: str | Path, adj: Adjacency) -> None:
    n = adj.n
    payload = np.zeros((n * (n - 1) // 2 + 7) // 8, dtype=np.uint8)
    offsets = _upper_offsets(n)
    for i, j in _upper_pairs(adj):
        # each edge's stream position: bit pos % 8 (little bit order) of byte pos // 8
        pos = offsets[i] + (j - i - 1)
        del i, j
        bit = np.left_shift(np.uint8(1), (pos & 7).astype(np.uint8))
        pos >>= 3
        np.bitwise_or.at(payload, pos, bit)
        del pos, bit
    _write_binary(path, _MAGIC_ADJ, n, [payload])


def read_adjacency_binary(path: str | Path) -> Adjacency:
    n, data = _read_binary(path, _MAGIC_ADJ, lambda n: (n * (n - 1) // 2 + 7) // 8)
    m = n * (n - 1) // 2
    if m % 8 and data[-1] >> (m % 8):
        raise ValueError(f"{path}: padding bits after the {m} data bits are not zero")
    # the stream positions of the set bits, unpacked hopdist._BLOCK_PAIRS bits at a time
    pos, step = [np.empty(0, dtype=np.intp)], hopdist._BLOCK_PAIRS // 8
    for lo in range(0, data.size, step):
        pos.append(np.flatnonzero(np.unpackbits(data[lo : lo + step], bitorder="little")))
        pos[-1] += 8 * lo
    pos = np.concatenate(pos)
    offsets = _upper_offsets(n)
    i = np.searchsorted(offsets, pos, side="right") - 1
    return Adjacency.from_edges(n, np.column_stack([i, pos - offsets[i] + i + 1]))


def write_hops_binary(path: str | Path, hops: HopMatrix) -> None:
    # the array's own buffer when it is already little-endian and C-ordered
    _write_binary(path, _MAGIC_HOP, hops.n, [np.ascontiguousarray(hops.hops, dtype="<u2")])


def read_hops_binary(path: str | Path) -> HopMatrix:
    n, payload = _read_binary(path, _MAGIC_HOP, lambda n: 2 * n * n)
    return HopMatrix(n, payload.view("<u2").reshape(n, n))


def _file_rows(est: EstimateMatrix):
    """The blocks of whole rows of ``est`` (``_row_blocks``) as little-endian
    float64 arrays in which every non-finite entry is -1."""
    for lo, hi in _row_blocks(np.arange(est.n + 1) * est.n):
        block = np.asarray(est.rows(lo, hi), dtype="<f8")
        block[~np.isfinite(block)] = -1.0
        yield block


def write_matrix_binary(path: str | Path, est: EstimateMatrix) -> None:
    """Write ``est`` as ``LGD1``, streamed one block of rows at a time."""
    _write_binary(path, _MAGIC_DEN, est.n, _file_rows(est))


def read_matrix_binary(path: str | Path) -> np.ndarray:
    n, payload = _read_binary(path, _MAGIC_DEN, lambda n: 8 * n * n)
    return payload.view("<f8").reshape(n, n)


def write_matrix_csv(path: str | Path, est: EstimateMatrix) -> None:
    """Write ``est`` as CSV rows, streamed."""
    write_csv(path, None, (row for block in _file_rows(est) for row in block.tolist()))


def read_matrix_csv(path: str | Path) -> np.ndarray:
    """Rows of a CSV written by ``write_matrix_csv``: every row holds as many
    numbers as the first, or the file is rejected with its line.  The values
    are not checked; a NaN or an infinity is read as written."""
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    width = len(lines[0].split(",")) if lines else 0
    return _csv_rows(path, lines, 1, width, finite=False)


def write_stress_trace(path: str | Path, trace) -> None:
    write_csv(path, "iter,stress", ((k, float(s)) for k, s in enumerate(trace)))


def write_mvu_trace(path: str | Path, trace) -> None:
    write_csv(path, "stage,iter,objective,max_violation",
              ((row[0], row[1], float(row[2]), float(row[3])) for row in trace))


def write_manifest(path: str | Path, manifest: dict) -> None:
    for key, value in manifest.items():
        if not isinstance(value, (str, int, float, bool)):
            raise ValueError(f"manifest values must be scalars; key {key!r} is {type(value)}")
        if isinstance(value, float) and not np.isfinite(value):  # JSON has no nan or inf
            raise ValueError(f"manifest values must be finite; key {key!r} is {value}")
    Path(path).write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def read_manifest(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
