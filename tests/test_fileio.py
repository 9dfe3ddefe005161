import struct
import tracemalloc

import numpy as np
import pytest

from latentgraph import (
    INF_HOPS,
    Box,
    EstimateMatrix,
    HopMatrix,
    Indicator,
    RectangleWithHole,
    all_pairs_hops,
    generate_graph,
    rectangle,
    sample_uniform,
    scale_hops,
)
from latentgraph import fileio, hopdist, linkgraph
from latentgraph.cli import main as cli_main
from tests.conftest import random_graph
from tests.reference_graphs import edges_write_adjacency_binary, fstring_write_edge_list


class TestPointsCsv:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.random((40, 3)) * np.array([2.0, 1.0, 0.5])
        pts[0, 0] = 1 / 3  # not representable in short decimal
        path = tmp_path / "pts.csv"
        fileio.write_points_csv(path, pts)
        back = fileio.read_points_csv(path)
        assert np.array_equal(back, pts)  # bit-exact via repr round-trip

    def test_header_present(self, tmp_path):
        path = tmp_path / "pts.csv"
        fileio.write_points_csv(path, np.zeros((3, 2)))
        assert path.read_text().splitlines()[0] == "x0,x1"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            fileio.read_points_csv(path)


class TestWriteCsv:
    def test_header_then_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        fileio.write_csv(path, "name,k,x", [["a", 1, 1 / 3], ("b", -2, 0.1)])
        assert path.read_text() == "name,k,x\na,1,0.3333333333333333\nb,-2,0.1\n"

    def test_no_header(self, tmp_path):
        path = tmp_path / "t.csv"
        fileio.write_csv(path, None, iter([[1.5, 2.0], [3.0, -0.0]]))
        assert path.read_text() == "1.5,2.0\n3.0,-0.0\n"

    def test_no_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        fileio.write_csv(path, "x0,x1", [])
        assert path.read_text() == "x0,x1\n"
        fileio.write_csv(path, None, [])
        assert path.read_bytes() == b""


class TestEdgeList:
    def test_roundtrip(self, tmp_path):
        adj = random_graph(30, 0.2, seed=1)
        path = tmp_path / "edges.txt"
        fileio.write_edge_list(path, adj)
        assert fileio.read_edge_list(path) == adj
        first = path.read_text().splitlines()[0]
        assert first == "n=30"

    def test_header_required(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n")
        with pytest.raises(ValueError):
            fileio.read_edge_list(path)

    @pytest.mark.parametrize("body", [
        "1 0\n",          # i > j would be merged into 0 1
        "2 2\n",          # self-loop
        "0 1\n0 1\n",     # repeated pair
        "0 1\n1 2\n0 1\n",
        "0 1 2\n",        # three integers
        "0\n",            # one integer
        "0 1\n\n1 2\n",   # blank line
        "0 4\n",          # j >= n
        "-1 2\n",         # negative index
        "0 x\n",          # not an integer
    ])
    def test_malformed_lines_rejected(self, tmp_path, body):
        path = tmp_path / "edges.txt"
        path.write_text("n=4\n" + body)
        with pytest.raises(ValueError):
            fileio.read_edge_list(path)

    def test_no_edges(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("n=3\n")
        assert fileio.read_edge_list(path).edge_count() == 0
        fileio.write_edge_list(path, fileio.read_edge_list(path))
        assert path.read_text() == "n=3\n"

    @pytest.mark.parametrize("n, p", [(1, 0.0), (4, 0.0), (2, 1.0), (10, 0.5), (11, 0.5),
                                      (101, 0.3), (1001, 0.02), (1200, 0.01)])
    def test_bytes_equal_fstring_reference(self, tmp_path, n, p):
        adj = random_graph(n, p, seed=n)
        fileio.write_edge_list(tmp_path / "got.txt", adj)
        fstring_write_edge_list(tmp_path / "want.txt", adj)
        assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()

    def test_ids_across_powers_of_ten(self, tmp_path):
        # both endpoints at every width change: 9|10, 99|100, 999|1000, 9999|10000
        ids = [0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 9999, 10000, 10001]
        edges = [[a, b] for a in ids for b in ids if a < b]
        adj = linkgraph.Adjacency.from_edges(10002, edges)
        fileio.write_edge_list(tmp_path / "got.txt", adj)
        fstring_write_edge_list(tmp_path / "want.txt", adj)
        assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()
        assert fileio.read_edge_list(tmp_path / "got.txt") == adj

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    def test_bytes_equal_fstring_reference_over_list_blocks(self, tmp_path, monkeypatch, block):
        # the writer streams blocks of the neighbour lists: a block of one
        # list, of a few lists, and of all of them
        monkeypatch.setattr(hopdist, "_BLOCK_PAIRS", block)
        graphs = [
            linkgraph.Adjacency.from_edges(0, []),
            linkgraph.Adjacency.from_edges(1, []),
            linkgraph.Adjacency.from_edges(5, [[0, 1], [1, 4], [3, 4]]),  # node 2 isolated
            # node 3's list (29 entries) is longer than a block of 7
            linkgraph.Adjacency.from_edges(30, [[3, k] for k in range(30) if k != 3] + [[5, 9]]),
            random_graph(60, 0.3, seed=block % 97),
        ]
        for adj in graphs:
            fileio.write_edge_list(tmp_path / "got.txt", adj)
            fstring_write_edge_list(tmp_path / "want.txt", adj)
            assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()

    def test_writer_streams_the_lists(self, tmp_path):
        # hole, r = 0.2, n = 4000: 508 757 edges.  An edge array and one
        # text buffer of the whole graph peaked at 24 MB; blocks of the
        # lists stay near 2 MB
        hole = RectangleWithHole(rectangle(2.0, 1.0), Box(np.array([0.5, 0.25]), np.array([1.5, 0.75])))
        adj = generate_graph(sample_uniform(hole, 4000, seed=2), Indicator(0.2), 2)
        assert adj.edge_count() == 508757
        tracemalloc.start()
        try:
            fileio.write_edge_list(tmp_path / "edges.txt", adj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 20, peak


class TestBinaryFormats:
    def test_adjacency_roundtrip(self, tmp_path):
        adj = random_graph(43, 0.3, seed=2)  # deliberately not a byte multiple
        path = tmp_path / "adj.bin"
        fileio.write_adjacency_binary(path, adj)
        assert fileio.read_adjacency_binary(path) == adj
        assert path.read_bytes()[:4] == b"LGA1"

    @pytest.mark.parametrize("n", [0, 1, 2, 8, 9, 43, 64, 65])
    def test_adjacency_bytes_are_the_upper_triangle(self, tmp_path, monkeypatch, n):
        path = tmp_path / "adj.bin"
        for p in (0.0, 0.3, 1.0):
            adj = random_graph(n, p, seed=n)
            # the format's definition: the strict upper triangle, row-major,
            # packed bits in little bit order
            bits = adj.dense()[np.triu_indices(n, 1)]
            want = b"LGA1" + struct.pack("<Q", n) + np.packbits(bits, bitorder="little").tobytes()
            # one read block, then one byte per read block
            for entries in (1 << 16, 8):
                monkeypatch.setattr(hopdist, "_BLOCK_PAIRS", entries)
                fileio.write_adjacency_binary(path, adj)
                assert path.read_bytes() == want
                assert fileio.read_adjacency_binary(path) == adj

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    def test_adjacency_bytes_equal_edge_list_reference_over_list_blocks(self, tmp_path,
                                                                        monkeypatch, block):
        # the writer sets the bits a block of the neighbour lists at a time
        monkeypatch.setattr(hopdist, "_BLOCK_PAIRS", block)
        graphs = [
            linkgraph.Adjacency.from_edges(0, []),
            linkgraph.Adjacency.from_edges(1, []),
            linkgraph.Adjacency.from_edges(5, [[0, 1], [1, 4], [3, 4]]),  # node 2 isolated
            linkgraph.Adjacency.from_edges(30, [[3, k] for k in range(30) if k != 3] + [[5, 9]]),
            random_graph(60, 0.3, seed=block % 97),
        ]
        for adj in graphs:
            fileio.write_adjacency_binary(tmp_path / "got.bin", adj)
            edges_write_adjacency_binary(tmp_path / "want.bin", adj)
            assert (tmp_path / "got.bin").read_bytes() == (tmp_path / "want.bin").read_bytes()

    def test_adjacency_writer_streams_the_lists(self, tmp_path):
        # hole, r = 0.2, n = 4000: 508 757 edges in a 1.0 MB file.  The
        # whole edge list and its bit positions peaked at 26.4 MB
        hole = RectangleWithHole(rectangle(2.0, 1.0), Box(np.array([0.5, 0.25]), np.array([1.5, 0.75])))
        adj = generate_graph(sample_uniform(hole, 4000, seed=2), Indicator(0.2), 2)
        assert adj.edge_count() == 508757
        tracemalloc.start()
        try:
            fileio.write_adjacency_binary(tmp_path / "adj.bin", adj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 20, peak
        assert fileio.read_adjacency_binary(tmp_path / "adj.bin") == adj

    def test_adjacency_files_stream_in_blocks(self, tmp_path):
        # a dense n×n bool matrix is 6.25 MB here and the file 0.78 MB
        n = 2500
        adj = random_graph(n, 0.02, seed=7)
        path = tmp_path / "adj.bin"
        tracemalloc.start()
        try:
            fileio.write_adjacency_binary(path, adj)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = fileio.read_adjacency_binary(path)
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back == adj
        # below one dense n×n bool matrix each
        assert write_peak < n * n, write_peak
        assert read_peak < n * n, read_peak

    def test_adjacency_padding_bits_must_be_zero(self, tmp_path):
        adj = random_graph(43, 0.3, seed=2)  # 903 data bits: one padding bit
        good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
        fileio.write_adjacency_binary(good, adj)
        raw = bytearray(good.read_bytes())
        raw[-1] |= 0x80
        bad.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="padding"):
            fileio.read_adjacency_binary(bad)
        assert cli_main(["--out", str(tmp_path), "hops", "--adjacency", str(bad)]) == 2
        assert cli_main(["--out", str(tmp_path), "hops", "--adjacency", str(good)]) == 0
        back = fileio.read_hops_binary(tmp_path / "hops.bin")
        assert np.array_equal(back.hops, all_pairs_hops(adj).hops)

    def test_hops_roundtrip(self, tmp_path):
        hops = all_pairs_hops(random_graph(20, 0.15, seed=3))
        assert (hops.hops == INF_HOPS).any()  # keep the sentinel in the test data
        path = tmp_path / "hops.bin"
        fileio.write_hops_binary(path, hops)
        back = fileio.read_hops_binary(path)
        assert np.array_equal(back.hops, hops.hops)
        assert path.read_bytes()[:4] == b"LGH1"

    def test_dense_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        mat = rng.random((17, 17))
        path = tmp_path / "m.bin"
        fileio.write_matrix_binary(path, EstimateMatrix(mat))
        assert np.array_equal(fileio.read_matrix_binary(path), mat)
        assert path.read_bytes()[:4] == b"LGD1"

    def test_matrix_bytes_from_strided_and_big_endian_input(self, tmp_path, monkeypatch):
        base = np.random.default_rng(4).random((6, 6))
        base[1, 2], base[4, 0], base[5, 5] = np.inf, np.nan, -np.inf
        wide = np.zeros((6, 12))
        wide[:, ::2] = base
        # every non-finite entry is stored as -1
        want = b"LGD1" + struct.pack("<Q", 6) + b"".join(
            struct.pack("<d", x if np.isfinite(x) else -1.0) for x in base.ravel())
        for block in (1 << 16, 5):  # one block, then one row per block
            monkeypatch.setattr(hopdist, "_BLOCK_PAIRS", block)
            for values in (base, wide[:, ::2], np.asfortranarray(base), base.astype(">f8")):
                path = tmp_path / "m.bin"
                fileio.write_matrix_binary(path, EstimateMatrix(values))
                assert path.read_bytes() == want

    def test_hops_bytes_from_strided_and_big_endian_input(self, tmp_path):
        base = all_pairs_hops(random_graph(9, 0.3, seed=4)).hops
        wide = np.zeros((9, 18), dtype=np.uint16)
        wide[:, ::2] = base
        want = b"LGH1" + struct.pack("<Q", 9) + b"".join(struct.pack("<H", x) for x in base.ravel())
        for values in (base, wide[:, ::2], np.asfortranarray(base), base.astype(">u2")):
            path = tmp_path / "h.bin"
            fileio.write_hops_binary(path, HopMatrix(9, values))
            assert path.read_bytes() == want

    @pytest.mark.parametrize("kind", ["matrix", "hops"])
    def test_read_back_holds_one_copy_of_the_payload(self, tmp_path, kind):
        # the payload is read straight into the returned array: no bytes
        # object beside it, and no second array converted from one
        n = 1000
        path = tmp_path / "big.bin"
        if kind == "matrix":
            payload = n * n * 8
            fileio.write_matrix_binary(path, EstimateMatrix(np.random.default_rng(0).random((n, n))))
            reader = fileio.read_matrix_binary
        else:
            payload = n * n * 2
            fileio.write_hops_binary(path, HopMatrix(n, np.full((n, n), 7, dtype=np.uint16)))
            reader = fileio.read_hops_binary
        tracemalloc.start()
        try:
            back = reader(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * payload, peak
        want = path.read_bytes()[12:]
        assert (back if kind == "matrix" else back.hops).tobytes() == want

    @pytest.mark.parametrize("block", [1 << 16, 5])
    def test_estimate_streams_like_its_dense_matrix(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(hopdist, "_BLOCK_PAIRS", block)
        hops = all_pairs_hops(random_graph(23, 0.1, seed=5))
        assert (hops.hops == INF_HOPS).any()
        est = scale_hops(hops, 0.3)
        for write, name in ((fileio.write_matrix_binary, "m.bin"), (fileio.write_matrix_csv, "m.csv")):
            write(tmp_path / f"view-{name}", est)
            write(tmp_path / f"dense-{name}", EstimateMatrix(est.rows(0, est.n)))
            assert (tmp_path / f"view-{name}").read_bytes() == (tmp_path / f"dense-{name}").read_bytes()

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"XXXX" + b"\0" * 16)
        for reader in (fileio.read_adjacency_binary, fileio.read_hops_binary,
                       fileio.read_matrix_binary):
            with pytest.raises(ValueError):
                reader(path)

    @staticmethod
    def _write_each_format(tmp_path):
        """(path, reader) of one file per binary format, with n not a byte multiple."""
        adj = random_graph(43, 0.3, seed=2)
        files = []
        for name, writer, reader, value in (
            ("adj.bin", fileio.write_adjacency_binary, fileio.read_adjacency_binary, adj),
            ("hops.bin", fileio.write_hops_binary, fileio.read_hops_binary, all_pairs_hops(adj)),
            ("m.bin", fileio.write_matrix_binary, fileio.read_matrix_binary,
             EstimateMatrix(np.ones((43, 43)))),
        ):
            writer(tmp_path / name, value)
            files.append((tmp_path / name, reader))
        return files

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_payload_length_checked(self, tmp_path, delta):
        for path, reader in self._write_each_format(tmp_path):
            raw = path.read_bytes()
            path.write_bytes(raw[:-1] if delta < 0 else raw + b"\0")
            with pytest.raises(ValueError, match="payload"):
                reader(path)

    def test_short_header_rejected(self, tmp_path):
        for path, reader in self._write_each_format(tmp_path):
            path.write_bytes(path.read_bytes()[:11])
            with pytest.raises(ValueError, match="header"):
                reader(path)


class TestMatrixCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        mat = rng.random((9, 9))
        path = tmp_path / "m.csv"
        fileio.write_matrix_csv(path, EstimateMatrix(mat))
        assert np.array_equal(fileio.read_matrix_csv(path), mat)

    def test_non_finite_entries_written_as_minus_one(self, tmp_path, monkeypatch):
        mat = np.random.default_rng(6).random((7, 7))
        mat[0, 3], mat[6, 1] = np.inf, np.nan
        want = np.where(np.isfinite(mat), mat, -1.0)
        text = "".join(",".join(repr(float(x)) for x in row) + "\n" for row in want)
        for block in (1 << 16, 5):  # one block, then one row per block
            monkeypatch.setattr(hopdist, "_BLOCK_PAIRS", block)
            path = tmp_path / "m.csv"
            fileio.write_matrix_csv(path, EstimateMatrix(mat))
            assert path.read_text() == text
            assert np.array_equal(fileio.read_matrix_csv(path), want)


class TestTracesAndManifest:
    def test_stress_trace_format(self, tmp_path):
        path = tmp_path / "stress.csv"
        fileio.write_stress_trace(path, [3.0, 2.5, 2.25])
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,stress"
        assert lines[1] == "0,3.0"

    def test_mvu_trace_format(self, tmp_path):
        path = tmp_path / "trace.csv"
        fileio.write_mvu_trace(path, [(0, 0, 1.5, 0.01, 1.4)])
        lines = path.read_text().splitlines()
        assert lines[0] == "stage,iter,objective,max_violation"
        assert lines[1] == "0,0,1.5,0.01"

    def test_manifest_deterministic_bytes(self, tmp_path):
        man = {"b": 2, "a": 1.5, "c": "x", "flag": True}
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        fileio.write_manifest(p1, man)
        fileio.write_manifest(p2, dict(reversed(list(man.items()))))
        assert p1.read_bytes() == p2.read_bytes()
        assert fileio.read_manifest(p1) == man

    def test_manifest_rejects_nested(self, tmp_path):
        with pytest.raises(ValueError):
            fileio.write_manifest(tmp_path / "m.json", {"a": {"b": 1}})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, float("nan"), np.float64(np.inf)])
    def test_manifest_rejects_non_finite_floats(self, tmp_path, bad):
        # json.dumps would write NaN or Infinity, which no strict JSON reader accepts
        with pytest.raises(ValueError, match="key 'ratio'"):
            fileio.write_manifest(tmp_path / "m.json", {"n": 3, "ratio": bad})
        assert not (tmp_path / "m.json").exists()
