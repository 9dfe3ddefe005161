import argparse
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from latentgraph import (
    INF_HOPS,
    Adjacency,
    CoverageBracket,
    EstimateMatrix,
    HopMatrix,
    PRESETS,
    check_simple_bound,
    cli,
    fileio,
    hopdist,
    pairwise_distances,
    presets,
    rectangle,
    run_preset,
    sample_uniform,
    scale_hops,
)
from latentgraph.cli import main as cli_main
from latentgraph.plotdata import emit_plotdata, svg_scatter, write_scatter_csv
from tests import reference_graphs
from tests.conftest import run_under_one_and_two_blas_threads


def run_small(name, tmp_path, seed=3, scale_n=250, cities_csv=None, sub="out"):
    out = tmp_path / sub
    man = run_preset(name, seed=seed, out_dir=out,
                     scale_n=scale_n, cities_file=cities_csv)
    return out, man


class TestPresets:
    def test_unknown_name(self, tmp_path):
        with pytest.raises(ValueError, match="unknown preset"):
            run_preset("nope", seed=0, out_dir=tmp_path)

    def test_all_presets_run_small(self, tmp_path, cities_csv, monkeypatch):
        calls = {"all_pairs_hops": [], "classical_mds": [], "coverage_radius": [],
                 "pairwise_distances": []}

        def counted(name):
            original = getattr(presets, name)

            def wrapper(*args, **kwargs):
                calls[name].append(args[0])  # kept alive, so identities stay unique
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(presets, name, counted(name))
        for name in PRESETS:
            for seen in calls.values():
                seen.clear()
            out, man = run_small(name, tmp_path, cities_csv=cities_csv, sub=name)
            assert (out / "manifest.json").exists()
            assert man["preset"] == name
            assert man["seed"] == 3
            on_disk = fileio.read_manifest(out / "manifest.json")
            assert on_disk == json.loads(json.dumps(man))
            # each artifact is built once: one hop computation per estimated
            # graph, at most one classical scaling per graph, one coverage
            # radius per sample
            graphs = sum(key.endswith(".edge_count") for key in man)
            hopped = calls["all_pairs_hops"]
            assert len(hopped) == graphs, name
            assert len({id(adj) for adj in hopped}) == len(hopped), name
            assert len(calls["classical_mds"]) <= graphs, name
            assert len(calls["coverage_radius"]) <= 1, name
            # the checks read the points: no distance matrix of the whole sample
            rows = [np.asarray(getattr(x, "points", x)).shape[0] for x in calls["pairwise_distances"]]
            assert all(k < man["n"] for k in rows), (name, rows)

    @pytest.mark.parametrize("name", ["knn-band", "knn-paths", "rectangles", "hole"])
    def test_artifacts_equal_with_dense_reference_builders(self, tmp_path, monkeypatch, name):
        def digests(out):
            return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}

        fast, _ = run_small(name, tmp_path, scale_n=300, sub="fast")
        monkeypatch.setattr(presets, "knn_graph", reference_graphs.dense_knn_graph)
        monkeypatch.setattr(presets, "symmetrize_union", reference_graphs.dense_symmetrize_union)
        monkeypatch.setattr(presets, "generate_graph", reference_graphs.row_loop_generate_graph)
        monkeypatch.setattr(fileio, "write_edge_list", reference_graphs.fstring_write_edge_list)
        dense, _ = run_small(name, tmp_path, scale_n=300, sub="dense")
        assert digests(fast) == digests(dense)

    @pytest.mark.parametrize("name", ["rectangles", "knn-band", "hole", "hole-local", "mds-discrete"])
    def test_artifacts_equal_with_dense_estimate(self, tmp_path, monkeypatch, name):
        # the estimate as a dense float64 r * hops with infinity, as it was
        # built before it became a view of the hops
        def dense_scale_hops(hops, r):
            h = hops.hops
            return EstimateMatrix(np.where(h == INF_HOPS, np.inf, r * h.astype(np.float64)))

        def digests(out):
            return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}

        view, _ = run_small(name, tmp_path, scale_n=300, sub="view")
        monkeypatch.setattr(presets, "scale_hops", dense_scale_hops)
        dense, _ = run_small(name, tmp_path, scale_n=300, sub="dense")
        assert digests(view) == digests(dense)

    def test_pipeline_never_builds_the_dense_estimate(self, tmp_path, monkeypatch):
        # the estimate is read through rows alone, a block at a time: with
        # blocks of 2000 entries at n = 200, no read may span the matrix
        read = EstimateMatrix.rows

        def rows(est, lo, hi, start=0):
            if (hi - lo) * (est.n - start) > 2000:
                raise AssertionError("the dense estimate was built")
            return read(est, lo, hi, start)

        monkeypatch.setattr(EstimateMatrix, "rows", rows)
        monkeypatch.setattr(hopdist, "_BLOCK_PAIRS", 2000)
        for name in ("rectangles", "knn-band", "hole-local"):
            run_small(name, tmp_path, scale_n=200, sub=name)
        for extra in ([], ["--csv"]):
            assert cli_main(["--out", str(tmp_path), "estimate", "--hops",
                             str(tmp_path / "rectangles" / "r0.1_hops.bin"), "--r", "0.1", *extra]) == 0
        assert (tmp_path / "estimate.bin").read_bytes() == \
            (tmp_path / "rectangles" / "r0.1_est.bin").read_bytes()

    def test_hops_check_and_embed_hold_no_float_matrix(self, tmp_path):
        # beside the uint16 hops: the estimate is a view, the check streams
        # its rows and classical scaling reads the hops a row block at a
        # time; the peak (0.33 of one n-by-n float64) is the check's blocks
        n = 1500
        config = sample_uniform(rectangle(2, 1), n, seed=2)
        r = 0.15
        adj = presets.generate_graph(config, presets.Indicator(r), 2)
        hops = presets.all_pairs_hops(adj)
        assert hops.is_connected()
        eps = presets._eps(config)
        tracemalloc.start()
        try:
            est = presets.scale_hops(hops, r)
            check_simple_bound(est, config.points, eps.upper, r)
            emb = presets._embed_and_align(config, hops, r, np.arange(n), tmp_path, "g", {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert emb.coords.shape == (n, 2)
        assert peak < 0.4 * n * n * 8, peak / (n * n * 8)

    def test_manifest_carries_bound_outcomes(self, tmp_path):
        _, man = run_small("hole", tmp_path)
        for key in ("r0.2.eps_lower", "r0.2.eps_upper", "r0.2.eps_over_r",
                    "r0.2.bound.lower_violations", "r0.2.bound.fitted_constant",
                    "r0.2.rmse_aligned"):
            assert key in man

    def test_byte_identical_reruns(self, tmp_path):
        out1, _ = run_small("mds-discrete", tmp_path, sub="a")
        out2, _ = run_small("mds-discrete", tmp_path, sub="b")
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_components_match_csgraph(self, tmp_path):
        out, man = run_small("rectangles", tmp_path, scale_n=120)
        counts = []
        for tag in ("r0.05", "r0.1", "r0.2"):
            adj = fileio.read_edge_list(out / man[f"{tag}.adjacency_file"])
            k, labels = connected_components(csr_matrix(adj.dense()), directed=False)
            counts.append(k)
            assert man[f"{tag}.components"] == k
            assert man[f"{tag}.n_embedded"] == np.bincount(labels).max()
        assert max(counts) > 1  # the sparse graph has several

    @pytest.mark.parametrize("edges, components, keep", [
        # the larger of {0, 1} and {2, 3, 4}, beside the isolated 5, 6 and 7
        ([[0, 1], [2, 3], [3, 4]], 5, [2, 3, 4]),
        # a tie goes to the component holding the smallest node index
        ([[1, 3], [3, 5], [5, 7], [0, 2], [2, 4], [4, 6]], 2, [0, 2, 4, 6]),
    ])
    def test_estimate_keeps_the_largest_component(self, tmp_path, edges, components, keep):
        config = sample_uniform(rectangle(2, 1), 8, seed=0)
        adj = Adjacency.from_edges(8, edges)
        eps = CoverageBracket(0.1, 0.2)
        man = {}
        got = presets._estimate(config, adj, 0.5, eps, tmp_path, "g", man)
        assert man["g.components"] == components
        assert got.keep.tolist() == keep
        assert man["g.n_embedded"] == len(keep)

    def test_seed_changes_output(self, tmp_path):
        _, man1 = run_small("hole", tmp_path, seed=3, sub="a")
        _, man2 = run_small("hole", tmp_path, seed=4, sub="b")
        assert man1["r0.2.rmse_aligned"] != man2["r0.2.rmse_aligned"]

    def test_cities_preset_needs_file(self, tmp_path):
        with pytest.raises(ValueError, match="cities"):
            run_preset("cities", seed=0, out_dir=tmp_path, scale_n=50)

    def test_thinning_is_coupled(self, tmp_path, cities_csv):
        out, man = run_small("cities-thinned", tmp_path, cities_csv=cities_csv)
        full = fileio.read_edge_list(out / "p1_edges.txt")
        half = fileio.read_edge_list(out / "p0.5_edges.txt")
        fifth = fileio.read_edge_list(out / "p0.2_edges.txt")
        assert not (half.dense() & ~full.dense()).any()
        assert not (fifth.dense() & ~half.dense()).any()

    def test_knn_manifest_records_scale(self, tmp_path):
        _, man = run_small("knn-band", tmp_path, scale_n=600)
        assert man["knn.r"] == pytest.approx(man["knn.r_circ"] + man["knn.eps"])
        assert "knn.bias.max_ratio" in man
        assert man["knn.bound.lower_checked_pairs"] >= 0

    def test_knn_bias_threshold_below_two_on_a_short_sample(self, tmp_path):
        # few points do not span the strip, so half the diameter is below 2
        out, man = run_small("knn-band", tmp_path, scale_n=20)
        points = fileio.read_points_csv(out / man["truth.points_file"])
        half = 0.5 * pairwise_distances(points).max()
        assert half < 2.0
        assert man["knn.bias.threshold"] == min(2.0, half)

    def test_knn_manifest_is_strict_json_when_a_far_pair_is_disconnected(self, tmp_path):
        def reject(name):
            raise ValueError(f"manifest holds {name}")

        out, man = run_small("knn-band", tmp_path, seed=0, scale_n=60)
        assert man["knn.components"] > 1  # split, with far pairs across the split
        assert "knn.bias.max_ratio" not in man
        text = (out / "manifest.json").read_text()
        assert json.loads(text, parse_constant=reject) == man

    def test_hole_local_improves_and_stress_monotone(self, tmp_path):
        _, man = run_small("hole-local", tmp_path, seed=5, scale_n=700)
        assert man["local.stress_monotone"]
        assert man["local.rmse_aligned"] < man["r0.2.rmse_aligned"]

    def test_hole_local_needs_a_component_of_three(self, tmp_path):
        with pytest.raises(ValueError, match="component of at least 3 nodes; n=3"):
            run_preset("hole-local", seed=0, out_dir=tmp_path, scale_n=3)

    def test_component_below_three_nodes_is_not_embedded(self, tmp_path):
        # nine points: at r = 0.05 the largest component is one node
        out, man = run_small("rectangles", tmp_path, seed=0, scale_n=1)
        assert man["r0.05.n_embedded"] == 1
        assert not any(key.startswith("r0.05.") and key.endswith("points_file") for key in man)
        assert not (out / "r0.05_recovered.csv").exists()

    def test_paths_preset_writes_polylines(self, tmp_path):
        out, man = run_small("knn-paths", tmp_path, scale_n=900)
        text = (out / "paths.csv").read_text()
        assert text.splitlines()[0] == "path,step,x,y"
        assert man["paths.far.hops"] >= man["paths.near.hops"]
        assert "<polyline" in (out / "paths.svg").read_text()
        xy = np.loadtxt(out / "paths.csv", delimiter=",", skiprows=1, usecols=(2, 3))
        names = np.loadtxt(out / "paths.csv", delimiter=",", skiprows=1, usecols=0, dtype=str)
        assert len(xy) == man["paths.near.hops"] + man["paths.far.hops"] + 2
        assert set(names) == {"near", "far"}
        truth = fileio.read_points_csv(out / man["truth.points_file"])
        # each path vertex is a sample point, bit for bit
        assert (truth[None, :, :] == xy[:, None, :]).all(axis=2).any(axis=1).all()

    def test_mds_discrete_histogram_counts_connected_pairs_only(self, tmp_path):
        _, man = run_small("mds-discrete", tmp_path, seed=0, scale_n=8)
        assert man["r0.5.components"] > 1
        assert "hops.hist.65535" not in man
        hist = {k: v for k, v in man.items() if k.startswith("hops.hist.")}
        assert sum(hist.values()) == man["r0.5.bound.pairs_connected"]
        assert max(int(k.rsplit(".", 1)[1]) for k in hist) == man["hops.max"]

    @pytest.mark.parametrize("block", [1, 7, 70, 1 << 16])
    def test_mds_discrete_histogram_equals_dense_bincount(self, tmp_path, monkeypatch, block):
        # blocks of one row, of three rows with a shorter last one, and of
        # the whole matrix, on a graph of two components
        monkeypatch.setattr(hopdist, "_BLOCK_PAIRS", block)
        out, man = run_small("mds-discrete", tmp_path, seed=0, scale_n=20)
        assert man["r0.5.components"] > 1
        h = fileio.read_hops_binary(out / man["r0.5.hops_file"]).hops
        want = np.bincount(h[np.triu(h != INF_HOPS, 1)])
        hist = {int(k.rsplit(".", 1)[1]): v for k, v in man.items() if k.startswith("hops.hist.")}
        assert hist == {v: int(c) for v, c in enumerate(want) if c}

    def test_scale_n_zero_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="scale_n"):
            run_preset("hole", seed=0, out_dir=tmp_path, scale_n=0)
        assert cli_main(["--out", str(tmp_path / "p"), "preset", "run", "hole",
                         "--scale-n", "0"]) == 2
        assert not (tmp_path / "p" / "truth.csv").exists()


# SMACOF's dense solves (cho_solve) add in an order set by the BLAS pool, so
# the localization's coordinates and stress differ by rounding between pools
_POOL_DEPENDENT = {"local_aligned.csv", "local_recovered.csv", "local_stress.csv"}
_POOL_PRESETS = ("rectangles", "knn-band", "hole-local")
_POOL_SCRIPT = """
import sys
from latentgraph import run_preset
for name in sys.argv[2:]:
    run_preset(name, seed=1, out_dir=f"{sys.argv[1]}/{name}", scale_n=300)
"""


def test_outputs_under_one_and_two_blas_threads(tmp_path):
    one, two = run_under_one_and_two_blas_threads(_POOL_SCRIPT, tmp_path, *_POOL_PRESETS)
    files = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(two) for p in two.rglob("*") if p.is_file())
    for rel in files:
        if rel.name not in _POOL_DEPENDENT | {"manifest.json"}:
            assert (one / rel).read_bytes() == (two / rel).read_bytes(), rel
    for name in _POOL_PRESETS:
        man1, man2 = (json.loads((d / name / "manifest.json").read_text()) for d in (one, two))
        assert man1.keys() == man2.keys()
        kept = [k for k in man1 if not k.startswith("local.")
                or k in ("local.max_hops", "local.present_fraction")]
        assert {k: man1[k] for k in kept} == {k: man2[k] for k in kept}


# classical scaling of a 2500-node graph: large enough that a dense gemv over
# the whole matrix gives different bits under one and two BLAS threads
_POOL_MDS_SCRIPT = """
import sys
from latentgraph import Indicator, all_pairs_hops, classical_mds, generate_graph, rectangle, sample_uniform
config = sample_uniform(rectangle(2, 1), 2500, seed=1)
hops = all_pairs_hops(generate_graph(config, Indicator(0.1), seed=1))
emb = classical_mds(hops.hops, v=2, scale=0.1)
open(sys.argv[1], "wb").write(emb.coords.tobytes() + emb.eigenvalues.tobytes())
"""


def test_classical_scaling_under_one_and_two_blas_threads(tmp_path):
    one, two = run_under_one_and_two_blas_threads(_POOL_MDS_SCRIPT, tmp_path)
    assert one.read_bytes() == two.read_bytes()


class TestPlotData:
    def test_svg_and_csv(self, tmp_path):
        square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        svg_path = tmp_path / "sq.svg"
        svg_scatter(svg_path, {"truth": square})
        text = svg_path.read_text()
        assert text.count("<circle") == 4
        assert "viewBox" in text
        write_scatter_csv(tmp_path / "sq.csv", {"truth": square})
        assert (tmp_path / "sq.csv").read_text().splitlines()[0] == "series,x,y"

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            svg_scatter(tmp_path / "e.svg", {"empty": np.empty((0, 2))})
        with pytest.raises(ValueError):
            svg_scatter(tmp_path / "e.svg", {})

    def test_emit_plotdata_from_preset(self, tmp_path):
        out, _ = run_small("hole", tmp_path)
        written = emit_plotdata(out)
        assert any(p.suffix == ".svg" for p in written)
        assert any(p.name.endswith(".scatter.csv") for p in written)

    def test_scatter_csv_rejects_a_bad_series_before_writing(self, tmp_path):
        square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        path = tmp_path / "bad.csv"
        for bad in (np.empty((0, 2)), np.zeros((3, 1))):
            with pytest.raises(ValueError):
                write_scatter_csv(path, {"truth": square, "bad": bad})
            assert not path.exists()

    @pytest.mark.parametrize("name", ["rectangles", "knn-paths"])
    def test_emitted_scatter_csv_parses_with_truth_rows(self, tmp_path, name):
        # rectangles plots one group per variant (its recovered and aligned
        # point files together), knn-paths its truth alone
        out, man = run_small(name, tmp_path, scale_n=300)
        truth = fileio.read_points_csv(out / man["truth.points_file"])
        scatters = [p for p in emit_plotdata(out) if p.name.endswith(".scatter.csv")]
        point_files = sum(key.endswith("points_file") for key in man)
        assert len(scatters) == ((point_files - 1) // 2 if name == "rectangles" else 1)
        for path in scatters:
            assert path.read_text().splitlines()[0] == "series,x,y"
            xy = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2))
            series = np.loadtxt(path, delimiter=",", skiprows=1, usecols=0, dtype=str)
            assert np.array_equal(xy[series == "truth"], truth)
            if name == "rectangles":
                kinds = {str(s).rsplit("_", 1)[-1] for s in series}
                assert kinds == {"truth", "recovered", "aligned"}

    def test_emit_plotdata_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            emit_plotdata(tmp_path)

    def test_emit_plotdata_without_point_files(self, tmp_path):
        fileio.write_manifest(tmp_path / "manifest.json", {"n": 3})
        with pytest.raises(ValueError, match="no point files referenced"):
            emit_plotdata(tmp_path)


class TestCli:
    def test_pipeline_end_to_end(self, tmp_path, capsys):
        out = str(tmp_path)
        assert cli_main(["--out", out, "--seed", "2", "generate",
                         "--domain", "rectangle:2,1", "--n", "200",
                         "--link", "indicator:0.4"]) == 0
        assert cli_main(["--out", out, "hops",
                         "--adjacency", f"{out}/edges.txt"]) == 0
        assert cli_main(["--out", out, "estimate",
                         "--hops", f"{out}/hops.bin", "--r", "0.4"]) == 0
        assert cli_main(["--out", out, "embed",
                         "--matrix", f"{out}/estimate.bin", "--dim", "2",
                         "--align-to", f"{out}/points.csv"]) == 0
        assert cli_main(["--out", out, "check",
                         "--estimate", f"{out}/estimate.bin",
                         "--truth", f"{out}/points.csv",
                         "--eps", "0.08", "--r", "0.4", "--strict"]) == 0
        captured = capsys.readouterr()
        assert "aligned.csv" in captured.out

    def test_preset_list_and_run(self, tmp_path, capsys):
        assert cli_main(["preset", "list"]) == 0
        assert "rectangles" in capsys.readouterr().out
        assert cli_main(["--out", str(tmp_path / "p"), "--seed", "1",
                         "preset", "run", "mds-discrete", "--scale-n", "200"]) == 0
        assert cli_main(["--out", str(tmp_path / "p2"),
                         "preset", "run", "bogus"]) == 2

    def test_plot_command(self, tmp_path):
        out = tmp_path / "p"
        run_preset("hole", seed=1, out_dir=out, scale_n=200)
        assert cli_main(["plot", "--dir", str(out)]) == 0

    def test_mvu_command(self, tmp_path):
        out = str(tmp_path)
        assert cli_main(["--out", out, "--seed", "2", "generate",
                         "--domain", "rectangle:1,1", "--n", "40",
                         "--link", "indicator:0.5"]) == 0
        assert cli_main(["--out", out, "mvu",
                         "--adjacency", f"{out}/edges.txt", "--rank", "3"]) == 0
        trace = (tmp_path / "mvu_trace.csv").read_text().splitlines()
        assert trace[0] == "stage,iter,objective,max_violation"

    def test_mvu_path_has_no_edge_violation(self, tmp_path, capsys):
        # the final snap leaves no edge longer than one, not even by an ulp
        fileio.write_edge_list(tmp_path / "path.txt", Adjacency.from_edges(3, [[0, 1], [1, 2]]))
        assert cli_main(["--out", str(tmp_path), "mvu", "--adjacency", str(tmp_path / "path.txt"),
                         "--rank", "2"]) == 0
        assert "max edge violation=0)" in capsys.readouterr().out

    def test_strict_check_failure_is_exit_3(self, tmp_path):
        out = str(tmp_path)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        fileio.write_points_csv(tmp_path / "points.csv", pts)
        # estimates below the true distances violate the lower bound
        fileio.write_matrix_csv(tmp_path / "est.csv", EstimateMatrix(
            np.array([[0.0, 0.1, 0.1], [0.1, 0.0, 0.1], [0.1, 0.1, 0.0]])))
        assert cli_main(["check", "--estimate", f"{out}/est.csv",
                         "--truth", f"{out}/points.csv",
                         "--eps", "0.05", "--r", "0.4", "--strict"]) == 3

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3)])
    def test_check_rejects_non_square_estimate(self, tmp_path, shape):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        fileio.write_points_csv(tmp_path / "points.csv", pts)
        fileio.write_csv(tmp_path / "est.csv", None, np.full(shape, 2.0).tolist())
        assert cli_main(["check", "--estimate", f"{tmp_path}/est.csv",
                         "--truth", f"{tmp_path}/points.csv",
                         "--eps", "0.05", "--r", "0.4", "--strict"]) == 2

    @pytest.mark.parametrize("kind", ["simple", "general"])
    @pytest.mark.parametrize("flags", [["--eps", "0.05", "--r", "0"],
                                       ["--eps", "0.05", "--r", "-0.4"],
                                       ["--eps", "-1", "--r", "0.4", "--strict"]],
                             ids=["r-zero", "r-negative", "eps-negative-strict"])
    def test_check_with_a_bad_scale_is_exit_2(self, tmp_path, capsys, flags, kind):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        fileio.write_points_csv(tmp_path / "points.csv", pts)
        fileio.write_matrix_csv(tmp_path / "est.csv", EstimateMatrix(pairwise_distances(pts)))
        assert cli_main(["check", "--estimate", f"{tmp_path}/est.csv", "--truth",
                         f"{tmp_path}/points.csv", "--kind", kind, *flags]) == 2
        captured = capsys.readouterr()
        assert "need 0" in captured.err and captured.out == ""

    @pytest.mark.parametrize("row", ["nan,nan", "0.5,0.5,0.5", "a,b"],
                             ids=["nan-row", "wide-row", "text-row"])
    @pytest.mark.parametrize("command", ["check", "embed"])
    def test_malformed_points_file_is_exit_2(self, tmp_path, capsys, command, row):
        # a NaN coordinate, or a third value under an x0,x1 header, in the
        # first row of a 60-point file: rejected with its line, nothing written
        pts = sample_uniform(rectangle(2, 1), 60, seed=0).points
        fileio.write_matrix_csv(tmp_path / "est.csv", EstimateMatrix(pairwise_distances(pts)))
        fileio.write_points_csv(tmp_path / "points.csv", pts)
        lines = (tmp_path / "points.csv").read_text().splitlines()
        lines[1] = row
        (tmp_path / "points.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        args = {"check": ["check", "--estimate", f"{tmp_path}/est.csv", "--truth",
                          f"{tmp_path}/points.csv", "--eps", "0.05", "--r", "0.4"],
                "embed": ["embed", "--matrix", f"{tmp_path}/est.csv", "--dim", "2",
                          "--align-to", f"{tmp_path}/points.csv"]}[command]
        assert cli_main(["--out", str(out), *args]) == 2
        captured = capsys.readouterr()
        assert "points.csv:2: expected 2 finite coordinates" in captured.err
        assert captured.out == "" and not any(out.iterdir())

    def test_estimate_with_an_infinite_scale_is_exit_2(self, tmp_path, capsys):
        hops = HopMatrix(3, np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=np.uint16))
        fileio.write_hops_binary(tmp_path / "hops.bin", hops)
        assert cli_main(["--out", str(tmp_path), "estimate",
                         "--hops", f"{tmp_path}/hops.bin", "--r", "inf"]) == 2
        assert "positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "estimate.bin").exists()

    def test_embed_of_zero_matrix_is_exit_2(self, tmp_path, capsys):
        fileio.write_matrix_binary(tmp_path / "zero.bin", EstimateMatrix(np.zeros((1300, 1300))))
        assert cli_main(["--out", str(tmp_path), "embed",
                         "--matrix", f"{tmp_path}/zero.bin", "--dim", "2"]) == 2
        assert "no positive spectrum" in capsys.readouterr().err

    def test_embed_in_more_dimensions_than_points_is_exit_2(self, tmp_path, capsys):
        mat = pairwise_distances(np.arange(4.0)[:, None])
        fileio.write_matrix_csv(tmp_path / "path.csv", EstimateMatrix(mat))
        out = tmp_path / "out"
        assert cli_main(["--out", str(out), "embed",
                         "--matrix", f"{tmp_path}/path.csv", "--dim", "10"]) == 2
        assert "need v <= n, got v=10 for n=4 points" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("rows, dim", [(3, 2), (30, 3)], ids=["3-row-target", "2-column-target"])
    def test_embed_against_a_misshapen_target_is_exit_2(self, tmp_path, capsys, rows, dim):
        # the target's shape is checked before the embedding is written
        pts = sample_uniform(rectangle(2, 1), 30, seed=0).points
        fileio.write_matrix_binary(tmp_path / "estimate.bin", EstimateMatrix(pairwise_distances(pts)))
        fileio.write_points_csv(tmp_path / "target.csv", pts[:rows])
        out = tmp_path / "out"
        assert cli_main(["--out", str(out), "embed", "--matrix", f"{tmp_path}/estimate.bin",
                         "--dim", str(dim), "--align-to", f"{tmp_path}/target.csv"]) == 2
        captured = capsys.readouterr()
        shapes = f"target has shape ({rows}, 2), the embedding has shape (30, {dim})"
        assert f"target.csv: {shapes}" in captured.err
        assert captured.out == "" and not any(out.iterdir())

    def test_embed_of_asymmetric_matrix_is_exit_2(self, tmp_path, capsys):
        mat = pairwise_distances(np.arange(5.0)[:, None])
        mat[1, 4] += 0.5
        fileio.write_matrix_csv(tmp_path / "asym.csv", EstimateMatrix(mat))
        assert cli_main(["--out", str(tmp_path), "embed",
                         "--matrix", f"{tmp_path}/asym.csv", "--dim", "2"]) == 2
        assert "dissimilarities must be symmetric" in capsys.readouterr().err
        assert not (tmp_path / "embedded.csv").exists()

    def test_embed_of_disconnected_pairs_is_exit_2(self, tmp_path, capsys):
        hops = HopMatrix(4, np.array([[0, 1, 0xFFFF, 0xFFFF], [1, 0, 0xFFFF, 0xFFFF],
                                      [0xFFFF, 0xFFFF, 0, 1], [0xFFFF, 0xFFFF, 1, 0]],
                                     dtype=np.uint16))
        fileio.write_matrix_binary(tmp_path / "est.bin", scale_hops(hops, 0.5))
        assert cli_main(["--out", str(tmp_path), "embed",
                         "--matrix", f"{tmp_path}/est.bin", "--dim", "2"]) == 2
        assert "disconnected (-1) entries" in capsys.readouterr().err
        assert not (tmp_path / "embedded.csv").exists()

    # the unit square's distances with one entry made malformed; the writers
    # write finite values, >= 0 or -1 for a disconnected pair, symmetric
    SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

    @pytest.mark.parametrize("value, mirror, match", [
        (np.nan, True, "must be finite and >= 0, or -1"),
        (-5.0, True, "must be finite and >= 0, or -1"),
        (2.0, False, "must be symmetric"),
    ], ids=["nan", "negative", "asymmetric"])
    @pytest.mark.parametrize("suffix", [".csv", ".bin"])
    def test_malformed_estimate_is_exit_2(self, tmp_path, capsys, value, mirror, match, suffix):
        fileio.write_points_csv(tmp_path / "points.csv", self.SQUARE)
        mat = pairwise_distances(self.SQUARE)
        mat[0, 1] = value
        if mirror:
            mat[1, 0] = value
        path = tmp_path / f"est{suffix}"
        if suffix == ".csv":  # write_matrix_csv would write the NaN as -1
            fileio.write_csv(path, None, mat.tolist())
        else:
            path.write_bytes(b"LGD1" + (4).to_bytes(8, "little") + mat.astype("<f8").tobytes())
        out = tmp_path / "out"
        assert cli_main(["--out", str(out), "check", "--estimate", str(path), "--truth",
                         f"{tmp_path}/points.csv", "--eps", "0.5", "--r", "1", "--strict"]) == 2
        assert cli_main(["--out", str(out), "embed", "--matrix", str(path), "--dim", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.count(f"{path}: ") == 2 and captured.err.count(match) == 2
        assert "(-1) entries" not in captured.err
        assert captured.out == "" and not any(out.iterdir())

    @pytest.mark.parametrize("name, text, where", [
        ("ragged.csv", "0,1\n1,0,2\n", ":2: expected 2 numbers"),
        ("text.csv", "0,a\na,0\n", ":1: expected 2 numbers"),
        ("abc.txt", "n=abc\n0 1\n", ":1: expected an 'n=<count>' header"),
        ("negative.txt", "n=-3\n", ":1: expected an 'n=<count>' header"),
        # counts whose n * n, the range of the pair keys v * n + w, exceeds intp
        ("huge.txt", "n=99999999999999999999\n0 1\n", ":1: n=99999999999999999999 is too large"),
        ("tera.txt", "n=1000000000000\n0 1\n", ":1: n=1000000000000 is too large"),
    ], ids=["ragged-csv", "text-csv", "text-count", "negative-count", "huge-count", "tera-count"])
    def test_malformed_text_file_is_exit_2_with_its_line(self, tmp_path, capsys, name, text, where):
        path = tmp_path / name
        path.write_text(text)
        fileio.write_points_csv(tmp_path / "points.csv", self.SQUARE[:2])
        out = tmp_path / "out"
        args = (["check", "--estimate", str(path), "--truth", f"{tmp_path}/points.csv",
                 "--eps", "0.5", "--r", "1"] if name.endswith(".csv") else
                ["hops", "--adjacency", str(path)])
        assert cli_main(["--out", str(out), *args]) == 2
        captured = capsys.readouterr()
        assert f"{path}{where}" in captured.err
        assert captured.out == "" and not any(out.iterdir())

    def test_unknown_command_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="unknown command 'nope'"):
            cli._run(argparse.Namespace(command="nope", out=str(tmp_path)))

    def test_ingest_cities_command(self, tmp_path, cities_csv):
        assert cli_main(["--out", str(tmp_path), "ingest-cities",
                         "--file", str(cities_csv), "--n", "50"]) == 0
        assert (tmp_path / "cities_points.csv").exists()

    @pytest.mark.parametrize("n", ["0", "1", "2"])
    def test_ingest_cities_below_three_is_exit_2(self, tmp_path, cities_csv, capsys, n):
        assert cli_main(["--out", str(tmp_path), "ingest-cities",
                         "--file", str(cities_csv), "--n", n]) == 2
        assert f"need n_sub >= 3 rows, got n_sub={n}" in capsys.readouterr().err
        assert not (tmp_path / "cities_points.csv").exists()

    def test_check_kind_knn_is_not_a_choice(self):
        # the kNN check needs the point configuration, so the CLI does not offer it
        with pytest.raises(SystemExit) as exc:
            cli_main(["check", "--estimate", "e.csv", "--truth", "p.csv",
                      "--kind", "knn", "--eps", "0.05", "--r", "0.4"])
        assert exc.value.code == 2

    def test_validation_error_is_exit_2(self, tmp_path):
        assert cli_main(["--out", str(tmp_path), "generate",
                         "--domain", "triangle:1", "--n", "10",
                         "--link", "indicator:0.4"]) == 2

    @pytest.mark.parametrize("link", ["indicator:nan", "scaled_indicator:nan,0.5",
                                      "poly:nan,0.5,1", "poly:0.3,0.5,nan", "two_level:nan,0.5,0.1"])
    def test_nan_link_parameter_is_exit_2(self, tmp_path, link):
        # a NaN radius or exponent is a validation error, not an empty graph
        assert cli_main(["--out", str(tmp_path), "generate", "--domain", "rectangle:2,1",
                         "--n", "50", "--link", link]) == 2
        assert not any(tmp_path.iterdir())

    def test_infinite_poly_exponent_is_exit_2(self, tmp_path, capsys):
        # the exponent must be finite; an infinite radius, the Erdős–Rényi limit, stays legal
        assert cli_main(["--out", str(tmp_path), "generate", "--domain", "rectangle:2,1",
                         "--n", "50", "--link", "poly:0.3,1,inf"]) == 2
        assert "need 0 <= alpha < inf, got alpha=inf" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_infinite_poly_radius_links_every_pair(self, tmp_path):
        # phi is c0 at every distance; this suite turns the inf/inf warning it
        # once printed into an error
        assert cli_main(["--out", str(tmp_path), "generate", "--domain", "rectangle:2,1",
                         "--n", "30", "--link", "poly:inf,1,2"]) == 0
        assert fileio.read_edge_list(tmp_path / "edges.txt").edge_count() == 30 * 29 // 2

    # one well-formed spec per entry of the CLI's domain and link tables
    DOMAIN_SPECS = {"rectangle": "rectangle:2,1", "interval": "interval:3",
                    "hole": "hole:2,1,0.5,0.25,1.5,0.75"}
    LINK_SPECS = {"indicator": "indicator:0.4", "scaled_indicator": "scaled_indicator:0.4,0.5",
                  "poly": "poly:0.4,0.8,2", "two_level": "two_level:0.4,0.8,0.2"}

    def test_every_table_entry_has_a_spec(self):
        assert set(self.DOMAIN_SPECS) == set(cli._DOMAINS)
        assert set(self.LINK_SPECS) == set(cli._LINKS)

    @pytest.mark.parametrize("domain", sorted(DOMAIN_SPECS))
    def test_generate_on_every_domain(self, tmp_path, domain):
        assert cli_main(["--out", str(tmp_path), "generate", "--domain", self.DOMAIN_SPECS[domain],
                         "--n", "40", "--link", "indicator:0.4"]) == 0
        assert len(fileio.read_points_csv(tmp_path / "points.csv")) == 40

    @pytest.mark.parametrize("link", sorted(LINK_SPECS))
    def test_generate_on_every_link(self, tmp_path, link):
        assert cli_main(["--out", str(tmp_path), "generate", "--domain", "rectangle:2,1",
                         "--n", "40", "--link", self.LINK_SPECS[link]]) == 0
        assert (tmp_path / "edges.txt").exists()

    @pytest.mark.parametrize("flag, spec", [("--domain", "rectangle:1"), ("--domain", "hole:2,1"),
                                            ("--domain", "bogus:1"), ("--link", "indicator:x"),
                                            ("--link", "indicator"), ("--link", "bogus:1")])
    def test_malformed_spec_is_exit_2(self, tmp_path, capsys, flag, spec):
        specs = {"--domain": "rectangle:2,1", "--link": "indicator:0.4", flag: spec}
        assert cli_main(["--out", str(tmp_path), "generate", "--n", "10",
                         "--domain", specs["--domain"], "--link", specs["--link"]]) == 2
        what = flag.lstrip("-")
        assert f"cannot parse {what} spec {spec!r}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())
