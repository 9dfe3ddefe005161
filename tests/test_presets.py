import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import latentgraph
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
)
from latentgraph.cli import main as cli_main
from latentgraph.plotdata import emit_plotdata, svg_scatter, write_scatter_csv
from tests import reference_graphs


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
        got = presets._estimate(config, adj, 0.5, eps,
                                lambda est: check_simple_bound(est, config.points, eps.upper, 0.5),
                                tmp_path, "g", man)
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


def run_under_one_and_two_blas_threads(script, tmp_path, *args):
    """Run ``script`` with output path ``tmp_path/<threads>`` in two
    subprocesses, with one and two BLAS threads set in the children only."""
    src = str(Path(latentgraph.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        subprocess.run([sys.executable, "-c", script, str(tmp_path / threads), *args],
                       env=env, check=True, timeout=120)
    return tmp_path / "1", tmp_path / "2"


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

    def test_embed_of_asymmetric_matrix_is_exit_2(self, tmp_path, capsys):
        mat = pairwise_distances(np.arange(5.0)[:, None])
        mat[1, 4] += 0.5
        fileio.write_matrix_csv(tmp_path / "asym.csv", EstimateMatrix(mat))
        assert cli_main(["--out", str(tmp_path), "embed",
                         "--matrix", f"{tmp_path}/asym.csv", "--dim", "2"]) == 2
        assert "dissimilarities must be symmetric" in capsys.readouterr().err
        assert not (tmp_path / "embedded.csv").exists()

    def test_ingest_cities_command(self, tmp_path, cities_csv):
        assert cli_main(["--out", str(tmp_path), "ingest-cities",
                         "--file", str(cities_csv), "--n", "50"]) == 0
        assert (tmp_path / "cities_points.csv").exists()

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
