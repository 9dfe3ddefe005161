import hashlib
import json

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from latentgraph import fileio, pairwise_distances, preset_names, presets, run_preset
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
        for name in preset_names():
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
        fileio.write_matrix_csv(tmp_path / "est.csv",
                                np.array([[0.0, 0.1, 0.1], [0.1, 0.0, 0.1], [0.1, 0.1, 0.0]]))
        assert cli_main(["check", "--estimate", f"{out}/est.csv",
                         "--truth", f"{out}/points.csv",
                         "--eps", "0.05", "--r", "0.4", "--strict"]) == 3

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3)])
    def test_check_rejects_non_square_estimate(self, tmp_path, shape):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        fileio.write_points_csv(tmp_path / "points.csv", pts)
        fileio.write_matrix_csv(tmp_path / "est.csv", np.full(shape, 2.0))
        assert cli_main(["check", "--estimate", f"{tmp_path}/est.csv",
                         "--truth", f"{tmp_path}/points.csv",
                         "--eps", "0.05", "--r", "0.4", "--strict"]) == 2

    def test_embed_of_zero_matrix_is_exit_2(self, tmp_path, capsys):
        fileio.write_matrix_binary(tmp_path / "zero.bin", np.zeros((1300, 1300)))
        assert cli_main(["--out", str(tmp_path), "embed",
                         "--matrix", f"{tmp_path}/zero.bin", "--dim", "2"]) == 2
        assert "no positive spectrum" in capsys.readouterr().err

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
