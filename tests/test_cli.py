import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from treeshape import load_root, save_root
from treeshape.cli import build_parser, main
from treeshape.metric import DistanceMatrix

from conftest import smooth_tree

SVG_NS = "{http://www.w3.org/2000/svg}"

FAST_FLAGS = ["--n-main", "50", "--n-lat", "20"]


@pytest.fixture
def tree_files(rng, tmp_path):
    a = smooth_tree(rng, "alpha", 2)
    b = smooth_tree(rng, "beta", 1)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_root(a, pa)
    save_root(b, pb)
    return pa, pb


@pytest.fixture
def collection_dir(rng, tmp_path):
    d = tmp_path / "trees"
    d.mkdir()
    for i in range(4):
        t = smooth_tree(rng, f"tree{i}", int(rng.integers(1, 3)), bend=0.15)
        save_root(t, d / f"tree{i}.json")
    return d


class TestDistanceCommand:
    def test_self_distance_zero(self, tree_files, capsys):
        pa, _ = tree_files
        assert main(["distance", str(pa), str(pa), *FAST_FLAGS]) == 0
        out = capsys.readouterr().out
        assert "distance" in out
        value = float(out.strip().split("=")[-1])
        assert value == 0.0

    def test_json_report(self, tree_files, tmp_path, capsys):
        pa, pb = tree_files
        out = tmp_path / "report.json"
        assert main(["distance", str(pa), str(pb), *FAST_FLAGS, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert {"a", "b", "distance", "cost_sq", "rotation_angle"} <= set(report)
        assert report["distance"] == pytest.approx(np.sqrt(report["cost_sq"]))

    def test_missing_file_exit_1(self, tmp_path, capsys):
        assert main(["distance", str(tmp_path / "no.json"), str(tmp_path / "no.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_usage_error_exit_2(self):
        assert main(["distance"]) == 2

    def test_two_samples_on_a_curved_main_exit_1(self, tree_files, capsys):
        # a curved main resampled to its two endpoints leaves the laterals'
        # bases off the main curve
        pa, pb = tree_files
        assert main(["distance", str(pa), str(pb), "--n-main", "2", "--n-lat", "2"]) == 1
        assert "from the main curve" in capsys.readouterr().err

    def test_unknown_command_exit_2(self):
        assert main(["frobnicate"]) == 2


class TestGeodesicCommand:
    def test_svg_strip(self, tree_files, tmp_path, capsys):
        pa, pb = tree_files
        out = tmp_path / "g.svg"
        code = main([
            "geodesic", str(pa), str(pb), "--steps", "5",
            "--lambda-m", "0.02", "--lambda-s", "1.0", "--lambda-p", "1.0",
            *FAST_FLAGS, "--out", str(out),
        ])
        assert code == 0
        root = ET.fromstring(out.read_text())
        # 5 side-by-side panels
        assert float(root.get("width")) == pytest.approx(5 * 240.0)

    def test_json_steps_round_trip(self, tree_files, tmp_path):
        pa, pb = tree_files
        out = tmp_path / "g.json"
        assert main(["geodesic", str(pa), str(pb), "--steps", "3", *FAST_FLAGS,
                     "--out", str(out)]) == 0
        from treeshape.tree_model import tree_from_dict

        steps = [tree_from_dict(d) for d in json.loads(out.read_text())]
        assert len(steps) == 3


class TestMatrixCommand:
    def test_csv_output(self, collection_dir, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert main(["matrix", str(collection_dir), *FAST_FLAGS, "--out", str(out)]) == 0
        dm = DistanceMatrix.load(out)
        assert len(dm.labels) == 4
        np.testing.assert_array_equal(dm.values, dm.values.T)

    def test_deterministic_across_workers(self, collection_dir, tmp_path):
        outs = []
        for name, threads in (("m1.csv", "1"), ("m2.csv", "2")):
            out = tmp_path / name
            assert main(["matrix", str(collection_dir), *FAST_FLAGS,
                         "--threads", threads, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_env_var_worker_count(self, collection_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("TREESHAPE_THREADS", "2")
        out = tmp_path / "m.json"
        assert main(["matrix", str(collection_dir), *FAST_FLAGS, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["labels"] == [f"tree{i}" for i in range(4)]


class TestMeanAndAtlas:
    def test_mean_outputs_valid_root(self, collection_dir, tmp_path, capsys):
        out = tmp_path / "mean.json"
        assert main(["mean", str(collection_dir), *FAST_FLAGS, "--max-iter", "10",
                     "--out", str(out)]) == 0
        tree = load_root(out)
        assert tree.main.length > 0
        summary = capsys.readouterr().out
        assert "objective" in summary
        assert "(stopped: " in summary

    def test_atlas_then_modes_and_sample(self, collection_dir, tmp_path, capsys):
        atlas_path = tmp_path / "atlas.json"
        assert main(["atlas", str(collection_dir), *FAST_FLAGS, "--max-iter", "10",
                     "--out", str(atlas_path)]) == 0
        assert "retained" in capsys.readouterr().out

        strip = tmp_path / "modes.svg"
        assert main(["modes", str(atlas_path), "--mode", "0",
                     "--alpha-range=-2:2:5", "--out", str(strip)]) == 0
        ET.fromstring(strip.read_text())

        trees_out = tmp_path / "samples.json"
        assert main(["sample", str(atlas_path), "--n", "3", "--seed", "7",
                     "--out", str(trees_out)]) == 0
        from treeshape.tree_model import tree_from_dict

        samples = [tree_from_dict(d) for d in json.loads(trees_out.read_text())]
        assert [t.id for t in samples] == ["sample-000", "sample-001", "sample-002"]

    def test_sample_byte_deterministic(self, collection_dir, tmp_path):
        atlas_path = tmp_path / "atlas.json"
        main(["atlas", str(collection_dir), *FAST_FLAGS, "--max-iter", "10",
              "--out", str(atlas_path)])
        outs = []
        for name in ("s1.json", "s2.json"):
            out = tmp_path / name
            assert main(["sample", str(atlas_path), "--n", "3", "--seed", "7",
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_modes_bad_range_exit_2(self, tmp_path, capsys):
        # options are checked while parsing, before the atlas file is read
        assert main(["modes", str(tmp_path / "atlas.json"), "--alpha-range", "oops",
                     "--out", str(tmp_path / "x.svg")]) == 2
        assert "--alpha-range" in capsys.readouterr().err


class TestUsageErrors:
    """Bad option values exit with 2 before any file is read."""

    @pytest.mark.parametrize("argv", [
        ["matrix", "roots", "--n-main", "1"],
        ["matrix", "roots", "--n-lat", "0"],
        ["distance", "a.json", "b.json", "--n-main", "2.5"],
        ["atlas", "roots", "--n-lat", "-3"],
        ["distance", "a.json", "b.json", "--reg-iter", "0"],
        ["matrix", "roots", "--reg-iter", "-3"],
        ["sample", "atlas.json", "--n", "0"],
        ["sample", "atlas.json", "--n", "-2"],
        ["sample", "atlas.json", "--range=1:-1"],
        ["sample", "atlas.json", "--range=0.5:0.5"],
        ["sample", "atlas.json", "--range=-1:1:3"],
        ["sample", "atlas.json", "--range=a:b"],
        ["modes", "atlas.json", "--alpha-range=-2:2:2.7"],
        ["modes", "atlas.json", "--alpha-range=-2:2:0"],
        ["modes", "atlas.json", "--alpha-range=-2:2"],
        ["modes", "atlas.json", "--alpha-range=x:2:5"],
    ])
    def test_exit_2(self, argv, tmp_path, capsys):
        option = next(a for a in argv if a.startswith("--")).split("=")[0]
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 2
        assert f"argument {option}" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_smallest_valid_values_parse(self):
        args = build_parser().parse_args([
            "matrix", "roots", "--n-main", "2", "--n-lat", "2", "--out", "m.csv"])
        assert (args.n_main, args.n_lat) == (2, 2)
        args = build_parser().parse_args(["matrix", "roots", "--reg-iter", "1", "--out", "m.csv"])
        assert args.reg_iter == 1
        args = build_parser().parse_args(["sample", "a.json", "--n", "1", "--out", "s.json"])
        assert args.n == 1
        args = build_parser().parse_args(["sample", "a.json", "--range=-0.5:2", "--out", "s.json"])
        assert args.range == (-0.5, 2.0)

    def test_alpha_range_count_one_and_descending(self, collection_dir, tmp_path):
        atlas_path = tmp_path / "atlas.json"
        assert main(["atlas", str(collection_dir), *FAST_FLAGS, "--max-iter", "3",
                     "--out", str(atlas_path)]) == 0
        for spec, count in (("0:1:1", 1), ("2:-2:3", 3)):
            out = tmp_path / "modes.json"
            assert main(["modes", str(atlas_path), f"--alpha-range={spec}",
                         "--out", str(out)]) == 0
            assert len(json.loads(out.read_text())) == count


class TestRegression:
    def test_fit_and_predict(self, collection_dir, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(["regress-fit", str(collection_dir), *FAST_FLAGS,
                     "--max-iter", "10", "--out", str(model_path)]) == 0
        model = json.loads(model_path.read_text())
        assert model["param_names"] == [
            "main_length", "lateral_mean_length", "lateral_std_length",
        ]
        out = tmp_path / "predicted.json"
        assert main(["regress-predict", str(model_path),
                     "--params", "1.1,0.25,0.05", "--out", str(out)]) == 0
        tree = load_root(out)
        assert tree.main.length > 0


class TestCluster:
    def test_from_directory_json(self, collection_dir, tmp_path, capsys):
        out = tmp_path / "dend.json"
        assert main(["cluster", str(collection_dir), *FAST_FLAGS, "--k", "2",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["merges"]) == 3
        assert data["clusters"]["k"] == 2
        assert len(data["clusters"]["labels"]) == 4
        assert "cluster" in capsys.readouterr().out

    def test_from_matrix_csv_svg(self, collection_dir, tmp_path):
        m = tmp_path / "m.csv"
        main(["matrix", str(collection_dir), *FAST_FLAGS, "--out", str(m)])
        out = tmp_path / "dend.svg"
        assert main(["cluster", str(m), "--linkage", "average", "--out", str(out)]) == 0
        ET.fromstring(out.read_text())


class TestRender:
    def test_render_svg(self, tree_files, tmp_path):
        pa, _ = tree_files
        out = tmp_path / "tree.svg"
        assert main(["render", str(pa), "--out", str(out)]) == 0
        root = ET.fromstring(out.read_text())
        assert len(root.findall(f".//{SVG_NS}polyline")) == 3  # main + 2 laterals
