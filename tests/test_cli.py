import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from treeshape import Branch, Lateral, RootTree, load_collection, load_root, save_root, statistics
from treeshape.cli import build_parser, main
from treeshape.metric import DistanceMatrix

from conftest import lateral_at, smooth_tree, straight_tree, transform_tree

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

    def test_normalize_removes_scale(self, tree_files, tmp_path, capsys):
        # a tree against its 3x copy: the scale shows in the distance unless
        # every tree is first rescaled by its main-root length
        pa, _ = tree_files
        p3 = tmp_path / "a3.json"
        save_root(transform_tree(load_root(pa), scale=3.0), p3)
        values = []
        for flags in ([], ["--normalize"]):
            assert main(["distance", str(pa), str(p3), *FAST_FLAGS, *flags]) == 0
            values.append(float(capsys.readouterr().out.strip().split("=")[-1]))
        assert values[0] > 0.3
        assert values[1] < 1e-9

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

    def test_all_zero_weights_exit_1(self, tree_files, capsys):
        pa, pb = tree_files
        zero = ["--lambda-m", "0", "--lambda-s", "0", "--lambda-p", "0"]
        assert main(["distance", str(pa), str(pb), *FAST_FLAGS, *zero]) == 1
        assert "at least one weight must be positive" in one_error_line(capsys.readouterr().err)

    def test_two_samples_on_a_curved_main_exit_0(self, tree_files, capsys):
        # a curved main resampled to its two endpoints leaves the laterals'
        # bases off the main curve; only root files are checked for that
        pa, pb = tree_files
        assert main(["distance", str(pa), str(pb), "--n-main", "2", "--n-lat", "2"]) == 0
        assert np.isfinite(float(capsys.readouterr().out.strip().split("=")[-1]))

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


def contract_trees() -> list:
    """Trees at the edges of the input contract: laterals attached at t = 0
    and t = 1, on a straight and on a curved main, and straight, collinear
    trees (one without laterals, one whose lateral extends the main)."""
    u = np.linspace(0.0, 1.0, 50)
    curved = Branch(np.column_stack([0.2 * np.sin(np.pi * u), -u]))
    straight = straight_tree("ends-straight", laterals=[(0.0, 0.3, 1.0), (1.0, 0.2, -1.0)])
    extension = Branch(np.array([[0.0, -1.0], [0.0, -1.4]]))
    return [
        straight,
        RootTree("ends-curved", curved, (lateral_at(curved, 0.0, 0.3, -1.0, -0.2),
                                         lateral_at(curved, 1.0, 0.2, 1.0, -0.5))),
        straight_tree("collinear-bare", length=1.3),
        RootTree("collinear-extended", straight.main, (Lateral(1.0, extension),)),
    ]


class TestInputContract:
    """Edge cases of the input contract give a finite distance and exit 0."""

    @pytest.fixture
    def contract_dir(self, tmp_path):
        d = tmp_path / "contract"
        d.mkdir()
        for tree in contract_trees():
            save_root(tree, d / f"{tree.id}.json")
        return d

    def test_distance(self, contract_dir, tmp_path):
        files = sorted(contract_dir.iterdir())
        out = tmp_path / "d.json"
        for i, a in enumerate(files):
            for b in files[i:]:
                assert main(["distance", str(a), str(b), *FAST_FLAGS, "--out", str(out)]) == 0
                assert np.isfinite(json.loads(out.read_text())["distance"])

    def test_matrix_records_no_failure(self, contract_dir, tmp_path):
        out = tmp_path / "m.json"
        assert main(["matrix", str(contract_dir), *FAST_FLAGS, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["failures"] == []
        assert np.all(np.isfinite(data["values"]))


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

    def test_step_that_moves_a_position_out_of_range_is_halved(self, tmp_path, monkeypatch,
                                                               capsys):
        # a full step of 5 moves an attachment position out of [0, 1]; the
        # line search must halve it like a step that raises the objective
        rng = np.random.default_rng(3)
        for i in range(3):
            save_root(smooth_tree(rng, f"t{i}", 3), tmp_path / f"t{i}.json")
        results = []
        karcher_mean = statistics.karcher_mean

        def recorded(*args, **kwargs):
            results.append(karcher_mean(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(statistics, "karcher_mean", recorded)
        assert main(["mean", str(tmp_path), "--n-main", "40", "--n-lat", "10", "--step", "5",
                     "--out", str(tmp_path / "mean.json")]) == 0
        assert "objective" in capsys.readouterr().out
        obj = np.array(results[0].objective)
        assert len(obj) > 1 and np.all(np.diff(obj) <= 0.0)

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

    def test_one_sample_is_a_collection(self, fitted, tmp_path):
        out = tmp_path / "s.json"
        assert main(["sample", str(fitted / "atlas.json"), "--n", "1", "--out", str(out)]) == 0
        assert [t.id for t in load_collection(out)] == ["sample-000"]

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
        ["geodesic", "a.json", "b.json", "--steps", "1"],
        ["cluster", "m.csv", "--k", "0"],
        ["matrix", "roots", "--threads", "0"],
        ["atlas", "roots", "--threads", "-3"],
        ["mean", "roots", "--step", "0"],
        ["atlas", "roots", "--step", "-0.5"],
        ["regress-fit", "roots", "--step", "nan"],
        ["mean", "roots", "--step", "inf"],
        ["atlas", "roots", "--step", "-inf"],
        ["mean", "roots", "--max-iter", "-2"],
        ["mean", "roots", "--tol", "nan"],
        ["atlas", "roots", "--tol=-1e-6"],
        ["matrix", "roots", "--lambda-m", "nan"],
        ["distance", "a.json", "b.json", "--lambda-s", "inf"],
        ["atlas", "roots", "--lambda-p", "-1"],
        ["sample", "atlas.json", "--seed", "-1"],
        ["modes", "atlas.json", "--mode", "-1"],
        ["regress-predict", "model.json", "--params", "1,abc,2"],
        ["regress-predict", "model.json", "--params", "nan,1,2"],
        ["regress-predict", "model.json", "--params", "1,-inf,2"],
    ])
    def test_exit_2(self, argv, tmp_path, capsys):
        option = next(a for a in argv if a.startswith("--")).split("=")[0]
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 2
        assert f"argument {option}" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("argv", [
        ["distance", "a.json", "b.json", "--fixed-s"],
        ["matrix", "roots", "--reg-tol", "1e-6"],
        ["distance", "a.json", "b.json", "--threads", "2"],
        ["geodesic", "a.json", "b.json", "--threads", "2"],
        ["cluster", "m.csv", "--n-main", "50"],
        ["cluster", "m.csv", "--threads", "2"],
    ], ids=["fixed-s", "reg-tol", "distance-threads", "geodesic-threads",
            "cluster-n-main", "cluster-threads"])
    def test_removed_switches_exit_2(self, argv, tmp_path, capsys):
        switch = next(a for a in argv if a.startswith("--"))
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 2
        assert f"unrecognized arguments: {switch}" in capsys.readouterr().err

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

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
        args = build_parser().parse_args(["matrix", "roots", "--threads", "1", "--out", "m.csv"])
        assert args.threads == 1
        args = build_parser().parse_args(["geodesic", "a.json", "b.json", "--steps", "2",
                                          "--out", "g.json"])
        assert args.steps == 2
        args = build_parser().parse_args(["cluster", "m.csv", "--k", "1", "--out", "d.json"])
        assert args.k == 1
        args = build_parser().parse_args(["mean", "roots", "--max-iter", "0", "--step", "1e-9",
                                          "--out", "m.json"])
        assert (args.max_iter, args.step) == (0, 1e-9)
        args = build_parser().parse_args(["mean", "roots", "--tol", "0", "--lambda-m", "0",
                                          "--lambda-s", "0", "--lambda-p", "0", "--out", "m.json"])
        assert (args.tol, args.lambda_m, args.lambda_s, args.lambda_p) == (0, 0, 0, 0)
        args = build_parser().parse_args(["sample", "a.json", "--seed", "0", "--out", "s.json"])
        assert args.seed == 0
        args = build_parser().parse_args(["modes", "a.json", "--mode", "0", "--out", "m.json"])
        assert args.mode == 0
        args = build_parser().parse_args(["regress-predict", "m.json", "--params=-1e300,0,2",
                                          "--out", "p.json"])
        assert args.params == [-1e300, 0.0, 2.0]

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
    def test_fit_without_retained_modes_exit_1(self, rng, tmp_path, capsys):
        # five copies of one tree: the atlas has no modes to regress on
        d = tmp_path / "copies"
        d.mkdir()
        tree = smooth_tree(rng, "x", 1)
        for i in range(5):
            save_root(tree, d / f"copy{i}.json")
        out = tmp_path / "model.json"
        assert main(["regress-fit", str(d), *FAST_FLAGS, "--out", str(out)]) == 1
        err = one_error_line(capsys.readouterr().err)
        assert "atlas has no retained modes to regress on" in err
        assert not out.exists()

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
        m, out = tmp_path / "m.json", tmp_path / "dend.json"
        assert main(["matrix", str(collection_dir), *FAST_FLAGS, "--out", str(m)]) == 0
        assert main(["cluster", str(m), "--k", "2", "--out", str(out)]) == 0
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

    def test_directory_is_an_error(self, collection_dir, tmp_path, capsys):
        # cluster reads the file matrix writes; it does not compute one
        assert main(["cluster", str(collection_dir), "--out", str(tmp_path / "d.json")]) == 1
        assert str(collection_dir) in one_error_line(capsys.readouterr().err)
        assert not (tmp_path / "d.json").exists()

    def test_svg_escapes_labels(self, tmp_path):
        m = tmp_path / "m.csv"
        DistanceMatrix(labels=("a&b", "c<d", "e"),
                       values=[[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]]).save(m)
        out = tmp_path / "dend.svg"
        assert main(["cluster", str(m), "--out", str(out)]) == 0
        texts = [el.text for el in ET.fromstring(out.read_text()).iter(f"{SVG_NS}text")]
        assert sorted(texts) == ["a&b", "c<d", "e"]


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """A collection of four trees, with its atlas and regression model."""
    root = tmp_path_factory.mktemp("fitted")
    trees = root / "trees"
    trees.mkdir()
    gen = np.random.default_rng(11)
    for i in range(4):
        save_root(smooth_tree(gen, f"tree{i}", 1 + i % 2, bend=0.15), trees / f"tree{i}.json")
    fit = [str(trees), *FAST_FLAGS, "--max-iter", "2"]
    assert main(["atlas", *fit, "--out", str(root / "atlas.json")]) == 0
    assert main(["regress-fit", *fit, "--out", str(root / "model.json")]) == 0
    assert main(["matrix", str(trees), *FAST_FLAGS, "--out", str(root / "m.csv")]) == 0
    return root


def command_line(command: str, root, out) -> list[str]:
    trees, a, b = root / "trees", root / "trees" / "tree0.json", root / "trees" / "tree1.json"
    fit = [str(trees), *FAST_FLAGS, "--max-iter", "2"]
    return [str(x) for x in {
        "distance": ["distance", a, b, *FAST_FLAGS],
        "geodesic": ["geodesic", a, b, "--steps", "3", *FAST_FLAGS],
        "matrix": ["matrix", trees, *FAST_FLAGS],
        "mean": ["mean", *fit],
        "atlas": ["atlas", *fit],
        "modes": ["modes", root / "atlas.json"],
        "sample": ["sample", root / "atlas.json", "--n", "2"],
        "regress-fit": ["regress-fit", *fit],
        "regress-predict": ["regress-predict", root / "model.json", "--params", "1.1,0.25,0.05"],
        "cluster": ["cluster", root / "m.csv", "--k", "2"],
        "render": ["render", a],
    }[command] + ["--out", out]]


class TestOutputDirectories:
    """Every --out creates its missing parent directories."""

    @pytest.mark.parametrize("command, suffix", [
        ("distance", ".json"), ("geodesic", ".json"), ("matrix", ".csv"), ("matrix", ".json"),
        ("mean", ".json"), ("mean", ".svg"), ("atlas", ".json"), ("modes", ".json"),
        ("sample", ".json"), ("regress-fit", ".json"), ("regress-predict", ".json"),
        ("cluster", ".json"), ("render", ".svg"),
    ])
    def test_writes_into_a_missing_directory(self, fitted, tmp_path, command, suffix):
        out = tmp_path / "missing" / "dir" / f"out{suffix}"
        assert main(command_line(command, fitted, out)) == 0
        assert out.stat().st_size > 0


def one_error_line(err: str) -> str:
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


class TestMalformedFiles:
    """Malformed atlas, model, root and matrix files end in one error line
    and exit 1."""

    @pytest.mark.parametrize("field, value, message", [
        ("mean", [], "atlas mean must be a JSON object"),
        ("retained", None, "atlas retained must be an integer"),
        ("weights", "abc", "atlas weights must be a regular array of numbers"),
        ("layout", {"n_main": 50}, "atlas layout has no 'n_lateral' field"),
        ("eigenvalues", 5, "eigenvalues must be a 1-d array"),
        ("weights", [0.02, float("nan"), 1.0], "weights must be finite and nonnegative"),
    ], ids=["mean-array", "retained-null", "weights-string", "layout-partial", "eigenvalues-number",
            "weights-nan"])
    def test_atlas_field(self, fitted, tmp_path, capsys, field, value, message):
        data = json.loads((fitted / "atlas.json").read_text())
        data[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["sample", str(bad), "--out", str(tmp_path / "s.json")]) == 1
        assert message in one_error_line(capsys.readouterr().err)

    def test_atlas_layout_that_disagrees_with_the_mean(self, fitted, tmp_path, capsys):
        # the same tangent dimension in other blocks: the modes still fit, so
        # only a check against the mean finds the disagreement
        data = json.loads((fitted / "atlas.json").read_text())
        sizes = data["layout"]
        n_lat = sizes["n_laterals"] * (2 * sizes["n_lateral"] + 1)
        data["layout"] = {"n_main": sizes["n_main"], "n_lateral": 0, "n_laterals": n_lat}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["sample", str(bad), "--out", str(tmp_path / "s.json")]) == 1
        assert "disagrees with its mean" in one_error_line(capsys.readouterr().err)

    def test_lateral_without_s(self, fitted, tmp_path, capsys):
        data = json.loads((fitted / "atlas.json").read_text())
        del data["mean"]["laterals"][0]["s"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["sample", str(bad), "--out", str(tmp_path / "s.json")]) == 1
        assert "atlas mean lateral #0 has no 's' field" in one_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("change, message", [
        (lambda d: d.update(param_names=None), "model param_names must be an array of strings"),
        (lambda d: d["atlas"].update(retained=None), "atlas retained must be an integer"),
        (lambda d: d.pop("M"), "model has no 'M' field"),
    ], ids=["param_names-null", "atlas-retained-null", "no-M"])
    def test_model(self, fitted, tmp_path, capsys, change, message):
        data = json.loads((fitted / "model.json").read_text())
        change(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["regress-predict", str(bad), "--params", "1,1,1",
                     "--out", str(tmp_path / "p.json")]) == 1
        assert message in one_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("command, payload, message", [
        ("render", {"main": [[0, 0], [0, -1]], "laterals": None},
         "root 'laterals' must be a JSON array, not NoneType"),
        ("cluster", {"labels": None, "values": []},
         "distance matrix labels must be a JSON array, not NoneType"),
        ("cluster", [1, 2], "distance matrix must be a JSON object, not list"),
        # the lateral starts 3x the attachment tolerance (1e-3 x 10) off the main
        ("render", {"main": [[0, 0], [0, -10]],
                    "laterals": [{"t": 0.5, "points": [[0.03, -5], [1.03, -5]]}]},
         "starts 0.03 from the main curve (tolerance 0.01)"),
    ], ids=["root-laterals-null", "matrix-labels-null", "matrix-top-level-array",
            "root-lateral-off-the-main"])
    def test_root_and_matrix(self, tmp_path, capsys, command, payload, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main([command, str(bad), "--out", str(tmp_path / "out.svg")]) == 1
        assert message in one_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe{}"], ids=["syntax", "not-utf8"])
    @pytest.mark.parametrize("command", ["mean", "sample", "cluster", "regress-predict", "render"])
    def test_not_json(self, tmp_path, capsys, command, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        extra = ["--params", "1,1,1"] if command == "regress-predict" else []
        assert main([command, str(bad), *extra, "--out", str(tmp_path / "out.json")]) == 1
        assert f"error: {bad}: not valid JSON: " in one_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("text, message", [
        ("", "empty distance-matrix file"),
        ("a,b\n0,1\n1\n", "row 2 has 1 values, not 2"),
        ("a,b\n", "2 labels but 0 rows"),
        ("a,b\n0,1\n1,0\n1,0\n", "2 labels but 3 rows"),
    ], ids=["empty", "ragged", "labels-only", "extra-row"])
    def test_matrix_csv(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert main(["cluster", str(bad), "--out", str(tmp_path / "out.json")]) == 1
        assert f"error: {bad}: {message}" in one_error_line(capsys.readouterr().err)


class TestRender:
    def test_render_svg(self, tree_files, tmp_path):
        pa, _ = tree_files
        out = tmp_path / "tree.svg"
        assert main(["render", str(pa), "--out", str(out)]) == 0
        root = ET.fromstring(out.read_text())
        assert len(root.findall(f".//{SVG_NS}polyline")) == 3  # main + 2 laterals
