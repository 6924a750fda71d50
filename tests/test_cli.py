import contextlib
import copy
import csv
import inspect
import io
import json
import os
import shlex
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeshape
from treeshape import Branch, Lateral, RootTree, load_collection, load_root, save_root, statistics
from treeshape.cli import build_parser, main
from treeshape.clustering import Dendrogram
from treeshape.metric import DistanceMatrix
from treeshape.registration import MAX_MAIN_SAMPLES
from treeshape.srvf import DEFAULT_WEIGHTS
from treeshape.tree_model import (DEFAULT_LATERAL_SAMPLES, DEFAULT_MAIN_SAMPLES, MAX_BRANCH_LENGTH,
                                  tree_to_dict)

from conftest import lateral_at, smooth_tree, straight_tree, transform_tree

SVG_NS = "{http://www.w3.org/2000/svg}"

FAST_FLAGS = ["--n-main", "50", "--n-lat", "20"]
FIXTURES = Path(__file__).resolve().parents[1] / "bench" / "fixtures"
FIXTURE_MODEL = FIXTURES / "model.json"


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

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 8 GiB", "error: Unable to allocate 8 GiB"),
        ("", "error: MemoryError"),
    ], ids=["message", "bare"])
    def test_memory_error_exit_1(self, tree_files, monkeypatch, capsys, message, line):
        # a failed allocation is one error line, like any computation error
        def fail(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(treeshape.metric, "register_pair", fail)
        pa, pb = tree_files
        assert main(["distance", str(pa), str(pb)]) == 1
        assert one_error_line(capsys.readouterr().err) == line

    def test_two_samples_on_a_curved_main_exit_0(self, tree_files, capsys):
        # a curved main resampled to its two endpoints leaves the laterals'
        # bases off the main curve; only root files are checked for that
        pa, pb = tree_files
        assert main(["distance", str(pa), str(pb), "--n-main", "2", "--n-lat", "2"]) == 0
        assert np.isfinite(float(capsys.readouterr().out.strip().split("=")[-1]))

    def test_closed_lateral_collapsed_by_resampling_exit_1(self, tmp_path, capsys):
        # the error names the lateral and the resampling, not the file
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(root_with_lateral(points=[[0, -5], [1, -5], [1, -6], [0, -5]])))
        assert main(["distance", str(path), str(path), "--n-lat", "2"]) == 1
        assert one_error_line(capsys.readouterr().err) == (
            "error: lateral at t=0.5: resampling to 2 points collapses the branch to zero length "
            "(its first and last points coincide)")
        assert main(["distance", str(path), str(path), "--n-lat", "3"]) == 0

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

    def test_self_distance_prints_as_distance_does(self, tree_files, tmp_path, capsys):
        # both commands show a numerically zero distance as 0
        pa, _ = tree_files
        assert main(["distance", str(pa), str(pa), *FAST_FLAGS]) == 0
        assert capsys.readouterr().out.endswith("= 0\n")
        assert main(["geodesic", str(pa), str(pa), *FAST_FLAGS,
                     "--out", str(tmp_path / "g.json")]) == 0
        assert capsys.readouterr().out.endswith("distance 0\n")


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

    @pytest.mark.parametrize("command", ["mean", "atlas"])
    def test_deterministic_across_workers(self, collection_dir, tmp_path, command):
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{command}-{threads}.json"
            assert main([command, str(collection_dir), *FAST_FLAGS, "--max-iter", "2",
                         "--threads", threads, "--out", str(out)]) == 0
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
        ["geodesic", "a.json", "b.json", "--n-main", "0"],
        ["regress-fit", "roots", "--n-lat", "1"],
        ["sample", "atlas.json", "--n", "0"],
        ["sample", "atlas.json", "--n", "-2"],
        ["sample", "atlas.json", "--n", "x"],
        ["sample", "atlas.json", "--seed", "1.5"],
        ["cluster", "m.csv", "--linkage", "ward"],
        ["modes", "atlas.json", "--mode", "x"],
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
        ["atlas", "roots", "--max-iter", "2.5"],
        ["regress-fit", "roots", "--max-iter=-1"],
        ["matrix", "roots", "--lambda-m", "nan"],
        ["distance", "a.json", "b.json", "--lambda-s", "inf"],
        ["atlas", "roots", "--lambda-p", "-1"],
        ["sample", "atlas.json", "--seed", "-1"],
        ["modes", "atlas.json", "--mode", "-1"],
        ["regress-predict", "model.json", "--params", "1,abc,2"],
        ["regress-predict", "model.json", "--params", "nan,1,2"],
        ["regress-predict", "model.json", "--params", "1,-inf,2"],
        ["modes", "atlas.json", "--alpha-range=nan:2:5"],
        ["modes", "atlas.json", "--alpha-range=-inf:2:5"],
        ["modes", "atlas.json", "--alpha-range=-2:inf:3"],
    ])
    def test_exit_2(self, argv, tmp_path, capsys):
        option = next(a for a in argv if a.startswith("--")).split("=")[0]
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 2
        assert f"argument {option}" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("argv", [
        ["distance", "a.json", "b.json", "--fixed-s"],
        ["matrix", "roots", "--reg-tol", "1e-6"],
        ["matrix", "roots", "--reg-iter", "3"],
        ["distance", "a.json", "b.json", "--threads", "2"],
        ["geodesic", "a.json", "b.json", "--threads", "2"],
        ["cluster", "m.csv", "--n-main", "50"],
        ["cluster", "m.csv", "--threads", "2"],
        ["mean", "roots", "--tol", "1e-6"],
        ["atlas", "roots", "--tol", "1e-6"],
        ["regress-fit", "roots", "--tol", "1e-6"],
        ["sample", "atlas.json", "--range=-1:1"],
    ], ids=["fixed-s", "reg-tol", "reg-iter", "distance-threads", "geodesic-threads",
            "cluster-n-main", "cluster-threads", "mean-tol", "atlas-tol", "regress-fit-tol",
            "sample-range"])
    def test_removed_switches_exit_2(self, argv, tmp_path, capsys):
        switch = next(a for a in argv if a.startswith("--"))
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 2
        assert f"unrecognized arguments: {switch}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["distance", "geodesic", "matrix", "mean", "atlas",
                                         "regress-fit"])
    def test_n_main_above_the_dp_ceiling_exit_2(self, command, tmp_path, capsys):
        inputs = ["a.json", "b.json"] if command in ("distance", "geodesic") else ["roots"]
        out = ["--out", str(tmp_path / "out.json")]
        assert main([command, *inputs, "--n-main", str(MAX_MAIN_SAMPLES + 1), *out]) == 2
        assert "argument --n-main: must be at most 1459, got 1460" in capsys.readouterr().err
        args = build_parser().parse_args([command, *inputs, "--n-main", "1459", *out])
        assert args.n_main == MAX_MAIN_SAMPLES

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_smallest_valid_values_parse(self):
        args = build_parser().parse_args([
            "matrix", "roots", "--n-main", "2", "--n-lat", "2", "--out", "m.csv"])
        assert (args.n_main, args.n_lat) == (2, 2)
        args = build_parser().parse_args(["sample", "a.json", "--n", "1", "--out", "s.json"])
        assert args.n == 1
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
        args = build_parser().parse_args(["mean", "roots", "--lambda-m", "0",
                                          "--lambda-s", "0", "--lambda-p", "0", "--out", "m.json"])
        assert (args.lambda_m, args.lambda_s, args.lambda_p) == (0, 0, 0)
        args = build_parser().parse_args(["sample", "a.json", "--seed", "0", "--out", "s.json"])
        assert args.seed == 0
        args = build_parser().parse_args(["modes", "a.json", "--mode", "0", "--out", "m.json"])
        assert args.mode == 0
        args = build_parser().parse_args(["regress-predict", "m.json", "--params=-1e300,0,2",
                                          "--out", "p.json"])
        assert args.params == [-1e300, 0.0, 2.0]

    def test_readme_examples_parse(self):
        # a flag removed from the parser but left in README fails here
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = [b.split("```", 1)[0] for b in readme.split("```sh\n")[1:]]
        lines = [ln for b in blocks for ln in b.splitlines() if ln.startswith("treeshape ")]
        for line in lines:
            try:
                build_parser().parse_args(shlex.split(line)[1:])
            except SystemExit:
                pytest.fail(f"README example does not parse: {line}")
        assert {shlex.split(ln)[1] for ln in lines} == set(treeshape.cli._COMMANDS)

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
        ("cluster", ".json"), ("render", ".svg"), ("render", ".json"),
    ])
    def test_writes_into_a_missing_directory(self, fitted, tmp_path, command, suffix):
        out = tmp_path / "missing" / "dir" / f"out{suffix}"
        assert main(command_line(command, fitted, out)) == 0
        assert out.stat().st_size > 0


def one_error_line(err: str) -> str:
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


def root_with_lateral(**fields) -> dict:
    """A root object whose one lateral, at t = 0.5 on the main, has ``fields``
    in place of its own."""
    lateral = {"t": 0.5, "points": [[0, -5], [1, -5]], **fields}
    return {"main": [[0, 0], [0, -10]], "laterals": [lateral]}


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
        ("eigenvalues", lambda ev: [-ev[0], *ev[1:]], "eigenvalues must be finite and nonnegative"),
        ("eigenvalues", lambda ev: [float("inf"), *ev[1:]],
         "eigenvalues must be finite and nonnegative"),
        ("retained", -1, "retained must be in [0, 4], got -1"),
        ("retained", 5, "retained must be in [0, 4], got 5"),
        ("modes", lambda md: np.transpose(md).tolist(),
         "modes must have shape (4, 346), got (346, 4)"),
        ("modes", lambda md: [[10**400, *md[0][1:]], *md[1:]],
         "atlas modes must be a regular array of numbers (int too large to convert to float)"),
        ("modes", lambda md: [[float("nan"), *md[0][1:]], *md[1:]], "atlas modes must be finite"),
        ("training_coeffs", lambda tc: [[float("-inf"), *tc[0][1:]], *tc[1:]],
         "atlas training_coeffs must be finite"),
        ("eigenvalues", lambda ev: [10**400, *ev[1:]],
         "atlas eigenvalues must be a regular array of numbers (int too large to convert to float)"),
        # a NaN anchor once loaded, and sample failed on branch coordinates
        ("mean", lambda mean: {**mean, "anchor": [float("nan"), mean["anchor"][1]]},
         "SRVF-tree anchor must be finite"),
        # finite, but every x coordinate of a sample once collapsed to the anchor's
        ("mean", lambda mean: {**mean, "anchor": [-1e300, mean["anchor"][1]]},
         "SRVF-tree anchor coordinate -1e+300 exceeds the bound 1e+150"),
        # finite, but its SRVF squares to inf: RuntimeWarnings once preceded the error
        ("modes", lambda md: [[1e300, *md[0][1:]], *md[1:]], "exceeds the bound 2e+75"),
    ], ids=["mean-array", "retained-null", "weights-string", "layout-partial", "eigenvalues-number",
            "weights-nan", "eigenvalues-negative", "eigenvalues-inf", "retained-negative",
            "retained-above-modes", "modes-transposed", "modes-huge-integer", "modes-nan",
            "training_coeffs-inf", "eigenvalues-huge-integer", "mean-anchor-nan",
            "mean-anchor-1e300", "modes-1e300"])
    def test_atlas_field(self, fitted, tmp_path, capsys, recwarn, field, value, message):
        data = json.loads((fitted / "atlas.json").read_text())
        data[field] = value(data[field]) if callable(value) else value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        for command in ("sample", "modes"):
            assert main([command, str(bad), "--out", str(tmp_path / "s.json")]) == 1
            assert message in one_error_line(capsys.readouterr().err)
        assert not recwarn.list

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

    @pytest.mark.parametrize("model, change, message", [
        ("fitted", lambda d: d.update(param_names=None),
         "model param_names must be an array of strings"),
        ("fitted", lambda d: d["atlas"].update(retained=None), "atlas retained must be an integer"),
        ("fitted", lambda d: d.pop("M"), "model has no 'M' field"),
        # the fitted atlas's retained count depends on the registration; the fixture's is fixed
        ("fixture", lambda d: d["M"].append(d["M"][-1]), "M has 7 rows, but the atlas retains 6 modes"),
        # the fitted atlas's coefficients are square; the fixture's are (8, 6)
        ("fixture", lambda d: d["atlas"].update(
            training_coeffs=np.transpose(d["atlas"]["training_coeffs"]).tolist()),
         "training_coeffs must have shape (m, 6), got (6, 8)"),
        ("fixture", lambda d: d["M"][0].__setitem__(0, 10**400),
         "model M must be a regular array of numbers (int too large to convert to float)"),
        # a NaN in M once reached exp_map, which warned that it clamped the NaN
        ("fixture", lambda d: d["M"][0].__setitem__(0, float("nan")), "model M must be finite"),
        ("fixture", lambda d: d["atlas"]["training_coeffs"][0].__setitem__(0, float("nan")),
         "atlas training_coeffs must be finite"),
    ], ids=["param_names-null", "atlas-retained-null", "no-M", "M-extra-row",
            "training_coeffs-transposed", "M-huge-integer", "M-nan", "training_coeffs-nan"])
    def test_model(self, fitted, tmp_path, capsys, recwarn, model, change, message):
        path = fitted / "model.json" if model == "fitted" else FIXTURE_MODEL
        data = json.loads(path.read_text())
        change(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["regress-predict", str(bad), "--params", "1,1,1",
                     "--out", str(tmp_path / "p.json")]) == 1
        assert message in one_error_line(capsys.readouterr().err)
        assert not recwarn.list

    def test_M_beyond_the_srvf_bound(self, tmp_path, capsys, recwarn):
        # finite, but the SRVF it gives squares to inf: RuntimeWarnings once
        # preceded the error; the huge positions are still clamped first
        data = json.loads(FIXTURE_MODEL.read_text())
        data["M"][0][0] = 1e300
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["regress-predict", str(bad), "--params", "1.0,0.3,0.05",
                     "--out", str(tmp_path / "p.json")]) == 1
        assert "exceeds the bound 2e+75" in one_error_line(capsys.readouterr().err)
        assert [str(w.message) for w in recwarn.list] == [CLAMP_WARNING]

    @pytest.mark.parametrize("command, payload, message", [
        ("render", {"main": [[0, 0], [0, -1]], "laterals": None},
         "root 'laterals' must be a JSON array, not NoneType"),
        ("cluster", {"labels": None, "values": []},
         "distance matrix labels must be a JSON array, not NoneType"),
        ("cluster", [1, 2], "distance matrix must be a JSON object, not list"),
        ("cluster", {"labels": [1, 2, 3], "values": [[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]]},
         "distance matrix labels must be strings"),
        ("cluster", {"labels": ["a", "b"], "values": [[0, 1], [1, 0]], "failures": [[0, 7, "x"]]},
         "distance matrix failures must index its 2 labels"),
        # the lateral starts 3x the attachment tolerance (1e-3 x 10) off the main
        ("render", {"main": [[0, 0], [0, -10]],
                    "laterals": [{"t": 0.5, "points": [[0.03, -5], [1.03, -5]]}]},
         "starts 0.03 from the main curve (tolerance 0.01)"),
        ("render", root_with_lateral(t="0.5"), "invalid lateral #0: 't' must be a number, not '0.5'"),
        ("render", root_with_lateral(t=True), "invalid lateral #0: 't' must be a number, not True"),
        ("render", root_with_lateral(virtual="false"),
         "invalid lateral #0: 'virtual' must be true or false, not 'false'"),
        ("render", root_with_lateral(virtual=0),
         "invalid lateral #0: 'virtual' must be true or false, not 0"),
        ("render", {"main": [[0, 0], [0, -10**400]]},
         "invalid or missing 'main' array: branch points must be a regular array of numbers "
         "(int too large to convert to float)"),
        ("render", root_with_lateral(t=10**400),
         "invalid root: lateral t must be a regular array of numbers "
         "(int too large to convert to float)"),
        ("render", root_with_lateral(points=[[0, -5], [1e200, -5]]),
         "invalid lateral #0: branch length inf exceeds the bound 1e+150"),
        ("cluster", {"labels": ["a", "b"], "values": [[0, 1], [1, 0]], "failures": ["01x"]},
         "distance matrix failures must be [i, j, message] entries"),
        ("cluster", {"labels": ["a", "b"], "values": [[0, 1], [1, 0]], "failures": [[0, 1.7, "x"]]},
         "distance matrix failure index must be an integer, not 1.7"),
        # written as is: json.dumps would spell the parsed value Infinity
        ("cluster", '{"labels": ["a", "b"], "values": [[0, 1], [1, 0]], "failures": [[0, 1e400, "x"]]}',
         "distance matrix failure index must be an integer, not inf"),
        ("cluster", {"labels": ["a", "b"], "values": [[0, 1], [1, 0]], "failures": [[0, 1, "x", 2]]},
         "distance matrix failures must be [i, j, message] entries"),
        ("cluster", {"labels": ["a", "b"], "values": [[0, 1], [1, 0]], "failures": [[0, 1, 7]]},
         "distance matrix failures must be [i, j, message] entries"),
    ], ids=["root-laterals-null", "matrix-labels-null", "matrix-top-level-array",
            "matrix-labels-numbers", "matrix-failure-out-of-range", "root-lateral-off-the-main",
            "root-t-string", "root-t-boolean", "root-virtual-string", "root-virtual-number",
            "root-main-huge-integer", "root-t-huge-integer", "root-lateral-beyond-the-bound",
            "matrix-failure-string", "matrix-failure-fractional-index",
            "matrix-failure-infinite-index", "matrix-failure-four-items",
            "matrix-failure-number-message"])
    def test_root_and_matrix(self, tmp_path, capsys, command, payload, message):
        bad = tmp_path / "bad.json"
        bad.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        assert main([command, str(bad), "--out", str(tmp_path / "out.svg")]) == 1
        assert message in one_error_line(capsys.readouterr().err)

    def test_root_of_an_array_is_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        off = root_with_lateral(points=[[6.7, -5], [7.7, -5]])
        bad.write_text(json.dumps([root_with_lateral(), off]))
        assert main(["matrix", str(bad), "--out", str(tmp_path / "m.csv")]) == 1
        assert one_error_line(capsys.readouterr().err).startswith(
            f"error: {bad}: root #1: lateral at t=0.5 starts 6.7 from the main curve")

    def test_file_of_a_directory_is_named(self, tmp_path, capsys):
        roots = tmp_path / "roots"
        roots.mkdir()
        (roots / "a.json").write_text(json.dumps(root_with_lateral()))
        (roots / "b.json").write_text(json.dumps(root_with_lateral(points=[[6.7, -5], [7.7, -5]])))
        assert main(["matrix", str(roots), "--out", str(tmp_path / "m.csv")]) == 1
        assert one_error_line(capsys.readouterr().err).startswith(
            f"error: {roots / 'b.json'}: lateral at t=0.5 starts 6.7 from the main curve")

    @pytest.mark.parametrize("command", ["render", "distance"])
    def test_coordinates_beyond_the_bound(self, tree_files, tmp_path, capsys, recwarn, command):
        # near 1e200 the squared steps overflow: distance once printed a wrong
        # value after RuntimeWarnings, and render drew the tree
        pa, pb = tree_files
        data = json.loads(pa.read_text())
        scale = lambda pts: (np.asarray(pts) * 1e200).tolist()
        data["main"] = scale(data["main"])
        for lateral in data["laterals"]:
            lateral["points"] = scale(lateral["points"])
        big = tmp_path / "big.json"
        big.write_text(json.dumps(data))
        files = [big, pb] if command == "distance" else [big]
        assert main([command, *map(str, files), "--out", str(tmp_path / "out.json")]) == 1
        line = one_error_line(capsys.readouterr().err)
        assert "invalid or missing 'main' array: branch length inf exceeds the bound 1e+150" in line
        assert not recwarn.list

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

    def test_atlas_file_is_named(self, tmp_path, capsys):
        atlas = json.loads(FIXTURE_MODEL.read_text())["atlas"]
        del atlas["modes"]
        bad = tmp_path / "atlas.json"
        bad.write_text(json.dumps(atlas))
        assert main(["sample", str(bad), "--out", str(tmp_path / "s.json")]) == 1
        assert one_error_line(capsys.readouterr().err).startswith(
            f"error: {bad}: atlas has no 'modes' field")

    def test_model_file_is_named(self, tmp_path, capsys):
        model = json.loads(FIXTURE_MODEL.read_text())
        model["M"] = "x"
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(model))
        assert main(["regress-predict", str(bad), "--params", "1,1,1",
                     "--out", str(tmp_path / "p.json")]) == 1
        assert one_error_line(capsys.readouterr().err).startswith(
            f"error: {bad}: model M must be a regular array of numbers")

    def test_json_matrix_file_is_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"labels": "ab", "values": []}))
        assert main(["cluster", str(bad), "--out", str(tmp_path / "out.json")]) == 1
        assert one_error_line(capsys.readouterr().err).startswith(
            f"error: {bad}: distance matrix labels must be a JSON array")

    @pytest.mark.parametrize("content, message", [
        (b"a,b\n0,1\n1,x\n", "distance matrix values must be a regular array of numbers"),
        (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff"),
        (b"\n", "matrix shape must match the label count"),
    ], ids=["cell", "not-utf8", "blank-line"])
    def test_csv_matrix_file_is_named_once(self, tmp_path, capsys, content, message):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        assert main(["cluster", str(bad), "--out", str(tmp_path / "out.json")]) == 1
        line = one_error_line(capsys.readouterr().err)
        assert line.startswith(f"error: {bad}: {message}")
        assert line.count(str(bad)) == 1

    def test_dendrogram_file_is_named(self, tmp_path):
        bad = tmp_path / "dendrogram.json"
        bad.write_text(json.dumps({"merges": "x", "leaf_labels": []}))
        with pytest.raises(ValueError) as info:
            Dendrogram.load(bad)
        assert str(info.value).startswith(f"{bad}: dendrogram merges must be a JSON array")


# what a fuzzed file may hold in place of a value: on every file kind, a
# 400-digit integer, a string and null, or the value nested in a list, or no
# value at all; on root files also non-finite and huge numbers, on atlas
# and model files numbers whose squares overflow, and in an atlas mean's
# anchor coordinates just beyond their bound
NESTED, DELETED = object(), object()
ANY_FILE = [10**400, "abc", None, NESTED, DELETED]
ROOT_ONLY = [float("nan"), float("inf"), float("-inf"), 1e200, -1e200]
ATLAS_ONLY = [1e300, -1e300]
BEYOND_ANCHOR = [2 * MAX_BRANCH_LENGTH, -2 * MAX_BRANCH_LENGTH]
CLAMP_WARNING = "attachment positions clamped to [0, 1]"


def mutated(doc, draw, values):
    """A copy of the JSON value ``doc`` in which one node, found by a random
    descent, is replaced by one of ``values`` (or deleted)."""
    holder = [copy.deepcopy(doc)]
    parent, key = holder, 0
    while isinstance(parent[key], (dict, list)) and parent[key] and not draw(st.booleans()):
        parent, key = parent[key], draw(st.sampled_from(
            sorted(parent[key]) if isinstance(parent[key], dict) else range(len(parent[key]))))
    value = draw(st.sampled_from(values))
    if value is DELETED:
        del parent[key]
    else:
        parent[key] = [parent[key]] if value is NESTED else value
    return holder[0] if holder else {}


def csv_text(rows) -> str:
    """CSV of mutated rows: each value that is not a string as its JSON text."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows if isinstance(rows, list) else [rows]:
        row = row if isinstance(row, list) else [row]
        writer.writerow([v if isinstance(v, str) else json.dumps(v) for v in row])
    return buf.getvalue()


def one_of_two_outcomes(argv: list) -> int:
    """Run the command: exit 0 with an empty stderr, or exit 1 or 2 with
    exactly one error line, and no warning but the clamp; returns the exit
    code.  An exception that ``main`` lets through, which would print a
    traceback, fails the test."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main([str(a) for a in argv])
    assert all(w.category is UserWarning and str(w.message) == CLAMP_WARNING
               for w in caught), (argv, [str(w.message) for w in caught])
    if code == 0:
        assert err.getvalue() == "", argv
    else:
        assert code in (1, 2), argv
        one_error_line(err.getvalue())
    return code


@pytest.fixture(scope="module")
def fuzz_sources(tmp_path_factory):
    gen = np.random.default_rng(5)
    roots = [tree_to_dict(smooth_tree(gen, name, n)) for name, n in (("a", 2), ("b", 1))]
    model = json.loads(FIXTURE_MODEL.read_text())
    with open(FIXTURES / "distances.csv", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    matrix = DistanceMatrix.load(FIXTURES / "distances.csv").to_dict()
    matrix["failures"] = [[0, 1, "registration failed"]]
    return tmp_path_factory.mktemp("fuzz"), roots, model, rows, matrix


class TestTwoOutcomes:
    """Every command that reads a file, on mutated copies of valid files."""

    @settings(max_examples=150)
    @given(data=st.data())
    def test_mutated_files(self, fuzz_sources, data):
        d, roots, model, rows, matrix = fuzz_sources
        draw = data.draw
        kind = draw(st.sampled_from(["root", "model", "atlas", "anchor", "matrix.json",
                                     "matrix.csv"]))
        out = d / "out.json"
        if kind == "root":
            which = draw(st.sampled_from([0, 1]))
            docs = list(roots)
            docs[which] = mutated(roots[which], draw, ANY_FILE + ROOT_ONLY)
            a, b = d / "a.json", d / "b.json"
            for path, doc in zip((a, b), docs):
                path.write_text(json.dumps(doc))
            one_of_two_outcomes(["render", (a, b)[which], "--out", d / "out.svg"])
            one_of_two_outcomes(["distance", a, b, "--n-main", "30", "--n-lat", "10",
                                 "--out", out])
        elif kind == "model":
            path = d / "model.json"
            path.write_text(json.dumps(mutated(model, draw, ANY_FILE + ATLAS_ONLY)))
            one_of_two_outcomes(["regress-predict", path, "--params", "1.0,0.3,0.05",
                                 "--out", out])
        elif kind == "atlas":
            path = d / "atlas.json"
            path.write_text(json.dumps(mutated(model["atlas"], draw, ANY_FILE + ATLAS_ONLY)))
            one_of_two_outcomes(["sample", path, "--n", "2", "--out", out])
            one_of_two_outcomes(["modes", path, "--out", out])
        elif kind == "anchor":
            # every mutation of the mean's anchor, one just beyond the
            # coordinate bound included, is an error
            atlas = copy.deepcopy(model["atlas"])
            atlas["mean"]["anchor"] = mutated(atlas["mean"]["anchor"], draw,
                                              ANY_FILE + ATLAS_ONLY + BEYOND_ANCHOR)
            path = d / "atlas.json"
            path.write_text(json.dumps(atlas))
            assert one_of_two_outcomes(["sample", path, "--n", "2", "--out", out]) == 1
            assert one_of_two_outcomes(["modes", path, "--out", out]) == 1
        else:
            path = d / kind
            if kind == "matrix.json":
                path.write_text(json.dumps(mutated(matrix, draw, ANY_FILE)))
            else:
                path.write_text(csv_text(mutated(rows, draw, ANY_FILE)))
            one_of_two_outcomes(["cluster", path, "--k", "2", "--out", out])


class TestRender:
    def test_render_svg(self, tree_files, tmp_path):
        pa, _ = tree_files
        out = tmp_path / "tree.svg"
        assert main(["render", str(pa), "--out", str(out)]) == 0
        root = ET.fromstring(out.read_text())
        assert len(root.findall(f".//{SVG_NS}polyline")) == 3  # main + 2 laterals

    def test_json_round_trip(self, tree_files, tmp_path):
        # any suffix but .svg writes the root file, as save_root does
        pa, _ = tree_files
        out = tmp_path / "again.json"
        assert main(["render", str(pa), "--out", str(out)]) == 0
        assert out.read_bytes() == pa.read_bytes()
        assert tree_to_dict(load_root(out)) == tree_to_dict(load_root(pa))


def test_parser_defaults_are_the_library_defaults():
    def defaults(func) -> dict:
        return {k: v.default for k, v in inspect.signature(func).parameters.items()}

    def parsed(*argv: str):
        return build_parser().parse_args([*argv, "--out", "x.json"])

    karcher = defaults(statistics.karcher_mean)
    for command in ("distance", "geodesic", "matrix", "mean", "atlas", "regress-fit"):
        args = parsed(command, *(["a", "b"] if command in ("distance", "geodesic") else ["a"]))
        assert (args.lambda_m, args.lambda_s, args.lambda_p) == DEFAULT_WEIGHTS.as_tuple()
        assert (args.n_main, args.n_lat) == (DEFAULT_MAIN_SAMPLES, DEFAULT_LATERAL_SAMPLES)
        if command in ("mean", "atlas", "regress-fit"):
            assert (args.step, args.max_iter) == (karcher["step"], karcher["max_iter"])
    assert parsed("geodesic", "a", "b").steps == defaults(treeshape.geodesic)["steps"]
    assert parsed("sample", "a").n == defaults(statistics.sample_random)["n"]


def after_cli_import(expr: str) -> str:
    """What ``print(expr)`` writes in a fresh interpreter that imported treeshape.cli."""
    env = dict(os.environ)
    src = str(Path(treeshape.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"import sys, treeshape.cli; print({expr})"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_loads_no_process_pool():
    # the pool's modules load only when a pool runs
    assert after_cli_import("'multiprocessing' in sys.modules") == "False"


def test_import_loads_no_scipy():
    # scipy is a test oracle only; the command line must run without it
    assert after_cli_import("sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')") == "[]"
